import dataclasses
import struct

import numpy as np
import pytest

from mixlora.checkpoint import load_checkpoint, named_model_tensors, read_records, save_checkpoint
from mixlora.cli import main
from mixlora.config import RunConfig
from mixlora.errors import CheckpointError
from mixlora.model import build_model
from mixlora.train import train

TINY = RunConfig(
    vocab_size=16, d_model=4, n_heads=1, d_ff=4, n_layers=1, n_experts=2, top_k=1,
    lora_rank=1, lora_alpha=2.0, max_seq_len=16, steps=2, batch_size=2, seed=3,
    precision="f32",
)
CFG_LEN_AT = 8  # magic (4) + version (4)


def tiny_checkpoint(path, config=TINY):
    model = build_model(config.model(), seed=config.seed, dtype=config.dtype, lr=config.lr)
    save_checkpoint(str(path), config, model)
    return path.read_bytes()


@pytest.mark.parametrize("n_experts", [1, 2])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_round_trip_is_bit_exact(tmp_path, n_experts, precision):
    config = dataclasses.replace(TINY, n_experts=n_experts, precision=precision)
    model, _ = train(config)
    path = tmp_path / "ckpt"
    save_checkpoint(str(path), config, model)
    config2, model2 = load_checkpoint(str(path))
    assert config2 == config
    restored = dict(named_model_tensors(model2))
    for name, t in named_model_tensors(model):
        assert restored[name].dtype == t.dtype
        assert np.array_equal(restored[name].data, t.data), name
    again = tmp_path / "again"
    save_checkpoint(str(again), config2, model2)
    assert again.read_bytes() == path.read_bytes()


def test_truncation_at_every_offset_is_a_checkpoint_error(tmp_path):
    data = tiny_checkpoint(tmp_path / "full")
    path = tmp_path / "cut"
    for offset in range(len(data)):
        path.write_bytes(data[:offset])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


@pytest.mark.parametrize("cfg_len", [2**62, 2**64 - 1])
def test_absurd_config_length_is_a_checkpoint_error(tmp_path, cfg_len):
    data = bytearray(tiny_checkpoint(tmp_path / "full"))
    data[CFG_LEN_AT:CFG_LEN_AT + 8] = struct.pack("<Q", cfg_len)
    path = tmp_path / "bad"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="truncated"):
        read_records(str(path))


def test_absurd_dims_are_a_checkpoint_error(tmp_path):
    data = tiny_checkpoint(tmp_path / "full")
    name = b"extra"
    record = struct.pack("<I", len(name)) + name + struct.pack("<BB3I", 1, 3, *[2**32 - 1] * 3)
    path = tmp_path / "bad"
    path.write_bytes(data + record)
    with pytest.raises(CheckpointError, match="extra payload"):
        read_records(str(path))


def test_non_utf8_config_is_a_checkpoint_error(tmp_path):
    data = bytearray(tiny_checkpoint(tmp_path / "full"))
    data[CFG_LEN_AT + 8] = 0xFF
    path = tmp_path / "bad"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="utf-8"):
        read_records(str(path))


def test_unreadable_paths_are_checkpoint_errors(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_records(str(tmp_path / "missing"))
    with pytest.raises(CheckpointError, match="cannot read"):
        read_records(str(tmp_path))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("record", ["set.layer0.router", "set.layer0.expert1.w2.B",
                                    "base.layer0.ffn.w1"])
def test_non_finite_records_exit_2(tmp_path, capsys, record, value):
    model = build_model(TINY.model(), seed=TINY.seed, dtype=TINY.dtype, lr=TINY.lr)
    dict(named_model_tensors(model))[record].data.flat[0] = value
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, TINY, model)
    for command in ("eval", "inspect-routing"):
        assert main([command, "--ckpt", path, "--task", "copy"]) == 2
        assert f"{record}: non-finite" in capsys.readouterr().err
