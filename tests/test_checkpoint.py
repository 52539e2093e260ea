import dataclasses
import errno
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlora import checkpoint
from mixlora.checkpoint import load_checkpoint, named_model_tensors, read_records, save_checkpoint
from mixlora.cli import main
from mixlora.config import RunConfig, trainable_parameter_count
from mixlora.errors import CheckpointError, ConfigError
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


def resealed(data: bytes) -> bytes:
    """data with its trailing CRC recomputed, so checks behind the CRC see an edit."""
    return data[:-4] + struct.pack("<I", zlib.crc32(data[:-4]))


def assert_same_model(model, expected):
    restored = dict(named_model_tensors(model))
    for name, t in named_model_tensors(expected):
        assert restored[name].dtype == t.dtype
        assert np.array_equal(restored[name].data, t.data), name


@pytest.mark.parametrize("n_experts", [1, 2])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_round_trip_is_bit_exact(tmp_path, n_experts, precision):
    config = dataclasses.replace(TINY, n_experts=n_experts, precision=precision)
    model, _ = train(config)
    path = tmp_path / "ckpt"
    save_checkpoint(str(path), config, model)
    config2, model2 = load_checkpoint(str(path))
    assert config2 == config
    assert_same_model(model2, model)
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


def test_size_matches_the_config(tmp_path):
    data = tiny_checkpoint(tmp_path / "full")
    (cfg_len,) = struct.unpack_from("<Q", data, CFG_LEN_AT)
    assert len(data) == 16 + cfg_len + 4 + 4 * trainable_parameter_count(TINY) + 4


@pytest.fixture(scope="module")
def fuzz_target(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    model = build_model(TINY.model(), seed=TINY.seed, dtype=TINY.dtype, lr=TINY.lr)
    model.adapters.data[:] = np.linspace(-1.0, 1.0, model.adapters.data.size)
    save_checkpoint(str(root / "good"), TINY, model)
    return root, (root / "good").read_bytes(), model


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_flipped_bytes_fail_or_load_bit_identically(fuzz_target, flips):
    root, good, model = fuzz_target
    data = bytearray(good)
    for at, mask in flips:
        data[at % len(data)] ^= mask
    path = root / "flipped"
    path.write_bytes(bytes(data))
    try:
        config, loaded = load_checkpoint(str(path))
    except CheckpointError:
        return
    assert config == TINY
    assert_same_model(loaded, model)


def test_config_error_inside_a_checkpoint_is_a_checkpoint_error(tmp_path):
    data = tiny_checkpoint(tmp_path / "full")
    path = tmp_path / "bad"
    path.write_bytes(resealed(data.replace(b'"top_k": 1', b'"top_k": 9', 1)))
    with pytest.raises(CheckpointError, match="top_k") as info:
        read_records(str(path))
    assert isinstance(info.value.__cause__, ConfigError)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.replace(b'"seed": 3', b'"seed": 4', 1), "frozen base checksum"),
    (lambda d: d.replace(b'"n_experts": 2', b'"n_experts": 3', 1), "its config implies"),
    (lambda d: d + bytes(4), "its config implies"),
    (lambda d: d[:4] + struct.pack("<I", 1) + d[8:], "unsupported checkpoint version 1"),
], ids=["seed", "n_experts", "trailing-bytes", "version-1"])
def test_resealed_edits_exit_2(tmp_path, capsys, edit, message):
    data = tiny_checkpoint(tmp_path / "full")
    edited = resealed(edit(data))
    assert edited != data
    path = tmp_path / "bad"
    path.write_bytes(edited)
    for command in ("eval", "inspect-routing"):
        assert main([command, "--ckpt", str(path), "--task", "copy"]) == 2
        assert message in capsys.readouterr().err


class _FullDisk:
    """A file whose writes fail after one byte, as on a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, b):
        self.f.write(bytes(b[:1]))
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


@pytest.mark.parametrize("fail", ["write", "replace"])
def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch, fail):
    path = tmp_path / "ckpt"
    old = tiny_checkpoint(path)
    config = dataclasses.replace(TINY, seed=4)
    model = build_model(config.model(), seed=config.seed, dtype=config.dtype, lr=config.lr)
    if fail == "write":
        monkeypatch.setattr(checkpoint, "open",
                            lambda p, mode: _FullDisk(open(p, mode)), raising=False)
    else:
        monkeypatch.setattr(checkpoint.os, "replace", _fail_replace)
    with pytest.raises(CheckpointError, match="cannot write"):
        save_checkpoint(str(path), config, model)
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]


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
        err = capsys.readouterr().err
        if record.startswith("base."):  # the base is not stored, only its checksum
            assert "frozen base checksum" in err
        else:
            assert f"{record}: non-finite" in err
