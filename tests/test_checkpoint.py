import dataclasses
import errno
import gc
import io
import struct
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings

from mixlora import checkpoint
from mixlora.checkpoint import load_checkpoint, named_model_tensors, read_records, save_checkpoint
from mixlora.cli import main
from mixlora.config import RunConfig, trainable_parameter_count
from mixlora.errors import CheckpointError, ConfigError
from mixlora.lora import FrozenLinear
from mixlora.model import AdapterSet, FrozenBase, ToyModel, build_model, resident_base
from mixlora.train import train
from conftest import BYTE_FLIPS, flip_bytes

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


def with_config(data: bytes, edit) -> bytes:
    """data with edit applied to its config JSON and cfg_len updated to match."""
    (cfg_len,) = struct.unpack_from("<Q", data, CFG_LEN_AT)
    cfg = edit(data[16:16 + cfg_len])
    return data[:CFG_LEN_AT] + struct.pack("<Q", len(cfg)) + cfg + data[16 + cfg_len:]


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


def test_load_onto_a_resident_base_allocates_less_than_a_base(tmp_path):
    # Embeddings dominate the base, so a load that builds one stands out.
    config = dataclasses.replace(TINY, vocab_size=4096, d_model=32, d_ff=32)
    model = build_model(config.model(), seed=config.seed, dtype=config.dtype, lr=config.lr)
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, config, model)
    tracemalloc.start()
    try:
        _, loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.base.nbytes()
    assert loaded.base is model.base


def test_load_after_the_saver_is_gone_round_trips_bit_exactly(tmp_path):
    config = dataclasses.replace(TINY, seed=5)
    model, _ = train(config)
    expected = {name: t.data.copy() for name, t in named_model_tensors(model)}
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, config, model)
    gone = weakref.ref(model.base)
    del model
    gc.collect()
    assert gone() is None
    _, loaded = load_checkpoint(path)
    restored = dict(named_model_tensors(loaded))
    assert restored.keys() == expected.keys()
    for name, data in expected.items():
        assert restored[name].dtype == data.dtype
        assert np.array_equal(restored[name].data, data), name


def _refuse(*args, **kwargs):
    raise AssertionError("load_checkpoint built an adapter set it should not")


def test_load_adopts_the_saved_buffer_without_drawing_a_set(tmp_path, monkeypatch):
    model = build_model(TINY.model(), seed=TINY.seed, dtype=TINY.dtype, lr=TINY.lr)
    model.adapters.data[:] = np.linspace(-1.0, 1.0, model.adapters.data.size)
    path = tmp_path / "ckpt"
    save_checkpoint(str(path), TINY, model)
    monkeypatch.setattr(AdapterSet, "create", _refuse)
    config, loaded = load_checkpoint(str(path))
    assert config == TINY
    assert_same_model(loaded, model)


def test_base_checksum_is_refused_before_a_set_is_built(tmp_path, monkeypatch):
    data = tiny_checkpoint(tmp_path / "full")
    path = tmp_path / "bad"
    path.write_bytes(resealed(data.replace(b'"seed": 3', b'"seed": 4', 1)))
    monkeypatch.setattr(AdapterSet, "__init__", _refuse)
    with pytest.raises(CheckpointError, match="frozen base checksum"):
        load_checkpoint(str(path))


def test_wrong_seed_exits_2_while_the_saved_seed_base_is_resident(tmp_path, capsys):
    model = build_model(TINY.model(), seed=TINY.seed, dtype=TINY.dtype, lr=TINY.lr)
    path = tmp_path / "ckpt"
    save_checkpoint(str(path), TINY, model)
    path.write_bytes(resealed(path.read_bytes().replace(b'"seed": 3', b'"seed": 4', 1)))
    assert resident_base(TINY.model(), TINY.seed, TINY.dtype) is model.base
    assert main(["eval", "--ckpt", str(path), "--task", "copy"]) == 2
    assert "frozen base checksum" in capsys.readouterr().err


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
@given(flips=BYTE_FLIPS)
def test_flipped_bytes_fail_or_load_bit_identically(fuzz_target, flips):
    root, good, model = fuzz_target
    path = root / "flipped"
    path.write_bytes(flip_bytes(good, flips))
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


def test_max_seq_len_below_the_tasks_in_a_checkpoint_exits_2(tmp_path, capsys):
    data = tiny_checkpoint(tmp_path / "full")
    path = tmp_path / "bad"
    path.write_bytes(resealed(with_config(
        data, lambda cfg: cfg.replace(b'"max_seq_len": 16', b'"max_seq_len": 4', 1))))
    assert main(["eval", "--ckpt", str(path), "--task", "copy"]) == 2
    assert "max_seq_len 4 below task seq_len 14" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.replace(b'"seed": 3', b'"seed": 4', 1), "frozen base checksum"),
    (lambda d: d.replace(b'"n_experts": 2', b'"n_experts": 3', 1), "its config implies"),
    (lambda d: d + bytes(4), "its config implies"),
    (lambda d: d[:4] + struct.pack("<I", 1) + d[8:], "unsupported checkpoint version 1"),
    # a version-2 file from before these two config fields were removed
    (lambda d: with_config(d, lambda c: c.replace(b'"dropout_p"',
                                                  b'"dropout_scope": "both", "dropout_p"', 1)),
     "checkpoint config: unknown config keys: ['dropout_scope']"),
    (lambda d: with_config(d, lambda c: c.replace(b'"seed"',
                                                  b'"router_count_topk": false, "seed"', 1)),
     "checkpoint config: unknown config keys: ['router_count_topk']"),
], ids=["seed", "n_experts", "trailing-bytes", "version-1", "dropout_scope",
        "router_count_topk"])
def test_resealed_edits_exit_2(tmp_path, capsys, edit, message):
    data = tiny_checkpoint(tmp_path / "full")
    edited = resealed(edit(data))
    assert edited != data
    path = tmp_path / "bad"
    path.write_bytes(edited)
    assert main(["eval", "--ckpt", str(path), "--task", "copy"]) == 2
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
    if record.startswith("base."):
        # A built model's base is shared and read-only: put a writable copy of
        # ffn.w1 into a cold, unregistered base instead.
        base = FrozenBase(TINY.model(), TINY.seed, TINY.dtype)
        w1 = base.layers[0].ffn.w1.w.data.copy()
        w1.flat[0] = value
        base.layers[0].ffn.w1 = FrozenLinear(w1)
        aset = AdapterSet.create(TINY.model(), "main", TINY.seed, TINY.dtype, TINY.lr)
        model = ToyModel(TINY.model(), base, aset)
    else:
        model = build_model(TINY.model(), seed=TINY.seed, dtype=TINY.dtype, lr=TINY.lr)
        dict(named_model_tensors(model))[record].data.flat[0] = value
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, TINY, model)
    assert main(["eval", "--ckpt", path, "--task", "copy"]) == 2
    err = capsys.readouterr().err
    if record.startswith("base."):  # the base is not stored, only its checksum
        assert "frozen base checksum" in err
    else:
        assert f"{record}: non-finite" in err


def test_base_crc_is_the_checksum_of_a_cold_and_a_resident_base():
    cold = FrozenBase(TINY.model(), TINY.seed, TINY.dtype)
    assert cold.crc == cold.checksum()
    model, _ = train(TINY)
    assert model.base is resident_base(TINY.model(), TINY.seed, TINY.dtype)
    assert model.base.crc == model.base.checksum()


def _no_rehash(self):
    raise AssertionError("the base was hashed again")


def test_saves_and_resident_loads_hash_the_base_once(tmp_path, monkeypatch):
    model, _ = train(TINY)
    first = tmp_path / "first"
    save_checkpoint(str(first), TINY, model)
    monkeypatch.setattr(FrozenBase, "checksum", _no_rehash)
    second = tmp_path / "second"
    save_checkpoint(str(second), TINY, model)
    assert second.read_bytes() == first.read_bytes()
    config, loaded = load_checkpoint(str(second))
    assert config == TINY
    assert loaded.base is model.base
    assert_same_model(loaded, model)


@pytest.mark.parametrize("cut", [2, 10])
def test_a_file_shorter_than_its_size_is_truncated(tmp_path, cut):
    data = tiny_checkpoint(tmp_path / "full")
    with pytest.raises(CheckpointError, match="truncated"):
        checkpoint._parse(io.BytesIO(data[:-cut]), len(data))


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_read_buffer_is_owned_aligned_and_of_the_file_dtype(tmp_path, precision):
    config = dataclasses.replace(TINY, precision=precision)
    tiny_checkpoint(tmp_path / "ckpt", config)
    _, _, buffer = read_records(str(tmp_path / "ckpt"))
    assert buffer.flags.owndata and buffer.flags.aligned and buffer.flags.writeable
    assert buffer.dtype == np.dtype(config.dtype).newbyteorder("<")
