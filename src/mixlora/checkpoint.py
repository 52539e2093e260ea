"""Binary checkpoints: the config and one adapter set's flat parameter buffer.

Layout, version 2 (integers little-endian):
    b"MXLR", u32 version 2, u64 cfg_len, then cfg_len bytes of config JSON
    4 bytes   ``FrozenBase.checksum()`` of the saving model's frozen base
    payload   ``AdapterSet.data``, little-endian, in the config's precision
    u32       CRC32 of every byte before it

The base is not stored: loading regenerates it from the config's seed. The
config fixes the payload's dtype and length, so the file stores neither.
Reading checks, in order, so bad input fails before any large read or
allocation: magic and version; cfg_len against the file size, then the config;
the file size against the size that config implies; the CRC; finite values.
Only then does it build the model, refuse a base checksum mismatch and copy
the payload into the adapter buffer. Every failure is a ``CheckpointError``.
Saves are atomic (a temp file, then ``os.replace``), and load -> save
round-trips byte for byte.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from io import BufferedReader

import numpy as np

from .config import RunConfig, trainable_parameter_count
from .errors import CheckpointError, ConfigError
from .model import AdapterSet, ToyModel
from .model import build_model  # perfbench's tracer wraps checkpoint.build_model by name
from .numerics import Tensor

MAGIC = b"MXLR"
VERSION = 2


# perfbench's round-trip check compares models through checkpoint.named_model_tensors.
def named_model_tensors(model: ToyModel) -> list[tuple[str, Tensor]]:
    out = list(model.base.named_tensors())
    if model.adapters is not None:
        out.extend(model.adapters.named_parameters())
    return out


def save_checkpoint(path: str, config: RunConfig, model: ToyModel) -> None:
    cfg = config.to_json().encode("utf-8")
    head = MAGIC + struct.pack("<IQ", VERSION, len(cfg)) + cfg + model.base.checksum()
    data = model.adapters.data
    payload = data.astype(data.dtype.newbyteorder("<"), copy=False)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(head)
            f.write(payload)
            f.write(struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


# perfbench's tracer wraps checkpoint.read_records by name.
def read_records(path: str) -> tuple[RunConfig, bytes, np.ndarray]:
    """Parse and check a checkpoint without building a model.

    Returns the config, the stored base checksum and the adapter buffer."""
    try:
        with open(path, "rb") as f:
            return _parse(f, os.fstat(f.fileno()).st_size)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _parse(f: BufferedReader, size: int) -> tuple[RunConfig, bytes, np.ndarray]:
    head = f.read(16)
    if head[:4] != MAGIC:
        raise CheckpointError(f"bad magic {head[:4]!r}, expected {MAGIC!r}")
    if len(head) < 16:
        raise CheckpointError("truncated checkpoint while reading its header")
    version, cfg_len = struct.unpack("<IQ", head[4:])
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if cfg_len > size - 16:  # never read past the end, whatever cfg_len says
        raise CheckpointError("truncated checkpoint while reading its config")
    try:
        config = RunConfig.from_json(f.read(cfg_len).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"config is not utf-8: {exc}") from exc
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from exc
    dtype = np.dtype(config.dtype).newbyteorder("<")
    count = trainable_parameter_count(config)
    body_at = f.tell() + 4  # after the base checksum
    expected = body_at + count * dtype.itemsize + 4
    if size != expected:
        raise CheckpointError(f"checkpoint holds {size} bytes; its config implies {expected}")
    f.seek(0)
    data = f.read(size)
    if zlib.crc32(memoryview(data)[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise CheckpointError("checkpoint CRC mismatch: the file is corrupt")
    buffer = np.frombuffer(data, dtype, count, offset=body_at)
    if not np.isfinite(buffer).all():
        aset = AdapterSet.create(config.model(), dtype=config.dtype)
        aset.data[...] = buffer
        name = next(name for name, t in aset.named_parameters()
                    if not np.isfinite(t.data).all())
        raise CheckpointError(f"{name}: non-finite values")
    return config, data[body_at - 4:body_at], buffer


def load_checkpoint(path: str) -> tuple[RunConfig, ToyModel]:
    """Rebuild the model from the config's seed, refuse a base other than the
    saved one, and restore the adapter buffer bit-exactly."""
    config, base_checksum, buffer = read_records(path)
    model = build_model(config.model(), seed=config.seed, dtype=config.dtype, lr=config.lr)
    regenerated = model.base.checksum()
    if regenerated != base_checksum:
        raise CheckpointError(
            f"frozen base checksum {regenerated.hex()} from seed {config.seed} "
            f"does not match the saved {base_checksum.hex()}"
        )
    model.adapters.data[...] = buffer
    return config, model
