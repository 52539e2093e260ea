"""Binary checkpoints: magic "MXLR", version, config JSON, tensor records.

Layout (all integers little-endian):
    magic     4 bytes  b"MXLR"
    version   u32
    cfg_len   u64, then cfg_len bytes of config JSON
    records   repeated until EOF:
        name_len u32, name bytes (utf-8)
        dtype    u8 (0 = f32, 1 = f64)
        ndim     u8
        dims     u32 * ndim
        payload  row-major little-endian floats

Saving is order-stable, so load -> save -> load round-trips byte-for-byte.
Reading bounds every length by the bytes left in the file and turns any
unreadable, truncated or malformed file into ``CheckpointError``.
"""

from __future__ import annotations

import math
import os
import struct
from io import BufferedReader

import numpy as np

from .config import RunConfig
from .errors import CheckpointError
from .model import ToyModel, build_model
from .numerics import Tensor

MAGIC = b"MXLR"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def named_model_tensors(model: ToyModel) -> list[tuple[str, Tensor]]:
    out = list(model.base.named_tensors())
    if model.adapters is not None:
        out.extend(model.adapters.named_parameters())
    return out


def save_checkpoint(path: str, config: RunConfig, model: ToyModel) -> None:
    cfg_bytes = config.to_json().encode("utf-8")
    try:
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<Q", len(cfg_bytes)))
            f.write(cfg_bytes)
            for name, tensor in named_model_tensors(model):
                arr = np.ascontiguousarray(tensor.data)
                code = _DTYPE_CODES.get(arr.dtype)
                if code is None:
                    raise CheckpointError(f"unsupported dtype {arr.dtype} for {name}")
                name_b = name.encode("utf-8")
                f.write(struct.pack("<I", len(name_b)))
                f.write(name_b)
                f.write(struct.pack("<BB", code, arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def _read_exact(f: BufferedReader, n: int, size: int, what: str) -> bytes:
    """n bytes from f, whose file holds size bytes; never reads past the end."""
    if n > size - f.tell():
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return f.read(n)


def _text(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not utf-8: {exc}") from exc


def read_records(path: str) -> tuple[RunConfig, dict[str, np.ndarray]]:
    """Parse and validate a checkpoint without building a model."""
    try:
        with open(path, "rb") as f:
            return _parse(f, os.fstat(f.fileno()).st_size)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _parse(f: BufferedReader, size: int) -> tuple[RunConfig, dict[str, np.ndarray]]:
    magic = f.read(4)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<I", _read_exact(f, 4, size, "version"))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<Q", _read_exact(f, 8, size, "config length"))
    config = RunConfig.from_json(_text(_read_exact(f, cfg_len, size, "config"), "config"))
    tensors: dict[str, np.ndarray] = {}
    while f.tell() < size:
        (name_len,) = struct.unpack("<I", _read_exact(f, 4, size, "record header"))
        name = _text(_read_exact(f, name_len, size, "tensor name"), "tensor name")
        code, ndim = struct.unpack("<BB", _read_exact(f, 2, size, f"{name} header"))
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"unknown dtype code {code} for {name}")
        dims = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, size, f"{name} dims"))
        dtype = _CODE_DTYPES[code]
        payload = _read_exact(f, math.prod(dims) * dtype.itemsize, size, f"{name} payload")
        if name in tensors:
            raise CheckpointError(f"duplicate tensor record {name!r}")
        tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(dims)
    return config, tensors


def load_checkpoint(path: str) -> tuple[RunConfig, ToyModel]:
    """Rebuild a model and restore every tensor bit-exactly; refuse NaN or inf."""
    config, tensors = read_records(path)
    model = build_model(config.model(), seed=config.seed, dtype=config.dtype, lr=config.lr)
    named = dict(named_model_tensors(model))
    missing = sorted(set(named) - set(tensors))
    extra = sorted(set(tensors) - set(named))
    if missing or extra:
        raise CheckpointError(
            f"tensor names do not match model (missing {missing[:3]}, extra {extra[:3]})"
        )
    for name, arr in tensors.items():
        target = named[name]
        if target.data.shape != arr.shape:
            raise CheckpointError(
                f"{name}: shape {arr.shape} does not match model {target.data.shape}"
            )
        if target.data.dtype != arr.dtype:
            raise CheckpointError(
                f"{name}: dtype {arr.dtype} does not match model {target.data.dtype}"
            )
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{name}: non-finite values")
        # In-place copy keeps frozen-weight transposed views coherent.
        target.data[...] = arr
    return config, model
