"""Shared test helpers: finite-difference oracle, error metrics, the LoRA
delta and silu as generic tape ops for the chain oracles, and the checkpoint
byte-flip strategy."""

import numpy as np
import pytest
from hypothesis import strategies as st

from mixlora.numerics import (Tensor, _accum, _record, _sigmoid, _tape_for, dropout_mask,
                              matmul, mul, transpose)


def fd_grad(f, tensor: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every tensor element.

    Independent of the tape: f is re-evaluated with perturbed data.
    """
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray,
                floor: float = 1e-6) -> float:
    """Elementwise |a - n| / max(|a|, |n|, floor), maximized."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


def chain_lora_delta(adapter, x: Tensor, rng=None) -> Tensor:
    """B ((alpha/rank) A drop(x)) as the chain of 2-D tape ops that
    ``lora_delta`` replaced: dropout mul, transpose, matmul, scale (a mul by a
    constant tensor, the same per-element products), transpose, matmul."""
    mask = dropout_mask(x.shape, x.dtype, adapter.dropout_p, rng)
    h = x if mask is None else mul(x, Tensor(mask))
    u = matmul(h, transpose(adapter.a))
    u = mul(u, Tensor(np.full(u.shape, adapter.scaling, dtype=u.dtype)))
    return matmul(u, transpose(adapter.b))


def silu(a: Tensor) -> Tensor:
    """silu(x) = x * sigmoid(x) as one recording op: the activation the
    expert kernel applies inside its own op, for the chain oracles."""
    s = _sigmoid(a.data)

    def bwd(g, a=a, s=s):
        _accum(a, g * (s * (1.0 + a.data * (1.0 - s))))

    return _record(Tensor(a.data * s), _tape_for(a), bwd)


def assert_flat_views(aset) -> None:
    """Every trainable tensor's data and grad view the set's flat buffers at
    its offset in named_parameters() order, and together they cover them."""
    def address(arr):
        return arr.__array_interface__["data"][0]

    off = 0
    for name, t in aset.named_parameters():
        for arr, buf in ((t.data, aset.data), (t.grad, aset.grad)):
            assert arr.base is buf and arr.flags.c_contiguous, name
            assert address(arr) == address(buf) + off * buf.itemsize, name
        off += t.data.size
    assert off == aset.data.size == aset.grad.size


# One to three (offset, xor mask) pairs; the offset wraps at the file length.
BYTE_FLIPS = st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)),
                      min_size=1, max_size=3)


def flip_bytes(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for at, mask in flips:
        out[at % len(out)] ^= mask
    return bytes(out)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
