"""Low-rank adapter pairs and the one LoRA kernel.

A frozen projection keeps its weight ``W`` bit-identical through training;
all learning lives in the adapter pair ``(A, B)`` whose delta
``B ((alpha/rank) A drop(x))`` starts at exactly zero because ``B`` is
zero-initialized. ``lora_forward``/``lora_backward`` are the one copy of that
maths; the scaling touches the rank-r intermediate, rank rather than d_out
values per row. ``lora_delta`` records them as one tape op (the attention
adapters), and the expert mixture calls them inside its own op. Callers label
the kernel's FLOPs: the mixture as ``source="lora"``; attention leaves them
under ``"other"``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .numerics import (Tensor, _accum, _count_matmul, _record, _tape_for, add, dropout_mask,
                       matmul)


class FrozenLinear:
    """Frozen weight W of shape [d_out, d_in]; apply() computes x @ W.T."""

    def __init__(self, w: np.ndarray | Tensor):
        self.w = w if isinstance(w, Tensor) else Tensor(w)
        self.w.requires_grad = False
        # A view sharing w's storage, so the base holds each weight once.
        self._wt = Tensor(self.w.data.T)

    @property
    def d_out(self) -> int:
        return self.w.shape[0]

    @property
    def d_in(self) -> int:
        return self.w.shape[1]

    def apply(self, x: Tensor) -> Tensor:
        return matmul(x, self._wt)


class LoraAdapter:
    """Rank-r pair: A [r, d_in], B [d_out, r], delta scaled by alpha/rank."""

    def __init__(self, a: Tensor, b: Tensor, rank: int, alpha: float, dropout_p: float = 0.0):
        d_in = a.shape[1]
        d_out = b.shape[0]
        if a.shape != (rank, d_in) or b.shape != (d_out, rank):
            raise ContractError(f"adapter shapes A{a.shape} B{b.shape} rank {rank}")
        if rank < 1 or rank > min(d_in, d_out):
            raise ContractError(
                f"rank {rank} must be in [1, min({d_in}, {d_out})]"
            )
        if alpha <= 0:
            raise ContractError(f"alpha must be positive, got {alpha}")
        if not 0.0 <= dropout_p < 1.0:
            raise ContractError(f"dropout_p {dropout_p} outside [0, 1)")
        self.a = a
        self.b = b
        self.rank = rank
        self.alpha = float(alpha)
        self.dropout_p = float(dropout_p)

    @property
    def d_in(self) -> int:
        return self.a.shape[1]

    @property
    def d_out(self) -> int:
        return self.b.shape[0]

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


def lora_forward(ad: LoraAdapter, x: np.ndarray, mask: np.ndarray | None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(u, B u) with the rank-r intermediate u = (alpha/r) A drop(x); mask is
    the dropout multiplier array, or None for no dropout."""
    _count_matmul(x.shape[0], ad.d_in, ad.rank)
    u = ((x if mask is None else x * mask) @ ad.a.data.T) * ad.scaling
    _count_matmul(x.shape[0], ad.rank, ad.d_out)
    return u, u @ ad.b.data.T


def lora_backward(ad: LoraAdapter, x: np.ndarray, mask: np.ndarray | None,
                  u: np.ndarray, g: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
    """Add the A and B gradients of B u for upstream g; return d/dx, or None
    without ``need_dx``."""
    _accum(ad.b, (u.T @ g).T)
    gu = (g @ ad.b.data) * ad.scaling
    _accum(ad.a, ((x if mask is None else x * mask).T @ gu).T)
    if not need_dx:
        return None
    dx = gu @ ad.a.data
    return dx if mask is None else dx * mask


def lora_delta(adapter: LoraAdapter, x: Tensor,
               rng: np.random.Generator | None = None) -> Tensor:
    """B ((alpha/rank) A drop(x)) as one tape op; dropout, drawn from rng when
    one is given, hits the adapter input only."""
    if x.ndim != 2 or x.shape[1] != adapter.d_in:
        raise ContractError(f"lora_delta: input {x.shape} vs d_in {adapter.d_in}")
    mask = dropout_mask(x.shape, x.dtype, adapter.dropout_p, rng)
    u, delta = lora_forward(adapter, x.data, mask)

    def bwd(g, x=x, mask=mask, u=u):  # d/dx is None, and skipped, for a frozen x
        _accum(x, lora_backward(adapter, x.data, mask, u, g, x.requires_grad))

    return _record(Tensor(delta), _tape_for(x, adapter.a, adapter.b), bwd)


def adapted_forward(base: FrozenLinear, adapter: LoraAdapter, x: Tensor,
                    rng: np.random.Generator | None = None) -> Tensor:
    """Frozen projection plus adapter delta: x @ W.T + delta(x)."""
    if base.d_in != adapter.d_in or base.d_out != adapter.d_out:
        raise ContractError(
            f"adapter ({adapter.d_out}x{adapter.d_in}) does not match "
            f"base ({base.d_out}x{base.d_in})"
        )
    return add(base.apply(x), lora_delta(adapter, x, rng))

