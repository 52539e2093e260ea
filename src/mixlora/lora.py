"""Low-rank adapter pairs and their application to frozen linear maps.

A frozen projection keeps its weight ``W`` bit-identical through training;
all learning lives in the adapter pair ``(A, B)`` whose delta
``(alpha/rank) * B A x`` starts at exactly zero because ``B`` is
zero-initialized. ``lora_delta`` applies the ``alpha/rank`` scaling to the
rank-r intermediate ``A x``, where it touches rank rather than d_out values
per row.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .numerics import Tensor, add, dropout, matmul, scale, transpose

INIT_STD = 0.02  # standard deviation of every trainable weight drawn at init


class FrozenLinear:
    """Frozen weight W of shape [d_out, d_in]; apply() computes x @ W.T."""

    def __init__(self, w: np.ndarray | Tensor):
        self.w = w if isinstance(w, Tensor) else Tensor(w)
        self.w.requires_grad = False
        # Transposed view shares storage with w, so checkpoint loads that
        # copy into w.data are seen here too.
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
            raise DimensionError(f"adapter shapes A{a.shape} B{b.shape} rank {rank}")
        if rank < 1 or rank > min(d_in, d_out):
            raise DimensionError(
                f"rank {rank} must be in [1, min({d_in}, {d_out})]"
            )
        if alpha <= 0:
            raise DimensionError(f"alpha must be positive, got {alpha}")
        if not 0.0 <= dropout_p < 1.0:
            raise DimensionError(f"dropout_p {dropout_p} outside [0, 1)")
        self.a = a
        self.b = b
        self.rank = rank
        self.alpha = float(alpha)
        self.dropout_p = float(dropout_p)

    @classmethod
    def create(
        cls,
        d_in: int,
        d_out: int,
        rank: int,
        alpha: float,
        dropout_p: float,
        rng: np.random.Generator,
        dtype=np.float64,
    ) -> "LoraAdapter":
        """A ~ N(0, INIT_STD^2), B = 0, so the initial delta is exactly zero."""
        a = Tensor(rng.normal(0.0, INIT_STD, size=(rank, d_in)).astype(dtype), requires_grad=True)
        b = Tensor(np.zeros((d_out, rank), dtype=dtype), requires_grad=True)
        return cls(a, b, rank, alpha, dropout_p)

    @property
    def d_in(self) -> int:
        return self.a.shape[1]

    @property
    def d_out(self) -> int:
        return self.b.shape[0]

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


def lora_delta(
    adapter: LoraAdapter,
    x: Tensor,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """B ((alpha/rank) * A drop(x)); dropout hits the adapter input only."""
    if x.ndim != 2 or x.shape[1] != adapter.d_in:
        raise DimensionError(f"lora_delta: input {x.shape} vs d_in {adapter.d_in}")
    h = dropout(x, adapter.dropout_p, rng, training)
    u = scale(matmul(h, transpose(adapter.a)), adapter.scaling)
    return matmul(u, transpose(adapter.b))


def adapted_forward(
    base: FrozenLinear,
    adapter: LoraAdapter,
    x: Tensor,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Frozen projection plus adapter delta: x @ W.T + delta(x)."""
    if base.d_in != adapter.d_in or base.d_out != adapter.d_out:
        raise DimensionError(
            f"adapter ({adapter.d_out}x{adapter.d_in}) does not match "
            f"base ({base.d_out}x{base.d_in})"
        )
    return add(base.apply(x), lora_delta(adapter, x, training, rng))

