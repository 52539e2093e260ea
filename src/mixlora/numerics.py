"""Dense tensors with tape-based reverse-mode automatic differentiation.

Matrices are row-major 2-D numpy arrays; float64 is the verification
precision and float32 the benchmark precision. Ops record onto the
innermost active ``Tape`` only when some input has ``requires_grad``, so
forward-only evaluation (no tape) carries no recording overhead.

Broadcasting is deliberately narrow: elementwise ops accept exact-shape
operands or a 1-D row vector broadcast over the rows of a 2-D operand.
Everything else is a ``DimensionError``.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ContractError, DimensionError

# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if dtype is None and arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return (
            f"Tensor(shape={tuple(self.data.shape)}, dtype={self.data.dtype}, "
            f"requires_grad={self.requires_grad})"
        )


class Tape:
    """Append-only record of differentiable ops.

    Node inputs always precede the node itself (topological order by
    construction), so ``backward`` is a single reverse sweep. A tape is
    meant for one forward/backward pair; make a fresh one per step.
    """

    def __init__(self):
        self.nodes: list[tuple[Tensor, object]] = []  # (output, backward fn)
        self._created: set[int] = set()
        self.leaves: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        for t in inputs:
            if t.requires_grad and id(t) not in self._created:
                self.leaves.setdefault(id(t), t)
        self._created.add(id(out))
        self.nodes.append((out, backward_fn))


_TAPE_STACK: list[Tape] = []


def _tape_for(*tensors: Tensor) -> Tape | None:
    """The active tape, if any input requires grad; else None (no recording)."""
    if not _TAPE_STACK:
        return None
    if any(t.requires_grad for t in tensors):
        return _TAPE_STACK[-1]
    return None


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep: fill ``grad`` on every requires_grad leaf of the tape.

    Leaves not reachable from ``loss`` get a zero gradient of matching shape.
    Forward data is never touched.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
        for out, fn in reversed(tape.nodes):
            if out.grad is not None:
                fn(out.grad)
    for leaf in tape.leaves.values():
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)


# ---------------------------------------------------------------------------
# Multiply-add instrumentation (used by the bench module)
# ---------------------------------------------------------------------------

_FLOP_HOOK = None
_FLOP_LABELS: dict = {}


def set_flop_hook(hook) -> None:
    """Install ``hook(count, labels)`` called on every matmul; None removes it.

    ``count`` is 2*m*k*n for an [m,k] x [k,n] product (multiplies + adds).
    """
    global _FLOP_HOOK
    _FLOP_HOOK = hook


@contextlib.contextmanager
def flop_labels(**labels):
    """Attach labels (layer/projection/source) to matmuls in this scope."""
    global _FLOP_LABELS
    saved = _FLOP_LABELS
    _FLOP_LABELS = {**saved, **labels}
    try:
        yield
    finally:
        _FLOP_LABELS = saved


def _count_matmul(m: int, k: int, n: int) -> None:
    if _FLOP_HOOK is not None:
        _FLOP_HOOK(2 * m * k * n, _FLOP_LABELS)


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [m,k] x [k,n] -> [m,n]."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    _count_matmul(m, k, n)
    out = Tensor(a.data @ b.data)
    tape = _tape_for(a, b)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a, b=b):
            _accum(a, g @ b.data.T)
            _accum(b, a.data.T @ g)

        tape._record(out, (a, b), bwd)
    return out


def _same_shape(a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"elementwise: incompatible shapes {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of the same shape."""
    _same_shape(a, b)
    out = Tensor(a.data + b.data)
    tape = _tape_for(a, b)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a, b=b):
            _accum(a, g)
            _accum(b, g)

        tape._record(out, (a, b), bwd)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of the same shape."""
    _same_shape(a, b)
    out = Tensor(a.data * b.data)
    tape = _tape_for(a, b)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a, b=b):
            _accum(a, g * b.data)
            _accum(b, g * a.data)

        tape._record(out, (a, b), bwd)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    out = Tensor(a.data * c)
    tape = _tape_for(a)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a, c=c):
            _accum(a, g * c)

        tape._record(out, (a,), bwd)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e) for x >= 0 and e/(1+e) for x < 0, with e = exp(-|x|) <= 1 so
    # nothing overflows. The numerator max(e, x >= 0) picks 1 or e without
    # boolean-mask indexing, which costs an order of magnitude more time.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    np.divide(num, e, out=e)
    return e


def silu(a: Tensor) -> Tensor:
    """silu(x) = x * sigmoid(x)."""
    s = _sigmoid(a.data)
    out = Tensor(a.data * s)
    tape = _tape_for(a)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a, s=s):
            _accum(a, g * (s * (1.0 + a.data * (1.0 - s))))

        tape._record(out, (a,), bwd)
    return out


def softmax_lastdim(a: Tensor) -> Tensor:
    """Row-stable softmax over the last dimension."""
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)
    tape = _tape_for(a)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a, y=y):
            _accum(a, y * (g - (g * y).sum(axis=-1, keepdims=True)))

        tape._record(out, (a,), bwd)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization of a 2-D input to zero mean / unit variance, then affine."""
    if x.ndim != 2 or x.shape[1] < 2:
        raise DimensionError(f"layer_norm: need 2-D rows of >= 2, got shape {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data)
    tape = _tape_for(x, gain, bias)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, x=x, gain=gain, bias=bias, xhat=xhat, inv=inv):
            _accum(gain, (g * xhat).sum(axis=0))
            _accum(bias, g.sum(axis=0))
            dxhat = g * gain.data
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            _accum(x, dx)

        tape._record(out, (x, gain, bias), bwd)
    return out


def sum_all(a: Tensor) -> Tensor:
    """Full reduction to a 0-d scalar."""
    out = Tensor(a.data.sum())
    tape = _tape_for(a)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a):
            _accum(a, np.broadcast_to(g, a.shape).copy())

        tape._record(out, (a,), bwd)
    return out


def sum_axis0(a: Tensor) -> Tensor:
    """Column sums of a 2-D tensor -> 1-D."""
    if a.ndim != 2:
        raise DimensionError(f"sum_axis0: need 2-D, got {a.shape}")
    out = Tensor(a.data.sum(axis=0))
    tape = _tape_for(a)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a):
            _accum(a, np.broadcast_to(g, a.shape).copy())

        tape._record(out, (a,), bwd)
    return out


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows a[idx]; repeated indices allowed (backward scatter-adds)."""
    if a.ndim != 2:
        raise DimensionError(f"take_rows: need 2-D, got {a.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(a.data[idx])
    tape = _tape_for(a)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a, idx=idx):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            if np.unique(idx).size == idx.size:
                a.grad[idx] += g  # no repeats, so the buffered add loses nothing
            else:
                np.add.at(a.grad, idx, g)

        tape._record(out, (a,), bwd)
    return out


def take_elems(a: Tensor, rows, col) -> Tensor:
    """Gather a[rows, col] -> 1-D (col may be scalar or per-row array)."""
    if a.ndim != 2:
        raise DimensionError(f"take_elems: need 2-D, got {a.shape}")
    rows = np.asarray(rows, dtype=np.intp)
    out = Tensor(a.data[rows, col])
    tape = _tape_for(a)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a, rows=rows, col=col):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, (rows, col), g)

        tape._record(out, (a,), bwd)
    return out


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    """Multiply row m of x by scalar s[m]."""
    if x.ndim != 2 or s.ndim != 1 or s.shape[0] != x.shape[0]:
        raise DimensionError(f"scale_rows: incompatible shapes {x.shape} vs {s.shape}")
    out = Tensor(x.data * s.data[:, None])
    tape = _tape_for(x, s)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, x=x, s=s):
            _accum(x, g * s.data[:, None])
            _accum(s, (g * x.data).sum(axis=1))

        tape._record(out, (x, s), bwd)
    return out


def take_cols(a: Tensor, j0: int, j1: int) -> Tensor:
    """Slice columns [j0, j1) of a 2-D tensor."""
    if a.ndim != 2 or not (0 <= j0 < j1 <= a.shape[1]):
        raise DimensionError(f"take_cols: bad slice [{j0},{j1}) for shape {a.shape}")
    out = Tensor(a.data[:, j0:j1].copy())
    tape = _tape_for(a)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a, j0=j0, j1=j1):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[:, j0:j1] += g

        tape._record(out, (a,), bwd)
    return out


def _concat(parts: list[Tensor], axis: int) -> Tensor:
    data = np.concatenate([p.data for p in parts], axis=axis)
    out = Tensor(data)
    tape = _tape_for(*parts)
    if tape is not None:
        out.requires_grad = True
        sizes = [p.shape[axis] for p in parts]

        def bwd(g, parts=parts, sizes=sizes, axis=axis):
            off = 0
            for p, sz in zip(parts, sizes):
                sl = (slice(None), slice(off, off + sz)) if axis == 1 else slice(off, off + sz)
                _accum(p, g[sl])
                off += sz

        tape._record(out, tuple(parts), bwd)
    return out


def concat_cols(parts: list[Tensor]) -> Tensor:
    return _concat(parts, axis=1)


def concat_rows(parts: list[Tensor]) -> Tensor:
    return _concat(parts, axis=0)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise DimensionError(f"transpose: need 2-D, got {a.shape}")
    out = Tensor(a.data.T)
    tape = _tape_for(a)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, a=a):
            _accum(a, g.T)

        tape._record(out, (a,), bwd)
    return out


def topk_indices(probs: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the k largest entries; ties go to the lowest index."""
    order = np.argsort(-probs, axis=1, kind="stable")
    return order[:, :k]


def topk_gates(probs: Tensor, k: int) -> tuple[Tensor, np.ndarray]:
    """Keep the k largest probs per row, renormalized to sum 1; zeros elsewhere.

    Returns (gates, selected_indices). The index choice is treated as
    constant: gradients flow only through the selected probabilities.
    """
    if probs.ndim != 2:
        raise DimensionError(f"topk_gates: need 2-D, got {probs.shape}")
    n = probs.shape[1]
    if not 1 <= k <= n:
        raise ContractError(f"topk_gates: k={k} outside [1, {n}]")
    sel = topk_indices(probs.data, k)
    selp = np.take_along_axis(probs.data, sel, axis=1)
    denom = selp.sum(axis=1, keepdims=True)
    gsel = selp / denom
    data = np.zeros_like(probs.data)
    np.put_along_axis(data, sel, gsel, axis=1)
    out = Tensor(data)
    tape = _tape_for(probs)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, probs=probs, sel=sel, selp=selp, denom=denom):
            gg = np.take_along_axis(g, sel, axis=1)
            dot = (gg * selp).sum(axis=1, keepdims=True)
            dsel = (gg * denom - dot) / (denom * denom)
            dp = np.zeros_like(probs.data)
            np.put_along_axis(dp, sel, dsel, axis=1)
            _accum(probs, dp)

        tape._record(out, (probs,), bwd)
    return out, sel


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy: need 2-D logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    m_rows = logits.shape[0]
    if labels.shape != (m_rows,):
        raise DimensionError(
            f"cross_entropy: labels {labels.shape} do not match {m_rows} rows"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ContractError("cross_entropy: label out of vocabulary range")
    x = logits.data
    mx = x.max(axis=1, keepdims=True)
    e = np.exp(x - mx)
    z = e.sum(axis=1, keepdims=True)
    p = e / z
    nll = (np.log(z[:, 0]) + mx[:, 0]) - x[np.arange(m_rows), labels]
    out = Tensor(np.asarray(nll.mean(), dtype=x.dtype))
    tape = _tape_for(logits)
    if tape is not None:
        out.requires_grad = True

        def bwd(g, logits=logits, p=p, labels=labels, m_rows=m_rows):
            d = p.copy()
            d[np.arange(m_rows), labels] -= 1.0
            _accum(logits, (g / m_rows) * d)

        tape._record(out, (logits,), bwd)
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout on x when training; identity otherwise."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout: p={p} outside [0, 1)")
    if rng is None:
        raise ContractError("dropout: rng required when training with p > 0")
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return mul(x, Tensor(mask))
