"""Dense tensors with tape-based reverse-mode automatic differentiation.

Matrices are row-major 2-D numpy arrays; float64 is the verification
precision and float32 the benchmark precision. Ops record onto the
innermost active ``Tape`` only when some input has ``requires_grad``, so
forward-only evaluation (no tape) carries no recording overhead.

Broadcasting is deliberately narrow: elementwise ops take operands of
exactly the same shape, and anything else is a ``ContractError``. No tensor
has more than two dimensions: ``causal_attention`` alone reshapes to four,
``[sequences, heads, T, d_head]``, and only inside itself.

Every op, here and in the hand-written kernels of ``lora.py`` and ``moe.py``,
records through ``_record(out, _tape_for(inputs...), backward_fn)``: the one
place that marks an output as needing grad and appends it to the tape. Those
kernels also use ``_accum``, ``dropout_mask`` and ``_count_matmul``; the FLOPs
they count carry whatever labels their caller set with ``flop_labels``.

The training loss is one op, ``target_cross_entropy``: the target-row gather,
the head GEMM and the softmax/NLL, with the chain's bits. It and
``cross_entropy`` (which runs on a copy of its logits) share two in-place
helpers: ``_softmax_nll_`` turns the logits into their softmax, and the
backward's ``_nll_grad_`` consumes that saved softmax, writing the logit
gradient over it. ``take_rows`` and the fused op share ``_scatter_rows``.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ContractError

# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
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
    construction), so ``backward`` is a single reverse sweep. A tape serves
    one forward/backward pair: ``backward`` refuses to sweep it twice, since
    some nodes consume what they saved. Make a fresh one per step.
    """

    def __init__(self):
        self.nodes: list[tuple[Tensor, object]] = []  # (output, backward fn)
        self.swept = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self


_TAPE_STACK: list[Tape] = []


def _tape_for(*tensors: Tensor) -> Tape | None:
    """The active tape, if any input requires grad; else None (no recording)."""
    if not _TAPE_STACK:
        return None
    if any(t.requires_grad for t in tensors):
        return _TAPE_STACK[-1]
    return None


def _record(out: Tensor, tape: Tape | None, backward_fn) -> Tensor:
    """``out``; with a tape (from ``_tape_for``), first mark it as needing grad
    and append ``(out, backward_fn)`` to the tape. The one way an op records."""
    if tape is not None:
        out.requires_grad = True
        tape.nodes.append((out, backward_fn))
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep: add d(loss)/d(t) into ``grad`` of every requires_grad t.

    A leaf ``loss`` does not reach keeps its ``grad``: zeros for an adapter
    set's views, None for a standalone tensor. Forward data is never touched.
    A second sweep of one tape is a ``ContractError``: it would add every
    gradient again, from saved arrays the first sweep overwrote.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.swept:
        raise ContractError("backward: this tape was already swept; record a fresh one")
    tape.swept = True
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
        for out, fn in reversed(tape.nodes):
            if out.grad is not None:
                fn(out.grad)


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
        raise ContractError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    _count_matmul(m, k, n)

    def bwd(g, a=a, b=b):  # a frozen weight's product is never formed
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _record(Tensor(a.data @ b.data), _tape_for(a, b), bwd)


def _same_shape(a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ContractError(f"elementwise: incompatible shapes {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of the same shape."""
    _same_shape(a, b)

    def bwd(g, a=a, b=b):
        _accum(a, g)
        _accum(b, g)

    return _record(Tensor(a.data + b.data), _tape_for(a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of the same shape."""
    _same_shape(a, b)

    def bwd(g, a=a, b=b):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _record(Tensor(a.data * b.data), _tape_for(a, b), bwd)


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


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:  # y = softmax(x), g = dL/dy
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax_lastdim(a: Tensor) -> Tensor:
    """Row-stable softmax over the last dimension."""
    y = _softmax(a.data)

    def bwd(g, a=a, y=y):
        _accum(a, _softmax_grad(y, g))

    return _record(Tensor(y), _tape_for(a), bwd)


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization of a 2-D input to zero mean / unit variance.

    No affine: over a frozen base it would be the identity (gain 1, bias 0)."""
    if x.ndim != 2 or x.shape[1] < 2:
        raise ContractError(f"layer_norm: need 2-D rows of >= 2, got shape {x.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def bwd(g, x=x, xhat=xhat, inv=inv):
        dx = inv * (
            g
            - g.mean(axis=-1, keepdims=True)
            - xhat * (g * xhat).mean(axis=-1, keepdims=True)
        )
        _accum(x, dx)

    return _record(Tensor(xhat), _tape_for(x), bwd)


def sum_all(a: Tensor) -> Tensor:
    """Full reduction to a 0-d scalar."""

    def bwd(g, a=a):
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return _record(Tensor(a.data.sum()), _tape_for(a), bwd)


def sum_axis0(a: Tensor) -> Tensor:
    """Column sums of a 2-D tensor -> 1-D."""
    if a.ndim != 2:
        raise ContractError(f"sum_axis0: need 2-D, got {a.shape}")

    def bwd(g, a=a):
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return _record(Tensor(a.data.sum(axis=0)), _tape_for(a), bwd)


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows a[idx]; repeated indices allowed (backward scatter-adds)."""
    if a.ndim != 2:
        raise ContractError(f"take_rows: need 2-D, got {a.shape}")
    idx = np.asarray(idx, dtype=np.intp)

    def bwd(g, a=a, idx=idx):
        _scatter_rows(a, idx, g)

    return _record(Tensor(a.data[idx]), _tape_for(a), bwd)


def _scatter_rows(a: Tensor, idx: np.ndarray, g: np.ndarray) -> None:
    """Add row i of g into row idx[i] of a's grad; repeated indices accumulate."""
    if a.grad is None:
        a.grad = np.zeros_like(a.data)
    if np.unique(idx).size == idx.size:
        a.grad[idx] += g  # no repeats, so the buffered add loses nothing
    else:
        np.add.at(a.grad, idx, g)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ContractError(f"transpose: need 2-D, got {a.shape}")

    def bwd(g, a=a):
        _accum(a, g.T)

    return _record(Tensor(a.data.T), _tape_for(a), bwd)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_seqs: int,
                     n_heads: int) -> Tensor:
    """Multi-head causal self-attention core, softmax(q k^T / sqrt(d_head)) v.

    q, k, v and the output are [n_seqs * T, d]: n_seqs sequences of T rows,
    heads side by side in the columns; row t attends to rows 0..t of its own
    sequence. Each product, forward and backward, is the one the 2-D chain
    matmul, times 1/sqrt(d_head), add and softmax_lastdim computes per
    (sequence, head), so the results equal that chain's bit for bit.
    """
    if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ContractError(f"causal_attention: shapes {q.shape}/{k.shape}/{v.shape}")
    rows, d = q.shape
    if n_seqs < 1 or rows % n_seqs or n_heads < 1 or d % n_heads:
        raise ContractError(f"causal_attention: {q.shape} does not split into "
                            f"{n_seqs} sequences of {n_heads} heads")
    t, d_head = rows // n_seqs, d // n_heads
    inv_sqrt = 1.0 / math.sqrt(d_head)

    def split(x):  # [rows, d] -> [n_seqs, n_heads, t, d_head] view
        return x.reshape(n_seqs, t, n_heads, d_head).transpose(0, 2, 1, 3)

    def merge(x):  # inverse of split, into a new [rows, d] array
        return x.transpose(0, 2, 1, 3).reshape(rows, d)

    def swap(x):  # transpose of every head
        return x.swapaxes(-1, -2)

    qs, ks, vs = split(q.data), split(k.data), split(v.data)
    _count_matmul(n_seqs * n_heads * t, d_head, t)
    _count_matmul(n_seqs * n_heads * t, t, d_head)
    mask = np.triu(np.full((t, t), -np.inf, dtype=q.dtype), k=1)
    p = _softmax((qs @ swap(ks)) * inv_sqrt + mask)

    def bwd(g, q=q, k=k, v=v, p=p):
        gs = split(g)
        ds = _softmax_grad(p, gs @ swap(vs)) * inv_sqrt
        _accum(q, merge(ds @ ks))
        _accum(k, merge(swap(swap(qs) @ ds)))
        _accum(v, merge(swap(p) @ gs))

    return _record(Tensor(merge(p @ vs)), _tape_for(q, k, v), bwd)


def topk_gates(probs: Tensor, k: int) -> tuple[Tensor, np.ndarray]:
    """Keep the k largest probs per row, renormalized to sum 1; zeros elsewhere.

    Returns (gates, selected_indices); ties go to the lowest index. The index
    choice is treated as constant: gradients flow only through the selected
    probabilities.
    """
    if probs.ndim != 2:
        raise ContractError(f"topk_gates: need 2-D, got {probs.shape}")
    n = probs.shape[1]
    if not 1 <= k <= n:
        raise ContractError(f"topk_gates: k={k} outside [1, {n}]")
    sel = np.argsort(-probs.data, axis=1, kind="stable")[:, :k]
    selp = np.take_along_axis(probs.data, sel, axis=1)
    denom = selp.sum(axis=1, keepdims=True)
    gsel = selp / denom
    data = np.zeros_like(probs.data)
    np.put_along_axis(data, sel, gsel, axis=1)

    def bwd(g, probs=probs, sel=sel, selp=selp, denom=denom):
        gg = np.take_along_axis(g, sel, axis=1)
        dot = (gg * selp).sum(axis=1, keepdims=True)
        dsel = (gg * denom - dot) / (denom * denom)
        dp = np.zeros_like(probs.data)
        np.put_along_axis(dp, sel, dsel, axis=1)
        _accum(probs, dp)

    return _record(Tensor(data), _tape_for(probs), bwd), sel


def _checked_labels(op: str, labels, m_rows: int, vocab: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (m_rows,):
        raise ContractError(f"{op}: labels {labels.shape} do not match {m_rows} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= vocab):
        raise ContractError(f"{op}: label out of vocabulary range")
    return labels


def _softmax_nll_(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row negative log-likelihood of labels under softmax(x); x itself
    becomes softmax(x), so the only new arrays are per row."""
    picked = x[np.arange(x.shape[0]), labels]
    mx = x.max(axis=1, keepdims=True)
    np.subtract(x, mx, out=x)
    np.exp(x, out=x)
    z = x.sum(axis=1, keepdims=True)
    np.divide(x, z, out=x)
    return (np.log(z[:, 0]) + mx[:, 0]) - picked


def _nll_grad_(p: np.ndarray, labels: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The logits' gradient of g times the mean NLL, written over the saved
    softmax p (which is consumed): (g/m) * (p - onehot(labels))."""
    p[np.arange(p.shape[0]), labels] -= 1.0
    np.multiply(g / labels.size, p, out=p)
    return p


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    if logits.ndim != 2:
        raise ContractError(f"cross_entropy: need 2-D logits, got {logits.shape}")
    labels = _checked_labels("cross_entropy", labels, *logits.shape)
    p = logits.data.copy()
    nll = _softmax_nll_(p, labels)

    def bwd(g, logits=logits, p=p, labels=labels):
        _accum(logits, _nll_grad_(p, labels, g))

    return _record(Tensor(np.asarray(nll.mean(), dtype=p.dtype)), _tape_for(logits), bwd)


def target_cross_entropy(h: Tensor, positions, w: Tensor, labels) -> Tensor:
    """``cross_entropy(matmul(take_rows(h, positions), Tensor(w.T)), labels)`` as
    one op, for a frozen head ``w`` [vocab, d]: the same array ops in the same
    order, so the same bits, but the [rows, vocab] logits are one array, the
    saved softmax, which backward overwrites with the logit gradient."""
    if h.ndim != 2 or w.ndim != 2 or w.shape[1] != h.shape[1]:
        raise ContractError(f"target_cross_entropy: hidden {h.shape} vs head {w.shape}")
    if w.requires_grad:
        raise ContractError("target_cross_entropy: the head must be frozen")
    idx = np.asarray(positions, dtype=np.intp)
    if idx.ndim != 1:
        raise ContractError(f"target_cross_entropy: need 1-D positions, got {idx.shape}")
    labels = _checked_labels("target_cross_entropy", labels, idx.size, w.shape[0])
    rows = h.data[idx]
    _count_matmul(idx.size, w.shape[1], w.shape[0])
    p = rows @ w.data.T
    nll = _softmax_nll_(p, labels)

    def bwd(g, h=h, idx=idx, w=w, p=p, labels=labels):
        _scatter_rows(h, idx, _nll_grad_(p, labels, g) @ w.data)

    return _record(Tensor(np.asarray(nll.mean(), dtype=p.dtype)), _tape_for(h), bwd)


def dropout_mask(shape, dtype, p: float, rng: np.random.Generator | None
                 ) -> np.ndarray | None:
    """Inverted-dropout multipliers (0 or 1/(1-p)) drawn from rng; None,
    drawing nothing, without an rng (not training) or when nothing is dropped."""
    if rng is None or p <= 0.0:
        return None
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout: p={p} outside [0, 1)")
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)
