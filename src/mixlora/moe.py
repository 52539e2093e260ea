"""Sparse mixture of LoRA experts over one shared frozen SwiGLU FFN.

Every expert is the same frozen (W1, W3, W2) block plus an expert-specific
LoRA triple; a linear-softmax router picks the top-k experts per token and
renormalizes their gates. ``MixLoraBlock.forward`` is ``route`` plus one
tape op with a hand-written backward, in one of two modes:

* "vanilla": each expert runs the full FFN on its routed tokens, so the base
  projections cost 3*k GEMM-token units.
* "optimized": the base W1/W3 products are computed once for all tokens and
  gathered per expert, for (2+k) units.

Dispatch is by index, with no padded copies: one stable argsort of the
flattened [T, k] expert choices groups the (token, expert) pairs into
per-expert segments of sorted rows, each in ascending token order, bounded
by a bincount. A segment adds its LoRA deltas ``B ((alpha/r) A drop(x))`` to
its base rows to form the pre-activations h1 and h3. silu(h1) * h3 of all
segments passes through the frozen W2 in one GEMM; each row plus its W2 LoRA
delta is scaled by its gate, and output row t sums its k rows. Each delta,
forward and backward, is the one LoRA kernel ``lora.lora_forward`` /
``lora.lora_backward``; the block labels its FLOPs ``source="lora"`` per
projection.

Backward keeps, per sorted row, h1 and h3, the three rank-r intermediates
``(alpha/r) A drop(x)``, the dropout masks, the ungated expert output (the
gate gradient needs it; keeping it saves a second W2 GEMM), the gate and the
permutation. It recomputes the gathered inputs, the sigmoid and the SwiGLU
product; nothing is kept when no input requires grad. Input-gradient rows
are summed from the last expert to the first, then the shared W3 and W1
terms, as the equivalent chain of 2-D tape ops sums them, so the two agree
bit for bit.

Dropout masks are drawn from ``rng`` experts ascending, and within an expert
for the w1 adapter input, then w3, then w2, each over the expert's rows in
ascending token order. Experts that receive no token draw nothing.

The plain LoRA baseline is this block with ``n_experts=1, top_k=1``: softmax
over one logit is exactly 1.0, so output and adapter gradients equal the
dense LoRA FFN's bit for bit, the router's gradient is exactly 0 (its
``d_model`` weights per layer never move), and the balance loss is the
constant ``aux_coef`` (up to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .lora import FrozenLinear, LoraAdapter, lora_backward, lora_forward
from .lora import lora_delta  # noqa: F401  (perfbench's tracer wraps moe.lora_delta by name)
from .numerics import (
    Tensor,
    _accum,
    _record,
    _sigmoid,
    _tape_for,
    dropout_mask,
    flop_labels,
    matmul,
    mul,
    softmax_lastdim,
    sum_all,
    sum_axis0,
    topk_gates,
    transpose,
)

MODES = ("vanilla", "optimized")  # forward paths; "optimized" shares the base W1/W3
BASE, LORA, ROUTER = "base", "lora", "router"  # FLOP sources of an expert block


class Router:
    """Trainable linear scorer over experts with top-k selection."""

    def __init__(self, wr: Tensor, top_k: int):
        if wr.ndim != 2:
            raise ContractError(f"router weight must be 2-D, got {wr.shape}")
        if not 1 <= top_k <= wr.shape[0]:
            raise ContractError(f"top_k={top_k} outside [1, {wr.shape[0]}]")
        self.wr = wr
        self.top_k = top_k

    @property
    def n_experts(self) -> int:
        return self.wr.shape[0]


class SharedFfn:
    """Frozen SwiGLU block: W2 (silu(W1 x) * W3 x). Shared by all experts."""

    def __init__(self, w1: FrozenLinear, w3: FrozenLinear, w2: FrozenLinear):
        if not (w1.d_in == w3.d_in == w2.d_out and w1.d_out == w3.d_out == w2.d_in):
            raise ContractError(
                f"inconsistent FFN shapes: W1 {w1.w.shape}, W3 {w3.w.shape}, W2 {w2.w.shape}"
            )
        self.w1 = w1
        self.w3 = w3
        self.w2 = w2


@dataclass
class ExpertTriple:
    """One expert's adapters for the three FFN projections."""

    w1: LoraAdapter
    w3: LoraAdapter
    w2: LoraAdapter


@dataclass
class RoutingStats:
    """Dispatch bookkeeping for one routed batch of tokens.

    dispatch_counts follows the argmax indicator, one count per token, so they
    sum to ``token_count``; prob_sums are the full softmax's column sums, kept
    graph-connected so the balance loss can differentiate through them.
    topk_indices[t] lists the selected experts of token t (best first).
    """

    dispatch_counts: np.ndarray
    prob_sums: Tensor
    topk_indices: np.ndarray | None = None

    @property
    def token_count(self) -> int:
        # A Python int: dividing by an np.int64 would promote f32 to f64.
        return int(self.dispatch_counts.sum())

    def dispatch_fractions(self) -> np.ndarray:
        return self.dispatch_counts / self.token_count

    def mean_probs(self) -> np.ndarray:
        return self.prob_sums.data / self.token_count

    @staticmethod
    def merge(parts: list["RoutingStats"]) -> "RoutingStats":
        """Detached accumulation across batches (for reports, not training)."""
        if not parts:
            raise ContractError("merge: empty stats list")
        counts = np.sum([p.dispatch_counts for p in parts], axis=0)
        sums = np.sum([p.prob_sums.data for p in parts], axis=0)
        return RoutingStats(dispatch_counts=counts, prob_sums=Tensor(sums))


def route(router: Router, h: Tensor) -> tuple[Tensor, Tensor, RoutingStats]:
    """Score tokens, keep the top-k gates renormalized to sum 1, collect stats.

    The dispatch counts tally each token's first selected expert once: its
    argmax under ``topk_gates``' tie rule, and the F of the balance loss.
    """
    if h.ndim != 2 or h.shape[1] != router.wr.shape[1]:
        raise ContractError(f"route: input {h.shape} vs router {router.wr.shape}")
    with flop_labels(projection="router", source=ROUTER):
        logits = matmul(h, transpose(router.wr))
    probs = softmax_lastdim(logits)
    gates, sel = topk_gates(probs, router.top_k)
    stats = RoutingStats(
        dispatch_counts=np.bincount(sel[:, 0], minlength=router.n_experts),
        prob_sums=sum_axis0(probs),
        topk_indices=sel,
    )
    return gates, probs, stats


def aux_loss(stats: RoutingStats, coef: float) -> Tensor:
    """Balance penalty coef * N * sum_i F_i P_i, N the length of the counts.

    F is the (constant) argmax dispatch fraction; gradients flow through the
    mean probabilities only. Minimized, at value coef, when both are uniform.
    """
    t = stats.token_count
    if t <= 0:
        raise ContractError("aux_loss: stats cover zero tokens")
    dtype = stats.prob_sums.dtype
    f = stats.dispatch_counts.astype(dtype) / t
    weights = Tensor(((coef * stats.dispatch_counts.size) / t) * f)
    return sum_all(mul(stats.prob_sums, weights))


def _base(frozen: FrozenLinear, x: np.ndarray, proj: str) -> np.ndarray:
    with flop_labels(projection=proj, source=BASE):
        return frozen.apply(Tensor(x)).data


class MixLoraBlock:
    """Router + shared frozen FFN + per-expert LoRA triples."""

    def __init__(
        self,
        router: Router,
        ffn: SharedFfn,
        experts: list[ExpertTriple],
        layer_index: int = 0,
    ):
        if len(experts) != router.n_experts:
            raise ContractError(
                f"{len(experts)} expert triples vs router for {router.n_experts}"
            )
        self.router = router
        self.ffn = ffn
        self.experts = experts
        self.layer_index = layer_index

    def forward(self, h: Tensor, mode: str, rng: np.random.Generator | None = None
                ) -> tuple[Tensor, RoutingStats]:
        """Routed expert mixture over the rows of h: ``route``, then one tape
        op (see the module docstring); mode "optimized" shares the base W1/W3.
        Dropout is drawn from rng when one is given."""
        if mode not in MODES:
            raise ContractError(f"unknown forward mode {mode!r}")
        shared_base = mode == "optimized"
        ffn, triples = self.ffn, self.experts
        with flop_labels(layer=self.layer_index):
            gates, _, stats = route(self.router, h)
            sel = stats.topk_indices
            n_tok, top_k = sel.shape
            flat = sel.ravel()
            order = np.argsort(flat, kind="stable")
            tok, col = order // top_k, flat[order]  # token and expert of each sorted row
            counts = np.bincount(flat, minlength=len(triples))
            bounds = np.concatenate(([0], np.cumsum(counts)))
            segs = [(e, bounds[e], bounds[e + 1]) for e in range(len(triples))
                    if bounds[e] < bounds[e + 1]]
            params = [t for tri in triples for ad in (tri.w1, tri.w3, tri.w2)
                      for t in (ad.a, ad.b)]
            tape = _tape_for(h, gates, *params)
            x, dff = h.data, ffn.w1.d_out
            if shared_base:
                h1_all, h3_all = _base(ffn.w1, x, "w1"), _base(ffn.w3, x, "w3")
            saved, mids, d2s = [], [], []
            for e, a, b in segs:
                tri, rows = triples[e], tok[a:b]
                xe = x[rows]
                m1, m3, m2 = (dropout_mask(shape, x.dtype, ad.dropout_p, rng)
                              for ad, shape in ((tri.w1, xe.shape), (tri.w3, xe.shape),
                                                (tri.w2, (b - a, dff))))
                with flop_labels(projection="w1", source=LORA):
                    u1, delta1 = lora_forward(tri.w1, xe, m1)
                with flop_labels(projection="w3", source=LORA):
                    u3, delta3 = lora_forward(tri.w3, xe, m3)
                if shared_base:
                    h1, h3 = h1_all[rows], h3_all[rows]
                else:
                    h1, h3 = _base(ffn.w1, xe, "w1"), _base(ffn.w3, xe, "w3")
                h1 += delta1
                h3 += delta3
                mids.append((h1 * _sigmoid(h1)) * h3)
                with flop_labels(projection="w2", source=LORA):
                    u2, d2 = lora_forward(tri.w2, mids[-1], m2)
                d2s.append(d2)
                if tape is not None:
                    saved.append((e, a, b, (m1, m3, m2), h1, h3, u1, u3, u2))
            # W2 is the same frozen matrix for every expert: one GEMM over all
            # sorted rows replaces one per expert.
            y = _base(ffn.w2, np.concatenate(mids), "w2")
            y += np.concatenate(d2s)
            gate = gates.data[tok, col]
            ys = y * gate[:, None]
            # Sorted position of each (token, slot) pair: row t of the output sums
            # the k rows of ys at inv[t].
            inv = np.argsort(order).reshape(n_tok, top_k)
            out = Tensor(ys[inv].sum(axis=1))

        def bwd(g):  # keeps tok, col, saved, y and gate
            gy = g[tok]
            dgate = np.zeros_like(gates.data)
            dgate[tok, col] = (gy * y).sum(axis=1)
            _accum(gates, dgate)
            gy *= gate[:, None]
            dmid = gy @ ffn.w2.w.data
            dh, dh1_all, dh3_all = (np.zeros((n_tok, n), x.dtype)
                                    for n in (x.shape[1], dff, dff))
            for e, a, b, (m1, m3, m2), h1, h3, u1, u3, u2 in reversed(saved):
                tri, rows = triples[e], tok[a:b]
                s = _sigmoid(h1)
                act = h1 * s
                dm = dmid[a:b] + lora_backward(tri.w2, act * h3, m2, u2, gy[a:b])
                dh3 = dm * act
                dh1 = (dm * h3) * (s * (1.0 + h1 * (1.0 - s)))
                xe = x[rows]
                dx3 = lora_backward(tri.w3, xe, m3, u3, dh3)
                dx1 = lora_backward(tri.w1, xe, m1, u1, dh1)
                if shared_base:
                    dx = dx3 + dx1
                    dh3_all[rows] += dh3
                    dh1_all[rows] += dh1
                else:  # summed as the chain does: w3 LoRA, w3 base, w1 LoRA, w1 base
                    dx = dx3 + dh3 @ ffn.w3.w.data
                    dx += dx1
                    dx += dh1 @ ffn.w1.w.data
                dh[rows] += dx
            if shared_base:
                dh += dh3_all @ ffn.w3.w.data
                dh += dh1_all @ ffn.w1.w.data
            _accum(h, dh)

        return _record(out, tape, bwd), stats


def expert_load_std(stats: RoutingStats) -> float:
    """Population standard deviation of the dispatch fractions."""
    return float(stats.dispatch_fractions().std())


def expert_load_report(task: str, layer_stats: list[RoutingStats]) -> list[dict]:
    """Flat records {task, layer, expert_id, F, P, std}, one row per (layer, expert)."""
    rows = []
    for layer, st in enumerate(layer_stats):
        f, p, std = st.dispatch_fractions(), st.mean_probs(), expert_load_std(st)
        rows += [{"task": task, "layer": layer, "expert_id": i, "F": float(f[i]),
                  "P": float(p[i]), "std": std} for i in range(f.shape[0])]
    return rows
