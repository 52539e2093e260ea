"""Sparse mixture of LoRA experts over one shared frozen SwiGLU FFN.

Every expert is the same frozen (W1, W3, W2) block plus an expert-specific
LoRA triple; a linear-softmax router picks the top-k experts per token and
renormalizes their gates. ``mixlora_forward`` computes the same output two
ways, selected by ``shared_base``:

* off (mode "vanilla"): each expert runs the full FFN on its routed token
  subset, so the base projections are recomputed per expert (3*k GEMM-token
  units).
* on (mode "optimized"): the base W1/W3 products are computed once for all
  tokens and gathered per expert; only the LoRA deltas and the W2 projection
  remain per-expert work ((2+k) GEMM-token units).

Dispatch is sort-based: one stable argsort of the flattened [T, k] expert
choices groups the (token, expert) pairs into contiguous per-expert segments,
each in ascending token order, with segment bounds from a bincount. The
experts' W2 inputs are concatenated in that sorted order and pass through the
frozen W2 in one GEMM (the same rows and multiply-adds as one GEMM per
expert); the rows, plus their W2 LoRA deltas, are scaled by their gates in
one op and combined by k row gathers through the inverse permutation.

Dropout masks are drawn from ``rng`` in a fixed order: experts ascending, and
within an expert the w1 adapter input, then w3, then w2, each mask covering
the expert's rows in ascending token order. Experts that receive no token
draw nothing.

The plain LoRA baseline (one adapter triple on the frozen FFN, no routing) is
this block with ``n_experts=1, top_k=1``: softmax over one logit is exactly
1.0, so the gate scales by 1.0 and the output and adapter gradients equal the
dense LoRA FFN's bit for bit. The router's gradient is exactly 0, so its
``d_model`` weights per layer never move, and the balance loss is the
constant ``aux_coef`` (up to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .lora import FrozenLinear, LoraAdapter, lora_delta
from .numerics import (
    Tensor,
    add,
    concat_rows,
    flop_labels,
    matmul,
    mul,
    scale_rows,
    silu,
    softmax_lastdim,
    sum_all,
    sum_axis0,
    take_elems,
    take_rows,
    topk_gates,
    transpose,
)

MODES = ("vanilla", "optimized")  # forward paths; "optimized" shares the base W1/W3


class Router:
    """Trainable linear scorer over experts with top-k selection."""

    def __init__(self, wr: Tensor, top_k: int):
        if wr.ndim != 2:
            raise DimensionError(f"router weight must be 2-D, got {wr.shape}")
        if not 1 <= top_k <= wr.shape[0]:
            raise ContractError(f"top_k={top_k} outside [1, {wr.shape[0]}]")
        self.wr = wr
        self.top_k = top_k

    @property
    def n_experts(self) -> int:
        return self.wr.shape[0]

    @classmethod
    def create(cls, n_experts: int, d_model: int, top_k: int,
               rng: np.random.Generator, dtype=np.float64, init_std: float = 0.02) -> "Router":
        wr = Tensor(rng.normal(0.0, init_std, size=(n_experts, d_model)).astype(dtype),
                    requires_grad=True)
        return cls(wr, top_k)


class SharedFfn:
    """Frozen SwiGLU block: W2 (silu(W1 x) * W3 x). Shared by all experts."""

    def __init__(self, w1: FrozenLinear, w3: FrozenLinear, w2: FrozenLinear):
        if not (w1.d_in == w3.d_in == w2.d_out and w1.d_out == w3.d_out == w2.d_in):
            raise DimensionError(
                f"inconsistent FFN shapes: W1 {w1.w.shape}, W3 {w3.w.shape}, W2 {w2.w.shape}"
            )
        self.w1 = w1
        self.w3 = w3
        self.w2 = w2

    @property
    def d_model(self) -> int:
        return self.w1.d_in

    @property
    def d_ff(self) -> int:
        return self.w1.d_out


@dataclass
class ExpertTriple:
    """One expert's adapters for the three FFN projections."""

    w1: LoraAdapter
    w3: LoraAdapter
    w2: LoraAdapter

    def parameters(self) -> list[Tensor]:
        return self.w1.parameters() + self.w3.parameters() + self.w2.parameters()


class ExpertAdapters:
    """All experts' LoRA triples; every triple shares rank and alpha."""

    def __init__(self, triples: list[ExpertTriple]):
        if len(triples) < 1:
            raise ContractError("need at least one expert triple")
        r0, a0 = triples[0].w1.rank, triples[0].w1.alpha
        for t in triples:
            for ad in (t.w1, t.w3, t.w2):
                if ad.rank != r0 or ad.alpha != a0:
                    raise ContractError("expert triples must share rank and alpha")
        self.triples = triples

    def __len__(self) -> int:
        return len(self.triples)

    def __getitem__(self, k: int) -> ExpertTriple:
        return self.triples[k]

    def parameters(self) -> list[Tensor]:
        out = []
        for t in self.triples:
            out.extend(t.parameters())
        return out


@dataclass
class RoutingStats:
    """Dispatch bookkeeping for one routed batch of tokens.

    dispatch_counts follows the argmax indicator (one count per token);
    prob_sums are column sums of the full softmax probabilities and stay
    graph-connected so the balance loss can differentiate through them.
    topk_indices[t] lists the selected experts of token t (best first).
    """

    token_count: int
    dispatch_counts: np.ndarray
    prob_sums: Tensor
    topk_indices: np.ndarray | None = None

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
        return RoutingStats(
            token_count=sum(p.token_count for p in parts),
            dispatch_counts=counts,
            prob_sums=Tensor(sums),
        )


def route(router: Router, h: Tensor, count_topk: bool = False
          ) -> tuple[Tensor, Tensor, RoutingStats]:
    """Score tokens, keep the top-k gates renormalized to sum 1, collect stats.

    Ties break toward the lowest expert index. With count_topk the dispatch
    counts tally every selected expert instead of the argmax only.
    """
    if h.ndim != 2 or h.shape[1] != router.wr.shape[1]:
        raise DimensionError(f"route: input {h.shape} vs router {router.wr.shape}")
    n = router.n_experts
    with flop_labels(projection="router", source="router"):
        logits = matmul(h, transpose(router.wr))
    probs = softmax_lastdim(logits)
    gates, sel = topk_gates(probs, router.top_k)
    if count_topk:
        counts = np.bincount(sel.ravel(), minlength=n)
    else:
        counts = np.bincount(probs.data.argmax(axis=1), minlength=n)
    stats = RoutingStats(
        token_count=h.shape[0],
        dispatch_counts=counts.astype(np.int64),
        prob_sums=sum_axis0(probs),
        topk_indices=sel,
    )
    return gates, probs, stats


def aux_loss(stats: RoutingStats, n_experts: int, coef: float) -> Tensor:
    """Balance penalty coef * N * sum_i F_i P_i.

    F is the (constant) argmax dispatch fraction; gradients flow through the
    mean probabilities only. Minimized, at value coef, when both are uniform.
    """
    t = stats.token_count
    if t <= 0:
        raise ContractError("aux_loss: stats cover zero tokens")
    dtype = stats.prob_sums.dtype
    f = stats.dispatch_counts.astype(dtype) / t
    weights = Tensor(((coef * n_experts) / t) * f)
    return sum_all(mul(stats.prob_sums, weights))


class MixLoraBlock:
    """Router + shared frozen FFN + per-expert LoRA triples."""

    def __init__(
        self,
        router: Router,
        ffn: SharedFfn,
        experts: ExpertAdapters,
        aux_coef: float = 1e-2,
        count_topk_dispatch: bool = False,
        layer_index: int = 0,
    ):
        if len(experts) != router.n_experts:
            raise DimensionError(
                f"{len(experts)} expert triples vs router for {router.n_experts}"
            )
        self.router = router
        self.ffn = ffn
        self.experts = experts
        self.n_experts = len(experts)
        self.aux_coef = float(aux_coef)
        self.count_topk_dispatch = count_topk_dispatch
        self.layer_index = layer_index

    def forward(self, h: Tensor, mode: str, training: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Tensor, RoutingStats]:
        if mode not in MODES:
            raise ContractError(f"unknown forward mode {mode!r}")
        return mixlora_forward(self, h, mode == "optimized", training, rng)


def _adapted(frozen: FrozenLinear, adapter: LoraAdapter, x: Tensor, proj: str,
             training: bool, rng) -> Tensor:
    with flop_labels(projection=proj, source="base"):
        base = frozen.apply(x)
    with flop_labels(projection=proj, source="lora"):
        delta = lora_delta(adapter, x, training, rng)
    return add(base, delta)


def mixlora_forward(block: MixLoraBlock, h: Tensor, shared_base: bool,
                    training: bool = False, rng: np.random.Generator | None = None
                    ) -> tuple[Tensor, RoutingStats]:
    """Routed expert mixture over the rows of h, by sorted dispatch.

    With shared_base the frozen W1/W3 products are computed once for all
    tokens and gathered per expert; without it each expert recomputes them
    on its own rows (the reference path).
    """
    ffn = block.ffn
    with flop_labels(layer=block.layer_index):
        gates, _, stats = route(block.router, h, block.count_topk_dispatch)
        sel = stats.topk_indices
        n_tok, top_k = sel.shape
        flat = sel.ravel()
        order = np.argsort(flat, kind="stable")
        tok = order // top_k
        bounds = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=block.n_experts))))
        if shared_base:
            with flop_labels(projection="w1", source="base"):
                h1_all = ffn.w1.apply(h)
            with flop_labels(projection="w3", source="base"):
                h3_all = ffn.w3.apply(h)
        mids, d2s = [], []
        for e in range(block.n_experts):
            rows = tok[bounds[e]:bounds[e + 1]]
            if rows.size == 0:
                continue
            triple = block.experts[e]
            xe = take_rows(h, rows)
            if shared_base:
                with flop_labels(projection="w1", source="lora"):
                    h1 = add(take_rows(h1_all, rows), lora_delta(triple.w1, xe, training, rng))
                with flop_labels(projection="w3", source="lora"):
                    h3 = add(take_rows(h3_all, rows), lora_delta(triple.w3, xe, training, rng))
            else:
                h1 = _adapted(ffn.w1, triple.w1, xe, "w1", training, rng)
                h3 = _adapted(ffn.w3, triple.w3, xe, "w3", training, rng)
            mid = mul(silu(h1), h3)
            with flop_labels(projection="w2", source="lora"):
                d2s.append(lora_delta(triple.w2, mid, training, rng))
            mids.append(mid)
        # W2 is the same frozen matrix for every expert: one GEMM over all
        # sorted rows replaces one per expert.
        with flop_labels(projection="w2", source="base"):
            y = add(ffn.w2.apply(concat_rows(mids)), concat_rows(d2s))
        y = scale_rows(y, take_elems(gates, tok, flat[order]))
        # Sorted position of each (token, slot) pair: row t of the output sums
        # the k rows of y at inv[t].
        inv = np.argsort(order).reshape(n_tok, top_k)
        out = take_rows(y, inv[:, 0])
        for j in range(1, top_k):
            out = add(out, take_rows(y, inv[:, j]))
    return out, stats


def dense_ffn_forward(ffn: SharedFfn, h: Tensor) -> Tensor:
    """Plain frozen SwiGLU output, no experts and no adapters."""
    return ffn.w2.apply(mul(silu(ffn.w1.apply(h)), ffn.w3.apply(h)))


def expert_load_std(stats: RoutingStats) -> float:
    """Population standard deviation of the dispatch fractions."""
    return float(stats.dispatch_fractions().std())


def expert_load_report(stats_by_task: dict[str, RoutingStats]) -> list[dict]:
    """Flat records {task, expert_id, F, P, std}, one row per (task, expert)."""
    if not stats_by_task:
        raise ContractError("expert_load_report: no stats")
    rows = []
    for task, st in stats_by_task.items():
        f = st.dispatch_fractions()
        p = st.mean_probs()
        std = expert_load_std(st)
        for i in range(f.shape[0]):
            rows.append(
                {"task": task, "expert_id": i, "F": float(f[i]), "P": float(p[i]), "std": std}
            )
    return rows
