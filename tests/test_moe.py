import numpy as np
import pytest

from mixlora.errors import ContractError
from mixlora.lora import FrozenLinear, LoraAdapter, adapted_forward
from mixlora.moe import (
    ExpertAdapters,
    ExpertTriple,
    MixLoraBlock,
    Router,
    RoutingStats,
    SharedFfn,
    aux_loss,
    dense_ffn_forward,
    expert_load_report,
    expert_load_std,
    mixlora_forward,
    route,
)
from mixlora.numerics import Tape, Tensor, add, backward, silu, sum_all, mul
from conftest import fd_grad, max_rel_err


def make_block(rng, d=6, dff=10, n_experts=4, top_k=2, rank=2, alpha=4.0,
               zero_adapters=False, aux_coef=0.01, dropout_p=0.0):
    def lin(rows, cols):
        return FrozenLinear(rng.normal(0, 0.5, (rows, cols)))

    def adapter(d_in, d_out):
        a = Tensor(rng.normal(0, 0.4, (rank, d_in)), requires_grad=True)
        b_data = np.zeros((d_out, rank)) if zero_adapters else rng.normal(0, 0.4, (d_out, rank))
        b = Tensor(b_data, requires_grad=True)
        return LoraAdapter(a, b, rank, alpha, dropout_p)

    ffn = SharedFfn(lin(dff, d), lin(dff, d), lin(d, dff))
    triples = [ExpertTriple(adapter(d, dff), adapter(d, dff), adapter(dff, d))
               for _ in range(n_experts)]
    router = Router(Tensor(rng.normal(0, 0.5, (n_experts, d)), requires_grad=True), top_k)
    return MixLoraBlock(router, ffn, ExpertAdapters(triples), aux_coef=aux_coef)


# ---------------------------------------------------------------------------
# Independent per-token oracle (scalar-level loops, no shared code path)
# ---------------------------------------------------------------------------


def naive_mixlora(block: MixLoraBlock, h: np.ndarray) -> np.ndarray:
    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    wr = block.router.wr.data
    w1, w3, w2 = (block.ffn.w1.w.data, block.ffn.w3.w.data, block.ffn.w2.w.data)
    out = np.zeros_like(h)
    for t in range(h.shape[0]):
        x = h[t]
        logits = wr @ x
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        order = sorted(range(len(p)), key=lambda i: (-p[i], i))[: block.router.top_k]
        denom = sum(p[i] for i in order)
        for k in order:
            tri = block.experts[k]
            s1 = tri.w1.scaling
            h1 = w1 @ x + s1 * (tri.w1.b.data @ (tri.w1.a.data @ x))
            h3 = w3 @ x + tri.w3.scaling * (tri.w3.b.data @ (tri.w3.a.data @ x))
            mid = (h1 * sigmoid(h1)) * h3
            ek = w2 @ mid + tri.w2.scaling * (tri.w2.b.data @ (tri.w2.a.data @ mid))
            out[t] += (p[k] / denom) * ek
    return out


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------


def test_route_tie_break_on_uniform_logits(rng):
    router = Router(Tensor(np.zeros((4, 6)), requires_grad=True), 2)
    h = Tensor(rng.normal(size=(5, 6)))
    gates, probs, stats = route(router, h)
    assert np.allclose(probs.data, 0.25, atol=0)
    assert np.allclose(gates.data[:, :2], 0.5, atol=0)
    assert np.array_equal(gates.data[:, 2:], np.zeros((5, 2)))
    # argmax dispatch lands on expert 0 for every token
    assert stats.dispatch_counts.tolist() == [5, 0, 0, 0]


def test_route_gate_values_from_known_probs():
    # logits = log(p) reproduces p under softmax
    p_row = np.array([0.5, 0.3, 0.1, 0.1])
    router = Router(Tensor(np.eye(4), requires_grad=True), 2)
    h = Tensor(np.log(p_row)[None, :])
    gates, probs, stats = route(router, h)
    assert np.allclose(probs.data[0], p_row, atol=1e-12)
    assert np.allclose(gates.data[0], [0.625, 0.375, 0.0, 0.0], atol=1e-12)


def test_route_properties_random(rng):
    router = Router(Tensor(rng.normal(size=(8, 6)), requires_grad=True), 2)
    h = Tensor(rng.normal(size=(1000, 6)))
    gates, probs, stats = route(router, h)
    assert np.all(np.abs(gates.data.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all((gates.data != 0).sum(axis=1) == 2)
    assert stats.dispatch_counts.sum() == 1000
    assert stats.dispatch_fractions().sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.mean_probs().sum() == pytest.approx(1.0, abs=1e-9)


def test_route_count_topk_mode(rng):
    router = Router(Tensor(rng.normal(size=(4, 6)), requires_grad=True), 2)
    h = Tensor(rng.normal(size=(50, 6)))
    _, _, stats = route(router, h, count_topk=True)
    assert stats.dispatch_counts.sum() == 100  # every token counted twice


# ---------------------------------------------------------------------------
# aux loss
# ---------------------------------------------------------------------------


def uniform_stats(n, t=64, dtype=np.float64):
    return RoutingStats(
        token_count=t,
        dispatch_counts=np.full(n, t // n, dtype=np.int64),
        prob_sums=Tensor(np.full(n, t / n, dtype=dtype)),
    )


def test_aux_loss_uniform_is_exactly_coefficient():
    for n in (2, 4, 8, 16):
        val = aux_loss(uniform_stats(n), n, 0.01).item()
        assert val == 0.01


def test_aux_loss_one_hot_is_coef_times_n():
    n, t = 8, 40
    one_hot = RoutingStats(
        token_count=t,
        dispatch_counts=np.array([t] + [0] * (n - 1), dtype=np.int64),
        prob_sums=Tensor(np.array([float(t)] + [0.0] * (n - 1))),
    )
    assert aux_loss(one_hot, n, 0.01).item() == 0.08


def test_aux_loss_perturbed_coupled_distribution_exceeds_floor(rng):
    # with dispatch and probability mass coupled (F == P == q), uniform q is
    # the unique minimum at exactly coef; any other q lands strictly above
    n, coef = 8, 0.01
    for _ in range(20):
        q = rng.dirichlet(np.ones(n))
        t = 10_000
        counts = np.round(q * t).astype(np.int64)
        st = RoutingStats(t, counts, Tensor(q * t))
        got = aux_loss(st, n, coef).item()
        expect = coef * n * float(np.sum((counts / t) * q))
        assert got == pytest.approx(expect, rel=1e-12)
        assert coef * n * float(np.sum(q * q)) > coef


def test_aux_loss_matches_recomputation_from_raw_probs(rng):
    router = Router(Tensor(rng.normal(size=(6, 5)), requires_grad=True), 2)
    h = Tensor(rng.normal(size=(200, 5)))
    gates, probs, stats = route(router, h)
    got = aux_loss(stats, 6, 0.01).item()
    # independent recomputation from the raw per-token probabilities
    p = probs.data
    f = np.bincount(p.argmax(axis=1), minlength=6) / 200
    expect = 0.01 * 6 * float((f * p.mean(axis=0)).sum())
    assert got == pytest.approx(expect, rel=1e-12)


def test_aux_loss_rejects_empty_stats():
    st = RoutingStats(0, np.zeros(4, dtype=np.int64), Tensor(np.zeros(4)))
    with pytest.raises(ContractError):
        aux_loss(st, 4, 0.01)


def test_aux_loss_differentiable_through_probs(rng):
    router = Router(Tensor(rng.normal(size=(4, 5)), requires_grad=True), 2)
    h_data = rng.normal(size=(40, 5))

    def build():
        _, _, stats = route(router, Tensor(h_data))
        return aux_loss(stats, 4, 0.01)

    tape = Tape()
    with tape:
        loss = build()
    backward(tape, loss)
    fd = fd_grad(lambda: build().item(), router.wr)
    assert max_rel_err(router.wr.grad, fd) < 1e-4
    router.wr.grad = None


# ---------------------------------------------------------------------------
# forward paths
# ---------------------------------------------------------------------------


def test_vanilla_with_zero_adapters_is_plain_ffn(rng):
    block = make_block(rng, zero_adapters=True)
    h = Tensor(rng.normal(size=(12, 6)))
    out, _ = mixlora_forward(block, h, shared_base=False)
    plain = dense_ffn_forward(block.ffn, h)
    assert np.abs(out.data - plain.data).max() < 1e-12


def test_two_experts_full_routing_averages_outputs(rng):
    block = make_block(rng, n_experts=2, top_k=2)
    block.router.wr.data[...] = 0.0  # symmetric logits: gates are 0.5/0.5
    h = Tensor(rng.normal(size=(6, 6)))
    out, _ = mixlora_forward(block, h, shared_base=False)
    avg = 0.5 * (naive_single_expert(block, h.data, 0)
                 + naive_single_expert(block, h.data, 1))
    assert np.abs(out.data - avg).max() < 1e-10


def naive_single_expert(block, h, k):
    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    w1, w3, w2 = (block.ffn.w1.w.data, block.ffn.w3.w.data, block.ffn.w2.w.data)
    tri = block.experts[k]
    out = np.zeros_like(h)
    for t in range(h.shape[0]):
        x = h[t]
        h1 = w1 @ x + tri.w1.scaling * (tri.w1.b.data @ (tri.w1.a.data @ x))
        h3 = w3 @ x + tri.w3.scaling * (tri.w3.b.data @ (tri.w3.a.data @ x))
        mid = (h1 * sigmoid(h1)) * h3
        out[t] = w2 @ mid + tri.w2.scaling * (tri.w2.b.data @ (tri.w2.a.data @ mid))
    return out


def test_vanilla_matches_naive_loop_oracle(rng):
    block = make_block(rng)
    h = Tensor(rng.uniform(-1, 1, (20, 6)))
    out, _ = mixlora_forward(block, h, shared_base=False)
    assert np.abs(out.data - naive_mixlora(block, h.data)).max() < 1e-10


def test_optimized_matches_vanilla(rng):
    for n, k in ((2, 1), (4, 2), (8, 3), (1, 1)):
        block = make_block(rng, n_experts=n, top_k=k)
        h = Tensor(rng.uniform(-1, 1, (30, 6)))
        out_v, st_v = mixlora_forward(block, h, shared_base=False)
        out_o, st_o = mixlora_forward(block, h, shared_base=True)
        assert np.abs(out_v.data - out_o.data).max() < 1e-9
        assert np.array_equal(st_v.dispatch_counts, st_o.dispatch_counts)


def dense_lora_ffn(block, h, training, rng):
    """The plain LoRA baseline: one adapter triple on the frozen FFN, no router."""
    ffn, triple = block.ffn, block.experts[0]
    h1 = adapted_forward(ffn.w1, triple.w1, h, training, rng)
    h3 = adapted_forward(ffn.w3, triple.w3, h, training, rng)
    return adapted_forward(ffn.w2, triple.w2, mul(silu(h1), h3), training, rng)


@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
@pytest.mark.parametrize("shared_base", [False, True])
def test_one_expert_block_is_the_dense_lora_ffn(shared_base, dropout_p):
    rng = np.random.default_rng(7)
    block = make_block(rng, n_experts=1, top_k=1, dropout_p=dropout_p)
    h_data = rng.normal(size=(13, 6))
    w = Tensor(rng.normal(size=(13, 6)))
    params = block.experts.parameters()

    def run(forward):
        for p in params + [block.router.wr]:
            p.grad = None
        h = Tensor(h_data.copy(), requires_grad=True)
        tape = Tape()
        with tape:
            out, aux = forward(h, np.random.default_rng(3))
            loss = sum_all(mul(out, w)) if aux is None else add(sum_all(mul(out, w)), aux)
        backward(tape, loss)
        return out.data, [p.grad.copy() for p in params], h.grad

    def mixture(h, drop_rng):
        out, stats = mixlora_forward(block, h, shared_base, training=True, rng=drop_rng)
        return out, aux_loss(stats, 1, block.aux_coef)

    out_m, grads_m, dh_m = run(mixture)
    router_grad = block.router.wr.grad
    out_d, grads_d, dh_d = run(lambda h, drop_rng: (dense_lora_ffn(block, h, True, drop_rng), None))
    assert np.array_equal(out_m, out_d)
    for gm, gd in zip(grads_m, grads_d):
        assert np.array_equal(gm, gd)
    assert np.array_equal(router_grad, np.zeros_like(router_grad))
    # The input gradient sums the same terms in another order.
    assert np.abs(dh_m - dh_d).max() <= 1e-14 * np.abs(dh_d).max()


def test_optimized_with_zero_adapters_is_plain_ffn(rng):
    block = make_block(rng, zero_adapters=True)
    h = Tensor(rng.normal(size=(9, 6)))
    out, _ = mixlora_forward(block, h, shared_base=True)
    plain = dense_ffn_forward(block.ffn, h)
    assert np.abs(out.data - plain.data).max() < 1e-12


def check_block_gradients(block, h_data, w):
    """Taped gradients of every block parameter vs finite differences, both modes."""
    params = [block.router.wr] + block.experts.parameters()

    def build(mode):
        out, stats = block.forward(Tensor(h_data), mode)
        return sum_all(mul(out, Tensor(w)))

    for mode in ("vanilla", "optimized"):
        tape = Tape()
        with tape:
            loss = build(mode)
        backward(tape, loss)
        # An expert no token reaches stays off the tape: no grad, read as zero.
        analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                    for p in params]
        for p in params:
            p.grad = None
        for p, got in zip(params, analytic):
            fd = fd_grad(lambda: build(mode).item(), p)
            assert max_rel_err(got, fd) < 1e-4


def test_block_gradients_vs_finite_differences(rng):
    block = make_block(rng, d=5, dff=7, n_experts=3, top_k=2, rank=2)
    h_data = rng.uniform(-1, 1, (8, 5))
    w = rng.normal(size=(8, 5))
    check_block_gradients(block, h_data, w)


def test_block_gradients_with_an_empty_expert_segment(rng):
    block = make_block(rng, d=5, dff=7, n_experts=3, top_k=2, rank=2)
    block.router.wr.data[2] = -20.0  # positive inputs never pick expert 2
    h_data = rng.uniform(0.1, 1.0, (8, 5))
    _, _, stats = route(block.router, Tensor(h_data))
    assert not (stats.topk_indices == 2).any()
    check_block_gradients(block, h_data, rng.normal(size=(8, 5)))


# Routings at the edges of sorted dispatch: name -> (n_experts, top_k, forced
# expert, router weight). With positive inputs a large positive router row
# wins every token and a large negative one loses every token.
EDGE_ROUTINGS = {
    "empty_expert": (4, 2, 3, -20.0),
    "all_to_one_expert": (4, 1, 1, 20.0),
    "top_k_equals_n_experts": (4, 4, None, 0.0),
}


@pytest.mark.parametrize("name", sorted(EDGE_ROUTINGS))
def test_edge_routings_match_vanilla_and_oracle(rng, name):
    n, k, forced, weight = EDGE_ROUTINGS[name]
    block = make_block(rng, n_experts=n, top_k=k)
    if forced is not None:
        block.router.wr.data[forced] = weight
    h = Tensor(rng.uniform(0.1, 1.0, (20, 6)))
    out_v, stats = mixlora_forward(block, h, shared_base=False)
    out_o, _ = mixlora_forward(block, h, shared_base=True)
    if forced is not None:
        routed = int((stats.topk_indices == forced).any(axis=1).sum())
        assert routed == (20 if weight > 0 else 0)
    assert np.abs(out_v.data - out_o.data).max() < 1e-9
    assert np.abs(out_v.data - naive_mixlora(block, h.data)).max() < 1e-10


def reference_dropout_forward(block: MixLoraBlock, h: np.ndarray,
                              rng: np.random.Generator) -> np.ndarray:
    """Training-mode block output, drawing dropout masks in the documented
    order: experts ascending; per expert w1, w3, then w2; rows by token."""
    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    def delta(adapter, x):
        p = adapter.dropout_p
        mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
        return adapter.scaling * (((x * mask) @ adapter.a.data.T) @ adapter.b.data.T)

    gates, _, stats = route(block.router, Tensor(h))
    sel = stats.topk_indices
    w1, w3, w2 = (block.ffn.w1.w.data, block.ffn.w3.w.data, block.ffn.w2.w.data)
    out = np.zeros_like(h)
    for e in range(block.n_experts):
        rows = np.nonzero((sel == e).any(axis=1))[0]
        if rows.size == 0:
            continue
        tri = block.experts[e]
        x = h[rows]
        h1 = x @ w1.T + delta(tri.w1, x)
        h3 = x @ w3.T + delta(tri.w3, x)
        mid = (h1 * sigmoid(h1)) * h3
        out[rows] += gates.data[rows, e][:, None] * (mid @ w2.T + delta(tri.w2, mid))
    return out


def test_dropout_masks_follow_the_documented_draw_order(rng):
    block = make_block(rng, dropout_p=0.3)
    h = rng.uniform(-1, 1, (20, 6))
    expect = reference_dropout_forward(block, h, np.random.default_rng(7))
    no_dropout, _ = mixlora_forward(block, Tensor(h), shared_base=True)
    assert np.abs(no_dropout.data - expect).max() > 1e-2
    for shared_base in (False, True):
        out, _ = mixlora_forward(block, Tensor(h), shared_base, training=True,
                                 rng=np.random.default_rng(7))
        assert np.abs(out.data - expect).max() < 1e-10


# ---------------------------------------------------------------------------
# load reports
# ---------------------------------------------------------------------------


def test_load_std_uniform_and_one_hot():
    assert expert_load_std(uniform_stats(8)) == 0.0
    n, t = 8, 8
    one_hot = RoutingStats(t, np.array([t, 0, 0, 0, 0, 0, 0, 0], dtype=np.int64),
                           Tensor(np.ones(n)))
    assert expert_load_std(one_hot) == pytest.approx(np.sqrt(7.0) / 8.0, abs=1e-15)


def test_expert_load_report_schema(rng):
    router = Router(Tensor(rng.normal(size=(4, 5)), requires_grad=True), 2)
    _, _, stats = route(router, Tensor(rng.normal(size=(32, 5))))
    rows = expert_load_report({"demo": stats})
    assert len(rows) == 4
    assert set(rows[0]) == {"task", "expert_id", "F", "P", "std"}
    assert sum(r["F"] for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_stats_merge_accumulates(rng):
    router = Router(Tensor(rng.normal(size=(4, 5)), requires_grad=True), 2)
    parts = [route(router, Tensor(rng.normal(size=(16, 5))))[2] for _ in range(3)]
    merged = RoutingStats.merge(parts)
    assert merged.token_count == 48
    assert merged.dispatch_counts.sum() == 48
    total = sum(p.prob_sums.data for p in parts)
    assert np.allclose(merged.prob_sums.data, total, atol=0)
