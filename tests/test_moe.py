import numpy as np
import pytest

from mixlora import numerics
from mixlora.errors import ContractError
from mixlora.lora import FrozenLinear, LoraAdapter
from mixlora.moe import (
    ExpertTriple,
    MixLoraBlock,
    Router,
    RoutingStats,
    SharedFfn,
    aux_loss,
    expert_load_report,
    expert_load_std,
    route,
)
from mixlora.numerics import (
    Tape, Tensor, _accum, _record, _tape_for, add, backward, mul, sum_all, take_rows,
)
from conftest import chain_lora_delta, fd_grad, max_rel_err, silu


def mode_of(shared_base: bool) -> str:
    return "optimized" if shared_base else "vanilla"


def random_block(rng, d=6, dff=10, n_experts=4, top_k=2, rank=2, alpha=4.0,
               zero_adapters=False, dropout_p=0.0, dtype=np.float64):
    def lin(rows, cols):
        return FrozenLinear(rng.normal(0, 0.5, (rows, cols)).astype(dtype))

    def adapter(d_in, d_out):
        a = Tensor(rng.normal(0, 0.4, (rank, d_in)).astype(dtype), requires_grad=True)
        b_data = np.zeros((d_out, rank)) if zero_adapters else rng.normal(0, 0.4, (d_out, rank))
        b = Tensor(b_data.astype(dtype), requires_grad=True)
        return LoraAdapter(a, b, rank, alpha, dropout_p)

    ffn = SharedFfn(lin(dff, d), lin(dff, d), lin(d, dff))
    triples = [ExpertTriple(adapter(d, dff), adapter(d, dff), adapter(dff, d))
               for _ in range(n_experts)]
    router = Router(Tensor(rng.normal(0, 0.5, (n_experts, d)).astype(dtype),
                           requires_grad=True), top_k)
    return MixLoraBlock(router, ffn, triples)


def expert_params(block):
    """Every expert's A and B tensors, expert by expert, in w1, w3, w2 order."""
    return [t for tri in block.experts for ad in (tri.w1, tri.w3, tri.w2)
            for t in (ad.a, ad.b)]


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


# ---------------------------------------------------------------------------
# aux loss
# ---------------------------------------------------------------------------


def uniform_stats(n, t=64, dtype=np.float64):
    return RoutingStats(
        dispatch_counts=np.full(n, t // n, dtype=np.int64),
        prob_sums=Tensor(np.full(n, t / n, dtype=dtype)),
    )


def test_aux_loss_uniform_is_exactly_coefficient():
    for n in (2, 4, 8, 16):
        val = aux_loss(uniform_stats(n), 0.01).item()
        assert val == 0.01


def test_aux_loss_one_hot_is_coef_times_n():
    n, t = 8, 40
    one_hot = RoutingStats(
        dispatch_counts=np.array([t] + [0] * (n - 1), dtype=np.int64),
        prob_sums=Tensor(np.array([float(t)] + [0.0] * (n - 1))),
    )
    assert aux_loss(one_hot, 0.01).item() == 0.08


def test_aux_loss_perturbed_coupled_distribution_exceeds_floor(rng):
    # with dispatch and probability mass coupled (F == P == q), uniform q is
    # the unique minimum at exactly coef; any other q lands strictly above
    n, coef = 8, 0.01
    for _ in range(20):
        q = rng.dirichlet(np.ones(n))
        counts = np.round(q * 10_000).astype(np.int64)
        t = int(counts.sum())  # the token count stats derive from their counts
        st = RoutingStats(counts, Tensor(q * t))
        got = aux_loss(st, coef).item()
        expect = coef * n * float(np.sum((counts / t) * q))
        assert got == pytest.approx(expect, rel=1e-12)
        assert coef * n * float(np.sum(q * q)) > coef


def test_aux_loss_matches_recomputation_from_raw_probs(rng):
    router = Router(Tensor(rng.normal(size=(6, 5)), requires_grad=True), 2)
    h = Tensor(rng.normal(size=(200, 5)))
    gates, probs, stats = route(router, h)
    got = aux_loss(stats, 0.01).item()
    # independent recomputation from the raw per-token probabilities
    p = probs.data
    f = np.bincount(p.argmax(axis=1), minlength=6) / 200
    expect = 0.01 * 6 * float((f * p.mean(axis=0)).sum())
    assert got == pytest.approx(expect, rel=1e-12)


def test_aux_loss_rejects_empty_stats():
    st = RoutingStats(np.zeros(4, dtype=np.int64), Tensor(np.zeros(4)))
    with pytest.raises(ContractError):
        aux_loss(st, 0.01)


def test_aux_loss_differentiable_through_probs(rng):
    router = Router(Tensor(rng.normal(size=(4, 5)), requires_grad=True), 2)
    h_data = rng.normal(size=(40, 5))

    def build():
        _, _, stats = route(router, Tensor(h_data))
        return aux_loss(stats, 0.01)

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


def dense_ffn(ffn, h):
    """The plain frozen SwiGLU output, no experts and no adapters."""
    return ffn.w2.apply(mul(silu(ffn.w1.apply(h)), ffn.w3.apply(h)))


def test_vanilla_with_zero_adapters_is_plain_ffn(rng):
    block = random_block(rng, zero_adapters=True)
    h = Tensor(rng.normal(size=(12, 6)))
    out, _ = block.forward(h, "vanilla")
    plain = dense_ffn(block.ffn, h)
    assert np.abs(out.data - plain.data).max() < 1e-12


def test_two_experts_full_routing_averages_outputs(rng):
    block = random_block(rng, n_experts=2, top_k=2)
    block.router.wr.data[...] = 0.0  # symmetric logits: gates are 0.5/0.5
    h = Tensor(rng.normal(size=(6, 6)))
    out, _ = block.forward(h, "vanilla")
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
    block = random_block(rng)
    h = Tensor(rng.uniform(-1, 1, (20, 6)))
    out, _ = block.forward(h, "vanilla")
    assert np.abs(out.data - naive_mixlora(block, h.data)).max() < 1e-10


def test_optimized_matches_vanilla(rng):
    for n, k in ((2, 1), (4, 2), (8, 3), (1, 1)):
        block = random_block(rng, n_experts=n, top_k=k)
        h = Tensor(rng.uniform(-1, 1, (30, 6)))
        out_v, st_v = block.forward(h, "vanilla")
        out_o, st_o = block.forward(h, "optimized")
        assert np.abs(out_v.data - out_o.data).max() < 1e-9
        assert np.array_equal(st_v.dispatch_counts, st_o.dispatch_counts)


def chain_adapted(frozen, adapter, x, rng):
    return add(frozen.apply(x), chain_lora_delta(adapter, x, rng))


def dense_lora_ffn(block, h, rng):
    """The plain LoRA baseline: one adapter triple on the frozen FFN, no router."""
    ffn, triple = block.ffn, block.experts[0]
    h1 = chain_adapted(ffn.w1, triple.w1, h, rng)
    h3 = chain_adapted(ffn.w3, triple.w3, h, rng)
    return chain_adapted(ffn.w2, triple.w2, mul(silu(h1), h3), rng)


@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
@pytest.mark.parametrize("shared_base", [False, True])
def test_one_expert_block_is_the_dense_lora_ffn(shared_base, dropout_p):
    rng = np.random.default_rng(7)
    block = random_block(rng, n_experts=1, top_k=1, dropout_p=dropout_p)
    h_data = rng.normal(size=(13, 6))
    w = Tensor(rng.normal(size=(13, 6)))
    params = expert_params(block)

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
        out, stats = block.forward(h, mode_of(shared_base), rng=drop_rng)
        return out, aux_loss(stats, 0.01)

    out_m, grads_m, dh_m = run(mixture)
    router_grad = block.router.wr.grad
    out_d, grads_d, dh_d = run(lambda h, drop_rng: (dense_lora_ffn(block, h, drop_rng), None))
    assert np.array_equal(out_m, out_d)
    for gm, gd in zip(grads_m, grads_d):
        assert np.array_equal(gm, gd)
    assert np.array_equal(router_grad, np.zeros_like(router_grad))
    # The input gradient sums the same terms in another order.
    assert np.abs(dh_m - dh_d).max() <= 1e-14 * np.abs(dh_d).max()


def test_optimized_with_zero_adapters_is_plain_ffn(rng):
    block = random_block(rng, zero_adapters=True)
    h = Tensor(rng.normal(size=(9, 6)))
    out, _ = block.forward(h, "optimized")
    plain = dense_ffn(block.ffn, h)
    assert np.abs(out.data - plain.data).max() < 1e-12


def check_block_gradients(block, h_data, w):
    """Taped gradients of every block parameter vs finite differences, both modes."""
    params = [block.router.wr] + expert_params(block)

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
    block = random_block(rng, d=5, dff=7, n_experts=3, top_k=2, rank=2)
    h_data = rng.uniform(-1, 1, (8, 5))
    w = rng.normal(size=(8, 5))
    check_block_gradients(block, h_data, w)


def test_block_gradients_with_an_empty_expert_segment(rng):
    block = random_block(rng, d=5, dff=7, n_experts=3, top_k=2, rank=2)
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
    block = random_block(rng, n_experts=n, top_k=k)
    if forced is not None:
        block.router.wr.data[forced] = weight
    h = Tensor(rng.uniform(0.1, 1.0, (20, 6)))
    out_v, stats = block.forward(h, "vanilla")
    out_o, _ = block.forward(h, "optimized")
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
    for e in range(len(block.experts)):
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
    block = random_block(rng, dropout_p=0.3)
    h = rng.uniform(-1, 1, (20, 6))
    expect = reference_dropout_forward(block, h, np.random.default_rng(7))
    no_dropout, _ = block.forward(Tensor(h), "optimized")
    assert np.abs(no_dropout.data - expect).max() > 1e-2
    for shared_base in (False, True):
        out, _ = block.forward(Tensor(h), mode_of(shared_base), rng=np.random.default_rng(7))
        assert np.abs(out.data - expect).max() < 1e-10


# ---------------------------------------------------------------------------
# the mixture as one tape op vs the chain of 2-D ops it replaced
# ---------------------------------------------------------------------------


def concat_rows(parts):
    def bwd(g):
        off = 0
        for p in parts:
            _accum(p, g[off:off + p.shape[0]])
            off += p.shape[0]

    return _record(Tensor(np.concatenate([p.data for p in parts], axis=0)),
                   _tape_for(*parts), bwd)


def scale_rows(x, s):
    def bwd(g):
        _accum(x, g * s.data[:, None])
        _accum(s, (g * x.data).sum(axis=1))

    return _record(Tensor(x.data * s.data[:, None]), _tape_for(x, s), bwd)


def take_elems(a, rows, col):
    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, (rows, col), g)

    return _record(Tensor(a.data[rows, col]), _tape_for(a), bwd)


def chain_mixlora(block, h, shared_base, rng):
    """The routed mixture built from generic 2-D tape ops, one small chain per
    expert, in the dispatch and dropout draw order of ``MixLoraBlock.forward``."""
    ffn = block.ffn
    gates, _, stats = route(block.router, h)
    sel = stats.topk_indices
    n_tok, top_k = sel.shape
    flat = sel.ravel()
    order = np.argsort(flat, kind="stable")
    tok = order // top_k
    bounds = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=len(block.experts)))))
    if shared_base:
        h1_all, h3_all = ffn.w1.apply(h), ffn.w3.apply(h)
    mids, d2s = [], []
    for e in range(len(block.experts)):
        rows = tok[bounds[e]:bounds[e + 1]]
        if rows.size == 0:
            continue
        tri = block.experts[e]
        xe = take_rows(h, rows)
        if shared_base:
            h1 = add(take_rows(h1_all, rows), chain_lora_delta(tri.w1, xe, rng))
            h3 = add(take_rows(h3_all, rows), chain_lora_delta(tri.w3, xe, rng))
        else:
            h1 = chain_adapted(ffn.w1, tri.w1, xe, rng)
            h3 = chain_adapted(ffn.w3, tri.w3, xe, rng)
        mid = mul(silu(h1), h3)
        d2s.append(chain_lora_delta(tri.w2, mid, rng))
        mids.append(mid)
    y = add(ffn.w2.apply(concat_rows(mids)), concat_rows(d2s))
    y = scale_rows(y, take_elems(gates, tok, flat[order]))
    inv = np.argsort(order).reshape(n_tok, top_k)
    out = take_rows(y, inv[:, 0])
    for j in range(1, top_k):
        out = add(out, take_rows(y, inv[:, j]))
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
@pytest.mark.parametrize("shared_base", [False, True])
def test_mixture_op_equals_the_op_chain_bit_for_bit(shared_base, dropout_p, dtype):
    rng = np.random.default_rng(11)
    # alpha/rank = 5/3 is inexact, so scaling another product than the chain
    # does changes the bits.
    block = random_block(rng, n_experts=5, top_k=3, rank=3, alpha=5.0, dropout_p=dropout_p,
                       dtype=dtype)
    block.router.wr.data[4] = -20.0  # positive inputs never pick expert 4
    h_data = rng.uniform(0.1, 1.0, (23, 6)).astype(dtype)
    w = Tensor(rng.normal(size=(23, 6)).astype(dtype))
    params = [block.router.wr] + expert_params(block)

    def run(forward):
        for p in params:
            p.grad = None
        h = Tensor(h_data.copy(), requires_grad=True)
        tape = Tape()
        with tape:
            out = forward(h, np.random.default_rng(3))
            loss = sum_all(mul(out, w))
        backward(tape, loss)
        grads = [None if p.grad is None else p.grad.copy() for p in params]
        return out.data, grads, h.grad

    out_op, grads_op, dh_op = run(
        lambda h, drop: block.forward(h, mode_of(shared_base), drop)[0])
    out_ch, grads_ch, dh_ch = run(
        lambda h, drop: chain_mixlora(block, h, shared_base, drop))
    assert out_op.dtype == dtype and np.array_equal(out_op, out_ch)
    assert np.array_equal(dh_op, dh_ch)
    assert all(g is None for g in grads_op[-6:])  # expert 4's three A/B pairs
    for g_op, g_ch in zip(grads_op, grads_ch):
        assert (g_op is None and g_ch is None) or np.array_equal(g_op, g_ch)


@pytest.mark.parametrize("mode", ["vanilla", "optimized"])
def test_the_mixture_is_one_tape_node_at_any_expert_count(rng, mode):
    for n in (1, 4, 8):
        block = random_block(rng, n_experts=n, top_k=min(2, n))
        h = Tensor(rng.normal(size=(10, 6)), requires_grad=True)
        with Tape() as routed:
            route(block.router, h)
        with Tape() as tape:
            out, _ = block.forward(h, mode)
        assert len(tape.nodes) == len(routed.nodes) + 1
        assert tape.nodes[-1][0] is out and out.requires_grad
    out, _ = block.forward(h, mode)
    assert numerics._TAPE_STACK == [] and not out.requires_grad


# ---------------------------------------------------------------------------
# load reports
# ---------------------------------------------------------------------------


def test_load_std_uniform_and_one_hot():
    assert expert_load_std(uniform_stats(8)) == 0.0
    n, t = 8, 8
    one_hot = RoutingStats(np.array([t, 0, 0, 0, 0, 0, 0, 0], dtype=np.int64),
                           Tensor(np.ones(n)))
    assert expert_load_std(one_hot) == pytest.approx(np.sqrt(7.0) / 8.0, abs=1e-15)


def test_expert_load_report_schema(rng):
    router = Router(Tensor(rng.normal(size=(4, 5)), requires_grad=True), 2)
    _, _, stats = route(router, Tensor(rng.normal(size=(32, 5))))
    rows = expert_load_report("demo", [stats, stats])
    assert len(rows) == 8
    assert all(set(r) == {"task", "layer", "expert_id", "F", "P", "std"} for r in rows)
    assert [(r["layer"], r["expert_id"]) for r in rows] == [(i, e) for i in (0, 1)
                                                           for e in range(4)]
    for layer in (0, 1):
        assert sum(r["F"] for r in rows if r["layer"] == layer) == pytest.approx(1.0, abs=1e-12)


def test_stats_merge_accumulates(rng):
    router = Router(Tensor(rng.normal(size=(4, 5)), requires_grad=True), 2)
    parts = [route(router, Tensor(rng.normal(size=(16, 5))))[2] for _ in range(3)]
    merged = RoutingStats.merge(parts)
    assert merged.token_count == 48
    assert merged.dispatch_counts.sum() == 48
    total = sum(p.prob_sums.data for p in parts)
    assert np.allclose(merged.prob_sums.data, total, atol=0)
