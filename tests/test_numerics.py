import math
import warnings

import numpy as np
import pytest

from mixlora.errors import ContractError
from mixlora.numerics import (
    Tape,
    Tensor,
    add,
    backward,
    causal_attention,
    cross_entropy,
    dropout_mask,
    layer_norm,
    matmul,
    mul,
    softmax_lastdim,
    sum_all,
    sum_axis0,
    take_rows,
    target_cross_entropy,
    topk_gates,
    transpose,
)
from mixlora.lora import LoraAdapter, lora_delta
from conftest import fd_grad, max_rel_err, silu


def grad_check(build_loss, params, tol=1e-4, h=1e-5):
    """Analytic grads from one taped run vs central differences."""
    tape = Tape()
    with tape:
        loss = build_loss()
    backward(tape, loss)
    for p in params:
        fd = fd_grad(lambda: build_loss().item(), p, h=h)
        assert max_rel_err(p.grad, fd) < tol, f"grad mismatch for shape {p.shape}"
        p.grad = None


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0, 5.0], [7.0, 9.0]])
    assert np.array_equal(matmul(eye, b).data, b.data)


def test_matmul_scalar_case():
    assert matmul(Tensor([[2.0]]), Tensor([[3.0]])).data[0, 0] == 6.0


def test_matmul_shape_error_mentions_both_shapes():
    with pytest.raises(ContractError, match=r"\(4, 3\).*\(2, 2\)"):
        matmul(Tensor(np.ones((4, 3))), Tensor(np.ones((2, 2))))


def test_matmul_gradient_vs_finite_differences(rng):
    a = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
    w = rng.uniform(-1, 1, (4, 2))  # fixed weighting makes the loss non-trivial
    grad_check(lambda: sum_all(mul(matmul(a, b), Tensor(w))), [a, b], tol=1e-6)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def test_silu_at_zero_and_one():
    out = silu(Tensor([0.0, 1.0]))
    assert out.data[0] == 0.0
    # 1 * (1 / (1 + e^-1)) computed independently
    assert out.data[1] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-15)


def test_silu_extreme_inputs_are_finite_and_silent():
    for dtype, big in ((np.float32, 88.0), (np.float64, 700.0)):
        x = Tensor(np.array([-big, big], dtype=dtype), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tape = Tape()
            with tape:
                out = silu(x)
                loss = sum_all(out)
            backward(tape, loss)
        assert out.dtype == dtype
        assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(x.grad))
        assert out.data[1] == big


def test_silu_matches_closed_form_on_dense_grid():
    # An absolute bound: near x = 30 one ulp of silu is already 3.6e-15.
    x = np.linspace(-30.0, 30.0, 120_001)
    got = silu(Tensor(x)).data
    assert np.abs(got - x / (1.0 + np.exp(-x))).max() <= 1e-14


def test_softmax_uniform_rows():
    out = softmax_lastdim(Tensor([[0.0, 0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, 0.25, atol=0)


def test_softmax_rows_sum_to_one_and_positive(rng):
    x = Tensor(rng.uniform(-1, 1, (50, 9)))
    y = softmax_lastdim(x).data
    assert np.all(np.abs(y.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(y > 0)


def test_add_row_broadcast_and_error(rng):
    # Elementwise ops take equal shapes only: a 1-D row does not broadcast.
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)))
    grad_check(lambda: sum_all(mul(add(a, b), w)), [a, b], tol=1e-6)
    for op in (add, mul):
        with pytest.raises(ContractError, match=r"incompatible shapes \(3, 4\) vs \(4,\)"):
            op(a, Tensor(rng.normal(size=4)))
        with pytest.raises(ContractError, match=r"incompatible shapes \(3, 4\) vs \(3,\)"):
            op(a, Tensor(np.ones(3)))


def test_elementwise_grads(rng):
    x = Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (5, 3)))
    grad_check(lambda: sum_all(mul(silu(x), w)), [x], tol=1e-5)
    grad_check(lambda: sum_all(mul(softmax_lastdim(x), w)), [x], tol=1e-5)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_row_collapses_to_zero():
    x = Tensor([[1.0, 1.0, 1.0]])
    assert np.allclose(layer_norm(x).data, 0.0, atol=1e-12)


def test_layer_norm_two_point_row_by_hand():
    out = layer_norm(Tensor([[-1.0, 1.0]]))
    expected = 1.0 / np.sqrt(1.0 + 1e-5)
    assert out.data[0, 1] == pytest.approx(expected, abs=1e-15)
    assert out.data[0, 0] == pytest.approx(-expected, abs=1e-15)


def test_layer_norm_rejects_short_rows():
    with pytest.raises(ContractError, match=r"rows of >= 2, got shape \(1, 1\)"):
        layer_norm(Tensor([[1.0]]))


def test_layer_norm_rejects_non_2d_input():
    for shape in ((3,), (2, 2, 3)):
        with pytest.raises(ContractError, match="layer_norm: need 2-D rows"):
            layer_norm(Tensor(np.arange(np.prod(shape), dtype=float).reshape(shape)))


def test_layer_norm_gradients(rng):
    x = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (4, 6)))
    grad_check(lambda: sum_all(mul(layer_norm(x), w)), [x], tol=1e-5)


# ---------------------------------------------------------------------------
# backward contract
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones(rng):
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    tape = Tape()
    with tape:
        loss = sum_all(x)
    backward(tape, loss)
    assert np.array_equal(x.grad, np.ones((3, 5)))


def test_backward_square():
    x = Tensor([[3.0]], requires_grad=True)
    tape = Tape()
    with tape:
        loss = sum_all(mul(x, x))
    backward(tape, loss)
    assert x.grad[0, 0] == pytest.approx(6.0, abs=1e-12)


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    tape = Tape()
    with tape:
        y = mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_backward_refuses_a_second_sweep(rng):
    h = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    tape = Tape()
    with tape:
        loss = target_cross_entropy(h, [2, 0], Tensor(rng.normal(size=(5, 3))), [4, 1])
    backward(tape, loss)
    first = h.grad.copy()
    with pytest.raises(ContractError, match="already swept"):
        backward(tape, loss)
    assert np.array_equal(h.grad, first) and loss.grad == 1.0


def test_unreachable_leaf_keeps_no_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    tape = Tape()
    with tape:
        loss = sum_all(x)
        mul(y, y)  # recorded but not feeding the loss
    backward(tape, loss)
    assert np.array_equal(x.grad, np.ones(3))
    assert y.grad is None


def test_backward_never_mutates_forward_data(rng):
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    snap_x, snap_w = x.data.copy(), w.data.copy()
    tape = Tape()
    with tape:
        y = silu(matmul(x, w))
        loss = sum_all(y)
        snap_y = y.data.copy()
    backward(tape, loss)
    assert np.array_equal(x.data, snap_x)
    assert np.array_equal(w.data, snap_w)
    assert np.array_equal(y.data, snap_y)


# Every op that records, as (input shapes, op of those inputs).
RECORDING_OPS = {
    "matmul": ([(2, 2), (2, 2)], matmul),
    "add": ([(2, 2), (2, 2)], add),
    "mul": ([(2, 2), (2, 2)], mul),
    "silu": ([(2, 2)], silu),
    "softmax_lastdim": ([(2, 2)], softmax_lastdim),
    "layer_norm": ([(2, 2)], layer_norm),
    "sum_all": ([(2, 2)], sum_all),
    "sum_axis0": ([(2, 2)], sum_axis0),
    "take_rows": ([(2, 2)], lambda a: take_rows(a, [1, 0, 1])),
    "transpose": ([(2, 2)], transpose),
    "causal_attention": ([(2, 2)] * 3, lambda q, k, v: causal_attention(q, k, v, 1, 1)),
    "topk_gates": ([(2, 2)], lambda p: topk_gates(p, 1)[0]),
    "cross_entropy": ([(2, 2)], lambda z: cross_entropy(z, [0, 1])),
    "target_cross_entropy": ([(2, 2)], lambda h: target_cross_entropy(
        h, [1, 0, 1], Tensor([[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]]), [0, 2, 1])),
    "lora_delta": ([(2, 2), (1, 2), (2, 1)],
                   lambda x, a, b: lora_delta(LoraAdapter(a, b, 1, 1.0), x)),
}


def test_no_recording_without_tape():
    """The record contract of every op: no tape or only frozen inputs record
    nothing; one input that requires grad records exactly the returned tensor."""
    for name, (shapes, op) in RECORDING_OPS.items():
        def inputs(grad_at=None):
            return [Tensor(np.linspace(-1.0, 1.0, math.prod(s)).reshape(s),
                           requires_grad=i == grad_at) for i, s in enumerate(shapes)]

        assert not op(*inputs(grad_at=0)).requires_grad, name
        with Tape() as tape:
            out = op(*inputs())
        assert tape.nodes == [] and not out.requires_grad, name
        for i in range(len(shapes)):
            with Tape() as tape:
                out = op(*inputs(grad_at=i))
            assert len(tape.nodes) == 1 and tape.nodes[0][0] is out, (name, i)
            assert out.requires_grad, (name, i)


# ---------------------------------------------------------------------------
# gather / structural ops
# ---------------------------------------------------------------------------


def test_take_rows_grads(rng):
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    idx = np.array([4, 0, 2])
    w = Tensor(rng.normal(size=(3, 3)))
    grad_check(lambda: sum_all(mul(take_rows(x, idx), w)), [x], tol=1e-6)


def test_take_rows_with_repeats_accumulates(rng):
    x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    tape = Tape()
    with tape:
        loss = sum_all(take_rows(x, np.array([1, 1, 3])))
    backward(tape, loss)
    assert np.array_equal(x.grad, np.array([[0, 0], [2, 2], [0, 0], [1, 1]], dtype=float))


def test_concat_take_cols_transpose_grads(rng):
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    w4 = Tensor(rng.normal(size=(2, 3)))
    grad_check(lambda: sum_all(mul(transpose(a), w4)), [a], tol=1e-6)
    w5 = Tensor(rng.normal(size=3))
    grad_check(lambda: sum_all(mul(sum_axis0(b), w5)), [b], tol=1e-6)


# ---------------------------------------------------------------------------
# causal attention
# ---------------------------------------------------------------------------


def test_causal_attention_gradient(rng):
    q, k, v = (Tensor(rng.normal(size=(15, 6)), requires_grad=True) for _ in range(3))
    w = Tensor(rng.normal(size=(15, 6)))

    def loss():
        return sum_all(mul(causal_attention(q, k, v, 3, 2), w))

    grad_check(loss, [q, k, v], tol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_causal_attention_equals_per_head_loop_bitwise(rng, dtype):
    # The per-(sequence, head) chain of 2-D ops the op replaced, bit for bit.
    # d_head 3 makes 1/sqrt(d_head) inexact, so scaling another product
    # than the chain does changes the bits.
    n_seqs, n_heads, t, dh = 3, 2, 5, 3
    data = [rng.normal(size=(n_seqs * t, n_heads * dh)).astype(dtype) for _ in range(4)]
    q, k, v = (Tensor(x.copy(), requires_grad=True) for x in data[:3])
    tape = Tape()
    with tape:
        out = causal_attention(q, k, v, n_seqs, n_heads)
        loss = sum_all(mul(out, Tensor(data[3])))
    backward(tape, loss)
    mask = Tensor(np.triu(np.full((t, t), -np.inf, dtype=dtype), k=1))
    for b in range(n_seqs):
        for h in range(n_heads):
            blk = (slice(b * t, (b + 1) * t), slice(h * dh, (h + 1) * dh))
            qh, kh, vh = (Tensor(x[blk].copy(), requires_grad=True) for x in data[:3])
            tape = Tape()
            with tape:
                inv_sqrt = Tensor(np.full((t, t), 1.0 / math.sqrt(dh), dtype=dtype))
                scores = add(mul(matmul(qh, transpose(kh)), inv_sqrt), mask)
                oh = matmul(softmax_lastdim(scores), vh)
                loss = sum_all(mul(oh, Tensor(data[3][blk].copy())))
            backward(tape, loss)
            assert np.array_equal(out.data[blk], oh.data)
            for full, part in ((q, qh), (k, kh), (v, vh)):
                assert np.array_equal(full.grad[blk], part.grad)


def test_causal_attention_shape_errors(rng):
    x = Tensor(rng.normal(size=(6, 4)))
    with pytest.raises(ContractError, match=r"shapes \(6, 4\)/\(6, 4\)/\(6, 2\)"):
        causal_attention(x, x, Tensor(rng.normal(size=(6, 2))), 2, 2)
    with pytest.raises(ContractError, match=r"shapes \(6, 4\)/\(4, 4\)/\(6, 4\)"):
        causal_attention(x, Tensor(rng.normal(size=(4, 4))), x, 2, 2)
    with pytest.raises(ContractError, match="does not split into 4 sequences of 2 heads"):
        causal_attention(x, x, x, 4, 2)  # 6 rows do not split into 4 sequences
    with pytest.raises(ContractError, match="does not split into 2 sequences of 3 heads"):
        causal_attention(x, x, x, 2, 3)  # 4 columns do not split into 3 heads


# ---------------------------------------------------------------------------
# top-k gates
# ---------------------------------------------------------------------------


def test_topk_gates_values_and_ties():
    probs = Tensor([[0.5, 0.3, 0.1, 0.1], [0.25, 0.25, 0.25, 0.25]])
    gates, sel = topk_gates(probs, 2)
    assert np.allclose(gates.data[0], [0.625, 0.375, 0.0, 0.0], atol=1e-15)
    # all-tied row: lowest indices win
    assert list(sel[1]) == [0, 1]
    assert np.allclose(gates.data[1], [0.5, 0.5, 0.0, 0.0], atol=0)


def test_topk_gates_gradient(rng):
    logits = Tensor(rng.uniform(-1, 1, (6, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 5)))

    def loss():
        p = softmax_lastdim(logits)
        g, _ = topk_gates(p, 2)
        return sum_all(mul(g, w))

    grad_check(loss, [logits], tol=1e-4)


def test_topk_gates_k_bounds():
    with pytest.raises(ContractError):
        topk_gates(Tensor(np.ones((2, 3))), 4)


# ---------------------------------------------------------------------------
# cross entropy and dropout
# ---------------------------------------------------------------------------


def test_cross_entropy_matches_manual(rng):
    logits = Tensor(rng.normal(size=(4, 7)))
    labels = np.array([0, 3, 6, 2])
    p = np.exp(logits.data - logits.data.max(1, keepdims=True))
    p /= p.sum(1, keepdims=True)
    manual = -np.log(p[np.arange(4), labels]).mean()
    assert cross_entropy(logits, labels).item() == pytest.approx(manual, rel=1e-12)


def test_cross_entropy_gradient(rng):
    logits = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    labels = np.array([1, 0, 5, 2, 2])
    grad_check(lambda: cross_entropy(logits, labels), [logits], tol=1e-5)


def test_cross_entropy_label_bounds():
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


# ---------------------------------------------------------------------------
# the fused training loss
# ---------------------------------------------------------------------------


def chain_target_loss(h, idx, w, labels):
    """The chain ``target_cross_entropy`` replaced: gather, head GEMM, loss."""
    return cross_entropy(matmul(take_rows(h, idx), Tensor(w.data.T)), labels)


def taped_loss_and_grad(op, h_data, idx, w, labels):
    h = Tensor(h_data.copy(), requires_grad=True)
    tape = Tape()
    with tape:
        loss = op(h, idx, w, labels)
    backward(tape, loss)
    return loss.data, h.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("repeats", [False, True])  # True takes np.add.at
def test_target_cross_entropy_equals_the_chain_bitwise(rng, dtype, repeats):
    h = rng.normal(size=(40, 16)).astype(dtype)
    w = Tensor(rng.normal(size=(300, 16)).astype(dtype))
    idx = rng.choice(40, size=25, replace=repeats)
    assert (np.unique(idx).size < idx.size) == repeats
    labels = rng.integers(0, 300, size=25)
    fused = taped_loss_and_grad(target_cross_entropy, h, idx, w, labels)
    chain = taped_loss_and_grad(chain_target_loss, h, idx, w, labels)
    for got, want in zip(fused, chain):
        assert got.dtype == want.dtype == dtype and np.array_equal(got, want)


def test_target_cross_entropy_signed_zeros_match_the_chain():
    # Row 0 saturates: its softmax is exactly one-hot at the label, so its
    # logit gradient is all +0, and the all-negative head makes every product
    # of the gradient GEMM -0.0. Row 3 is never gathered.
    w = Tensor(np.array([[-100.0, -1.0], [-1.0, -5.0], [-2.0, -3.0]]))
    h = np.array([[-10.0, 0.0], [0.5, -0.25], [1.0, 2.0], [0.0, 0.0]])
    for dtype in (np.float32, np.float64):
        wt = Tensor(w.data.astype(dtype))
        args = (h.astype(dtype), [0, 1, 0, 2], wt, [0, 2, 0, 1])
        fused = taped_loss_and_grad(target_cross_entropy, *args)
        chain = taped_loss_and_grad(chain_target_loss, *args)
        for got, want in zip(fused, chain):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not np.signbit(fused[1][[0, 3]]).any()


def test_target_cross_entropy_gradient(rng):
    h = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(7, 4)))
    grad_check(lambda: target_cross_entropy(h, [5, 0, 2, 0], w, [1, 6, 3, 3]), [h],
               tol=1e-5)


def test_target_cross_entropy_contract_errors():
    h, w = Tensor(np.zeros((3, 2))), Tensor(np.zeros((5, 2)))
    with pytest.raises(ContractError, match=r"hidden \(3, 2\) vs head \(5, 3\)"):
        target_cross_entropy(h, [0], Tensor(np.zeros((5, 3))), [0])
    with pytest.raises(ContractError, match="head must be frozen"):
        target_cross_entropy(h, [0], Tensor(w.data, requires_grad=True), [0])
    with pytest.raises(ContractError, match=r"need 1-D positions, got \(1, 2\)"):
        target_cross_entropy(h, [[0, 1]], w, [0, 1])
    with pytest.raises(ContractError, match=r"labels \(1,\) do not match 2 rows"):
        target_cross_entropy(h, [0, 1], w, [0])
    with pytest.raises(ContractError, match="label out of vocabulary range"):
        target_cross_entropy(h, [0, 1], w, [0, 5])


def test_dropout_identity_when_eval_or_zero(rng):
    # No mask and no draw: the rng state is left as it was.
    state = rng.bit_generator.state
    assert dropout_mask((3, 3), np.float64, 0.5, None) is None
    assert dropout_mask((3, 3), np.float64, 0.0, rng) is None
    assert dropout_mask((3, 3), np.float64, 0.0, None) is None
    assert rng.bit_generator.state == state


def test_dropout_scales_kept_entries():
    for dtype in (np.float32, np.float64):
        mask = dropout_mask((200, 10), dtype, 0.25, np.random.default_rng(0))
        assert mask.dtype == dtype
        assert set(np.unique(mask).tolist()) == {0.0, float(dtype(1.0) / dtype(0.75))}
        assert abs((mask == 0).mean() - 0.25) < 0.03


@pytest.mark.parametrize("p, rng", [(1.0, np.random.default_rng(0)),
                                    (1.5, np.random.default_rng(0))])
def test_dropout_mask_contract_errors(p, rng):
    with pytest.raises(ContractError):
        dropout_mask((2, 2), np.float64, p, rng)
