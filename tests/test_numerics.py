import warnings

import numpy as np
import pytest

from mixlora.errors import ContractError, DimensionError
from mixlora.numerics import (
    Tape,
    Tensor,
    add,
    backward,
    concat_cols,
    concat_rows,
    cross_entropy,
    dropout,
    layer_norm,
    matmul,
    mul,
    scale,
    scale_rows,
    silu,
    softmax_lastdim,
    sum_all,
    sum_axis0,
    take_cols,
    take_elems,
    take_rows,
    topk_gates,
    transpose,
)
from conftest import fd_grad, max_rel_err


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
    with pytest.raises(DimensionError, match=r"\(4, 3\).*\(2, 2\)"):
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
        with pytest.raises(DimensionError):
            op(a, Tensor(rng.normal(size=4)))
        with pytest.raises(DimensionError):
            op(a, Tensor(np.ones(3)))


def test_elementwise_grads(rng):
    x = Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (5, 3)))
    grad_check(lambda: sum_all(mul(silu(x), w)), [x], tol=1e-5)
    grad_check(lambda: sum_all(mul(softmax_lastdim(x), w)), [x], tol=1e-5)
    grad_check(lambda: sum_all(mul(scale(x, 2.5), w)), [x], tol=1e-6)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_row_collapses_to_bias():
    x = Tensor([[1.0, 1.0, 1.0]])
    gain = Tensor(np.ones(3))
    bias = Tensor(np.zeros(3))
    assert np.allclose(layer_norm(x, gain, bias).data, 0.0, atol=1e-12)
    bias2 = Tensor([0.5, -0.5, 2.0])
    assert np.allclose(layer_norm(x, gain, bias2).data, bias2.data, atol=1e-12)


def test_layer_norm_two_point_row_by_hand():
    out = layer_norm(Tensor([[-1.0, 1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    expected = 1.0 / np.sqrt(1.0 + 1e-5)
    assert out.data[0, 1] == pytest.approx(expected, abs=1e-15)
    assert out.data[0, 0] == pytest.approx(-expected, abs=1e-15)


def test_layer_norm_rejects_short_rows():
    with pytest.raises(DimensionError):
        layer_norm(Tensor([[1.0]]), Tensor(np.ones(1)), Tensor(np.zeros(1)))


def test_layer_norm_rejects_non_2d_input():
    gain, bias = Tensor(np.ones(3)), Tensor(np.zeros(3))
    for shape in ((3,), (2, 2, 3)):
        with pytest.raises(DimensionError):
            layer_norm(Tensor(np.arange(np.prod(shape), dtype=float).reshape(shape)), gain, bias)


def test_layer_norm_gradients(rng):
    x = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
    bias = Tensor(rng.uniform(-0.5, 0.5, 6), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (4, 6)))
    grad_check(lambda: sum_all(mul(layer_norm(x, gain, bias), w)),
               [x, gain, bias], tol=1e-5)


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


def test_unreachable_leaf_gets_zero_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    tape = Tape()
    with tape:
        loss = sum_all(x)
        mul(y, y)  # recorded but not feeding the loss
    backward(tape, loss)
    assert np.array_equal(y.grad, np.zeros(3))


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


def test_no_recording_without_tape(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    y = matmul(x, x)
    assert not y.requires_grad


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


def test_take_elems_and_scale_rows_grads(rng):
    g = Tensor(rng.uniform(0.1, 1.0, (5, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    idx = np.array([0, 2, 4])
    w = Tensor(rng.normal(size=(3, 4)))

    def loss():
        s = take_elems(g, idx, 1)
        return sum_all(mul(scale_rows(x, s), w))

    grad_check(loss, [g, x], tol=1e-5)


def test_concat_take_cols_transpose_grads(rng):
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)))
    grad_check(lambda: sum_all(mul(concat_cols([a, b]), w)), [a, b], tol=1e-6)
    w2 = Tensor(rng.normal(size=(6, 2)))
    grad_check(lambda: sum_all(mul(concat_rows([a, a]), w2)), [a], tol=1e-6)
    w3 = Tensor(rng.normal(size=(3, 1)))
    grad_check(lambda: sum_all(mul(take_cols(b, 1, 2), w3)), [b], tol=1e-6)
    w4 = Tensor(rng.normal(size=(2, 3)))
    grad_check(lambda: sum_all(mul(transpose(a), w4)), [a], tol=1e-6)
    w5 = Tensor(rng.normal(size=3))
    grad_check(lambda: sum_all(mul(sum_axis0(b), w5)), [b], tol=1e-6)


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


def test_dropout_identity_when_eval_or_zero(rng):
    x = Tensor(rng.normal(size=(3, 3)))
    assert dropout(x, 0.5, rng, training=False) is x
    assert dropout(x, 0.0, rng, training=True) is x


def test_dropout_scales_kept_entries():
    x = Tensor(np.ones((200, 10)))
    out = dropout(x, 0.25, np.random.default_rng(0), training=True)
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 1.0 / 0.75)
    assert abs((out.data == 0).mean() - 0.25) < 0.03
