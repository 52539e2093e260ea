import numpy as np
import pytest

from mixlora.errors import ContractError
from mixlora.lora import FrozenLinear, LoraAdapter, adapted_forward, lora_delta
from mixlora.numerics import Tape, Tensor, add, backward, mul, sum_all
from conftest import chain_lora_delta, fd_grad, max_rel_err


def merged_weight(base, adapter):
    """W + (alpha/rank) * B A as a fresh array; the base is left untouched."""
    return base.w.data + adapter.scaling * (adapter.b.data @ adapter.a.data)


def make_adapter(rng, d_in=6, d_out=5, rank=2, alpha=4.0, zero_b=False, dropout_p=0.0,
                 dtype=np.float64):
    a = Tensor(rng.normal(0, 0.5, (rank, d_in)).astype(dtype), requires_grad=True)
    b_data = np.zeros((d_out, rank)) if zero_b else rng.normal(0, 0.5, (d_out, rank))
    b = Tensor(b_data.astype(dtype), requires_grad=True)
    return LoraAdapter(a, b, rank, alpha, dropout_p)


def test_fresh_adapter_delta_is_exactly_zero(rng):
    ad = make_adapter(rng, d_in=8, d_out=8, rank=3, alpha=16.0, zero_b=True, dropout_p=0.05)
    x = Tensor(rng.normal(size=(4, 8)))
    assert np.array_equal(lora_delta(ad, x).data, np.zeros((4, 8)))


def test_rank_one_delta_by_hand():
    ad = LoraAdapter(
        a=Tensor([[1.0, 0.0]], requires_grad=True),
        b=Tensor([[2.0], [0.0]], requires_grad=True),
        rank=1,
        alpha=2.0,
    )
    out = lora_delta(ad, Tensor([[3.0, 5.0]]))
    assert np.allclose(out.data, [[12.0, 0.0]], atol=0)


def test_delta_deterministic_without_dropout(rng):
    ad = make_adapter(rng)
    x = Tensor(rng.normal(size=(3, 6)))
    first = lora_delta(ad, x, rng=None).data
    second = lora_delta(ad, x, rng=None).data
    assert np.array_equal(first, second)


def test_adapted_forward_matches_merged_weight(rng):
    base = FrozenLinear(rng.normal(size=(5, 6)))
    ad = make_adapter(rng)
    x = Tensor(rng.uniform(-1, 1, (7, 6)))
    via_apply = adapted_forward(base, ad, x).data
    merged = merged_weight(base, ad)
    via_merge = x.data @ merged.T
    assert np.abs(via_apply - via_merge).max() < 1e-10


def test_adapted_forward_zero_b_is_base_and_zero_input_is_zero(rng):
    base = FrozenLinear(rng.normal(size=(5, 6)))
    ad = make_adapter(rng, zero_b=True)
    x = Tensor(rng.normal(size=(3, 6)))
    assert np.array_equal(adapted_forward(base, ad, x).data, base.apply(x).data)
    zero = Tensor(np.zeros((2, 6)))
    assert np.array_equal(adapted_forward(base, make_adapter(rng), zero).data,
                          np.zeros((2, 5)))


def test_merged_weight_cases(rng):
    base0 = FrozenLinear(np.zeros((2, 2)))
    ad = LoraAdapter(
        a=Tensor([[1.0, 1.0]], requires_grad=True),
        b=Tensor([[1.0], [1.0]], requires_grad=True),
        rank=1,
        alpha=1.0,
    )
    assert np.array_equal(merged_weight(base0, ad), np.ones((2, 2)))
    base = FrozenLinear(rng.normal(size=(2, 2)))
    zero_ad = make_adapter(rng, d_in=2, d_out=2, rank=1, zero_b=True)
    assert np.array_equal(merged_weight(base, zero_ad), base.w.data)
    # merged_weight leaves the base untouched
    snap = base.w.data.copy()
    merged_weight(base, make_adapter(rng, d_in=2, d_out=2, rank=1))
    assert np.array_equal(base.w.data, snap)


def test_rank_bound_enforced(rng):
    with pytest.raises(ContractError, match=r"rank 4 must be in \[1, min\(4, 3\)\]"):
        make_adapter(rng, d_in=4, d_out=3, rank=4)


def test_shape_mismatch_errors(rng):
    base = FrozenLinear(rng.normal(size=(5, 6)))
    ad = make_adapter(rng, d_in=4, d_out=5)
    with pytest.raises(ContractError, match=r"adapter \(5x4\) does not match base \(5x6\)"):
        adapted_forward(base, ad, Tensor(np.ones((2, 6))))
    with pytest.raises(ContractError, match=r"lora_delta: input \(2, 6\) vs d_in 4"):
        lora_delta(ad, Tensor(np.ones((2, 6))))


def test_dropout_applies_only_in_training(rng):
    ad = make_adapter(rng, dropout_p=0.5)
    x = Tensor(np.ones((64, 6)))
    eval_out = lora_delta(ad, x).data  # evaluation passes no rng
    eval_out2 = lora_delta(ad, x, rng=None).data
    assert np.array_equal(eval_out, eval_out2)
    train_out = lora_delta(ad, x, rng=np.random.default_rng(0)).data
    assert not np.array_equal(train_out, eval_out)


# ---------------------------------------------------------------------------
# lora_delta as one tape op
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
def test_delta_gradients_vs_finite_differences(rng, dropout_p):
    ad = make_adapter(rng, dropout_p=dropout_p)
    x = Tensor(rng.uniform(-1, 1, (7, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(7, 5)))

    def build():  # the rng is re-seeded, so every evaluation draws the same masks
        return sum_all(mul(lora_delta(ad, x, np.random.default_rng(5)), w))

    tape = Tape()
    with tape:
        loss = build()
    backward(tape, loss)
    for t in (x, ad.a, ad.b):
        assert max_rel_err(t.grad, fd_grad(lambda: build().item(), t)) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
def test_delta_op_equals_the_op_chain_bit_for_bit(dropout_p, dtype):
    rng = np.random.default_rng(21)
    ad = make_adapter(rng, d_in=6, d_out=6, rank=3, alpha=5.0, dropout_p=dropout_p,
                      dtype=dtype)
    base = FrozenLinear(rng.normal(size=(6, 6)).astype(dtype))
    x_data = rng.normal(size=(9, 6)).astype(dtype)
    w = Tensor(rng.normal(size=(9, 6)).astype(dtype))

    def run(delta):
        ad.a.grad = ad.b.grad = None
        x = Tensor(x_data.copy(), requires_grad=True)
        tape = Tape()
        with tape:  # x feeds the base first, so its gradient sums two terms
            out = add(base.apply(x), delta(ad, x, np.random.default_rng(3)))
            loss = sum_all(mul(out, w))
        backward(tape, loss)
        return out.data, x.grad, ad.a.grad.copy(), ad.b.grad.copy()

    got, expect = run(lora_delta), run(chain_lora_delta)
    assert got[0].dtype == dtype
    for g, e in zip(got, expect):
        assert np.array_equal(g, e)


def test_adapted_forward_records_three_nodes_or_two(rng):
    base = FrozenLinear(rng.normal(size=(5, 6)))
    ad = make_adapter(rng, dropout_p=0.3)
    for requires_grad, nodes in ((True, 3), (False, 2)):
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=requires_grad)
        with Tape() as tape:
            out = adapted_forward(base, ad, x, np.random.default_rng(0))
        assert len(tape.nodes) == nodes and tape.nodes[-1][0] is out


class CountsMatmuls(np.ndarray):
    """An array that counts the matrix products it takes part in, transposed
    or not; results are plain arrays, so only this operand is counted."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(v):
            return v.view(np.ndarray) if isinstance(v, CountsMatmuls) else v

        if ufunc is np.matmul:
            CountsMatmuls.calls += 1
        if "out" in kwargs:
            kwargs["out"] = tuple(plain(v) for v in kwargs["out"])
        return getattr(ufunc, method)(*(plain(v) for v in inputs), **kwargs)


def products_of(t: Tensor, run) -> int:
    """Number of matrix products ``run()`` forms with t's data as an operand."""
    t.data = t.data.view(CountsMatmuls)
    CountsMatmuls.calls = 0
    run()
    t.data = t.data.view(np.ndarray)
    return CountsMatmuls.calls


def forward_backward(fn, x):
    def run():
        with Tape() as tape:
            loss = sum_all(fn(x))
        backward(tape, loss)
    return run


def test_frozen_projection_backward_skips_the_weight_gradient(rng):
    base = FrozenLinear(rng.normal(size=(5, 6)))
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    # x @ W.T forward; x.T @ g would be W's gradient, which nothing reads.
    assert products_of(x, forward_backward(base.apply, x)) == 1
    assert base.w.grad is None and base._wt.grad is None
    assert np.array_equal(x.grad, np.ones((4, 5)) @ base.w.data)


def test_delta_backward_skips_the_input_gradient_of_a_frozen_input(rng):
    ad = make_adapter(rng)
    x = Tensor(rng.normal(size=(4, 6)))
    # A x forward only; gu @ A would be x's gradient, which nothing reads.
    assert products_of(ad.a, forward_backward(lambda v: lora_delta(ad, v), x)) == 1
    assert x.grad is None and ad.a.grad.any()
    x.requires_grad = True
    assert products_of(ad.a, forward_backward(lambda v: lora_delta(ad, v), x)) == 2
