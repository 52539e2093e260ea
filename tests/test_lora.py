import numpy as np
import pytest

from mixlora.errors import DimensionError
from mixlora.lora import FrozenLinear, LoraAdapter, adapted_forward, lora_delta
from mixlora.numerics import Tensor


def merged_weight(base, adapter):
    """W + (alpha/rank) * B A as a fresh array; the base is left untouched."""
    return base.w.data + adapter.scaling * (adapter.b.data @ adapter.a.data)


def make_adapter(rng, d_in=6, d_out=5, rank=2, alpha=4.0, zero_b=False, dropout_p=0.0):
    a = Tensor(rng.normal(0, 0.5, (rank, d_in)), requires_grad=True)
    b_data = np.zeros((d_out, rank)) if zero_b else rng.normal(0, 0.5, (d_out, rank))
    b = Tensor(b_data, requires_grad=True)
    return LoraAdapter(a, b, rank, alpha, dropout_p)


def test_fresh_adapter_delta_is_exactly_zero(rng):
    ad = LoraAdapter.create(8, 8, 3, 16.0, 0.05, rng)
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
    first = lora_delta(ad, x, training=True, rng=None).data
    second = lora_delta(ad, x, training=True, rng=None).data
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
    with pytest.raises(DimensionError):
        LoraAdapter.create(4, 3, 4, 8.0, 0.0, rng)


def test_shape_mismatch_errors(rng):
    base = FrozenLinear(rng.normal(size=(5, 6)))
    ad = make_adapter(rng, d_in=4, d_out=5)
    with pytest.raises(DimensionError):
        adapted_forward(base, ad, Tensor(np.ones((2, 6))))
    with pytest.raises(DimensionError):
        lora_delta(ad, Tensor(np.ones((2, 6))))


def test_dropout_applies_only_in_training(rng):
    ad = make_adapter(rng, dropout_p=0.5)
    x = Tensor(np.ones((64, 6)))
    eval_out = lora_delta(ad, x, training=False, rng=np.random.default_rng(0)).data
    eval_out2 = lora_delta(ad, x, training=False, rng=np.random.default_rng(1)).data
    assert np.array_equal(eval_out, eval_out2)
    train_out = lora_delta(ad, x, training=True, rng=np.random.default_rng(0)).data
    assert not np.array_equal(train_out, eval_out)
