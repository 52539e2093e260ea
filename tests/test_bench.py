import json
from fractions import Fraction

import numpy as np
import pytest

from mixlora.bench import (
    FlopLedger,
    base_flop_ratio,
    compare_report,
    count_flops,
    make_block,
    measure_latency,
    run_bench,
    verify_mode_equivalence,
)
from mixlora.errors import ContractError
from mixlora.model import ModelConfig
from mixlora.numerics import Tensor

CFG = ModelConfig(
    vocab_size=64, d_model=64, n_heads=4, d_ff=128, n_layers=1, n_experts=8,
    top_k=2, lora_rank=16, lora_alpha=32.0, dropout_p=0.0, max_seq_len=64,
)


def instrumented_counts(config, tokens, mode, seed=0):
    block, _ = make_block(config, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    h = Tensor(rng.normal(size=(tokens, config.d_model)))
    ledger = FlopLedger()
    with ledger.capture():
        block.forward(h, mode)
    return ledger


def test_analytic_counts_match_spec_arithmetic():
    led = count_flops(CFG, 10, "vanilla")
    assert led.total(source="base") == 983_040
    led = count_flops(CFG, 10, "optimized")
    assert led.total(source="base") == 655_360


@pytest.mark.parametrize("mode", ["vanilla", "optimized"])
@pytest.mark.parametrize("n,k", [(8, 2), (4, 1), (3, 3), (8, 3), (1, 1)])
def test_instrumented_equals_analytic_exactly(mode, n, k):
    config = ModelConfig(
        vocab_size=16, d_model=12, n_heads=2, d_ff=20, n_layers=1, n_experts=n,
        top_k=k, lora_rank=3, lora_alpha=6.0, dropout_p=0.0, max_seq_len=8,
    )
    tokens = 37
    analytic = count_flops(config, tokens, mode)
    measured = instrumented_counts(config, tokens, mode)
    assert measured.counts == analytic.counts  # integer equality, per key


def test_base_ratio_law():
    for k in (1, 2, 3, 4):
        config = ModelConfig(
            vocab_size=16, d_model=8, n_heads=2, d_ff=12, n_layers=1,
            n_experts=max(2, k), top_k=k, lora_rank=2, lora_alpha=4.0,
            dropout_p=0.0, max_seq_len=8,
        )
        v = count_flops(config, 11, "vanilla").total(source="base")
        o = count_flops(config, 11, "optimized").total(source="base")
        assert Fraction(o, v) == Fraction(2 + k, 3 * k)
        assert base_flop_ratio(config) == Fraction(2 + k, 3 * k)
    # k = 2 is the one-third reduction
    assert base_flop_ratio(CFG) == Fraction(2, 3)
    # route-to-all with 3 experts: 9 vs 5 units per token
    cfg3 = ModelConfig(vocab_size=16, d_model=8, n_heads=2, d_ff=12, n_layers=1,
                       n_experts=3, top_k=3, lora_rank=2, lora_alpha=4.0,
                       dropout_p=0.0, max_seq_len=8)
    assert base_flop_ratio(cfg3) == Fraction(5, 9)


def test_lora_and_router_counts_identical_across_modes():
    v = count_flops(CFG, 21, "vanilla")
    o = count_flops(CFG, 21, "optimized")
    assert v.total(source="lora") == o.total(source="lora")
    assert v.total(source="router") == o.total(source="router")
    mv = instrumented_counts(CFG, 21, "vanilla")
    mo = instrumented_counts(CFG, 21, "optimized")
    assert mv.total(source="lora") == mo.total(source="lora")
    assert mv.total(source="router") == mo.total(source="router")


def test_mode_equivalence_inside_bench_harness():
    diff = verify_mode_equivalence(CFG, tokens=128, seed=3)
    assert diff < 1e-4


def test_measure_latency_report_fields():
    rep = measure_latency(CFG, "optimized", "forward", warmup_iters=1,
                          timed_iters=4, tokens=64)
    assert rep.tokens == 64
    assert len(rep.samples_us_per_token) == 4
    assert rep.us_per_token == pytest.approx(rep.wall_time_s * 1e6 / rep.tokens)
    assert rep.us_per_token > 0
    d = rep.to_dict()
    json.dumps(d)
    for key in ("config_hash", "mode", "phase", "us_per_token", "samples"):
        assert key in d


def test_measure_latency_validates_args():
    with pytest.raises(ContractError):
        measure_latency(CFG, "optimized", "sideways", timed_iters=1)
    with pytest.raises(ContractError):
        measure_latency(CFG, "optimized", "forward", timed_iters=0)


def test_compare_report_percentages():
    a = measure_latency(CFG, "vanilla", "forward", warmup_iters=0, timed_iters=1,
                        tokens=32)
    same = compare_report(a, a)
    assert same["percent"]["us_per_token"] == 100.0
    b = measure_latency(CFG, "optimized", "forward", warmup_iters=0, timed_iters=1,
                        tokens=32)
    b.us_per_token = a.us_per_token * 0.7
    assert compare_report(a, b)["percent"]["us_per_token"] == pytest.approx(70.0)


def test_compare_report_rejects_mismatch():
    a = measure_latency(CFG, "vanilla", "forward", warmup_iters=0, timed_iters=1,
                        tokens=32)
    b = measure_latency(CFG, "vanilla", "inference", warmup_iters=0, timed_iters=1,
                        tokens=32)
    with pytest.raises(ContractError):
        compare_report(a, b)


def test_run_bench_schema_and_flop_ratio():
    result = run_bench(CFG, ["vanilla", "optimized"], models=2, tokens=64,
                       phases=("forward",), warmup_iters=0, timed_iters=2)
    json.dumps(result)
    assert result["flop_ratio"] == pytest.approx(2.0 / 3.0, abs=0)
    assert result["flop_ratio_exact"] == "2/3"
    assert len(result["reports"]) == 2
    assert result["memory"]["per_model_share"] < 1.0
    assert "us_per_token" in result["comparison"]["forward"]


def test_flop_ledger_reset_and_filters():
    led = count_flops(CFG, 5, "vanilla")
    assert led.total() == led.total(source="base") + led.total(source="lora") + led.total(source="router")
    assert led.total(projection="w1") > 0
    led.reset()
    assert led.total() == 0
