import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mixlora.bench import (
    FlopLedger,
    base_flop_ratio,
    config_hash,
    count_flops,
    run_bench,
    verify_mode_equivalence,
)
from mixlora.config import ModelConfig, RunConfig, load_config
from mixlora.errors import ContractError
from mixlora.model import build_model
from mixlora.numerics import Tensor

ROOT = Path(__file__).resolve().parents[1]

CFG = ModelConfig(
    vocab_size=64, d_model=64, n_heads=4, d_ff=128, n_layers=1, n_experts=8,
    top_k=2, lora_rank=16, lora_alpha=32.0, dropout_p=0.0, max_seq_len=64,
)


def instrumented_counts(config, tokens, mode, seed=0):
    block = build_model(config, seed, np.float64).blocks[0]
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


def model_logits(seed=3):
    """Logits of a CFG model with random adapters, in float32, per mode."""
    model = build_model(CFG, seed, np.float32)
    rng = np.random.default_rng(seed)
    model.adapters.data[...] = rng.normal(0.0, 0.02, size=model.adapters.data.shape)
    tokens = rng.integers(0, CFG.vocab_size, size=(2, 64))
    positions = np.arange(tokens.size)
    return lambda mode: model.logits_at(tokens, positions, mode)[0].data


def test_mode_equivalence_inside_bench_harness():
    diff = verify_mode_equivalence(model_logits())
    assert diff < 1e-4


@pytest.mark.parametrize("perturb", [1e-3, np.nan])
def test_mode_equivalence_raises_when_one_mode_is_perturbed(perturb):
    logits = model_logits()

    def perturbed(mode):
        out = logits(mode)
        if mode == "optimized":
            out[0, 0] += perturb
        return out

    with pytest.raises(ContractError, match="paths diverge"):
        verify_mode_equivalence(perturbed)


OPS = ("train_step", "serve")
MODE_KEYS = {"median_ms", "iqr_ms", "tokens_per_s", "minor_faults", "block_flops"}
REPORT_KEYS = {"config_hash", "host", "precision", "timed_iters", "base_flop_ratio", "ops",
               "memory"}


def assert_bench_schema(result, rounds):
    assert set(result) == REPORT_KEYS
    assert result["precision"] == "f32" and result["timed_iters"] == rounds
    assert set(result["host"]) == {"numpy", "blas", "cpu_count", "threads"}
    assert result["host"]["blas"] is None or set(result["host"]["blas"]) == {
        "name", "version", "openblas configuration"}
    assert set(result["ops"]) == set(OPS)
    for entry in result["ops"].values():
        assert entry["max_abs_logit_diff"] < 1e-4
        for mode in ("vanilla", "optimized"):
            assert set(entry[mode]) == MODE_KEYS
            assert entry[mode]["median_ms"] > 0 and entry[mode]["tokens_per_s"] > 0
            assert entry[mode]["iqr_ms"] >= 0 and entry[mode]["minor_faults"] >= 0
        assert len(entry["ratios"]) == rounds and entry["median_ratio"] > 0
        base = Fraction(entry["optimized"]["block_flops"]["base"],
                        entry["vanilla"]["block_flops"]["base"])
        assert base == Fraction(result["base_flop_ratio"])
    assert {"base_bytes", "per_set_bytes", "total"} <= set(result["memory"])


# Two experts, top-2 and two tasks: both ops run, over two serve sets.
TINY = RunConfig(vocab_size=32, d_model=8, n_heads=2, d_ff=8, n_layers=1, n_experts=2,
                 top_k=2, lora_rank=2, lora_alpha=4.0, max_seq_len=16, batch_size=2,
                 seed=1, tasks=("copy", "reverse"))


def test_run_bench_schema_and_flop_ratio():
    result = run_bench(TINY, timed_iters=1)
    json.dumps(result)
    assert_bench_schema(result, rounds=1)
    assert result["base_flop_ratio"] == "2/3"
    assert result["config_hash"] == config_hash(TINY)
    assert result["ops"]["train_step"]["tokens"] == 2 * 14
    assert result["ops"]["serve"]["tokens"] == 2 * 2 * 14
    assert len(result["memory"]["per_set_bytes"]) == 2


def test_committed_bench_config_and_baseline():
    config = load_config(str(ROOT / "tools" / "bench-d512.json"))
    assert (config.d_model, config.d_ff, len(config.tasks), config.batch_size,
            config.seed) == (512, 1376, 4, 16, 0)
    result = json.loads((ROOT / "BENCH_baseline.json").read_text())
    assert result.pop("argv") == ["mixlora", "bench", "--config", "tools/bench-d512.json",
                                  "--timed-iters", str(result["timed_iters"])]
    assert_bench_schema(result, rounds=result["timed_iters"])
    assert result["config_hash"] == config_hash(config)


def test_flop_ledger_filters():
    led = count_flops(CFG, 5, "vanilla")
    assert led.total() == led.total(source="base") + led.total(source="lora") + led.total(source="router")
    assert led.total(projection="w1") > 0
