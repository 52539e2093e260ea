"""Performance instrumentation: multiply-add ledger, latency, comparisons.

The ledger verifies the complexity claim exactly: per token and layer the
vanilla path spends 3k base GEMM-token units against (2+k) for the shared
path, a (2+k)/(3k) ratio (2/3 at k=2). Wall-clock numbers are measured on
the expert-mixture block itself, where the two paths differ, in float32, the
benchmark precision; the end-to-end benchmark lives in ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import MAX_ELEMENTS, frozen_parameter_count, trainable_parameter_count
from .errors import ContractError
from .lora import FrozenLinear
from .model import AdapterSet, ModelConfig
from .moe import MODES, MixLoraBlock, SharedFfn
from .numerics import Tape, Tensor, backward, set_flop_hook, sum_all

BASE, LORA, ROUTER = "base", "lora", "router"
# Bound on warmup_iters and on timed_iters: 50x the default of 20 timed
# iterations. A block call at 512 tokens took ~3.5 ms at the default dims and
# ~45 ms at d512, so the longest run of 2 modes x 2 phases is ~30 s and ~6 min.
MAX_ITERS = 1000


class FlopLedger:
    """Multiply-add counters keyed by (layer, projection, source)."""

    def __init__(self):
        self.counts: dict[tuple, int] = {}

    def add(self, n: int, labels: dict) -> None:
        key = (labels.get("layer", -1), labels.get("projection", "?"),
               labels.get("source", "other"))
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def total(self, source: str | None = None, projection: str | None = None) -> int:
        out = 0
        for (_, proj, src), n in self.counts.items():
            if source is not None and src != source:
                continue
            if projection is not None and proj != projection:
                continue
            out += n
        return out

    def by_source(self) -> dict[str, int]:
        return {s: self.total(source=s) for s in (BASE, LORA, ROUTER)}

    def reset(self) -> None:
        self.counts.clear()

    @contextlib.contextmanager
    def capture(self):
        """Route matmul counts into this ledger for the scope."""
        set_flop_hook(self.add)
        try:
            yield self
        finally:
            set_flop_hook(None)


def count_flops(config: ModelConfig, tokens: int, mode: str) -> FlopLedger:
    """Analytic ledger for one expert-mixture block processing `tokens` rows."""
    if mode not in MODES:
        raise ContractError(f"unknown mode {mode!r}")
    d, dff = config.d_model, config.d_ff
    k, n, r = config.top_k, config.n_experts, config.lora_rank
    t = tokens
    ledger = FlopLedger()
    unit = 2 * t * d * dff  # one full-token-set GEMM through a D x D' matrix
    if mode == "vanilla":
        base = {"w1": k * unit, "w3": k * unit, "w2": k * unit}
    else:
        base = {"w1": unit, "w3": unit, "w2": k * unit}
    for proj, cnt in base.items():
        ledger.add(cnt, {"layer": 0, "projection": proj, "source": BASE})
    # Each routed token runs every adapter pair: in (2*m*r*d_in) + out (2*m*d_out*r).
    for proj, (d_in, d_out) in (("w1", (d, dff)), ("w3", (d, dff)), ("w2", (dff, d))):
        ledger.add(2 * k * t * r * (d_in + d_out),
                   {"layer": 0, "projection": proj, "source": LORA})
    ledger.add(2 * t * d * n, {"layer": 0, "projection": "router", "source": ROUTER})
    return ledger


def base_flop_ratio(config: ModelConfig) -> Fraction:
    """Exact optimized/vanilla ratio of base-projection multiply-adds."""
    k = config.top_k
    return Fraction(2 + k, 3 * k)


@dataclass
class LatencyReport:
    mode: str
    phase: str  # forward | backward | inference
    tokens: int
    wall_time_s: float          # median timed-region seconds per iteration
    us_per_token: float
    samples_us_per_token: list[float]
    config_hash: str
    flops: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "mode": self.mode,
            "phase": self.phase,
            "tokens": self.tokens,
            "wall_time_s": self.wall_time_s,
            "us_per_token": self.us_per_token,
            "samples": self.samples_us_per_token,
            "flops": self.flops,
        }


def config_hash(config: ModelConfig) -> str:
    blob = json.dumps(vars(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def make_block(config: ModelConfig, seed: int = 0, dtype=np.float32
               ) -> tuple[MixLoraBlock, AdapterSet]:
    """A standalone block at the model's dimensions with its own tiny base,
    and the adapter set whose buffers hold its trainable tensors."""
    rng = np.random.default_rng([int(seed), 4])
    d, dff = config.d_model, config.d_ff

    def lin(rows, cols):
        return FrozenLinear(rng.normal(0.0, 0.02, size=(rows, cols)).astype(dtype))

    ffn = SharedFfn(lin(dff, d), lin(dff, d), lin(d, dff))
    aset = AdapterSet.create(config, "bench", seed, dtype=dtype)
    la = aset.layers[0]
    for triple in la.experts:
        for ad in (triple.w1, triple.w3, triple.w2):
            ad.b.data[...] = rng.normal(0.0, 0.02, size=ad.b.shape).astype(dtype)
    block = MixLoraBlock(la.router, ffn, la.experts, layer_index=0)
    return block, aset


def measure_latency(config: ModelConfig, mode: str, phase: str,
                    warmup_iters: int = 3, timed_iters: int = 20,
                    tokens: int = 512, seed: int = 0) -> LatencyReport:
    """Median microseconds per token over timed iterations, float32.

    forward   - recording forward (training-style)
    backward  - backward sweep only (forward re-recorded outside the timer)
    inference - forward with no recording
    """
    _check_iters(warmup_iters, timed_iters)
    return _time_modes(config, [mode], phase, warmup_iters, timed_iters,
                       tokens, seed)[mode]


def _time_modes(config: ModelConfig, modes: list[str], phase: str,
                warmup_iters: int, timed_iters: int, tokens: int,
                seed: int) -> dict[str, LatencyReport]:
    """One report per mode, timed in interleaved rounds on one block.

    Each round times one iteration of every mode and the mode that goes first
    alternates between rounds, so a host that slows down mid-run slows every
    mode alike instead of whichever ran last. Callers check the iteration
    counts (``_check_iters``).
    """
    if phase not in ("forward", "backward", "inference"):
        raise ContractError(f"unknown phase {phase!r}")
    block, aset = make_block(config, seed=seed, dtype=np.float32)
    rng = np.random.default_rng([int(seed), 5])
    h = Tensor(rng.normal(0.0, 1.0, size=(tokens, config.d_model)).astype(np.float32))

    def one_iter(mode: str) -> float:
        aset.optimizer.zero_grad()
        if phase == "inference":
            t0 = time.perf_counter()
            block.forward(h, mode, training=False)
            return time.perf_counter() - t0
        if phase == "forward":
            tape = Tape()
            with tape:
                t0 = time.perf_counter()
                block.forward(h, mode, training=False)
                return time.perf_counter() - t0
        tape = Tape()
        with tape:
            out, _ = block.forward(h, mode, training=False)
            loss = sum_all(out)
        t0 = time.perf_counter()
        backward(tape, loss)
        return time.perf_counter() - t0

    samples: dict[str, list[float]] = {m: [] for m in modes}
    for i in range(warmup_iters + timed_iters):
        for mode in (modes if i % 2 == 0 else modes[::-1]):
            s = one_iter(mode)
            if i >= warmup_iters:
                samples[mode].append(s)
    reports = {}
    for mode, secs in samples.items():
        wall = statistics.median(secs)
        reports[mode] = LatencyReport(
            mode=mode,
            phase=phase,
            tokens=tokens,
            wall_time_s=wall,
            us_per_token=wall * 1e6 / tokens,
            samples_us_per_token=[s * 1e6 / tokens for s in secs],
            config_hash=config_hash(config),
        )
    return reports


def _check_iters(warmup_iters: int, timed_iters: int) -> None:
    for name, n, low in (("warmup_iters", warmup_iters, 0), ("timed_iters", timed_iters, 1)):
        if not low <= n <= MAX_ITERS:
            raise ContractError(f"{name} must be in [{low}, {MAX_ITERS}], got {n}")


def verify_mode_equivalence(config: ModelConfig, tokens: int = 256,
                            seed: int = 0, tol: float = 1e-4) -> float:
    """Max-abs output difference between the two paths at float32."""
    block, _ = make_block(config, seed=seed, dtype=np.float32)
    rng = np.random.default_rng([int(seed), 5])
    h = Tensor(rng.normal(0.0, 1.0, size=(tokens, config.d_model)).astype(np.float32))
    out_v, _ = block.forward(h, "vanilla", training=False)
    out_o, _ = block.forward(h, "optimized", training=False)
    diff = float(np.abs(out_v.data - out_o.data).max())
    if diff >= tol:
        raise ContractError(f"paths diverge: max-abs diff {diff:.3e} >= {tol}")
    return diff


def compare_report(vanilla: LatencyReport, optimized: LatencyReport) -> dict:
    """Percent columns with the vanilla report as the 100% baseline."""
    if vanilla.config_hash != optimized.config_hash or vanilla.phase != optimized.phase:
        raise ContractError("compare_report: reports come from different runs")
    pct = 100.0 * (optimized.us_per_token / vanilla.us_per_token)  # exactly 100 for equal times
    out = {
        "phase": vanilla.phase,
        "tokens": vanilla.tokens,
        "vanilla": vanilla.to_dict(),
        "optimized": optimized.to_dict(),
        "percent": {"us_per_token": pct},
    }
    if vanilla.flops and optimized.flops:
        out["percent"]["base_flops"] = (
            100.0 * optimized.flops["base"] / vanilla.flops["base"]
        )
    return out


def run_bench(config: ModelConfig, modes: list[str], models: int = 1,
              tokens: int = 512, phases: tuple[str, ...] = ("forward", "inference"),
              warmup_iters: int = 3, timed_iters: int = 20, seed: int = 0) -> dict:
    """Full benchmark: flop ledgers, latency per mode/phase, memory census.
    Arguments are checked before any allocation, sizes against ``MAX_ELEMENTS``."""
    widest = tokens * max(config.top_k * max(config.d_model, config.d_ff), config.n_experts)
    census = frozen_parameter_count(config) + models * trainable_parameter_count(config)
    unknown = set(modes) - set(MODES)
    for bad, problem in (
        (not modes or unknown, f"modes must be among {MODES}, got {modes}"),
        (tokens < 1, f"tokens must be >= 1, got {tokens}"),
        (models < 1, f"models must be >= 1, got {models}"),
        (widest > MAX_ELEMENTS, f"tokens {tokens} need {widest} elements, above {MAX_ELEMENTS}"),
        (census > MAX_ELEMENTS, f"models {models} need {census} elements, above {MAX_ELEMENTS}"),
    ):
        if bad:
            raise ContractError(problem)
    _check_iters(warmup_iters, timed_iters)
    verify_mode_equivalence(config, tokens=min(tokens, 256), seed=seed)
    flops = {m: count_flops(config, tokens, m).by_source() for m in modes}
    result: dict = {
        "config_hash": config_hash(config),
        "tokens": tokens,
        "modes": modes,
        "flops": flops,
        "reports": [],
        "comparison": {},
    }
    if "vanilla" in modes and "optimized" in modes:
        ratio = base_flop_ratio(config)
        result["flop_ratio"] = float(ratio)
        result["flop_ratio_exact"] = f"{ratio.numerator}/{ratio.denominator}"
    for phase in phases:
        timed = _time_modes(config, modes, phase, warmup_iters, timed_iters, tokens, seed)
        for mode in modes:
            timed[mode].flops = flops[mode]
            result["reports"].append(timed[mode].to_dict())
        if "vanilla" in timed and "optimized" in timed:
            result["comparison"][phase] = compare_report(timed["vanilla"],
                                                         timed["optimized"])["percent"]
    result["memory"] = _bench_memory(config, models, seed)
    return result


def _bench_memory(config: ModelConfig, models: int, seed: int) -> dict:
    from .multitask import MultiTaskEngine, memory_census

    def census_for(m: int) -> dict:
        engine = MultiTaskEngine(config, seed)
        for i in range(m):
            engine.add_set(f"model{i}")
        return memory_census(engine)

    single = census_for(1)
    out = {"models": models, "single": single}
    if models >= 2:
        multi = census_for(models)
        out["multi"] = multi
        out["per_model_share"] = multi["total"] / (models * single["total"])
    return out
