"""Performance instrumentation: the multiply-add ledger and ``mixlora bench``.

The ledger verifies the complexity claim exactly: per token and layer the
vanilla path spends 3k base GEMM-token units against (2+k) for the shared
path, a (2+k)/(3k) ratio (2/3 at k=2). ``run_bench`` times the package's own
operations in both modes, at the config's dimensions in float32:
``train.train_step`` on one mixed batch, and ``multitask.multi_forward`` over
one adapter set per configured task. The benchmark with its workloads and
output checks lives in ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import statistics
import time
from fractions import Fraction

import numpy as np

from .config import ModelConfig, RunConfig
from .errors import ContractError
from .model import build_model
from .moe import MODES
from .multitask import MultiTaskBatch, MultiTaskEngine, memory_census, multi_forward
from .numerics import set_flop_hook
from .tasks import mixed_batch, sample_batch
from .train import task_suite, train_step

BASE, LORA, ROUTER = "base", "lora", "router"
# Bound on timed_iters: 50x the default of 20 rounds. A round (both ops in both
# modes) took ~1.2 s at tools/bench-d512.json's dimensions on one BLAS thread, so
# the longest run there is ~20 min.
MAX_ITERS = 1000
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def config_hash(config: ModelConfig) -> str:
    blob = json.dumps(vars(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def verify_mode_equivalence(logits_of, tol: float = 1e-4) -> float:
    """Max-abs difference between ``logits_of("vanilla")`` and
    ``logits_of("optimized")``; a ``ContractError`` unless it is below ``tol``."""
    diff = float(np.abs(logits_of("vanilla") - logits_of("optimized")).max())
    if not diff < tol:
        raise ContractError(f"paths diverge: max-abs diff {diff:.3e}, not below {tol}")
    return diff


def run_bench(config: RunConfig, timed_iters: int = 20) -> dict:
    """Both modes of ``train_step`` and of a serve call, timed in float32.

    The config and ``timed_iters`` are checked before any task data or model
    exists. One untimed call per (op, mode) warms up; the train steps make
    the adapters' B nonzero, and the serve sets take the trained buffer. Both
    ops must then give the same logits in both modes. Each of ``timed_iters``
    rounds times every (op, mode), and the mode that goes first alternates
    between rounds, so host drift slows both modes alike. ``cli``'s docstring
    gives the output schema.
    """
    config.validate()
    if not 1 <= timed_iters <= MAX_ITERS:
        raise ContractError(f"timed_iters must be in [1, {MAX_ITERS}], got {timed_iters}")
    tasks, datas = task_suite(config)
    model = build_model(config.model(), config.seed, np.float32, config.lr)
    rng = np.random.default_rng([config.seed, 6])  # train()'s batch stream
    train_batch = mixed_batch(tasks, [d.train for d in datas], rng, config.batch_size)
    engine = MultiTaskEngine(config, config.seed, np.float32, config.lr)
    set_ids = [f"{i}:{name}" for i, name in enumerate(config.tasks)]
    serve_batch = MultiTaskBatch(set_ids, [sample_batch(t, d.test, rng, config.batch_size)
                                           for t, d in zip(tasks, datas)])
    ops = {"train_step": lambda mode: train_step(model, train_batch, mode),
           "serve": lambda mode: multi_forward(engine, serve_batch, mode)}
    tokens = {"train_step": train_batch.tokens.size,
              "serve": sum(b.tokens.size for b in serve_batch.slices)}

    for mode in MODES:
        ops["train_step"](mode)
    for set_id in set_ids:
        engine.add_set(set_id).data[...] = model.adapters.data
    for mode in MODES:
        ops["serve"](mode)
    logits = {
        "train_step": lambda mode: model.logits_at(
            train_batch.tokens, train_batch.positions, mode)[0].data,
        "serve": lambda mode: np.concatenate(
            [out[0].data for out in multi_forward(engine, serve_batch, mode).values()]),
    }
    max_abs_diff = {op: verify_mode_equivalence(logits[op]) for op in ops}

    seconds: dict[tuple, list[float]] = {(op, mode): [] for op in ops for mode in MODES}
    for i in range(timed_iters):
        for op, run in ops.items():
            for mode in (MODES if i % 2 == 0 else MODES[::-1]):
                t0 = time.perf_counter()
                run(mode)
                seconds[op, mode].append(time.perf_counter() - t0)

    ratio = base_flop_ratio(config)
    report = {}
    for op in ops:
        entry: dict = {"tokens": tokens[op], "max_abs_logit_diff": max_abs_diff[op]}
        for mode in MODES:
            median = statistics.median(seconds[op, mode])
            flops = count_flops(config, tokens[op], mode).by_source()
            entry[mode] = {"median_ms": 1e3 * median, "tokens_per_s": tokens[op] / median,
                           "block_flops": {s: config.n_layers * n for s, n in flops.items()}}
        rounds = [o / v for v, o in zip(seconds[op, "vanilla"], seconds[op, "optimized"])]
        entry["ratios"] = rounds
        entry["median_ratio"] = statistics.median(rounds)
        report[op] = entry
    return {
        "config_hash": config_hash(config),
        "host": {"numpy": np.__version__, "cpu_count": os.cpu_count(),
                 "threads": {var: os.environ.get(var) for var in THREAD_VARS}},
        "precision": "f32",
        "timed_iters": timed_iters,
        "base_flop_ratio": f"{ratio.numerator}/{ratio.denominator}",
        "ops": report,
        "memory": memory_census(engine),
    }
