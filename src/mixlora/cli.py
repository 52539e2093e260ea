"""Command-line entry point.

Subcommands: train, eval, bench, sweep.
Exit codes: 0 ok, 2 usage, config, checkpoint or contract problems, 3 numeric failure.

``train`` mixes every configured task into each batch, in equal shares, so
``batch_size`` must be a multiple of the task count (``RunConfig.validate``).
It writes the checkpoint to ``--out`` (not a directory) and, per step, one JSON
line {step, **record of ``train.train_step``} to ``<out>.metrics.jsonl``.

``eval`` checks the task against the checkpoint's config, validating it with
``tasks`` set to that one task, and prints one JSON object
{task, accuracy, expert_load_std, records}.
``records`` is the routing report: one record per (layer, expert),
{task, layer, expert_id, F, P, std}, where F is the share of held-out tokens
whose argmax expert it is, P its mean router probability and std the
layer's spread of F.

``sweep`` prints one JSON line per axis point to stdout; redirect it to keep
the rows in a file.

``bench`` runs ``train.train_step`` on one mixed batch and a serve call
(``multitask.multi_forward`` over one adapter set per configured task), each in
both modes, in float32 at the config's dimensions, whatever its precision. It
prints one JSON object {config_hash, host, precision, timed_iters,
base_flop_ratio, ops, memory, argv}. ``host`` holds the numpy version, the BLAS
build {name, version, openblas configuration} (null where numpy does not report
it), the CPU count and the BLAS thread variables. ``ops`` maps "train_step" and
"serve" to {tokens, max_abs_logit_diff, vanilla, optimized, ratios,
median_ratio}; each mode holds {median_ms, iqr_ms, tokens_per_s, minor_faults,
block_flops}, where iqr_ms is the interquartile range of the round times,
minor_faults the median count of minor page faults per timed call, block_flops
the expert blocks' forward multiply-adds per source, and ratios holds the
optimized/vanilla time of each round. ``memory`` is ``multitask.memory_census``
of the serve engine, and ``argv`` the command line that repeats the run. The
measurements (median_ms, iqr_ms, tokens_per_s, minor_faults, ratios,
median_ratio) are the only fields that differ between runs on one host.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bench import run_bench
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .errors import CheckpointError, ConfigError, ContractError, NumericError
from .tasks import default_tasks
from .train import evaluate_tasks, train

SWEEP_AXES = {
    "aux_coef": (0.0, 1e-3, 1e-2, 1e-1),
    "rank": (2, 4, 8, 16, 32),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mixlora")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train one adapter set and write a checkpoint")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="held-out accuracy and routing stats")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--task", required=True)

    b = sub.add_parser("bench", help="time train_step and serve calls in both modes")
    b.add_argument("--config", required=True)
    b.add_argument("--timed-iters", type=int, default=20)

    s = sub.add_parser("sweep", help="train one model per axis point")
    s.add_argument("--config", required=True)
    s.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    s.add_argument("--jobs", type=int, default=1,
                   help="parallel workers; results match the sequential run")
    return p


def cmd_train(args) -> int:
    config = load_config(args.config)
    if os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} is a directory")
    metrics_path = args.out + ".metrics.jsonl"
    try:
        log = open(metrics_path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write metrics {metrics_path}: {exc}") from exc
    with log:
        model, metrics = train(config,
                               log_cb=lambda entry: log.write(json.dumps(entry) + "\n"))
    save_checkpoint(args.out, config, model)
    summary = {
        "checkpoint": args.out,
        "metrics": metrics_path,
        "steps": config.steps,
        "final_task_loss": metrics[-1]["task_loss"] if metrics else None,
        "eval": evaluate_tasks(model, config),
    }
    print(json.dumps(summary))
    return 0


def cmd_eval(args) -> int:
    registry = default_tasks()
    if args.task not in registry:
        raise ConfigError(f"unknown task {args.task!r}; known: {sorted(registry)}")
    config, model = load_checkpoint(args.ckpt)
    config = dataclasses.replace(config, tasks=(args.task,)).validate()
    report = evaluate_tasks(model, config)[args.task]
    print(json.dumps({"task": args.task, **report}))
    return 0


def cmd_bench(args) -> int:
    report = run_bench(load_config(args.config), args.timed_iters)
    argv = ["mixlora", "bench", "--config", args.config, "--timed-iters", str(args.timed_iters)]
    print(json.dumps({**report, "argv": argv}))
    return 0


def sweep_configs(config: RunConfig, axis: str) -> list[RunConfig]:
    """One config per axis point; all are checked before any point trains."""
    name = "aux_coef" if axis == "aux_coef" else "lora_rank"
    return [dataclasses.replace(config, **{name: value}).validate()
            for value in SWEEP_AXES[axis]]


def sweep_point(config: RunConfig, axis: str, value) -> dict:
    """Train and evaluate one sweep point (top-level for process pools)."""
    model, metrics = train(config)
    results = evaluate_tasks(model, config)
    accs = [r["accuracy"] for r in results.values()]
    stds = [float(np.mean(r["expert_load_std"])) for r in results.values()]
    return {
        "axis": axis,
        "value": value,
        "accuracy": float(np.mean(accs)),
        "expert_load_std": float(np.mean(stds)),
        "final_task_loss": metrics[-1]["task_loss"] if metrics else None,
        "per_task": {name: r["accuracy"] for name, r in results.items()},
    }


def run_sweep(points: list[RunConfig], axis: str, jobs: int = 1) -> list[dict]:
    values = SWEEP_AXES[axis]
    workers = min(jobs, len(values))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(sweep_point, points, [axis] * len(values), values))
    return [sweep_point(p, axis, v) for p, v in zip(points, values)]


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    points = sweep_configs(config, args.axis)
    for row in run_sweep(points, args.axis, jobs=args.jobs):
        print(json.dumps(row))
    return 0


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "bench": cmd_bench,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, CheckpointError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
