"""Command-line entry point.

Subcommands: train, eval, bench, sweep, inspect-routing.
Exit codes: 0 ok, 2 usage/config/checkpoint problems, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bench import run_bench
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .errors import CheckpointError, ConfigError, ContractError, NumericError
from .moe import MODES, RoutingStats, expert_load_report, expert_load_std
from .tasks import default_tasks, evaluate, required_vocab
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
    t.add_argument("--mode", choices=MODES)
    t.add_argument("--multitask", action="store_true",
                   help="mix every configured task into each batch")

    e = sub.add_parser("eval", help="held-out accuracy and routing stats")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--task", required=True)

    b = sub.add_parser("bench", help="flop ledger, latency, and memory comparison")
    b.add_argument("--config", required=True)
    b.add_argument("--modes", default=",".join(MODES))
    b.add_argument("--models", type=int, default=1)
    b.add_argument("--tokens", type=int, default=512)
    b.add_argument("--warmup-iters", type=int, default=3)
    b.add_argument("--timed-iters", type=int, default=20)

    s = sub.add_parser("sweep", help="train one model per axis point")
    s.add_argument("--config", required=True)
    s.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    s.add_argument("--jobs", type=int, default=1,
                   help="parallel workers; results match the sequential run")
    s.add_argument("--out", help="optional JSONL output path")

    r = sub.add_parser("inspect-routing", help="per-task expert load records")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--task", required=True)
    return p


def cmd_train(args) -> int:
    config = load_config(args.config)
    if args.mode:
        config.mode = args.mode
    config.validate()
    model, metrics = train(config, multitask=args.multitask)
    metrics_path = args.out + ".metrics.jsonl"
    with open(metrics_path, "w", encoding="utf-8") as f:
        for entry in metrics:
            f.write(json.dumps(entry) + "\n")
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


def _task_stats(model, config: RunConfig, task_name: str):
    registry = default_tasks()
    if task_name not in registry:
        raise ConfigError(f"unknown task {task_name!r}; known: {sorted(registry)}")
    task = registry[task_name]
    if config.vocab_size < required_vocab([task]):
        raise ConfigError(
            f"checkpoint vocab_size {config.vocab_size} cannot encode task "
            f"{task_name!r}"
        )
    data = task.generate(config.seed)
    acc, stats = evaluate(model, task, data.test, config.mode)
    return task, acc, stats


def cmd_eval(args) -> int:
    config, model = load_checkpoint(args.ckpt)
    task, acc, stats = _task_stats(model, config, args.task)
    out = {
        "task": task.name,
        "accuracy": acc,
        "expert_load_std": [expert_load_std(st) for st in stats],
        "records": expert_load_report({task.name: RoutingStats.merge(stats)}),
    }
    print(json.dumps(out))
    return 0


def cmd_bench(args) -> int:
    config = load_config(args.config)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    result = run_bench(config.model(), modes, models=args.models,
                       tokens=args.tokens, warmup_iters=args.warmup_iters,
                       timed_iters=args.timed_iters, seed=config.seed)
    print(json.dumps(result))
    return 0


def sweep_point(config_dict: dict, axis: str, value) -> dict:
    """Train and evaluate one sweep point (top-level for process pools)."""
    raw = dict(config_dict)
    raw["aux_coef" if axis == "aux_coef" else "lora_rank"] = value
    config = RunConfig.from_dict(raw)
    model, metrics = train(config, multitask=len(config.tasks) > 1)
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


def run_sweep(config: RunConfig, axis: str, jobs: int = 1) -> list[dict]:
    values = SWEEP_AXES[axis]
    cfg = config.to_dict()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(sweep_point, [cfg] * len(values),
                                 [axis] * len(values), values))
    return [sweep_point(cfg, axis, v) for v in values]


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    rows = run_sweep(config, args.axis, jobs=args.jobs)
    lines = [json.dumps(row) for row in rows]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_inspect_routing(args) -> int:
    config, model = load_checkpoint(args.ckpt)
    task, acc, stats = _task_stats(model, config, args.task)
    records = expert_load_report({task.name: RoutingStats.merge(stats)})
    print(json.dumps(records))
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
        "inspect-routing": cmd_inspect_routing,
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
