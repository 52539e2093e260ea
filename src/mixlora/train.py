"""The one training step, the training loop and evaluation drivers.

``train_step`` is the only place a step happens: forward under a tape,
backward, a non-finite gradient check, then the optimizer update. ``train``
calls it once per step; a multi-task engine trains by calling it once per
adapter set, on ``engine.model(set_id)``. It calls ``model_loss`` and ``backward`` through this module's globals,
so wrapping them here instruments every step.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import ConfigError, NumericError
from .model import Batch, ToyModel, build_model, model_loss
from .moe import expert_load_report, expert_load_std
from .numerics import Tape, backward
from .tasks import SyntheticTask, TaskData, default_tasks, evaluate, mixed_batch, sample_batch


def task_suite(config: RunConfig) -> tuple[list[SyntheticTask], list[TaskData]]:
    registry = default_tasks()
    tasks = [registry[name] for name in config.tasks]
    datas = [t.generate(config.seed) for t in tasks]
    return tasks, datas


def check_batching(config: RunConfig, multitask: bool) -> None:
    """Raise ``ConfigError`` unless ``train(config, multitask)`` can form its
    batches: one task alone, or an equal share of every task per mixed batch."""
    n_tasks = len(config.tasks)
    if not multitask and n_tasks != 1:
        raise ConfigError(
            "single-task training needs exactly one task; pass multitask=True "
            f"for the {n_tasks}-task suite"
        )
    if multitask and config.batch_size % n_tasks:
        raise ConfigError(f"batch_size {config.batch_size} is not a multiple of the "
                          f"task count {n_tasks}")


def train_step(model: ToyModel, batch: Batch, mode: str = "optimized") -> dict:
    """One forward/backward/update; only adapter-set parameters change.

    Backward adds into the set's gradient buffer, zero at entry, so entries
    the loss did not reach stay zero. One ``isfinite`` checks the whole buffer;
    only a failure looks up the offending tensor's name."""
    aset = model.adapters
    tape = Tape()
    with tape:
        out = model_loss(model, batch, mode, training=True)
    backward(tape, out.total)
    if not np.isfinite(aset.grad).all():
        name = next(name for name, t in aset.named_parameters()
                    if not np.isfinite(t.grad).all())
        raise NumericError(f"non-finite gradient for {name}")
    aset.optimizer.step()
    aset.optimizer.zero_grad()
    return {
        "total": out.total.item(),
        "task": out.task.item(),
        "aux": out.aux.item(),
        "stats": out.stats,
    }


def train(config: RunConfig, multitask: bool = False,
          log_cb=None) -> tuple[ToyModel, list[dict]]:
    """Train one adapter set; multitask mixes every configured task per batch.

    Returns the model and one metrics record per step:
    {step, task_loss, aux_loss, total_loss, expert_load: [[F per expert] per layer]}.
    """
    config.validate()
    check_batching(config, multitask)
    tasks, datas = task_suite(config)
    model = build_model(config.model(), seed=config.seed, dtype=config.dtype, lr=config.lr)
    batch_rng = np.random.default_rng([config.seed, 6])
    metrics: list[dict] = []
    for step in range(config.steps):
        if multitask:
            batch = mixed_batch(tasks, [d.train for d in datas], batch_rng,
                                config.batch_size)
        else:
            batch = sample_batch(tasks[0], datas[0].train, batch_rng, config.batch_size)
        out = train_step(model, batch, config.mode)
        entry = {
            "step": step,
            "task_loss": out["task"],
            "aux_loss": out["aux"],
            "total_loss": out["total"],
            "expert_load": [st.dispatch_fractions().tolist() for st in out["stats"]],
        }
        metrics.append(entry)
        if log_cb is not None:
            log_cb(entry)
    return model, metrics


def evaluate_tasks(model: ToyModel, config: RunConfig,
                   task_names: list[str] | None = None) -> dict[str, dict]:
    """Held-out accuracy and routing report per task:
    {accuracy, expert_load_std: [per layer], records: ``expert_load_report`` rows}."""
    registry = default_tasks()
    names = list(task_names or config.tasks)
    out = {}
    for name in names:
        task = registry[name]
        data = task.generate(config.seed)
        acc, stats = evaluate(model, task, data.test, config.mode)
        out[name] = {
            "accuracy": acc,
            "expert_load_std": [expert_load_std(st) for st in stats],
            "records": expert_load_report(name, stats),
        }
    return out
