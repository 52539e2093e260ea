"""The one training step, the training loop and evaluation drivers.

``train_step`` is the only place a step happens: forward under a tape,
backward, a non-finite gradient check, then the optimizer update. ``train``
calls it once per step and ``multitask.multi_train_step`` once per adapter
set. It calls ``model_loss`` and ``backward`` through this module's globals,
so wrapping them here instruments every step.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import ConfigError, ContractError, NumericError
from .model import Batch, ToyModel, build_model, model_loss
from .moe import expert_load_std
from .numerics import Tape, backward
from .tasks import SyntheticTask, TaskData, default_tasks, evaluate, mixed_batch, sample_batch


def task_suite(config: RunConfig) -> tuple[list[SyntheticTask], list[TaskData]]:
    registry = default_tasks()
    tasks = [registry[name] for name in config.tasks]
    datas = [t.generate(config.seed) for t in tasks]
    return tasks, datas


def train_step(model: ToyModel, batch: Batch, mode: str = "optimized") -> dict:
    """One forward/backward/update; only adapter-set parameters change."""
    if model.adapters is None or model.adapters.optimizer is None:
        raise ContractError("train_step needs an adapter set with an optimizer")
    opt = model.adapters.optimizer
    tape = Tape()
    with tape:
        out = model_loss(model, batch, mode, training=True)
    backward(tape, out.total)
    for name, t in model.adapters.named_parameters():
        if t.grad is not None and not np.all(np.isfinite(t.grad)):
            raise NumericError(f"non-finite gradient for {name}")
    opt.step()
    opt.zero_grad()
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
    tasks, datas = task_suite(config)
    if not multitask and len(tasks) != 1:
        raise ConfigError(
            "single-task training needs exactly one task; pass multitask=True "
            f"for the {len(tasks)}-task suite"
        )
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
    """Held-out accuracy and routing report per task."""
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
            "dispatch_fractions": [st.dispatch_fractions().tolist() for st in stats],
            "mean_probs": [st.mean_probs().tolist() for st in stats],
        }
    return out
