"""The one training step, the training loop and evaluation drivers.

``train_step`` is the only place a step happens: forward under a tape,
backward, a non-finite gradient check, then the optimizer update. ``train``
calls it once per step; a multi-task engine trains by calling it once per
adapter set, on ``engine.model(set_id)``. It calls ``model_loss`` and
``backward`` through this module's globals, so wrapping them here instruments
every step.

``train`` forms every batch with ``mixed_batch``, an equal share of each
configured task (one task gives exactly ``sample_batch``'s batch). Its
``multitask`` keyword stays only because ``perfbench`` passes
``multitask=True``; ``False`` is refused.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import ContractError, NumericError
from .model import ToyModel, build_model, model_loss
from .moe import RoutingStats, expert_load_report, expert_load_std
from .numerics import Tape, backward
from .tasks import Batch, SyntheticTask, TaskData, default_tasks, make_batch, mixed_batch

EVAL_BATCH_SIZE = 256  # held-out sequences per forward in evaluate


def task_suite(config: RunConfig) -> tuple[list[SyntheticTask], list[TaskData]]:
    registry = default_tasks()
    tasks = [registry[name] for name in config.tasks]
    datas = [t.generate(config.seed) for t in tasks]
    return tasks, datas


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


def train(config: RunConfig, multitask: bool = True,
          log_cb=None) -> tuple[ToyModel, list[dict]]:
    """Train one adapter set on batches that mix every configured task.

    Returns the model and one metrics record per step:
    {step, task_loss, aux_loss, total_loss, expert_load: [[F per expert] per layer]}.
    """
    if not multitask:
        raise ContractError("train mixes every configured task; multitask=False is refused")
    config.validate()
    tasks, datas = task_suite(config)
    model = build_model(config.model(), seed=config.seed, dtype=config.dtype, lr=config.lr)
    batch_rng = np.random.default_rng([config.seed, 6])
    metrics: list[dict] = []
    for step in range(config.steps):
        batch = mixed_batch(tasks, [d.train for d in datas], batch_rng, config.batch_size)
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


def evaluate(model: ToyModel, task: SyntheticTask,
             data: tuple[np.ndarray, np.ndarray], mode: str = "optimized"
             ) -> tuple[float, list[RoutingStats]]:
    """Accuracy over a dataset plus merged per-layer routing stats."""
    tokens, labels = data
    n = tokens.shape[0]
    cand = task.candidate_ids
    correct = 0
    total = 0
    batch_stats: list[list[RoutingStats]] = []
    for start in range(0, n, EVAL_BATCH_SIZE):
        rows = np.arange(start, min(start + EVAL_BATCH_SIZE, n))
        batch = make_batch(task, tokens, labels, rows)
        logits, stats = model.logits_at(batch.tokens, batch.positions, mode,
                                        training=False)
        picked = cand[np.argmax(logits.data[:, cand], axis=1)]
        correct += int((picked == batch.labels).sum())
        total += batch.labels.size
        batch_stats.append(stats)
    return correct / total, [RoutingStats.merge(list(parts)) for parts in zip(*batch_stats)]


def evaluate_tasks(model: ToyModel, config: RunConfig) -> dict[str, dict]:
    """Held-out accuracy and routing report per configured task:
    {accuracy, expert_load_std: [per layer], records: ``expert_load_report`` rows}."""
    registry = default_tasks()
    out = {}
    for name in config.tasks:
        task = registry[name]
        data = task.generate(config.seed)
        acc, stats = evaluate(model, task, data.test, config.mode)
        out[name] = {
            "accuracy": acc,
            "expert_load_std": [expert_load_std(st) for st in stats],
            "records": expert_load_report(name, stats),
        }
    return out
