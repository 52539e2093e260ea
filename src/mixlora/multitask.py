"""Several adapter sets training over one shared frozen base.

The engine keeps exactly one copy of the frozen storage; every adapter set
is an independent logical model with its own optimizer. A multi-task batch
packs one slice per set, processed task-major: slice t flows through set t
only, so results and gradients are identical to standalone runs. Training
runs ``train.train_step`` once per slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import AdapterSet, Batch, FrozenBase, ModelConfig, ToyModel
from .train import train_step


@dataclass
class MultiTaskBatch:
    """One Batch per adapter set, keyed by set id."""

    set_ids: list[str]
    slices: list[Batch]

    def __post_init__(self):
        if len(self.set_ids) != len(self.slices) or not self.set_ids:
            raise ContractError("multi-task batch needs one slice per set id")


class MultiTaskEngine:
    def __init__(self, config: ModelConfig, seed: int, dtype=np.float64,
                 lr: float = 2e-4):
        self.config = config
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self.lr = lr
        self.base = FrozenBase(config, seed, dtype)
        self.sets: dict[str, AdapterSet] = {}
        self._models: dict[str, ToyModel] = {}

    def add_set(self, set_id: str) -> AdapterSet:
        if set_id in self.sets:
            raise ContractError(f"duplicate adapter-set id {set_id!r}")
        aset = AdapterSet.create(self.config, set_id, self.seed, self.dtype, self.lr)
        self.sets[set_id] = aset
        self._models[set_id] = ToyModel(self.config, self.base, aset)
        return aset

    def model(self, set_id: str) -> ToyModel:
        if set_id not in self._models:
            raise ContractError(f"unknown adapter-set id {set_id!r}")
        return self._models[set_id]


def multi_forward(engine: MultiTaskEngine, batch: MultiTaskBatch,
                  mode: str = "optimized", training: bool = False) -> dict[str, tuple]:
    """Per-slice logits at target positions, keyed by set id."""
    out = {}
    for set_id, b in zip(batch.set_ids, batch.slices):
        model = engine.model(set_id)
        out[set_id] = model.logits_at(b.tokens, b.positions, mode, training)
    return out


def multi_train_step(engine: MultiTaskEngine, batch: MultiTaskBatch,
                     mode: str = "optimized") -> dict[str, dict]:
    """One update per set from its own slice only; the base never changes."""
    return {set_id: train_step(engine.model(set_id), b, mode)
            for set_id, b in zip(batch.set_ids, batch.slices)}


def memory_census(engine: MultiTaskEngine) -> dict:
    """Exact byte accounting: one frozen base + per-set trainables and moments."""
    per_param = [aset.param_bytes() for aset in engine.sets.values()]
    per_opt = [aset.optimizer.state_bytes() if aset.optimizer else 0
               for aset in engine.sets.values()]
    per_set = [p + o for p, o in zip(per_param, per_opt)]
    base = engine.base.nbytes()
    return {
        "base_bytes": base,
        "per_set_bytes": per_set,
        "per_set_param_bytes": per_param,
        "per_set_optimizer_bytes": per_opt,
        "total": base + sum(per_set),
    }
