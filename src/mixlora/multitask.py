"""Several adapter sets training over one shared frozen base.

The process keeps exactly one copy of the frozen storage per dimensions, seed
and dtype (``model.resident_base``); the engine and every model built over the
same base share it. Every adapter set is an independent logical model with its
own optimizer. A multi-task batch packs one slice per set, processed
task-major: slice t flows through set t only, so results and gradients are
identical to standalone runs. Training runs ``train.train_step`` once per
slice. ``load_set`` adds a saved set over the engine's base, moving only the
adapter bytes: the base is never rebuilt and, once hashed, never hashed again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import adopt_set, read_records
from .config import ModelConfig
from .errors import CheckpointError, ContractError
from .model import AdapterSet, ToyModel, resident_base
from .tasks import Batch


@dataclass
class MultiTaskBatch:
    """One Batch per adapter set, keyed by set id; each id at most once."""

    set_ids: list[str]
    slices: list[Batch]

    def __post_init__(self):
        if len(self.set_ids) != len(self.slices) or not self.set_ids:
            raise ContractError("multi-task batch needs one slice per set id")
        if len(set(self.set_ids)) != len(self.set_ids):
            raise ContractError(f"multi-task batch repeats a set id: {self.set_ids}")


class MultiTaskEngine:
    def __init__(self, config: ModelConfig, seed: int, dtype=np.float64,
                 lr: float = 2e-4):
        self.config = config.model()  # a RunConfig's run fields never match a saved set's
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self.lr = lr
        self.base = resident_base(self.config, seed, dtype)
        self.sets: dict[str, AdapterSet] = {}
        self._models: dict[str, ToyModel] = {}

    def add_set(self, set_id: str) -> AdapterSet:
        if set_id in self.sets:
            raise ContractError(f"duplicate adapter-set id {set_id!r}")
        return self._register(AdapterSet.create(self.config, set_id, self.seed, self.dtype,
                                                self.lr))

    def load_set(self, set_id: str, path: str) -> AdapterSet:
        """The set saved at ``path``, added under ``set_id`` with the engine's
        ``lr``. The file's model fields, seed and precision must be the
        engine's, and its base checksum the engine base's ``crc``; a taken id
        or any mismatch is a ``CheckpointError``."""
        if set_id in self.sets:
            raise CheckpointError(f"duplicate adapter-set id {set_id!r}")
        records = read_records(path)
        config = records[0]
        for what, saved, held in (("model config", config.model(), self.config),
                                  ("seed", config.seed, self.seed),
                                  ("precision", np.dtype(config.dtype), self.dtype)):
            if saved != held:
                raise CheckpointError(f"checkpoint {path} {what} {saved} does not match "
                                      f"the engine's {held}")
        return self._register(adopt_set(self.base, records, set_id, self.lr))

    def _register(self, aset: AdapterSet) -> AdapterSet:
        self.sets[aset.set_id] = aset
        self._models[aset.set_id] = ToyModel(self.config, self.base, aset)
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


def memory_census(engine: MultiTaskEngine) -> dict:
    """Exact byte accounting: one frozen base + per set data, grad and moments."""
    sets = list(engine.sets.values())
    per_param = [aset.data.nbytes for aset in sets]
    per_opt = [aset.optimizer.state_bytes() for aset in sets]
    per_set = [p + aset.grad.nbytes + o for p, aset, o in zip(per_param, sets, per_opt)]
    base = engine.base.nbytes()
    return {
        "base_bytes": base,
        "per_set_bytes": per_set,
        "per_set_param_bytes": per_param,
        "per_set_optimizer_bytes": per_opt,
        "total": base + sum(per_set),
    }
