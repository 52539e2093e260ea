import dataclasses
import importlib

import numpy as np
import pytest

from mixlora.config import RunConfig
from mixlora.errors import ContractError, NumericError
from mixlora.model import Batch, FrozenBase, ToyModel
from mixlora.multitask import MultiTaskBatch, MultiTaskEngine, multi_train_step

# The package re-exports the train() function under the submodule's name.
train_mod = importlib.import_module("mixlora.train")

CFG = RunConfig(
    d_model=16, n_heads=2, d_ff=24, n_layers=1, n_experts=4, top_k=2,
    lora_rank=2, lora_alpha=4.0, dropout_p=0.0, max_seq_len=32,
    lr=1e-2, steps=1, batch_size=4, seed=3, tasks=("copy",),
)


def small_batch(rng, n_seqs=2, seq_len=6):
    tokens = rng.integers(0, CFG.vocab_size, size=(n_seqs, seq_len))
    return Batch(tokens, np.arange(n_seqs * seq_len - 1), tokens.reshape(-1)[1:])


def poison_after_backward(monkeypatch, params_of):
    """Make backward write one NaN into the first gradient ``params_of()`` has."""
    real = train_mod.backward

    def backward(tape, loss):
        real(tape, loss)
        grads = [p.grad for p in params_of() if p.grad is not None]
        if grads:
            grads[0].flat[0] = np.nan

    monkeypatch.setattr(train_mod, "backward", backward)


def test_train_rejects_a_non_finite_gradient(monkeypatch):
    built = []
    real_build = train_mod.build_model

    def build_model(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(train_mod, "build_model", build_model)
    poison_after_backward(monkeypatch, lambda: built[-1].adapters.parameters())
    with pytest.raises(NumericError, match="non-finite gradient"):
        train_mod.train(CFG)


def test_multi_train_step_rejects_a_non_finite_gradient(monkeypatch, rng):
    engine = MultiTaskEngine(CFG.model(), seed=CFG.seed)
    engine.add_set("a")
    engine.add_set("b")
    poison_after_backward(monkeypatch, lambda: engine.sets["b"].parameters())
    before = [p.data.copy() for p in engine.sets["b"].parameters()]
    batch = MultiTaskBatch(["a", "b"], [small_batch(rng), small_batch(rng)])
    with pytest.raises(NumericError, match="non-finite gradient"):
        multi_train_step(engine, batch)
    for p, snap in zip(engine.sets["b"].parameters(), before):
        assert np.array_equal(p.data, snap)


def test_train_step_needs_an_adapter_set(rng):
    base = FrozenBase(CFG.model(), CFG.seed)
    with pytest.raises(ContractError):
        train_mod.train_step(ToyModel(CFG.model(), base, None), small_batch(rng))


def test_train_records_one_entry_per_step():
    config = dataclasses.replace(CFG, steps=3)
    model, metrics = train_mod.train(config)
    assert [m["step"] for m in metrics] == [0, 1, 2]
    for m in metrics:
        assert m["total_loss"] == pytest.approx(m["task_loss"] + m["aux_loss"])
        assert len(m["expert_load"]) == config.n_layers
    assert all(p.grad is None for p in model.adapters.parameters())
