import dataclasses
import tracemalloc

import numpy as np
import pytest

import mixlora.train as train_mod
from mixlora.config import RunConfig
from mixlora.errors import ContractError, NumericError
from mixlora.model import build_model
from mixlora.multitask import MultiTaskEngine
from mixlora.tasks import Batch
from conftest import assert_flat_views


CFG = RunConfig(
    d_model=16, n_heads=2, d_ff=24, n_layers=1, n_experts=4, top_k=2,
    lora_rank=2, lora_alpha=4.0, dropout_p=0.0, max_seq_len=32,
    lr=1e-2, steps=1, batch_size=4, seed=3, tasks=("copy",),
)


def small_batch(rng, n_seqs=2, seq_len=6):
    tokens = rng.integers(0, CFG.vocab_size, size=(n_seqs, seq_len))
    return Batch(tokens, np.arange(n_seqs * seq_len - 1), tokens.reshape(-1)[1:])


def poison_after_backward(monkeypatch, set_of):
    """Make backward write one NaN into the last gradient of ``set_of()``."""
    real = train_mod.backward

    def backward(tape, loss):
        real(tape, loss)
        set_of().grad[-1] = np.nan

    monkeypatch.setattr(train_mod, "backward", backward)


def test_train_rejects_a_non_finite_gradient(monkeypatch):
    built = []
    real_build = train_mod.build_model

    def build_model(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(train_mod, "build_model", build_model)
    poison_after_backward(monkeypatch, lambda: built[-1].adapters)
    with pytest.raises(NumericError, match="non-finite gradient for set.layer0.router"):
        train_mod.train(CFG)


def test_train_step_on_an_engine_set_rejects_a_non_finite_gradient(monkeypatch, rng):
    engine = MultiTaskEngine(CFG.model(), seed=CFG.seed)
    engine.add_set("a")
    engine.add_set("b")
    poison_after_backward(monkeypatch, lambda: engine.sets["b"])
    before = engine.sets["b"].data.copy()
    batches = [small_batch(rng), small_batch(rng)]
    with pytest.raises(NumericError, match="non-finite gradient"):
        for set_id, b in zip(["a", "b"], batches):
            train_mod.train_step(engine.model(set_id), b)
    assert np.array_equal(engine.sets["b"].data, before)


def test_train_records_one_entry_per_step():
    config = dataclasses.replace(CFG, steps=3)
    model, metrics = train_mod.train(config)
    assert [m["step"] for m in metrics] == [0, 1, 2]
    for m in metrics:
        assert m["total_loss"] == pytest.approx(m["task_loss"] + m["aux_loss"])
        assert len(m["expert_load"]) == config.n_layers
    # Gradients read zero after the step, in buffers that nothing rebound.
    assert not model.adapters.grad.any()
    assert_flat_views(model.adapters)


def test_train_refuses_an_unmixed_batch_path(monkeypatch):
    monkeypatch.setattr(train_mod, "task_suite", lambda *a: pytest.fail("task data was built"))
    with pytest.raises(ContractError, match="multitask=False"):
        train_mod.train(CFG, multitask=False)


def test_train_records_are_the_step_records_after_their_step(monkeypatch):
    steps, logged = [], []
    real = train_mod.train_step

    def train_step(*args, **kwargs):
        steps.append(real(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(train_mod, "train_step", train_step)
    _, metrics = train_mod.train(dataclasses.replace(CFG, steps=2), log_cb=logged.append)
    assert metrics == logged == [{"step": i, **r} for i, r in enumerate(steps)]
    assert [list(m) for m in metrics] == [
        ["step", "task_loss", "aux_loss", "total_loss", "expert_load"]] * 2


def test_a_train_step_holds_one_logits_sized_array_at_most():
    # The training loss forms its [targets, vocab] array once and reuses it
    # as the softmax and the logit gradient; before, a step held five or six
    # such arrays at its peak. Allocation sizes do not depend on the host.
    config = dataclasses.replace(CFG, vocab_size=8192).model()
    model = build_model(config, seed=CFG.seed)
    batch = small_batch(np.random.default_rng(0), n_seqs=4, seq_len=16)
    train_mod.train_step(model, batch)  # warm-up
    tracemalloc.start()
    try:
        train_mod.train_step(model, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    logits_bytes = batch.positions.size * config.vocab_size * np.dtype(np.float64).itemsize
    assert peak < 2 * logits_bytes
