import dataclasses
import struct
import zlib

import numpy as np
import pytest

from mixlora.checkpoint import save_checkpoint
from mixlora.config import ModelConfig, RunConfig, trainable_parameter_count
from mixlora.errors import CheckpointError, ContractError
from mixlora.model import AdapterSet, FrozenBase, ToyModel
from mixlora.multitask import (
    MultiTaskBatch,
    MultiTaskEngine,
    memory_census,
    multi_forward,
)
from mixlora.tasks import Batch
from mixlora.train import train_step

CFG = ModelConfig(
    vocab_size=48, d_model=16, n_heads=2, d_ff=24, n_layers=2, n_experts=4,
    top_k=2, lora_rank=3, lora_alpha=6.0, dropout_p=0.0, aux_coef=0.01,
    max_seq_len=16,
)
DESK = ModelConfig()


def make_engine(n_sets=2, seed=42, config=CFG, lr=1e-2):
    engine = MultiTaskEngine(config, seed=seed, lr=lr)
    for i in range(n_sets):
        engine.add_set(f"task{i}")
    return engine


def batch_for(rng, config, n_seqs=3, seq_len=6):
    tokens = rng.integers(0, config.vocab_size, size=(n_seqs, seq_len))
    positions = np.arange(n_seqs * seq_len - 1)
    labels = tokens.reshape(-1)[1:]
    return Batch(tokens, positions, labels)


def randomize(aset, rng, std=0.2):
    for _, p in aset.named_parameters():
        p.data[...] = rng.normal(0, std, p.data.shape)


def standalone_model(engine, set_id):
    """Fresh model with identical seeds but its own private base."""
    base = FrozenBase(engine.config, engine.seed, engine.dtype)
    aset = AdapterSet.create(engine.config, set_id, engine.seed,
                             dtype=engine.dtype, lr=engine.lr)
    return ToyModel(engine.config, base, aset)


def test_single_set_engine_matches_plain_model(rng):
    engine = make_engine(n_sets=1)
    b = batch_for(rng, CFG)
    out = multi_forward(engine, MultiTaskBatch(["task0"], [b]))
    logits, _ = out["task0"]
    solo, _ = standalone_model(engine, "task0").logits_at(b.tokens, b.positions)
    assert np.abs(logits.data - solo.data).max() < 1e-12


def test_identical_sets_identical_inputs_agree(rng):
    engine = MultiTaskEngine(CFG, seed=3)
    engine.add_set("a")
    engine.add_set("b")
    # force bit-identical adapters despite distinct ids
    for (_, pa), (_, pb) in zip(engine.sets["a"].named_parameters(),
                                engine.sets["b"].named_parameters()):
        pb.data[...] = pa.data
    b = batch_for(rng, CFG)
    out = multi_forward(engine, MultiTaskBatch(["a", "b"], [b, b]))
    assert np.array_equal(out["a"][0].data, out["b"][0].data)


def test_slices_match_standalone_runs(rng):
    engine = make_engine(n_sets=2, seed=11)
    for sid in engine.sets:
        randomize(engine.sets[sid], rng)
    batches = [batch_for(rng, CFG), batch_for(rng, CFG)]
    out = multi_forward(engine, MultiTaskBatch(list(engine.sets), batches))
    for sid, b in zip(engine.sets, batches):
        solo = standalone_model(engine, sid)
        for (_, src), (_, dst) in zip(engine.sets[sid].named_parameters(),
                                      solo.adapters.named_parameters()):
            dst.data[...] = src.data
        ref, _ = solo.logits_at(b.tokens, b.positions)
        assert np.abs(out[sid][0].data - ref.data).max() < 1e-10


def test_cross_task_gradients_are_exactly_zero(rng):
    engine = make_engine(n_sets=2, seed=5)
    b0 = batch_for(rng, CFG)
    other = engine.sets["task1"]
    other_before = other.data.copy()
    train_step(engine.model("task0"), b0)
    # set 1 was not in the batch: its grads read zero and its weights did not move
    assert not other.grad.any()
    assert np.array_equal(other.data, other_before)


def test_training_trajectories_match_standalone(rng):
    engine = make_engine(n_sets=2, seed=9, lr=5e-3)
    data_rng = np.random.default_rng(77)
    batches = [[batch_for(data_rng, CFG) for _ in range(2)] for _ in range(5)]
    losses = []
    for step_batches in batches:
        losses.append({sid: train_step(engine.model(sid), b)
                       for sid, b in zip(engine.sets, step_batches)})
    for i, sid in enumerate(engine.sets):
        solo = standalone_model(engine, sid)
        for step_batches in batches:
            res = train_step(solo, step_batches[i])
        for (_, a), (_, b) in zip(engine.sets[sid].named_parameters(),
                                  solo.adapters.named_parameters()):
            assert np.abs(a.data - b.data).max() < 1e-9
        assert res["task_loss"] == pytest.approx(losses[-1][sid]["task_loss"], abs=1e-9)


def test_step_zero_losses_match_standalone(rng):
    engine = make_engine(n_sets=2, seed=21, lr=0.0)
    batches = [batch_for(rng, CFG), batch_for(rng, CFG)]
    losses = {sid: train_step(engine.model(sid), b) for sid, b in zip(engine.sets, batches)}
    from mixlora.model import model_loss

    for sid, b in zip(engine.sets, batches):
        solo = standalone_model(engine, sid)
        ref = model_loss(solo, b, training=True)
        assert losses[sid]["task_loss"] == pytest.approx(ref.task.item(), abs=1e-12)


def test_exactly_one_base_copy(rng):
    engine = make_engine(n_sets=3)
    models = [engine.model(sid) for sid in engine.sets]
    for m in models[1:]:
        assert m.base is models[0].base
        for lw_a, lw_b in zip(m.base.layers, models[0].base.layers):
            assert lw_a.ffn.w1.w is lw_b.ffn.w1.w


def test_unknown_set_id_rejected(rng):
    engine = make_engine(n_sets=1)
    with pytest.raises(ContractError):
        multi_forward(engine, MultiTaskBatch(["ghost"], [batch_for(rng, CFG)]))


def test_repeated_set_id_rejected(rng):
    b = batch_for(rng, CFG)
    with pytest.raises(ContractError, match="repeats a set id"):
        MultiTaskBatch(["task0", "task0"], [b, b])


# ---------------------------------------------------------------------------
# memory census
# ---------------------------------------------------------------------------


def test_census_empty_engine_is_base_only():
    engine = MultiTaskEngine(CFG, seed=1)
    census = memory_census(engine)
    assert census["total"] == census["base_bytes"]
    assert census["per_set_bytes"] == []


def test_census_additivity_and_cross_check():
    engine = MultiTaskEngine(CFG, seed=1)
    engine.add_set("a")
    one = memory_census(engine)
    engine.add_set("b")
    two = memory_census(engine)
    set_bytes = one["per_set_bytes"][0]
    assert two["per_set_bytes"] == [set_bytes, set_bytes]
    assert two["total"] == one["total"] + set_bytes
    # parameter bytes match the closed-form census; moments add 2x
    expect_params = trainable_parameter_count(CFG) * np.dtype(np.float64).itemsize
    assert one["per_set_param_bytes"][0] == expect_params
    assert one["per_set_optimizer_bytes"][0] == 2 * expect_params
    for i, aset in enumerate(engine.sets.values()):
        assert two["per_set_param_bytes"][i] == aset.data.nbytes
        assert two["per_set_optimizer_bytes"][i] == 2 * aset.data.nbytes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_census_counts_data_grad_and_both_moments(dtype):
    engine = MultiTaskEngine(CFG, seed=1, dtype=dtype)
    aset = engine.add_set("a")
    census = memory_census(engine)
    assert census["per_set_bytes"] == [4 * aset.data.nbytes]
    assert census["total"] == census["base_bytes"] + 4 * aset.data.nbytes


def test_default_config_sharing_ratio_below_three_quarters():
    engine1 = MultiTaskEngine(DESK, seed=0)
    engine1.add_set("m0")
    total1 = memory_census(engine1)["total"]
    engine2 = MultiTaskEngine(DESK, seed=0)
    engine2.add_set("m0")
    engine2.add_set("m1")
    census2 = memory_census(engine2)
    assert census2["base_bytes"] > census2["per_set_bytes"][0]  # base dominates
    ratio = census2["total"] / (2 * total1)
    assert ratio < 0.75, f"ratio {ratio:.3f}"


# ---------------------------------------------------------------------------
# loading saved sets
# ---------------------------------------------------------------------------

SAVED = RunConfig(**dataclasses.asdict(CFG), seed=42, precision="f64", lr=1e-2)


@pytest.fixture
def saved(tmp_path, rng):
    """An engine, one randomized set of it, and that set saved to a file."""
    engine = make_engine(n_sets=1, seed=SAVED.seed)
    randomize(engine.sets["task0"], rng)
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, SAVED, engine.model("task0"))
    return engine, path


def test_loaded_set_serves_the_saved_logits_over_the_same_base(saved, rng, monkeypatch):
    engine, path = saved
    base_bytes = memory_census(engine)["base_bytes"]
    monkeypatch.setattr(FrozenBase, "checksum", lambda self: pytest.fail("base hashed again"))
    aset = engine.load_set("loaded", path)
    assert engine.sets["loaded"] is aset
    assert engine.model("loaded").base is engine.base
    assert memory_census(engine)["base_bytes"] == base_bytes
    assert np.array_equal(aset.data, engine.sets["task0"].data)
    batch = batch_for(rng, CFG)
    out = multi_forward(engine, MultiTaskBatch(["task0", "loaded"], [batch, batch]))
    assert np.array_equal(out["loaded"][0].data, out["task0"][0].data)


def test_engine_built_from_a_run_config_loads_a_saved_set(saved, rng):
    engine, path = saved
    served = MultiTaskEngine(SAVED, SAVED.seed, dtype=SAVED.dtype, lr=SAVED.lr)
    assert type(served.config) is ModelConfig
    served.load_set("loaded", path)
    batch = batch_for(rng, CFG)
    loaded, _ = served.model("loaded").logits_at(batch.tokens, batch.positions)
    saved_logits, _ = engine.model("task0").logits_at(batch.tokens, batch.positions)
    assert np.array_equal(loaded.data, saved_logits.data)


@pytest.mark.parametrize("engine_args, message", [
    (dict(config=CFG, seed=43), "seed"),
    (dict(config=dataclasses.replace(CFG, d_model=8), seed=42), "model config"),
    (dict(config=CFG, seed=42, dtype=np.float32), "precision"),
])
def test_load_set_refuses_another_engine(saved, engine_args, message):
    _, path = saved
    engine = MultiTaskEngine(**engine_args)
    with pytest.raises(CheckpointError, match=message):
        engine.load_set("loaded", path)
    assert engine.sets == {}


def test_load_set_refuses_a_taken_id_and_another_base(saved, tmp_path):
    engine, path = saved
    with pytest.raises(CheckpointError, match="duplicate"):
        engine.load_set("task0", path)
    with open(path, "rb") as f:
        data = bytearray(f.read())
    body_at = len(data) - 4 - engine.sets["task0"].data.nbytes
    data[body_at - 4] ^= 1  # the stored base checksum, resealed below
    data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]))
    other = tmp_path / "other"
    other.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="frozen base checksum"):
        engine.load_set("loaded", str(other))
    assert list(engine.sets) == ["task0"]
