import numpy as np
import pytest

from mixlora.errors import ContractError
from mixlora.model import (
    AdapterSet,
    Batch,
    FrozenBase,
    ModelConfig,
    ToyModel,
    trainable_parameter_count,
)
from mixlora.multitask import (
    MultiTaskBatch,
    MultiTaskEngine,
    memory_census,
    multi_forward,
    multi_train_step,
)

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
    other_before = [p.data.copy() for p in engine.sets["task1"].parameters()]
    multi_train_step(engine, MultiTaskBatch(["task0"], [b0]))
    # set 1 was not in the batch: neither grads nor weights moved
    for p, snap in zip(engine.sets["task1"].parameters(), other_before):
        assert p.grad is None
        assert np.array_equal(p.data, snap)


def test_training_trajectories_match_standalone(rng):
    engine = make_engine(n_sets=2, seed=9, lr=5e-3)
    data_rng = np.random.default_rng(77)
    batches = [[batch_for(data_rng, CFG) for _ in range(2)] for _ in range(5)]
    losses = []
    for step_batches in batches:
        losses.append(
            multi_train_step(engine, MultiTaskBatch(list(engine.sets), step_batches))
        )
    for i, sid in enumerate(engine.sets):
        solo = standalone_model(engine, sid)
        from mixlora.train import train_step

        for step_batches in batches:
            res = train_step(solo, step_batches[i])
        for (_, a), (_, b) in zip(engine.sets[sid].named_parameters(),
                                  solo.adapters.named_parameters()):
            assert np.abs(a.data - b.data).max() < 1e-9
        assert res["task"] == pytest.approx(losses[-1][sid]["task"], abs=1e-9)


def test_step_zero_losses_match_standalone(rng):
    engine = make_engine(n_sets=2, seed=21, lr=0.0)
    batches = [batch_for(rng, CFG), batch_for(rng, CFG)]
    losses = multi_train_step(engine, MultiTaskBatch(list(engine.sets), batches))
    from mixlora.model import model_loss

    for sid, b in zip(engine.sets, batches):
        solo = standalone_model(engine, sid)
        ref = model_loss(solo, b, training=True)
        assert losses[sid]["task"] == pytest.approx(ref.task.item(), abs=1e-12)


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
