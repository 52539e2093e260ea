import dataclasses
import gc
import weakref

import numpy as np
import pytest

from mixlora.config import ModelConfig, frozen_parameter_count, trainable_parameter_count
from mixlora.errors import ConfigError, ContractError
from mixlora.model import AdapterSet, FrozenBase, build_model, model_loss
from mixlora.moe import aux_loss
from mixlora.multitask import MultiTaskEngine, memory_census
from mixlora.numerics import (
    Tape, Tensor, add, backward, causal_attention, cross_entropy, layer_norm, mul,
)
from mixlora.tasks import Batch
from mixlora.train import train_step
from conftest import assert_flat_views, fd_grad, max_rel_err, silu

SMALL = ModelConfig(
    vocab_size=32, d_model=8, n_heads=2, d_ff=12, n_layers=1, n_experts=2,
    top_k=2, lora_rank=2, lora_alpha=4.0, dropout_p=0.0, aux_coef=0.01,
    max_seq_len=16,
)

DESK = ModelConfig()  # spec defaults


def random_tokens(rng, config, n_seqs=2, seq_len=6):
    return rng.integers(0, config.vocab_size, size=(n_seqs, seq_len))


def make_batch(rng, config, n_seqs=2, seq_len=6):
    tokens = random_tokens(rng, config, n_seqs, seq_len)
    positions = np.arange(n_seqs * seq_len - 1)  # next-token everywhere
    labels = tokens.reshape(-1)[1:]
    return Batch(tokens=tokens, positions=positions, labels=labels)


def logits_all(model, tokens, mode="optimized"):
    """Head logits at every position."""
    h, stats = model.hidden_states(tokens, mode)
    return model.base.head.apply(h), stats


def dense_logits(model, tokens):
    """Head logits at every position of the frozen base alone, as tape ops:
    embeddings, then per layer LN1, causal attention over the frozen q/k/v/o,
    the residual, LN2, the frozen SwiGLU FFN and the residual again."""
    base, n_heads = model.base, model.config.n_heads
    n_seqs, seq_len = tokens.shape
    pos = np.tile(np.arange(seq_len), n_seqs)
    h = Tensor(base.tok_emb.data[tokens.reshape(-1)] + base.pos_emb.data[pos])
    for lw in base.layers:
        x1 = layer_norm(h)
        heads = causal_attention(lw.wq.apply(x1), lw.wk.apply(x1), lw.wv.apply(x1),
                                 n_seqs, n_heads)
        z = add(lw.wo.apply(heads), h)
        x2 = layer_norm(z)
        ffn = lw.ffn
        h = add(ffn.w2.apply(mul(silu(ffn.w1.apply(x2)), ffn.w3.apply(x2))), z)
    return base.head.apply(h)


def adapter_tensors(aset):
    return [t for _, t in aset.named_parameters()]


def randomize_adapters(model, rng, std=0.2):
    for _, p in model.adapters.named_parameters():
        p.data[...] = rng.normal(0, std, p.data.shape)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ModelConfig(d_model=10, n_heads=4).validate()
    with pytest.raises(ConfigError):
        ModelConfig(top_k=9, n_experts=8).validate()
    with pytest.raises(ConfigError):
        ModelConfig(lora_rank=65).validate()
    with pytest.raises(ConfigError):
        ModelConfig(dropout_p=1.0).validate()


# ---------------------------------------------------------------------------
# zero-init transparency and mode equivalence
# ---------------------------------------------------------------------------


def test_zero_init_adapters_match_dense_model(rng):
    model = build_model(SMALL, seed=11)
    for _ in range(3):
        tokens = random_tokens(rng, SMALL)
        ref = dense_logits(model, tokens)
        for mode in ("vanilla", "optimized"):
            got, _ = logits_all(model, tokens, mode)
            assert np.abs(got.data - ref.data).max() < 1e-12


def test_mode_equivalence_end_to_end(rng):
    model = build_model(SMALL, seed=5)
    randomize_adapters(model, rng)
    tokens = random_tokens(rng, SMALL, n_seqs=3, seq_len=8)
    lv, _ = logits_all(model, tokens, "vanilla")
    lo, _ = logits_all(model, tokens, "optimized")
    assert np.abs(lv.data - lo.data).max() < 1e-8


def test_single_token_attention_reduces_to_value_path(rng):
    model = build_model(SMALL, seed=2)  # adapters zero at init
    lw = model.base.layers[0]
    from mixlora.model import attention_forward

    x = Tensor(rng.normal(size=(1, SMALL.d_model)))
    out = attention_forward(lw, model.adapters.layers[0].attn, x, 1, SMALL.n_heads)
    expected = (x.data @ lw.wv.w.data.T) @ lw.wo.w.data.T
    assert np.abs(out.data - expected).max() < 1e-12


def test_attention_matches_reference_implementation(rng):
    # zero-init adapters (B = 0) vs an independent numpy implementation
    model = build_model(SMALL, seed=9)
    lw = model.base.layers[0]
    from mixlora.model import attention_forward

    t, d, nh = 5, SMALL.d_model, SMALL.n_heads
    dh = d // nh
    for n_seqs in (1, 3):
        x = rng.normal(size=(n_seqs * t, d))
        out = attention_forward(lw, model.adapters.layers[0].attn, Tensor(x), n_seqs, nh)
        q, k, v = x @ lw.wq.w.data.T, x @ lw.wk.w.data.T, x @ lw.wv.w.data.T
        ref = np.zeros((n_seqs * t, d))
        for b in range(n_seqs):
            rows = slice(b * t, (b + 1) * t)
            for h in range(nh):
                sl = slice(h * dh, (h + 1) * dh)
                scores = (q[rows, sl] @ k[rows, sl].T) / np.sqrt(dh)
                scores = np.where(np.tril(np.ones((t, t))) > 0, scores, -np.inf)
                w = np.exp(scores - scores.max(axis=1, keepdims=True))
                w /= w.sum(axis=1, keepdims=True)
                ref[rows, sl] = w @ v[rows, sl]
        ref = ref @ lw.wo.w.data.T
        assert np.abs(out.data - ref).max() < 1e-12


def test_residual_structure(rng):
    # out - z equals the ffn-block output on LN2(z) by definition
    model = build_model(SMALL, seed=3)
    randomize_adapters(model, rng)
    tokens = random_tokens(rng, SMALL, n_seqs=1, seq_len=4)
    from mixlora.model import layer_forward
    from mixlora.numerics import Tensor, layer_norm

    flat = tokens.reshape(-1)
    pos = np.tile(np.arange(4), 1)
    h = Tensor(model.base.tok_emb.data[flat] + model.base.pos_emb.data[pos])
    lw = model.base.layers[0]
    la = model.adapters.layers[0]
    out, _ = layer_forward(lw, la, model.blocks[0], h, "optimized", 1, SMALL.n_heads)
    from mixlora.model import attention_forward

    x1 = layer_norm(h)
    z = attention_forward(lw, la.attn, x1, 1, SMALL.n_heads).data + h.data
    x2 = layer_norm(Tensor(z))
    fout, _ = model.blocks[0].forward(x2, "optimized")
    assert np.abs((out.data - z) - fout.data).max() < 1e-12


def test_sequence_length_cap(rng):
    model = build_model(SMALL, seed=1)
    with pytest.raises(ContractError, match="exceeds max_seq_len"):
        logits_all(model, random_tokens(rng, SMALL, 1, SMALL.max_seq_len + 1))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_untrained_loss_near_log_vocab(rng):
    model = build_model(SMALL, seed=21)
    batch = make_batch(rng, SMALL, n_seqs=8, seq_len=10)
    out = model_loss(model, batch, training=False)
    assert abs(out.task.item() - np.log(SMALL.vocab_size)) < 0.1


def test_zero_coef_total_equals_task_exactly(rng):
    model = build_model(dataclasses.replace(SMALL, aux_coef=0.0), seed=4)
    randomize_adapters(model, rng)
    batch = make_batch(rng, SMALL)
    out = model_loss(model, batch, training=False)
    assert out.total.item() == out.task.item()


def test_uniform_routing_gives_exact_aux_floor(rng):
    model = build_model(SMALL, seed=6)
    for la in model.adapters.layers:
        la.router.wr.data[...] = 0.0  # exactly uniform probabilities
    batch = make_batch(rng, SMALL)
    out = model_loss(model, batch, training=False)
    floor = SMALL.n_layers * SMALL.aux_coef
    assert out.aux.item() == pytest.approx(floor, abs=1e-15)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_every_trainable_parameter_gradient(rng):
    model = build_model(SMALL, seed=13)
    randomize_adapters(model, rng, std=0.3)
    batch = make_batch(rng, SMALL, n_seqs=2, seq_len=5)

    def build():
        return model_loss(model, batch, "optimized", training=False).total

    tape = Tape()
    with tape:
        loss = build()
    backward(tape, loss)
    named = model.adapters.named_parameters()
    analytic = {name: p.grad.copy() for name, p in named}
    model.adapters.optimizer.zero_grad()
    worst = 0.0
    for name, p in named:
        fd = fd_grad(lambda: build().item(), p)
        err = max_rel_err(analytic[name], fd)
        worst = max(worst, err)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"
    assert worst < 1e-4


@pytest.mark.parametrize("mode", ["vanilla", "optimized"])
def test_model_loss_equals_the_logits_chain_bitwise(rng, mode):
    # The task loss through logits_at and cross_entropy, as before the fused
    # op, at d16 with dropout on, so both paths draw the same masks.
    config = dataclasses.replace(SMALL, d_model=16, n_layers=2, d_ff=24, dropout_p=0.1)
    batch = make_batch(rng, config, n_seqs=3, seq_len=7)
    adapters = rng.normal(0.0, 0.2, trainable_parameter_count(config))

    def step(loss_of):
        model = build_model(config, seed=8)
        model.adapters.data[...] = adapters
        tape = Tape()
        with tape:
            task, total = loss_of(model)
        backward(tape, total)
        return task.data, model.adapters.grad

    def chain(model):
        logits, stats = model.logits_at(batch.tokens, batch.positions, mode, training=True)
        task = cross_entropy(logits, batch.labels)
        aux = [aux_loss(st, config.aux_coef) for st in stats]
        return task, add(task, add(aux[0], aux[1]))

    def fused(model):
        out = model_loss(model, batch, mode, training=True)
        return out.task, out.total

    (task, grad), (want_task, want_grad) = step(fused), step(chain)
    assert np.array_equal(task, want_task) and np.array_equal(grad, want_grad)
    assert grad.any()


# ---------------------------------------------------------------------------
# census and training
# ---------------------------------------------------------------------------


def test_trainable_census_formula_and_default_value():
    assert trainable_parameter_count(DESK) == 164_864
    model = build_model(SMALL, seed=1)
    assert model.adapters.data.size == trainable_parameter_count(SMALL)
    desk_model = build_model(DESK, seed=1)
    assert desk_model.adapters.data.size == 164_864


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adapter_tensors_view_the_set_buffers(dtype):
    aset = build_model(SMALL, seed=1, dtype=dtype).adapters
    assert aset.data.dtype == aset.grad.dtype == dtype
    assert_flat_views(aset)
    assert not aset.grad.any()


def test_adapter_set_adopts_its_buffer():
    buf = np.arange(trainable_parameter_count(SMALL), dtype=np.float32)
    aset = AdapterSet(SMALL, "task0", 3, buf)
    assert aset.data is buf
    assert_flat_views(aset)
    assert aset.grad.dtype == np.float32 and not aset.grad.any()
    for wrong in (buf[:-1], np.zeros(buf.size + 1, np.float32), buf.reshape(1, -1),
                  np.arange(buf.size)):
        with pytest.raises(ContractError, match="adapter buffer"):
            AdapterSet(SMALL, "task0", 3, wrong)


def test_unreached_expert_gradient_reads_zero(rng):
    config = dataclasses.replace(SMALL, n_experts=4, top_k=1)
    model = build_model(config, seed=4)
    randomize_adapters(model, rng)
    batch = make_batch(rng, config, n_seqs=4, seq_len=8)
    out = train_step(model, batch)
    assert all(f > 0 for f in out["expert_load"][0])  # every expert had a gradient
    model.adapters.layers[0].router.wr.data[...] = 0.0  # tied logits: all go to expert 0
    tape = Tape()
    with tape:
        loss = model_loss(model, batch, training=False).total
    backward(tape, loss)
    for k, tri in enumerate(model.adapters.layers[0].experts):
        grads = [t.grad for ad in (tri.w1, tri.w3, tri.w2) for t in (ad.a, ad.b)]
        if k == 0:
            assert all(g.any() for g in grads)
        else:
            assert not any(g.any() for g in grads), f"expert {k}"


def test_one_expert_census_is_lora_plus_a_router_row():
    one = dataclasses.replace(DESK, n_experts=1, top_k=1)
    r, d, dff = one.lora_rank, one.d_model, one.d_ff
    lora = one.n_layers * (4 * r * (d + d) + 3 * r * (d + dff))
    assert trainable_parameter_count(one) == lora + one.n_layers * d == 34_944
    model = build_model(dataclasses.replace(SMALL, n_experts=1, top_k=1), seed=1)
    assert model.adapters.data.size == trainable_parameter_count(model.config) == 256


def test_frozen_census_formula():
    for config in (SMALL, DESK):
        base = FrozenBase(config, seed=0)
        assert frozen_parameter_count(config) == sum(t.data.size for _, t in base.named_tensors())


def test_one_expert_model_trains_as_the_lora_baseline(rng):
    one = dataclasses.replace(SMALL, n_experts=1, top_k=1)
    model = build_model(one, seed=8, lr=1e-2)
    router = model.adapters.layers[0].router.wr
    start = router.data.copy()
    adapters = [p.data.copy() for p in adapter_tensors(model.adapters)]
    for _ in range(3):
        out = train_step(model, make_batch(rng, one))
        assert out["aux_loss"] == pytest.approx(one.aux_coef, rel=1e-15)
    assert np.array_equal(router.data, start)
    moved = [not np.array_equal(p.data, a)
             for p, a in zip(adapter_tensors(model.adapters), adapters) if p is not router]
    assert all(moved)


def test_train_step_zero_lr_changes_nothing(rng):
    model = build_model(SMALL, seed=8, lr=0.0)
    batch = make_batch(rng, SMALL)
    before = [p.data.copy() for p in adapter_tensors(model.adapters)]
    train_step(model, batch)
    for p, snap in zip(adapter_tensors(model.adapters), before):
        assert np.array_equal(p.data, snap)


def test_training_reduces_loss_and_freezes_base(rng):
    from mixlora.config import RunConfig
    from mixlora.train import train

    config = RunConfig(
        vocab_size=64, d_model=32, n_heads=4, d_ff=48, n_layers=1, n_experts=4,
        top_k=2, lora_rank=4, lora_alpha=8.0, dropout_p=0.0, aux_coef=0.01,
        max_seq_len=32, lr=5e-3, steps=200, batch_size=16, seed=7,
        tasks=("copy",),
    )
    model, metrics = train(config)
    checksum_before = FrozenBase(config.model(), config.seed, config.dtype).checksum()
    assert model.base.checksum() == checksum_before
    first = metrics[0]["task_loss"]
    last = metrics[-1]["task_loss"]
    assert last <= 0.5 * first, f"loss went {first:.3f} -> {last:.3f}"


def test_only_trainable_parameters_change(rng):
    model = build_model(SMALL, seed=15, lr=1e-2)
    base_before = model.base.checksum()
    batch = make_batch(rng, SMALL)
    moved = 0
    before = {name: p.data.copy() for name, p in model.adapters.named_parameters()}
    for _ in range(3):
        train_step(model, batch)
    assert model.base.checksum() == base_before
    for name, p in model.adapters.named_parameters():
        if not np.array_equal(p.data, before[name]):
            moved += 1
    assert moved > 0


# ---------------------------------------------------------------------------
# resident frozen base
# ---------------------------------------------------------------------------


def build(seed=11, dtype=np.float64, **fields):
    return build_model(dataclasses.replace(SMALL, **fields), seed=seed, dtype=dtype)


BASE_FIELDS = [{"seed": 12}, {"dtype": np.float32}, {"vocab_size": 40}, {"d_model": 12},
               {"max_seq_len": 20}, {"n_layers": 2}, {"d_ff": 16}]
ADAPTER_FIELDS = [{"lora_rank": 1}, {"n_experts": 3}, {"aux_coef": 0.5}]


def test_models_with_one_base_key_share_one_base():
    first = build()
    assert build().base is first.base


@pytest.mark.parametrize("change", BASE_FIELDS, ids=lambda c: next(iter(c)))
def test_a_base_field_change_gives_a_distinct_base(change):
    first = build()
    assert build(**change).base is not first.base


@pytest.mark.parametrize("change", ADAPTER_FIELDS, ids=lambda c: next(iter(c)))
def test_an_adapter_field_change_shares_the_base(change):
    first = build()
    assert build(**change).base is first.base


def test_a_base_dies_with_its_last_model_and_rebuilds_bit_exactly():
    model = build(seed=13)
    gone = weakref.ref(model.base)
    del model
    gc.collect()
    assert gone() is None
    rebuilt = build(seed=13).base
    assert rebuilt.checksum() == FrozenBase(SMALL, 13).checksum()


def test_engine_and_model_share_one_base():
    engine = MultiTaskEngine(SMALL, seed=14)
    engine.add_set("a")
    census = memory_census(engine)["base_bytes"]
    assert build(seed=14).base is engine.base
    assert memory_census(engine)["base_bytes"] == census == engine.base.nbytes()


def test_base_arrays_are_read_only():
    base = build(seed=16).base
    arrays = [t.data for _, t in base.named_tensors()] + [base.layers[0].wq._wt.data]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0
