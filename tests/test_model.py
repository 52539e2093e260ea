import dataclasses

import numpy as np
import pytest

from mixlora.config import frozen_parameter_count
from mixlora.errors import ConfigError, DimensionError
from mixlora.model import (
    Batch,
    FrozenBase,
    ModelConfig,
    ToyModel,
    build_model,
    model_loss,
    trainable_parameter_count,
)
from mixlora.numerics import Tape, backward
from mixlora.train import train_step
from conftest import fd_grad, max_rel_err

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
    dense = ToyModel(SMALL, model.base, None)
    for _ in range(3):
        tokens = random_tokens(rng, SMALL)
        for mode in ("vanilla", "optimized"):
            got, _ = model.logits_all(tokens, mode)
            ref, _ = dense.logits_all(tokens)
            assert np.abs(got.data - ref.data).max() < 1e-12


def test_mode_equivalence_end_to_end(rng):
    model = build_model(SMALL, seed=5)
    randomize_adapters(model, rng)
    tokens = random_tokens(rng, SMALL, n_seqs=3, seq_len=8)
    lv, _ = model.logits_all(tokens, "vanilla")
    lo, _ = model.logits_all(tokens, "optimized")
    assert np.abs(lv.data - lo.data).max() < 1e-8


def test_single_token_attention_reduces_to_value_path(rng):
    model = build_model(SMALL, seed=2)  # adapters zero at init
    lw = model.base.layers[0]
    from mixlora.model import attention_forward
    from mixlora.numerics import Tensor

    x = Tensor(rng.normal(size=(1, SMALL.d_model)))
    mask = model._mask(1)
    out = attention_forward(lw, model.adapters.layers[0].attn, x, 1, 1,
                            SMALL.n_heads, mask)
    expected = (x.data @ lw.wv.w.data.T) @ lw.wo.w.data.T
    assert np.abs(out.data - expected).max() < 1e-12


def test_attention_matches_reference_implementation(rng):
    # no-adapter attention vs an independent numpy implementation
    model = build_model(SMALL, seed=9)
    lw = model.base.layers[0]
    from mixlora.model import attention_forward
    from mixlora.numerics import Tensor

    t, d, nh = 5, SMALL.d_model, SMALL.n_heads
    dh = d // nh
    x = rng.normal(size=(t, d))
    out = attention_forward(lw, None, Tensor(x), 1, t, nh, model._mask(t))
    q, k, v = x @ lw.wq.w.data.T, x @ lw.wk.w.data.T, x @ lw.wv.w.data.T
    ref = np.zeros((t, d))
    for h in range(nh):
        sl = slice(h * dh, (h + 1) * dh)
        scores = (q[:, sl] @ k[:, sl].T) / np.sqrt(dh)
        scores = np.where(np.tril(np.ones((t, t))) > 0, scores, -np.inf)
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        ref[:, sl] = w @ v[:, sl]
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
    out, _ = layer_forward(lw, la, model.blocks[0], h, "optimized", 1, 4,
                           SMALL.n_heads, model._mask(4))
    from mixlora.model import attention_forward

    x1 = layer_norm(h, lw.ln1_g, lw.ln1_b)
    z = attention_forward(lw, la.attn, x1, 1, 4, SMALL.n_heads, model._mask(4)).data + h.data
    x2 = layer_norm(Tensor(z), lw.ln2_g, lw.ln2_b)
    fout, _ = model.blocks[0].forward(x2, "optimized")
    assert np.abs((out.data - z) - fout.data).max() < 1e-12


def test_sequence_length_cap(rng):
    model = build_model(SMALL, seed=1)
    with pytest.raises(DimensionError):
        model.logits_all(random_tokens(rng, SMALL, 1, SMALL.max_seq_len + 1))


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
    for _, p in named:
        p.grad = None
    worst = 0.0
    for name, p in named:
        fd = fd_grad(lambda: build().item(), p)
        err = max_rel_err(analytic[name], fd)
        worst = max(worst, err)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# census and training
# ---------------------------------------------------------------------------


def test_trainable_census_formula_and_default_value():
    assert trainable_parameter_count(DESK) == 164_864
    model = build_model(SMALL, seed=1)
    assert model.adapters.trainable_count() == trainable_parameter_count(SMALL)
    desk_model = build_model(DESK, seed=1)
    assert desk_model.adapters.trainable_count() == 164_864


def test_one_expert_census_is_lora_plus_a_router_row():
    one = dataclasses.replace(DESK, n_experts=1, top_k=1)
    r, d, dff = one.lora_rank, one.d_model, one.d_ff
    lora = one.n_layers * (4 * r * (d + d) + 3 * r * (d + dff))
    assert trainable_parameter_count(one) == lora + one.n_layers * d == 34_944
    model = build_model(dataclasses.replace(SMALL, n_experts=1, top_k=1), seed=1)
    assert model.adapters.trainable_count() == trainable_parameter_count(model.config) == 256


def test_frozen_census_formula():
    for config in (SMALL, DESK):
        base = FrozenBase(config, seed=0)
        assert frozen_parameter_count(config) == sum(t.data.size for _, t in base.named_tensors())


def test_one_expert_model_trains_as_the_lora_baseline(rng):
    one = dataclasses.replace(SMALL, n_experts=1, top_k=1)
    model = build_model(one, seed=8, lr=1e-2)
    router = model.adapters.layers[0].router.wr
    start = router.data.copy()
    adapters = [p.data.copy() for p in model.adapters.parameters()]
    for _ in range(3):
        out = train_step(model, make_batch(rng, one))
        assert out["aux"] == pytest.approx(one.aux_coef, rel=1e-15)
    assert np.array_equal(router.data, start)
    moved = [not np.array_equal(p.data, a)
             for p, a in zip(model.adapters.parameters(), adapters) if p is not router]
    assert all(moved)


def test_train_step_zero_lr_changes_nothing(rng):
    model = build_model(SMALL, seed=8, lr=0.0)
    batch = make_batch(rng, SMALL)
    before = [p.data.copy() for p in model.adapters.parameters()]
    train_step(model, batch)
    for p, snap in zip(model.adapters.parameters(), before):
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
