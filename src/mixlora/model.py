"""Minimal decoder-style transformer hosting the expert mixture.

The frozen base (embeddings, attention weights, layer norms, FFN, output
head) is a seeded Gaussian surrogate for pretrained weights; the only
trainable state lives in an AdapterSet: per-layer attention LoRA adapters
plus expert triples and a router. The plain LoRA baseline is the one-expert
mixture (``n_experts=1, top_k=1``): its gate is exactly 1.0, its router holds
``d_model`` weights per layer that never move, and its balance loss is the
constant ``aux_coef`` per layer (up to rounding). Residual structure per layer:

    z = MSA(LN1(h)) + h
    h' = FfnBlock(LN2(z)) + z
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig, trainable_parameter_count
from .errors import DimensionError, NumericError
from .lora import FrozenLinear, LoraAdapter, adapted_forward
from .moe import (
    ExpertAdapters,
    ExpertTriple,
    MixLoraBlock,
    Router,
    RoutingStats,
    SharedFfn,
    aux_loss,
    dense_ffn_forward,
)
from .numerics import (
    Tensor,
    add,
    causal_attention,
    cross_entropy,
    flop_labels,
    layer_norm,
    take_rows,
)
from .optim import Adam

INIT_STD = 0.02  # stand-in "pretrained" weight scale


class LayerWeights:
    """Frozen per-layer weights: two layer norms, attention, shared FFN."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator, dtype):
        d, dff = config.d_model, config.d_ff

        def lin(rows, cols):
            return FrozenLinear(rng.normal(0.0, INIT_STD, size=(rows, cols)).astype(dtype))

        self.wq = lin(d, d)
        self.wk = lin(d, d)
        self.wv = lin(d, d)
        self.wo = lin(d, d)
        self.ffn = SharedFfn(lin(dff, d), lin(dff, d), lin(d, dff))
        self.ln1_g = Tensor(np.ones(d, dtype=dtype))
        self.ln1_b = Tensor(np.zeros(d, dtype=dtype))
        self.ln2_g = Tensor(np.ones(d, dtype=dtype))
        self.ln2_b = Tensor(np.zeros(d, dtype=dtype))


class FrozenBase:
    """All frozen storage of one model; shared verbatim across adapter sets."""

    def __init__(self, config: ModelConfig, seed: int, dtype=np.float64):
        config.validate()
        self.config = config
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng([int(seed), 0])
        d = config.d_model
        self.tok_emb = Tensor(
            rng.normal(0.0, INIT_STD, size=(config.vocab_size, d)).astype(dtype)
        )
        self.pos_emb = Tensor(
            rng.normal(0.0, INIT_STD, size=(config.max_seq_len, d)).astype(dtype)
        )
        self.layers = [LayerWeights(config, rng, dtype) for _ in range(config.n_layers)]
        self.head = FrozenLinear(
            rng.normal(0.0, INIT_STD, size=(config.vocab_size, d)).astype(dtype)
        )

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [("base.tok_emb", self.tok_emb), ("base.pos_emb", self.pos_emb)]
        for i, lw in enumerate(self.layers):
            p = f"base.layer{i}"
            out += [
                (f"{p}.ln1.gain", lw.ln1_g),
                (f"{p}.ln1.bias", lw.ln1_b),
                (f"{p}.ln2.gain", lw.ln2_g),
                (f"{p}.ln2.bias", lw.ln2_b),
                (f"{p}.attn.wq", lw.wq.w),
                (f"{p}.attn.wk", lw.wk.w),
                (f"{p}.attn.wv", lw.wv.w),
                (f"{p}.attn.wo", lw.wo.w),
                (f"{p}.ffn.w1", lw.ffn.w1.w),
                (f"{p}.ffn.w3", lw.ffn.w3.w),
                (f"{p}.ffn.w2", lw.ffn.w2.w),
            ]
        out.append(("base.head", self.head.w))
        return out

    def nbytes(self) -> int:
        return sum(t.data.nbytes for _, t in self.named_tensors())

    def checksum(self) -> bytes:
        """CRC32 over every tensor's name and bytes, as 4 little-endian bytes."""
        crc = 0
        for name, t in self.named_tensors():
            crc = zlib.crc32(t.data, zlib.crc32(name.encode(), crc))
        return crc.to_bytes(4, "little")


class LayerAdapters:
    """Trainable pieces of one layer: attention adapters, experts, router."""

    def __init__(self, attn: dict[str, LoraAdapter], experts: ExpertAdapters,
                 router: Router):
        self.attn = attn
        self.experts = experts
        self.router = router


def _set_salt(set_id: str) -> int:
    return zlib.crc32(set_id.encode("utf-8"))


class AdapterSet:
    """All trainable state of one logical model over the shared frozen base.

    Two flat buffers, ``data`` and ``grad``, hold every trainable tensor in
    ``named_parameters()`` order; each tensor's ``.data`` and ``.grad`` are
    views into them, which nothing may rebind. Backward adds into the grad
    views and ``optimizer.zero_grad`` clears the buffer after each step, so
    a gradient the loss did not reach reads zero."""

    def __init__(self, set_id: str, layers: list[LayerAdapters],
                 aux_coef: float, dropout_rng: np.random.Generator,
                 lr: float = 2e-4):
        self.set_id = set_id
        self.layers = layers
        self.aux_coef = float(aux_coef)
        self.dropout_rng = dropout_rng
        tensors = [t for _, t in self.named_parameters()]
        self.data = np.zeros(sum(t.data.size for t in tensors), tensors[0].dtype)
        self.grad = np.zeros(self.data.size, self.data.dtype)
        off = 0
        for t in tensors:
            end = off + t.data.size
            self.data[off:end] = t.data.ravel()
            t.data, t.grad = (buf[off:end].reshape(t.shape) for buf in (self.data, self.grad))
            off = end
        self.optimizer = Adam(self.data, self.grad, lr)

    @classmethod
    def create(
        cls,
        config: ModelConfig,
        set_id: str = "main",
        seed: int = 0,
        dtype=np.float64,
        lr: float = 2e-4,
    ) -> "AdapterSet":
        config.validate()
        salt = _set_salt(set_id)
        rng = np.random.default_rng([int(seed), 1, salt])
        drop_rng = np.random.default_rng([int(seed), 2, salt])
        d, dff = config.d_model, config.d_ff
        p_attn = config.dropout_p if config.dropout_scope in ("both", "attention") else 0.0
        p_exp = config.dropout_p if config.dropout_scope in ("both", "experts") else 0.0

        def adapter(d_in, d_out, p):
            return LoraAdapter.create(d_in, d_out, config.lora_rank, config.lora_alpha,
                                      p, rng, dtype)

        layers = []
        for _ in range(config.n_layers):
            attn = {name: adapter(d, d, p_attn) for name in ("q", "k", "v", "o")}
            triples = [
                ExpertTriple(
                    w1=adapter(d, dff, p_exp),
                    w3=adapter(d, dff, p_exp),
                    w2=adapter(dff, d, p_exp),
                )
                for _ in range(config.n_experts)
            ]
            router = Router.create(config.n_experts, d, config.top_k, rng, dtype)
            layers.append(LayerAdapters(attn, ExpertAdapters(triples), router))
        return cls(set_id, layers, config.aux_coef, drop_rng, lr)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, la in enumerate(self.layers):
            p = f"set.layer{i}"
            for name in ("q", "k", "v", "o"):
                ad = la.attn[name]
                out += [(f"{p}.attn.{name}.A", ad.a), (f"{p}.attn.{name}.B", ad.b)]
            for k, triple in enumerate(la.experts.triples):
                for proj in ("w1", "w3", "w2"):
                    ad = getattr(triple, proj)
                    out += [
                        (f"{p}.expert{k}.{proj}.A", ad.a),
                        (f"{p}.expert{k}.{proj}.B", ad.b),
                    ]
            out.append((f"{p}.router", la.router.wr))
        return out

    def param_bytes(self) -> int:
        return self.data.nbytes


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """Token sequences plus flat target positions/labels into [B*T] rows."""

    tokens: np.ndarray      # [B, T] int
    positions: np.ndarray   # [P] flat row indices with a loss
    labels: np.ndarray      # [P] target token ids


@dataclass
class LossOutput:
    total: Tensor
    task: Tensor
    aux: Tensor
    stats: list[RoutingStats] = field(default_factory=list)


def attention_forward(lw: LayerWeights, attn_adapters: dict | None, x: Tensor,
                      n_seqs: int, n_heads: int, training: bool = False,
                      rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head causal self-attention with adapted q/k/v/o projections."""

    def project(frozen, name, inp):
        if attn_adapters is None:
            return frozen.apply(inp)
        return adapted_forward(frozen, attn_adapters[name], inp, training, rng)

    heads = causal_attention(project(lw.wq, "q", x), project(lw.wk, "k", x),
                             project(lw.wv, "v", x), n_seqs, n_heads)
    return project(lw.wo, "o", heads)


def layer_forward(lw: LayerWeights, la: LayerAdapters | None, block, h: Tensor,
                  mode: str, n_seqs: int, n_heads: int, training: bool = False,
                  rng: np.random.Generator | None = None
                  ) -> tuple[Tensor, RoutingStats | None]:
    attn_adapters = la.attn if la is not None else None
    x1 = layer_norm(h, lw.ln1_g, lw.ln1_b)
    attn = attention_forward(lw, attn_adapters, x1, n_seqs, n_heads, training, rng)
    z = add(attn, h)
    x2 = layer_norm(z, lw.ln2_g, lw.ln2_b)
    if block is None:
        f, st = dense_ffn_forward(lw.ffn, x2), None
    else:
        f, st = block.forward(x2, mode, training, rng)
    return add(f, z), st


class ToyModel:
    """Frozen base + one adapter set (or none, for the dense reference)."""

    def __init__(self, config: ModelConfig, base: FrozenBase,
                 adapters: AdapterSet | None):
        self.config = config
        self.base = base
        self.adapters = adapters
        self.dtype = base.dtype
        self.blocks: list = []
        for i in range(config.n_layers):
            if adapters is None:
                self.blocks.append(None)
            else:
                la = adapters.layers[i]
                self.blocks.append(
                    MixLoraBlock(
                        la.router,
                        base.layers[i].ffn,
                        la.experts,
                        aux_coef=adapters.aux_coef,
                        count_topk_dispatch=config.router_count_topk,
                        layer_index=i,
                    )
                )

    def hidden_states(self, tokens: np.ndarray, mode: str = "optimized",
                      training: bool = False) -> tuple[Tensor, list[RoutingStats]]:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise DimensionError(f"tokens must be [batch, seq], got {tokens.shape}")
        n_seqs, seq_len = tokens.shape
        if seq_len > self.config.max_seq_len:
            raise DimensionError(
                f"sequence length {seq_len} exceeds max_seq_len {self.config.max_seq_len}"
            )
        flat = tokens.reshape(-1)
        pos = np.tile(np.arange(seq_len), n_seqs)
        h = Tensor(self.base.tok_emb.data[flat] + self.base.pos_emb.data[pos])
        rng = self.adapters.dropout_rng if self.adapters is not None else None
        stats: list[RoutingStats] = []
        for i, (lw, block) in enumerate(zip(self.base.layers, self.blocks)):
            la = self.adapters.layers[i] if self.adapters is not None else None
            with flop_labels(layer=i):
                h, st = layer_forward(lw, la, block, h, mode, n_seqs,
                                      self.config.n_heads, training, rng)
            if not np.all(np.isfinite(h.data)):
                raise NumericError(f"non-finite activations in layer {i}")
            if st is not None:
                stats.append(st)
        return h, stats

    def logits_at(self, tokens: np.ndarray, positions: np.ndarray,
                  mode: str = "optimized", training: bool = False
                  ) -> tuple[Tensor, list[RoutingStats]]:
        h, stats = self.hidden_states(tokens, mode, training)
        rows = take_rows(h, np.asarray(positions, dtype=np.intp))
        return self.base.head.apply(rows), stats


def build_model(config: ModelConfig, seed: int, dtype=np.float64,
                lr: float = 2e-4) -> ToyModel:
    base = FrozenBase(config, seed, dtype)
    adapters = AdapterSet.create(config, "main", seed, dtype, lr)
    return ToyModel(config, base, adapters)


def model_loss(model: ToyModel, batch: Batch, mode: str = "optimized",
               training: bool = True) -> LossOutput:
    """Cross-entropy at the batch's target positions plus per-layer balance loss."""
    logits, stats = model.logits_at(batch.tokens, batch.positions, mode, training)
    task = cross_entropy(logits, batch.labels)
    coef = model.adapters.aux_coef if model.adapters is not None else 0.0
    aux_total: Tensor | None = None
    for st in stats:
        term = aux_loss(st, model.config.n_experts, coef)
        aux_total = term if aux_total is None else add(aux_total, term)
    if aux_total is None:
        aux_total = Tensor(np.asarray(0.0, dtype=model.dtype))
        total = task
    else:
        total = add(task, aux_total)
    for name, t in (("total", total), ("task", task), ("aux", aux_total)):
        if not np.isfinite(t.data):
            raise NumericError(f"non-finite {name} loss")
    return LossOutput(total, task, aux_total, stats)

