"""Minimal decoder-style transformer hosting the expert mixture.

The frozen base (embeddings, attention weights, FFN, output head) is a
seeded Gaussian surrogate for pretrained weights; the layer norms LN1 and
LN2 have no affine, so they hold no weights. The only trainable state lives
in an AdapterSet: per-layer attention LoRA adapters plus expert triples and
a router. The plain LoRA baseline is the one-expert mixture (``n_experts=1,
top_k=1``): its gate is exactly 1.0, its router holds ``d_model`` weights per
layer that never move, and its balance loss is the constant ``aux_coef`` per
layer (up to rounding). Residual structure per layer:

    z = MSA(LN1(h)) + h
    h' = FfnBlock(LN2(z)) + z
"""

from __future__ import annotations

import functools
import weakref
import zlib
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig, trainable_parameter_count
from .errors import ContractError, NumericError
from .lora import FrozenLinear, LoraAdapter, adapted_forward
from .moe import (
    ExpertTriple,
    MixLoraBlock,
    Router,
    RoutingStats,
    SharedFfn,
    aux_loss,
)
from .numerics import (
    Tensor,
    add,
    causal_attention,
    flop_labels,
    layer_norm,
    take_rows,
    target_cross_entropy,
)
from .optim import Adam
from .tasks import Batch

INIT_STD = 0.02  # stand-in "pretrained" weight scale
ADAPTER_INIT_STD = 0.02  # standard deviation of every A and router weight drawn at init


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, no longer writeable; views taken from it afterwards are not either."""
    a.flags.writeable = False
    return a


class LayerWeights:
    """Frozen per-layer weights: attention and the shared FFN."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator, dtype):
        d, dff = config.d_model, config.d_ff

        def lin(rows, cols):
            w = rng.normal(0.0, INIT_STD, size=(rows, cols)).astype(dtype)
            return FrozenLinear(_read_only(w))

        self.wq = lin(d, d)
        self.wk = lin(d, d)
        self.wv = lin(d, d)
        self.wo = lin(d, d)
        self.ffn = SharedFfn(lin(dff, d), lin(dff, d), lin(d, dff))


class FrozenBase:
    """All frozen storage of one model, drawn from the seed; every array is
    read-only, so one base can be shared by any number of models and engines.
    Its attributes must not be rebound once ``crc`` is read, or the kept CRC
    describes another base.

    The constructor always draws a new base; ``resident_base`` shares one."""

    def __init__(self, config: ModelConfig, seed: int, dtype=np.float64):
        config.validate()
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng([int(seed), 0])
        d = config.d_model

        def draw(rows):
            return _read_only(rng.normal(0.0, INIT_STD, size=(rows, d)).astype(dtype))

        self.tok_emb = Tensor(draw(config.vocab_size))
        self.pos_emb = Tensor(draw(config.max_seq_len))
        self.layers = [LayerWeights(config, rng, dtype) for _ in range(config.n_layers)]
        self.head = FrozenLinear(draw(config.vocab_size))

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [("base.tok_emb", self.tok_emb), ("base.pos_emb", self.pos_emb)]
        for i, lw in enumerate(self.layers):
            p = f"base.layer{i}"
            out += [
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

    @functools.cached_property
    def crc(self) -> bytes:
        """``checksum()``, computed on first read and then kept: the arrays are
        read-only. Lazy, because a base drawn only to serve is never hashed."""
        return self.checksum()


# Every live base, keyed by all that FrozenBase.__init__ reads. An entry lasts
# exactly as long as some model or engine holds its base.
_resident: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def resident_base(config: ModelConfig, seed: int, dtype=np.float64) -> FrozenBase:
    """The process's live base for these dimensions, seed and dtype, or a new
    one drawn from the seed (and then registered) if none is alive."""
    config.validate()
    key = (config.vocab_size, config.d_model, config.max_seq_len, config.n_layers,
           config.d_ff, int(seed), np.dtype(dtype))
    base = _resident.get(key)
    if base is None:
        base = _resident[key] = FrozenBase(config, seed, dtype)
    return base


class LayerAdapters:
    """Trainable pieces of one layer: attention adapters, experts, router."""

    def __init__(self, attn: dict[str, LoraAdapter], experts: list[ExpertTriple],
                 router: Router):
        self.attn = attn
        self.experts = experts
        self.router = router


def _set_salt(set_id: str) -> int:
    return zlib.crc32(set_id.encode("utf-8"))


class AdapterSet:
    """All trainable state of one logical model over the shared frozen base.

    The set is its flat buffer: the constructor adopts ``data`` and, in the
    one pass that decides the layout, carves every A, B and router tensor's
    ``.data`` and ``.grad`` from it and a zeroed ``grad``, in
    ``named_parameters()`` order; nothing may rebind those views. Backward
    adds into the grad views and ``optimizer.zero_grad`` clears the buffer
    after each step, so a gradient the loss did not reach reads zero."""

    def __init__(self, config: ModelConfig, set_id: str, seed: int, data: np.ndarray,
                 lr: float = 2e-4):
        count = trainable_parameter_count(config)
        if data.shape != (count,) or data.dtype not in (np.float32, np.float64):
            raise ContractError(f"adapter buffer {data.dtype}{data.shape}, need float ({count},)")
        self.set_id = set_id
        self.data = data
        # np.zeros leaves the pages untouched until backward writes them (serving
        # never does); np.zeros_like writes every page at once.
        self.grad = np.zeros(data.size, data.dtype)
        self.dropout_rng = np.random.default_rng([int(seed), 2, _set_salt(set_id)])
        self._named: list[tuple[str, Tensor]] = []
        off = 0

        def carve(name, shape):
            nonlocal off
            end = off + shape[0] * shape[1]
            t = Tensor(data[off:end].reshape(shape), requires_grad=True)
            t.grad = self.grad[off:end].reshape(shape)
            self._named.append((name, t))
            off = end
            return t

        r, d, dff = config.lora_rank, config.d_model, config.d_ff

        def adapter(name, d_in, d_out):
            return LoraAdapter(carve(f"{name}.A", (r, d_in)), carve(f"{name}.B", (d_out, r)),
                               r, config.lora_alpha, config.dropout_p)

        self.layers = []
        for i in range(config.n_layers):
            p = f"set.layer{i}"
            attn = {n: adapter(f"{p}.attn.{n}", d, d) for n in ("q", "k", "v", "o")}
            triples = [ExpertTriple(w1=adapter(f"{p}.expert{k}.w1", d, dff),
                                    w3=adapter(f"{p}.expert{k}.w3", d, dff),
                                    w2=adapter(f"{p}.expert{k}.w2", dff, d))
                       for k in range(config.n_experts)]
            router = Router(carve(f"{p}.router", (config.n_experts, d)), config.top_k)
            self.layers.append(LayerAdapters(attn, triples, router))
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
        """A fresh set: every A and router weight ~ N(0, ADAPTER_INIT_STD^2),
        drawn in layout order, and B = 0, so every initial delta is exactly zero."""
        config.validate()
        aset = cls(config, set_id, seed, np.zeros(trainable_parameter_count(config), dtype), lr)
        rng = np.random.default_rng([int(seed), 1, _set_salt(set_id)])
        for name, t in aset._named:
            if not name.endswith(".B"):
                t.data[...] = rng.normal(0.0, ADAPTER_INIT_STD, size=t.shape)
        return aset

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._named)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


@dataclass
class LossOutput:
    total: Tensor
    task: Tensor
    aux: Tensor
    stats: list[RoutingStats] = field(default_factory=list)


def attention_forward(lw: LayerWeights, attn_adapters: dict[str, LoraAdapter], x: Tensor,
                      n_seqs: int, n_heads: int,
                      rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head causal self-attention with adapted q/k/v/o projections."""

    def project(frozen, name, inp):
        return adapted_forward(frozen, attn_adapters[name], inp, rng)

    heads = causal_attention(project(lw.wq, "q", x), project(lw.wk, "k", x),
                             project(lw.wv, "v", x), n_seqs, n_heads)
    return project(lw.wo, "o", heads)


def layer_forward(lw: LayerWeights, la: LayerAdapters, block: MixLoraBlock, h: Tensor,
                  mode: str, n_seqs: int, n_heads: int,
                  rng: np.random.Generator | None = None) -> tuple[Tensor, RoutingStats]:
    x1 = layer_norm(h)
    attn = attention_forward(lw, la.attn, x1, n_seqs, n_heads, rng)
    z = add(attn, h)
    x2 = layer_norm(z)
    f, st = block.forward(x2, mode, rng)
    return add(f, z), st


class ToyModel:
    """Frozen base + one adapter set."""

    def __init__(self, config: ModelConfig, base: FrozenBase, adapters: AdapterSet):
        self.config = config
        self.base = base
        self.adapters = adapters
        self.blocks = [MixLoraBlock(la.router, lw.ffn, la.experts, layer_index=i)
                       for i, (lw, la) in enumerate(zip(base.layers, adapters.layers))]

    def hidden_states(self, tokens: np.ndarray, mode: str = "optimized",
                      training: bool = False) -> tuple[Tensor, list[RoutingStats]]:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ContractError(f"tokens must be [batch, seq], got {tokens.shape}")
        n_seqs, seq_len = tokens.shape
        if seq_len > self.config.max_seq_len:
            raise ContractError(
                f"sequence length {seq_len} exceeds max_seq_len {self.config.max_seq_len}"
            )
        flat = tokens.reshape(-1)
        pos = np.tile(np.arange(seq_len), n_seqs)
        h = Tensor(self.base.tok_emb.data[flat] + self.base.pos_emb.data[pos])
        rng = self.adapters.dropout_rng if training else None
        stats: list[RoutingStats] = []
        layers = zip(self.base.layers, self.adapters.layers, self.blocks)
        for i, (lw, la, block) in enumerate(layers):
            with flop_labels(layer=i):
                h, st = layer_forward(lw, la, block, h, mode, n_seqs,
                                      self.config.n_heads, rng)
            if not np.all(np.isfinite(h.data)):
                raise NumericError(f"non-finite activations in layer {i}")
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
    base = resident_base(config, seed, dtype)
    adapters = AdapterSet.create(config, "main", seed, dtype, lr)
    return ToyModel(config, base, adapters)


def model_loss(model: ToyModel, batch: Batch, mode: str = "optimized",
               training: bool = True) -> LossOutput:
    """Cross-entropy at the batch's target positions plus per-layer balance loss.

    The task loss is ``target_cross_entropy`` of the hidden states: it equals
    ``cross_entropy`` of ``logits_at``'s logits bit for bit, but forms no
    logits tensor; its one [targets, vocab] array becomes the logit gradient."""
    h, stats = model.hidden_states(batch.tokens, mode, training)
    task = target_cross_entropy(h, batch.positions, model.base.head.w, batch.labels)
    coef = model.config.aux_coef
    aux_total = aux_loss(stats[0], coef)
    for st in stats[1:]:
        aux_total = add(aux_total, aux_loss(st, coef))
    total = add(task, aux_total)
    for name, t in (("total", total), ("task", task), ("aux", aux_total)):
        if not np.isfinite(t.data):
            raise NumericError(f"non-finite {name} loss")
    return LossOutput(total, task, aux_total, stats)

