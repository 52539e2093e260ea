"""Configuration: one dataclass hierarchy, validated in one chain.

``ModelConfig`` holds the model dimensions and adapter hyper-parameters.
``RunConfig`` extends it with the training fields and the task list;
``model()`` returns the plain ``ModelConfig`` part of either. Config files are
flat JSON objects of ``RunConfig`` fields. Unknown keys are rejected before any
allocation, and every value is checked against its declared type: a bool is
not an int, and floats must be finite. Round-tripping through
``to_dict``/``from_dict`` is lossless. A config whose frozen base plus one
adapter set, or whose largest training-step array, would exceed
``MAX_ELEMENTS`` is rejected, so no dimension or batch size reaches an
allocation. ``lora_alpha``, ``aux_coef`` and ``lr`` are bounded below the
values that overflow the optimizer state or the activations, and ``steps`` by
``MAX_STEPS``, so no run goes on without end. ``load_config`` reads at most
``MAX_CONFIG_BYTES`` bytes, so a huge file or a device never fills memory.

``RunConfig.validate`` owns both rules about a run's tasks: each task is known
and fits ``vocab_size`` and ``max_seq_len``, and ``batch_size`` is a multiple
of the task count, since every batch mixes all tasks in equal shares.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError
from .moe import MODES
from .tasks import default_tasks, required_vocab

PRECISIONS = {"f32": np.float32, "f64": np.float64}
MAX_ELEMENTS = 2**31  # frozen base plus one adapter set; one step's largest array
# Gradients scale with lora_alpha and aux_coef, and Adam's second moment with
# their square; f32 overflowed it at alpha 1e20 and aux_coef 1e38. Each bound
# is far below that and well above every value in use (alpha 32, aux_coef 0.1).
MAX_LORA_ALPHA = 4096.0
MAX_AUX_COEF = 1.0
# Adam moves every weight by up to about lr per step, whatever the gradient's
# scale. In f32 at the default dims, lr 3 overflowed the activations within
# 500 steps while lr 1 ran 2000 clean; the bound is 100x every lr in use (1e-2).
MAX_LR = 1.0
# A run never stops early and logs one metrics line per step; the bound is 200x
# the default of 500 and about 770x the 130 steps of a benchmark call.
MAX_STEPS = 100_000
# A config file sets at most 19 fields; the default one is ~400 bytes. 64 KiB
# leaves room for any whitespace or key order while refusing a large file or a
# device such as /dev/zero before it fills memory.
MAX_CONFIG_BYTES = 64 * 1024


def _finite_number(value) -> bool:
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


# declared field type -> (check, description); bool is an int subclass in Python
_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: not isinstance(v, bool) and _finite_number(v), "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[str, ...]": (lambda v: isinstance(v, tuple) and all(isinstance(s, str) for s in v),
                        "a list of task names"),
}


@dataclass
class ModelConfig:
    vocab_size: int = 8192
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    n_layers: int = 2
    n_experts: int = 8
    top_k: int = 2
    lora_rank: int = 16
    lora_alpha: float = 32.0
    dropout_p: float = 0.05
    aux_coef: float = 1e-2
    max_seq_len: int = 64

    def validate(self) -> "ModelConfig":
        for f in fields(self):
            check, description = _TYPES[f.type]
            value = getattr(self, f.name)
            if not check(value):
                raise ConfigError(f"{f.name} must be {description}, got {value!r}")
        for name in ("vocab_size", "d_model", "n_heads", "d_ff", "n_layers",
                     "n_experts", "top_k", "lora_rank", "max_seq_len"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.top_k > self.n_experts:
            raise ConfigError(
                f"top_k {self.top_k} exceeds n_experts {self.n_experts}"
            )
        if self.lora_rank > min(self.d_model, self.d_ff):
            raise ConfigError(
                f"lora_rank {self.lora_rank} exceeds min(d_model, d_ff) "
                f"= {min(self.d_model, self.d_ff)}"
            )
        if not 0 < self.lora_alpha <= MAX_LORA_ALPHA:
            raise ConfigError(
                f"lora_alpha {self.lora_alpha} outside (0, {MAX_LORA_ALPHA:g}]")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p {self.dropout_p} outside [0, 1)")
        if not 0 <= self.aux_coef <= MAX_AUX_COEF:
            raise ConfigError(f"aux_coef {self.aux_coef} outside [0, {MAX_AUX_COEF:g}]")
        size = frozen_parameter_count(self) + trainable_parameter_count(self)
        if size > MAX_ELEMENTS:
            raise ConfigError(
                f"frozen base plus one adapter set is {size} elements, "
                f"above the limit of {MAX_ELEMENTS}"
            )
        return self

    def model(self) -> "ModelConfig":
        """The plain ``ModelConfig`` fields of this config, as a ``ModelConfig``."""
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})


def frozen_parameter_count(config: ModelConfig) -> int:
    """Closed-form census of the frozen base: embeddings, layers, head."""
    d, dff = config.d_model, config.d_ff
    per_layer = 4 * d * d + 3 * d * dff  # q/k/v/o, W1/W3/W2
    return (2 * config.vocab_size + config.max_seq_len) * d + config.n_layers * per_layer


def step_activation_elements(config: "RunConfig") -> int:
    """Size of one training step's largest array, with T = max_seq_len: the
    [batch_size, n_heads, T, T] scores, or batch_size*T rows (top_k times as
    many in expert dispatch) of the widest of d_model, d_ff, n_experts, vocab."""
    rows = config.batch_size * config.max_seq_len
    widest = max(config.top_k * max(config.d_model, config.d_ff),
                 config.n_experts, config.vocab_size)
    return rows * max(widest, config.n_heads * config.max_seq_len)


def trainable_parameter_count(config: ModelConfig) -> int:
    """Closed-form census: attention adapters + expert triples + routers."""
    r = config.lora_rank
    d, dff = config.d_model, config.d_ff
    per_layer = 4 * r * (d + d) + config.n_experts * (3 * r * (d + dff) + d)
    return config.n_layers * per_layer


@dataclass
class RunConfig(ModelConfig):
    lr: float = 2e-4
    steps: int = 500
    batch_size: int = 16
    seed: int = 7
    mode: str = "optimized"
    precision: str = "f64"
    tasks: tuple[str, ...] = ("copy",)

    def validate(self) -> "RunConfig":
        super().validate()
        if not 0 <= self.lr <= MAX_LR:
            raise ConfigError(f"lr {self.lr} outside [0, {MAX_LR:g}]")
        if not 0 <= self.steps <= MAX_STEPS:
            raise ConfigError(f"steps {self.steps} outside [0, {MAX_STEPS}]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be a positive integer")
        size = step_activation_elements(self)
        if size > MAX_ELEMENTS:
            raise ConfigError(f"batch_size {self.batch_size} gives a {size}-element "
                              f"step array, above the limit of {MAX_ELEMENTS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be f32 or f64, got {self.precision!r}")
        if not self.tasks:
            raise ConfigError("tasks must not be empty")
        if self.batch_size % len(self.tasks):
            raise ConfigError(f"batch_size {self.batch_size} is not a multiple of the "
                              f"task count {len(self.tasks)}")
        registry = default_tasks()
        for name in self.tasks:
            if name not in registry:
                raise ConfigError(
                    f"unknown task {name!r}; known: {sorted(registry)}"
                )
        need = required_vocab([registry[n] for n in self.tasks])
        if self.vocab_size < need:
            raise ConfigError(
                f"vocab_size {self.vocab_size} below task requirement {need}"
            )
        seq_len = max(registry[n].seq_len for n in self.tasks)
        if self.max_seq_len < seq_len:
            raise ConfigError(f"max_seq_len {self.max_seq_len} below task seq_len {seq_len}")
        return self

    @property
    def dtype(self):
        return PRECISIONS[self.precision]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["tasks"] = list(self.tasks)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        kwargs = dict(raw)
        if isinstance(kwargs.get("tasks"), list):
            kwargs["tasks"] = tuple(kwargs["tasks"])
        return cls(**kwargs).validate()

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except RecursionError as exc:  # nesting deeper than the parser's recursion limit
            raise ConfigError("config is not valid JSON: nested too deeply") from exc
        return cls.from_dict(raw)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "rb") as f:
            raw = f.read(MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if len(raw) > MAX_CONFIG_BYTES:
        raise ConfigError(f"config {path} is larger than {MAX_CONFIG_BYTES} bytes")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    return RunConfig.from_json(text)
