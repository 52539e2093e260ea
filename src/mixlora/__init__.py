"""Sparse mixture of LoRA experts over a shared frozen FFN, desk scale."""

from .bench import FlopLedger, base_flop_ratio, count_flops, run_bench
from .config import RunConfig, load_config
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DimensionError,
    NumericError,
)
from .lora import FrozenLinear, LoraAdapter, adapted_forward, lora_delta
from .model import (
    AdapterSet,
    Batch,
    FrozenBase,
    ModelConfig,
    ToyModel,
    build_model,
    model_loss,
    trainable_parameter_count,
)
from .moe import (
    ExpertTriple,
    MixLoraBlock,
    Router,
    RoutingStats,
    SharedFfn,
    aux_loss,
    expert_load_report,
    expert_load_std,
    route,
)
from .multitask import MultiTaskBatch, MultiTaskEngine, memory_census, multi_forward
from .numerics import Tape, Tensor, backward
from .optim import Adam
from .tasks import SyntheticTask, default_tasks, evaluate, make_batch, mixed_batch, sample_batch
from .train import evaluate_tasks, train, train_step

__version__ = "0.1.0"
