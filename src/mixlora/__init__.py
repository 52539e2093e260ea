"""Sparse mixture of LoRA experts over a shared frozen FFN, desk scale."""

from .bench import (
    FlopLedger,
    LatencyReport,
    base_flop_ratio,
    compare_report,
    count_flops,
    measure_latency,
    run_bench,
)
from .config import RunConfig, load_config
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DimensionError,
    NumericError,
)
from .lora import FrozenLinear, LoraAdapter, adapted_forward, lora_delta, merged_weight
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
    ExpertAdapters,
    ExpertTriple,
    MixLoraBlock,
    Router,
    RoutingStats,
    SharedFfn,
    aux_loss,
    dense_ffn_forward,
    expert_load_report,
    expert_load_std,
    mixlora_forward,
    route,
)
from .multitask import MultiTaskBatch, MultiTaskEngine, memory_census, multi_forward, multi_train_step
from .numerics import Tape, Tensor, backward
from .optim import Adam
from .tasks import SyntheticTask, default_tasks, evaluate, make_batch, mixed_batch, sample_batch
from .train import evaluate_tasks, train, train_step

__version__ = "0.1.0"
