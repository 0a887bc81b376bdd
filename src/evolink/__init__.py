"""Evolving-graph embeddings with attention-carried weights and distillation.

The package models a live event as a run of weighted graph snapshots,
trains a chain of per-snapshot graph convolutions whose first-layer
weights are propagated by multi-head attention, distills the result into
a smaller student, and evaluates both on predicting the weights of links
that appear in the following snapshot.
"""

from .attention import AttentionHead, Transition, attention_coefficients, evolve_weights
from .checkpoint import load_checkpoint, read_checkpoint, save_checkpoint, write_checkpoint
from .errors import (
    CheckpointError,
    ConfigError,
    DegenerateSoftmaxError,
    EmptyEventError,
    EventFormatError,
    EvolinkError,
    InsufficientLinksError,
    MalformedGraphError,
    NumericError,
    OutOfRangeError,
    ShapeError,
    TrainingDivergedError,
    WindowUnderflowError,
)
from .evaluation import (
    EvalReport,
    GammaSweepRow,
    HparamSweepRow,
    MlpScorer,
    TrialRecord,
    compression_label,
    constant_baseline,
    derive_seed,
    metrics,
    run_evaluation,
    score_dot,
    score_mlp,
    split_links,
    sweep_gamma,
    sweep_hparam,
    train_mlp_scorer,
)
from .eventio import (
    RunConfig,
    export_event,
    load_event,
    load_raw_event,
    load_run_config,
    resolve_event,
    write_report,
    write_trace,
)
from .gcn import (
    Embeddings,
    GcnParams,
    count_params,
    gcn_forward,
    identity_features,
)
from .graphs import (
    WEIGHT_EPS,
    EventSequence,
    LinkSet,
    RawEvent,
    SnapshotGraph,
    WeightScale,
    build_window,
    normalize_adjacency,
    normalize_weights,
    unobserved_links,
)
from .model import (
    GcnChain,
    ModelConfig,
    WindowData,
    distillation_loss,
    reconstruction_loss,
    soft_scores,
    student_defaults,
    teacher_defaults,
)
from .optim import Adam, AdamState, adam_init, adam_step
from .simulate import SimConfig, arrival_counts, describe_event, simulate_event
from .tape import Tensor, backward, param
from .training import (
    DistillationBundle,
    TrainingTrace,
    distill_student,
    train_teacher,
)

__version__ = "0.1.0"
