"""Training loops for teacher and distilled student models.

Both loops build the window's constants once, rebuild the forward tape
every epoch over them, backpropagate a scalar loss, and apply one
full-batch Adam update. All randomness comes from the model config seed,
so a (seed, window) pair reproduces training bit for bit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingDivergedError
from .gcn import Embeddings, param_spec
from .graphs import SnapshotGraph
from .model import GcnChain, ModelConfig, WindowData, distillation_loss, reconstruction_loss
from .optim import Adam
from .tape import backward

Array = np.ndarray


@dataclass
class TrainingTrace:
    """Per-epoch loss values and wall-clock seconds."""

    losses: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    param_digest: str = ""


@dataclass
class DistillationBundle:
    """Everything a distillation run needs from the finished teacher."""

    teacher: GcnChain
    teacher_embeddings: Embeddings
    student_config: ModelConfig

    @property
    def gamma(self) -> float:
        return self.student_config.gamma


def check_same_event(chain: GcnChain, n_global: int, registry: dict[int, int] | None,
                     what: str) -> None:
    """Refuse a trained chain whose node rows belong to another event: its
    ``n_global`` or its registry differs from the event's."""
    if chain.n_global != n_global:
        raise ConfigError(f"{what} covers {chain.n_global} nodes, the event {n_global}: "
                          f"it was trained on another event")
    if chain.registry != dict(registry or {}):
        raise ConfigError(f"{what} was trained on another event: its node registry "
                          f"differs from the event's")


def _fit(chain: GcnChain, data: WindowData, loss_fn) -> TrainingTrace:
    opt = Adam(chain.trainable(), lr=chain.config.lr)
    trace = TrainingTrace()
    for _ in range(chain.config.epochs):
        t0 = time.perf_counter()
        loss = loss_fn(chain.final(data), data)
        loss_value = float(loss.value)
        if not np.isfinite(loss_value):
            raise TrainingDivergedError(f"loss became {loss_value} at epoch "
                                        f"{len(trace.losses)}", trace=trace)
        backward(loss)
        del loss  # release this epoch's tape before the next forward pass
        try:
            opt.step()
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(str(exc), trace=trace) from None
        trace.losses.append(loss_value)
        trace.seconds.append(time.perf_counter() - t0)
    trace.param_digest = chain.param_digest()
    return trace


def train_teacher(window: list[SnapshotGraph], cfg: ModelConfig, n_global: int,
                  registry: dict[int, int] | None = None,
                  init_from: GcnChain | None = None
                  ) -> tuple[GcnChain, TrainingTrace, Embeddings]:
    """Fit a reconstruction model on the window's final snapshot.

    Returns the trained model, its trace, and the final snapshot
    embeddings from one inference pass after the last update. Pass a
    previously trained chain as ``init_from`` to warm-start instead of
    drawing fresh seeded parameters; it must come from the same event
    (``n_global`` and ``registry``), or ConfigError is raised.
    """
    if cfg.role != "teacher":
        raise ConfigError(f"train_teacher needs a teacher config, got role {cfg.role!r}")
    if len(window) != cfg.window + 1:
        raise ConfigError(f"window of {len(window)} snapshots for a config "
                          f"spanning {cfg.window + 1}")
    chain = GcnChain.init(cfg, n_global, registry)
    if init_from is not None:
        check_same_event(init_from, n_global, registry, "the warm-start model")
        # Plain assignment, not a fresh leaf: a non-finite warm value must
        # surface as divergence in the first epoch, with its trace.
        warm = init_from.param_arrays()
        leaves = chain.trainable()
        for name, shape in param_spec(cfg, n_global).items():
            if name not in warm or warm[name].shape != shape:
                raise ConfigError(f"warm-start parameters do not provide {name!r} "
                                  f"with shape {shape}")
            leaves[name].value = warm[name]
    data = WindowData.build(window)
    trace = _fit(chain, data, reconstruction_loss)
    return chain, trace, chain.embeddings(data)


def distill_student(bundle: DistillationBundle, window: list[SnapshotGraph],
                    n_global: int, registry: dict[int, int] | None = None
                    ) -> tuple[GcnChain, TrainingTrace]:
    """Train a student against the frozen teacher's soft scores.

    Each epoch recomputes the teacher's sigmoid pair scores a row block
    at a time from the bundle's embeddings, a constant; no gradient
    reaches the teacher and its parameters are never touched.
    A teacher trained on another event (``n_global`` or ``registry``
    differ) raises ConfigError.
    """
    cfg = bundle.student_config
    if cfg.role != "student":
        raise ConfigError(f"distill_student needs a student config, got role {cfg.role!r}")
    if cfg.window != bundle.teacher.config.window:
        raise ConfigError(f"student window {cfg.window} does not match teacher "
                          f"window {bundle.teacher.config.window}")
    if len(window) != cfg.window + 1:
        raise ConfigError(f"window of {len(window)} snapshots for a config "
                          f"spanning {cfg.window + 1}")
    if bundle.teacher_embeddings.ids != window[-1].nodes:
        raise ConfigError("teacher embeddings do not cover the window's final snapshot")
    check_same_event(bundle.teacher, n_global, registry, "the teacher")
    chain = GcnChain.init(cfg, n_global, registry)
    teacher_z = bundle.teacher_embeddings.z
    trace = _fit(chain, WindowData.build(window),
                 lambda z, data: distillation_loss(z, teacher_z, data, bundle.gamma))
    return chain, trace
