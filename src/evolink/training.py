"""Training loops for teacher and distilled student models.

Both loops rebuild the forward tape every epoch over the window
snapshots' cached constants, backpropagate a scalar loss, and apply one
full-batch Adam update. All randomness comes from the model config seed,
so a (seed, window) pair reproduces training bit for bit. Students that
differ only in their blend weight train as one stacked fit
(:func:`distill_students`), each with the bits it would have alone.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingDivergedError
from .gcn import Embeddings, param_spec
from .graphs import SnapshotGraph
from .model import GcnChain, ModelConfig, distillation_loss, reconstruction_loss
from .optim import Adam
from .tape import backward, tsum

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


def _fit(chain: GcnChain, window: list[SnapshotGraph], loss_fn) -> TrainingTrace:
    """Train one chain: the one-model case of :func:`_fit_stack`."""
    return _fit_stack([chain], window, loss_fn)[0]


def _fit_stack(chains: list[GcnChain], window: list[SnapshotGraph],
               loss_fn) -> list[TrainingTrace]:
    """Train same-config chains as one fit over a stack of their leaves.

    ``loss_fn(z, g)`` takes the stacked final-snapshot embeddings and
    returns one loss per model (a scalar for a single chain). Each chain
    gets its own trace, divergence check and digest; an epoch's seconds
    are shared equally among the models.
    """
    stack = chains[0] if len(chains) == 1 else GcnChain.stack(chains)
    opt = Adam(stack.trainable(), lr=stack.config.lr)
    traces = [TrainingTrace() for _ in chains]
    for epoch in range(stack.config.epochs):
        t0 = time.perf_counter()
        loss = loss_fn(stack.final(window), window[-1])
        values = np.atleast_1d(loss.value).tolist()
        for trace, value in zip(traces, values):
            if not math.isfinite(value):
                raise TrainingDivergedError(f"loss became {value} at epoch {epoch}",
                                            trace=trace)
        backward(loss if loss.value.ndim == 0 else tsum(loss))
        del loss  # release this epoch's tape before the next forward pass
        try:
            opt.step()
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(str(exc), trace=traces[_diverged(stack)]) from None
        seconds = (time.perf_counter() - t0) / len(chains)
        for trace, value in zip(traces, values):
            trace.losses.append(value)
            trace.seconds.append(seconds)
    if stack is not chains[0]:
        stacked = stack.trainable()
        for k, chain in enumerate(chains):
            for name, leaf in chain.trainable().items():
                leaf.value = stacked[name].value[k].copy()
    for trace, chain in zip(traces, chains):
        trace.param_digest = chain.param_digest()
    return traces


def _diverged(stack: GcnChain) -> int:
    """The first model of ``stack`` with a non-finite gradient entry."""
    finite = np.ones(stack.models, dtype=bool)
    for leaf in stack.trainable().values():
        if leaf.grad is not None:
            finite &= np.isfinite(leaf.grad.reshape(stack.models, -1)).all(axis=1)
    return int(np.argmin(finite))


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
    trace = _fit(chain, window, reconstruction_loss)
    return chain, trace, chain.embeddings(window)


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
    chain = _student(bundle, window, n_global, registry)
    teacher_z = bundle.teacher_embeddings.z
    trace = _fit(chain, window, lambda z, g: distillation_loss(z, teacher_z, g, bundle.gamma))
    return chain, trace


def distill_students(bundles: list[DistillationBundle], window: list[SnapshotGraph],
                     n_global: int, registry: dict[int, int] | None = None
                     ) -> list[tuple[GcnChain, TrainingTrace]]:
    """:func:`distill_student` for each bundle, trained as one stacked fit.

    The bundles share one teacher and its embeddings, and their student
    configs differ in ``gamma`` only, so the students share every shape
    and the teacher's soft scores. Each student gets the parameters,
    losses and digest that :func:`distill_student` would give it.
    """
    first = bundles[0]
    if any(b.teacher_embeddings is not first.teacher_embeddings for b in bundles):
        raise ConfigError("stacked students must share the teacher's embeddings")
    chains = [_student(b, window, n_global, registry) for b in bundles]
    teacher_z = first.teacher_embeddings.z
    gammas = [b.gamma for b in bundles]
    traces = _fit_stack(chains, window,
                        lambda z, g: distillation_loss(z, teacher_z, g, gammas))
    return list(zip(chains, traces))


def _student(bundle: DistillationBundle, window: list[SnapshotGraph], n_global: int,
             registry: dict[int, int] | None) -> GcnChain:
    """A freshly initialized student for ``bundle``, after its checks."""
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
    return GcnChain.init(cfg, n_global, registry)
