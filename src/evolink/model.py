"""Window model: a chain of snapshot encoders linked by attention transitions.

The model over a window of ``window + 1`` consecutive snapshots holds one
free first-layer matrix for the oldest snapshot, a second-layer matrix per
snapshot, and ``window`` attention transitions that derive each later
first-layer matrix from the previous one. Training reconstructs the final
snapshot's weighted adjacency from sigmoid pair scores. The constant
arrays a window needs are built once into a :class:`WindowData`.
"""
from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_matrix

from .attention import AttentionHead, AttentionInputs, Transition, evolve_weights
from .errors import ConfigError, ShapeError
from .gcn import (Embeddings, GcnParams, IdentityFeatures, gcn_forward, identity_features,
                  param_spec)
from .graphs import NeighbourLists, SnapshotGraph, normalize_adjacency_csr
from .tape import SigmoidGram, Tensor, param, rmse_sigmoid_gram

Array = np.ndarray

ROLES = ("teacher", "student")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of one window model.

    ``window`` is the number of snapshots chained before the current one
    (the model spans ``window + 1`` snapshots). ``gamma`` only matters for
    students: it blends their own reconstruction loss against matching the
    teacher's soft reconstruction.
    """

    window: int = 3
    heads: int = 3
    hidden_dim: int = 32
    embed_dim: int = 16
    lr: float = 1e-3
    epochs: int = 200
    gamma: float = 0.5
    seed: int = 0
    role: str = "teacher"

    def __post_init__(self):
        for name in ("window", "heads", "hidden_dim", "embed_dim", "epochs", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("lr", "gamma"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.window < 0:
            raise ConfigError(f"window must be >= 0, got {self.window}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if not 0 < self.embed_dim <= self.hidden_dim:
            raise ConfigError(f"need 0 < embed_dim <= hidden_dim, got "
                              f"{self.embed_dim} and {self.hidden_dim}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.role not in ROLES:
            raise ConfigError(f"role must be one of {ROLES}, got {self.role!r}")


def teacher_defaults(**overrides) -> ModelConfig:
    return replace(ModelConfig(role="teacher"), **overrides)


def student_defaults(**overrides) -> ModelConfig:
    """Compact distillation target. Students are around five times
    smaller than teachers, so the default schedule runs them longer and
    slightly hotter for a comparable wall-clock budget."""
    base = ModelConfig(heads=1, hidden_dim=8, embed_dim=4, role="student",
                       epochs=600, lr=2e-3)
    return replace(base, **overrides)


@dataclass(frozen=True, eq=False)
class WindowData:
    """The constant arrays of one window, built once per fit or inference.

    Per snapshot: its node ids as ``features`` and its normalized adjacency
    ``a_hats[i]`` as a CSR matrix. Per transition: the attention inputs of
    the snapshot it leads into, ``attention[i - 1]`` for snapshot ``i``,
    whose neighbour lists carry the edge weights. ``final`` is the final
    snapshot, whose ``adjacency_lists`` are the reconstruction loss's
    target, built on first use, so an inference builds none. Every array
    is read-only and has at most one entry per node and edge direction:
    no (n, n) array.
    """

    features: tuple[IdentityFeatures, ...]
    a_hats: tuple[csr_matrix, ...]
    attention: tuple[AttentionInputs, ...]
    final: SnapshotGraph

    @classmethod
    def build(cls, window: list[SnapshotGraph]) -> "WindowData":
        if not window:
            raise ConfigError("a window needs at least one snapshot")
        a_hats = tuple(normalize_adjacency_csr(g) for g in window)
        for a in a_hats:
            a.data.flags.writeable = False
        return cls(features=tuple(identity_features(g) for g in window), a_hats=a_hats,
                   attention=tuple(AttentionInputs.build(g) for g in window[1:]),
                   final=window[-1])

    def __len__(self) -> int:
        return len(self.a_hats)

    @property
    def n(self) -> int:
        """Node count of the final snapshot, the one the losses score."""
        return self.final.n


def window_data(window: list[SnapshotGraph] | WindowData) -> WindowData:
    """The constants of ``window``; passes a WindowData through."""
    return window if isinstance(window, WindowData) else WindowData.build(window)


class GcnChain:
    """Parameters of one window model, all tape leaves.

    ``w1_first`` covers every registered node (n_global rows); the later
    first-layer matrices are derived during the forward pass and are not
    leaves. ``registry`` is carried along for persistence.
    """

    def __init__(self, config: ModelConfig, n_global: int, w1_first: Tensor,
                 w2: list[Tensor], transitions: list[Transition],
                 registry: dict[int, int] | None = None):
        self.config = config
        self.n_global = n_global
        self.w1_first = w1_first
        self.w2 = w2
        self.transitions = transitions
        self.registry = dict(registry) if registry else {}
        self._validate()

    def _validate(self) -> None:
        if self.n_global < 1:
            raise ConfigError(f"n_global must be positive, got {self.n_global}")
        spec = param_spec(self.config, self.n_global)
        shapes = {name: leaf.shape for name, leaf in self.trainable().items()}
        for name in {**spec, **shapes}:
            if shapes.get(name) != spec.get(name):
                raise ShapeError(f"leaf {name!r}: the chain has {shapes.get(name, 'none')}, "
                                 f"the config requires {spec.get(name, 'none')}")

    @classmethod
    def from_arrays(cls, config: ModelConfig, n_global: int, arrays: dict[str, Array],
                    registry: dict[int, int] | None = None) -> "GcnChain":
        """A chain whose leaves hold ``arrays``, keyed by :func:`param_spec` names."""
        return cls._from_leaves(config, n_global,
                                {name: param(value, name) for name, value in arrays.items()},
                                registry)

    @classmethod
    def _from_leaves(cls, config: ModelConfig, n_global: int, p: dict[str, Tensor],
                     registry: dict[int, int] | None = None) -> "GcnChain":
        w2 = [p[f"w2/{i}"] for i in range(config.window + 1)]
        transitions = [Transition(heads=[AttentionHead(transform=p[f"attn/{t}/{j}/transform"],
                                                       score_vec=p[f"attn/{t}/{j}/score"])
                                         for j in range(config.heads)])
                       for t in range(config.window)]
        return cls(config, n_global, p["w1/0"], w2, transitions, registry)

    @classmethod
    def init(cls, config: ModelConfig, n_global: int,
             registry: dict[int, int] | None = None) -> "GcnChain":
        """Seeded uniform init, drawn in spec order: [-r, r] with
        r = 1/sqrt(hidden) for the first layer and attention,
        Glorot-uniform for the output layer."""
        rng = np.random.default_rng(config.seed)
        d1, d2 = config.hidden_dim, config.embed_dim
        r = 1.0 / np.sqrt(d1)
        r_out = np.sqrt(6.0 / (d1 + d2))
        arrays = {}
        for name, shape in param_spec(config, n_global).items():
            bound = r_out if name.startswith("w2/") else r
            arrays[name] = rng.uniform(-bound, bound, size=shape)
        return cls.from_arrays(config, n_global, arrays, registry)

    def trainable(self) -> dict[str, Tensor]:
        """Named leaves in a fixed, reproducible order."""
        out: dict[str, Tensor] = {"w1/0": self.w1_first}
        for i, t in enumerate(self.w2):
            out[f"w2/{i}"] = t
        for t, tr in enumerate(self.transitions):
            for j, head in enumerate(tr.heads):
                out[f"attn/{t}/{j}/transform"] = head.transform
                out[f"attn/{t}/{j}/score"] = head.score_vec
        return out

    def param_arrays(self) -> dict[str, Array]:
        return {k: t.value.copy() for k, t in self.trainable().items()}

    def param_digest(self) -> str:
        h = hashlib.sha256()
        for name, arr in self.param_arrays().items():
            h.update(name.encode())
            h.update(arr.astype("<f8").tobytes())
        return h.hexdigest()[:16]

    def _first_layers(self, window: list[SnapshotGraph] | WindowData
                      ) -> tuple[WindowData, list[Tensor]]:
        """The window's constants and each snapshot's first-layer weights,
        carried forward through the transitions."""
        if len(window) != self.config.window + 1:
            raise ConfigError(f"window of {len(window)} snapshots for a model "
                              f"spanning {self.config.window + 1}")
        data = window_data(window)
        w1s = [self.w1_first]
        for inputs, transition in zip(data.attention, self.transitions):
            w1s.append(evolve_weights(inputs, transition, w1s[-1]))
        return data, w1s

    def forward(self, window: list[SnapshotGraph] | WindowData) -> list[Tensor]:
        """Embeddings for every window snapshot, recorded on the tape."""
        data, w1s = self._first_layers(window)
        return [gcn_forward(a_hat, features, GcnParams(w1=w1, w2=w2))
                for a_hat, features, w1, w2 in zip(data.a_hats, data.features, w1s, self.w2)]

    def final(self, window: list[SnapshotGraph] | WindowData) -> Tensor:
        """The final snapshot's embeddings, ``forward(window)[-1]``, without
        encoding the earlier snapshots, whose outputs no loss reads."""
        data, w1s = self._first_layers(window)
        return gcn_forward(data.a_hats[-1], data.features[-1],
                           GcnParams(w1=w1s[-1], w2=self.w2[-1]))

    def embeddings(self, window: list[SnapshotGraph] | WindowData) -> Embeddings:
        """Inference-only final-snapshot embeddings.

        The pass runs on constants sharing the leaves' values, so it records
        no tape and frees each intermediate as soon as it is used.
        """
        data = window_data(window)
        constants = {name: Tensor(leaf.value) for name, leaf in self.trainable().items()}
        frozen = GcnChain._from_leaves(self.config, self.n_global, constants)
        return Embeddings(z=frozen.final(data).value.copy(), ids=data.features[-1].ids)


def reconstruction_loss(z, g: SnapshotGraph | WindowData) -> Tensor:
    """Root mean squared gap between sigmoid pair scores and the adjacency.

    The target matrix is the snapshot's weighted adjacency with a zero
    diagonal (for a WindowData, the final snapshot's); the mean runs over
    all n^2 ordered pairs.
    """
    return rmse_sigmoid_gram(z, [(1.0, _target_edges(g))])


def _target_edges(g: SnapshotGraph | WindowData) -> NeighbourLists:
    return (g.final if isinstance(g, WindowData) else g).adjacency_lists


def distillation_loss(z_student, z_teacher, g: SnapshotGraph | WindowData,
                      gamma: float) -> Tensor:
    """Blend of matching the teacher's soft scores and fitting the data.

    ``(1 - gamma)`` weights the root mean squared deviation between the
    student's and the teacher's sigmoid pair scores; ``gamma`` weights the
    student's own reconstruction loss. The teacher side is a constant,
    recomputed a row block at a time from its (n, d) embeddings. At the
    boundaries only the active term is evaluated, so ``gamma = 1``
    reproduces plain reconstruction training exactly.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma must be in [0, 1], got {gamma}")
    if gamma == 1.0:
        return reconstruction_loss(z_student, g)
    teacher = SigmoidGram(z_teacher.z if isinstance(z_teacher, Embeddings) else z_teacher)
    if teacher.n != g.n:
        raise ShapeError(f"teacher embeddings over {teacher.n} nodes for a {g.n}-node snapshot")
    terms = [(1.0 - gamma, teacher)]
    if gamma > 0.0:
        terms.append((gamma, _target_edges(g)))
    return rmse_sigmoid_gram(z_student, terms)
