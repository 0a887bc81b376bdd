"""Window model: a chain of snapshot encoders linked by attention transitions.

The model over a window of ``window + 1`` consecutive snapshots holds one
free first-layer matrix for the oldest snapshot, a second-layer matrix per
snapshot, and ``window`` attention transitions that derive each later
first-layer matrix from the previous one. Training reconstructs the final
snapshot's weighted adjacency from sigmoid pair scores. The constant
arrays a window needs are the snapshots' own cached properties, built
once per snapshot (see :class:`~evolink.graphs.SnapshotGraph`).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .attention import AttentionHead, Transition, evolve_weights
from .errors import ConfigError, ShapeError, check_numbers
from .gcn import Embeddings, gcn_forward, param_spec
from .graphs import SnapshotGraph
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
        check_numbers(self, {"window": 0, "heads": 1, "hidden_dim": None, "embed_dim": None,
                             "epochs": 1, "seed": 0},
                      {"lr": "positive", "gamma": "unit"})
        if not 0 < self.embed_dim <= self.hidden_dim:
            raise ConfigError(f"need 0 < embed_dim <= hidden_dim, got "
                              f"{self.embed_dim} and {self.hidden_dim}")
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


class GcnChain:
    """Parameters of one window model, all tape leaves.

    ``leaves`` maps every :func:`~evolink.gcn.param_spec` name to its leaf;
    the chain keeps them in spec order, whatever the order of the dict it
    is given. ``w1_first``, ``w2`` and ``transitions`` are views of the same
    leaves. ``w1_first`` covers every registered node (n_global rows); the
    later first-layer matrices are derived during the forward pass and are
    not leaves. ``registry`` is carried along for persistence.

    :meth:`stack` makes the one other kind of chain: G models whose every
    leaf carries a leading model axis, which one fit trains together (see
    :mod:`evolink.tape`). Its forward pass stacks their embeddings by
    rows. Trained chains, checkpoints and digests hold one model each.
    """

    def __init__(self, config: ModelConfig, n_global: int, leaves: dict[str, Tensor],
                 registry: dict[int, int] | None = None):
        self.config = config
        self.n_global = n_global
        self.registry = dict(registry) if registry else {}
        self._leaves = {name: leaves[name] for name in self._validate(leaves)}
        self.w1_first = self._leaves["w1/0"]
        self.w2 = [self._leaves[f"w2/{i}"] for i in range(config.window + 1)]
        self.transitions = [
            Transition(heads=[AttentionHead(transform=self._leaves[f"attn/{t}/{j}/transform"],
                                            score_vec=self._leaves[f"attn/{t}/{j}/score"])
                              for j in range(config.heads)])
            for t in range(config.window)]

    def _validate(self, leaves: dict[str, Tensor]) -> dict[str, tuple[int, int]]:
        """The chain's :func:`param_spec`, once ``leaves`` is shown to match it."""
        if self.n_global < 1:
            raise ConfigError(f"n_global must be positive, got {self.n_global}")
        spec = param_spec(self.config, self.n_global)
        stacked = {leaf.shape[:-2] for leaf in leaves.values()}
        if len(stacked) != 1 or len(stacked.pop()) > 1:
            raise ShapeError("leaves must all be matrices or all stacks of one size")
        shapes = {name: leaf.shape[-2:] for name, leaf in leaves.items()}
        for name in {**spec, **shapes}:
            if shapes.get(name) != spec.get(name):
                raise ShapeError(f"leaf {name!r}: the chain has {shapes.get(name, 'none')}, "
                                 f"the config requires {spec.get(name, 'none')}")
        return spec

    @classmethod
    def from_arrays(cls, config: ModelConfig, n_global: int, arrays: dict[str, Array],
                    registry: dict[int, int] | None = None) -> "GcnChain":
        """A chain whose leaves hold ``arrays``, keyed by :func:`param_spec` names."""
        leaves = {name: param(value, name) for name, value in arrays.items()}
        return cls(config, n_global, leaves, registry)

    @classmethod
    def stack(cls, chains: list["GcnChain"]) -> "GcnChain":
        """One chain of ``len(chains)`` models: each leaf stacks the chains'
        leaves on a leading model axis. The chains' configs may differ in
        ``gamma`` only, which no forward pass reads."""
        if not chains:
            raise ConfigError("a stack needs at least one model")
        first = chains[0]
        for chain in chains[1:]:
            if (replace(chain.config, gamma=first.config.gamma) != first.config
                    or chain.n_global != first.n_global):
                raise ConfigError("a stack needs models of one config and event, "
                                  "differing in gamma only")
        leaves = [chain.trainable() for chain in chains]
        stacked = {name: param(np.stack([ls[name].value for ls in leaves]), name)
                   for name in leaves[0]}
        return cls(first.config, first.n_global, stacked, first.registry)

    @property
    def models(self) -> int:
        """The number of models the chain holds: 1 unless it is a stack."""
        value = self.w1_first.value
        return value.shape[0] if value.ndim == 3 else 1

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
        """Named leaves in :func:`param_spec` order: the chain's own dict."""
        return self._leaves

    def param_arrays(self) -> dict[str, Array]:
        return {k: t.value.copy() for k, t in self.trainable().items()}

    def param_digest(self) -> str:
        h = hashlib.sha256()
        for name, arr in self.param_arrays().items():
            h.update(name.encode())
            h.update(arr.astype("<f8").tobytes())
        return h.hexdigest()[:16]

    def _first_layers(self, window: list[SnapshotGraph]) -> list[Tensor]:
        """Each window snapshot's first-layer weights, carried forward
        through the transitions."""
        if len(window) != self.config.window + 1:
            raise ConfigError(f"window of {len(window)} snapshots for a model "
                              f"spanning {self.config.window + 1}")
        w1s = [self.w1_first]
        for g, transition in zip(window[1:], self.transitions):
            w1s.append(evolve_weights(g, transition, w1s[-1]))
        return w1s

    def forward(self, window: list[SnapshotGraph]) -> list[Tensor]:
        """Embeddings for every window snapshot, recorded on the tape."""
        return [gcn_forward(g.normalized_adjacency, g.node_ids, w1, w2)
                for g, w1, w2 in zip(window, self._first_layers(window), self.w2)]

    def final(self, window: list[SnapshotGraph]) -> Tensor:
        """The final snapshot's embeddings, ``forward(window)[-1]``, without
        encoding the earlier snapshots, whose outputs no loss reads."""
        w1 = self._first_layers(window)[-1]
        g = window[-1]
        return gcn_forward(g.normalized_adjacency, g.node_ids, w1, self.w2[-1])

    def embeddings(self, window: list[SnapshotGraph]) -> Embeddings:
        """Inference-only final-snapshot embeddings.

        The pass runs on constants sharing the leaves' values, so it records
        no tape and frees each intermediate as soon as it is used.
        """
        constants = {name: Tensor(leaf.value) for name, leaf in self.trainable().items()}
        frozen = GcnChain(self.config, self.n_global, constants)
        return Embeddings(z=frozen.final(window).value.copy(), ids=window[-1].nodes)


def reconstruction_loss(z, g: SnapshotGraph) -> Tensor:
    """Root mean squared gap between sigmoid pair scores and the adjacency.

    The target matrix is the snapshot's weighted adjacency with a zero
    diagonal; the mean runs over all n^2 ordered pairs.
    """
    return rmse_sigmoid_gram(z, [(1.0, g.adjacency_lists)])


def distillation_loss(z_student, z_teacher, g: SnapshotGraph, gamma) -> Tensor:
    """Blend of matching the teacher's soft scores and fitting the data.

    ``(1 - gamma)`` weights the root mean squared deviation between the
    student's and the teacher's sigmoid pair scores; ``gamma`` weights the
    student's own reconstruction loss. The teacher side is a constant,
    recomputed a row block at a time from its (n, d) embeddings. At the
    boundaries only the active term is evaluated, so ``gamma = 1``
    reproduces plain reconstruction training exactly.

    A sequence of G blend weights gives the G losses of a stack of
    students, whose embeddings ``z_student`` stacks by rows; they share
    the teacher.
    """
    values = np.ravel(gamma).tolist()
    if not all(0.0 <= value <= 1.0 for value in values):
        raise ConfigError(f"gamma must be in [0, 1], got {gamma}")
    gammas = np.asarray(values) if np.ndim(gamma) else values[0]
    terms = []
    if min(values) < 1.0:
        teacher = SigmoidGram(z_teacher.z if isinstance(z_teacher, Embeddings) else z_teacher)
        if teacher.n != g.n:
            raise ShapeError(f"teacher embeddings over {teacher.n} nodes for a "
                             f"{g.n}-node snapshot")
        terms.append((1.0 - gammas, teacher))
    if max(values) > 0.0:
        terms.append((gammas, g.adjacency_lists))
    return rmse_sigmoid_gram(z_student, terms)
