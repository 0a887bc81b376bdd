"""Two-layer graph convolution and parameter accounting.

The encoder for one snapshot is ``Z = A_hat relu(A_hat X W1) W2`` with the
symmetrically normalized adjacency ``A_hat``. Events carry no node
attributes, so ``X`` is the identity restricted to the snapshot's nodes and
``X W1`` selects their W1 rows; W1 is allocated over the whole registry so
that every node owns a persistent row. :func:`param_spec` states a window
model's trainable layout for init, checkpoints and the parameter count.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ShapeError
from .graphs import SnapshotGraph
from .tape import Tensor, constant_matmul, matmul, relu, rows

if TYPE_CHECKING:
    from .model import ModelConfig

Array = np.ndarray


@dataclass
class GcnParams:
    """Weights of one snapshot encoder: first layer (global rows) and second."""

    w1: Tensor
    w2: Tensor


@dataclass(frozen=True)
class IdentityFeatures:
    """Marker standing in for an identity feature matrix.

    Multiplying the identity restricted to a snapshot's nodes into W1 is
    exactly a row selection, so the marker only needs the node ids.
    """

    ids: tuple[int, ...]


@dataclass(frozen=True)
class Embeddings:
    """Final-layer node representations aligned with sorted snapshot nodes."""

    z: Array
    ids: tuple[int, ...]

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {u: i for i, u in enumerate(self.ids)}

    def row(self, u: int) -> Array:
        try:
            return self.z[self._positions[u]]
        except KeyError:
            raise KeyError(f"node {u} has no embedding") from None


def identity_features(g: SnapshotGraph) -> IdentityFeatures:
    return IdentityFeatures(ids=g.nodes)


def first_layer_input(features: IdentityFeatures, w1: Tensor) -> Tensor:
    """``X W1`` for identity features: the W1 rows of the snapshot's nodes."""
    if not isinstance(features, IdentityFeatures):
        raise ConfigError(f"the encoder takes identity_features(g), got "
                          f"{type(features).__name__}")
    ids = np.asarray(features.ids, dtype=np.intp)
    if ids.size and ids.max() >= w1.shape[0]:
        raise ShapeError(f"node id {int(ids.max())} outside the {w1.shape[0]} W1 rows")
    return rows(w1, ids)


def gcn_forward(a_hat, features: IdentityFeatures, params: GcnParams) -> Tensor:
    """One snapshot encoder pass; returns the (n_k, embed_dim) output.

    ``a_hat`` is the snapshot's normalized adjacency, a dense array such as
    ``normalize_adjacency(g)`` or the CSR ``g.normalized_adjacency``.
    """
    if a_hat.ndim != 2 or a_hat.shape[0] != a_hat.shape[1]:
        raise ShapeError(f"normalized adjacency must be square, got {a_hat.shape}")
    xw = first_layer_input(features, params.w1)
    if xw.shape[0] != a_hat.shape[0]:
        raise ShapeError(f"first-layer input has {xw.shape[0]} rows for "
                         f"{a_hat.shape[0]} nodes")
    hidden = relu(constant_matmul(a_hat, xw))
    return matmul(constant_matmul(a_hat, hidden), params.w2)


def param_spec(cfg: "ModelConfig", n_global: int) -> dict[str, tuple[int, int]]:
    """Name -> (rows, cols) of every trainable leaf, in training order.

    One global first-layer matrix, one second-layer matrix per snapshot in
    the window, and per transition ``heads`` attention heads holding a
    (hidden x hidden) transform plus a scoring vector of length 2*hidden.
    Evolved first-layer weights are derived values, not leaves, so they do
    not appear.
    """
    if n_global < 1:
        raise ShapeError(f"n_global must be positive, got {n_global}")
    d1, d2 = cfg.hidden_dim, cfg.embed_dim
    spec = {"w1/0": (n_global, d1)}
    for i in range(cfg.window + 1):
        spec[f"w2/{i}"] = (d1, d2)
    for t in range(cfg.window):
        for j in range(cfg.heads):
            spec[f"attn/{t}/{j}/transform"] = (d1, d1)
            spec[f"attn/{t}/{j}/score"] = (2 * d1, 1)
    return spec


def count_params(cfg: "ModelConfig", n_global: int) -> int:
    """Trainable scalar count for a window model over ``n_global`` nodes."""
    return sum(r * c for r, c in param_spec(cfg, n_global).values())
