"""Two-layer graph convolution and parameter accounting.

The encoder for one snapshot is ``Z = A_hat relu(A_hat X W1) W2`` with the
symmetrically normalized adjacency ``A_hat``. Events carry no node
attributes, so ``X`` is the identity restricted to the snapshot's nodes and
``X W1`` selects their W1 rows; W1 is allocated over the whole registry so
that every node owns a persistent row. :func:`param_spec` names and orders
a window model's trainable leaves; the chain, its init, checkpoints and the
parameter count all read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeError
from .tape import Tensor, constant_matmul, matmul, relu, rows

if TYPE_CHECKING:
    from .model import ModelConfig

Array = np.ndarray


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


def gcn_forward(a_hat, ids, w1: Tensor, w2: Tensor) -> Tensor:
    """One snapshot encoder pass; returns the (n_k, embed_dim) output.

    ``a_hat`` is the snapshot's normalized adjacency, the CSR
    ``g.normalized_adjacency``.
    ``ids`` are the snapshot's dense node ids, such as ``g.node_ids``:
    ``X W1`` with identity features is the gather of their W1 rows. Stacks
    of G models' ``w1`` and ``w2`` give the G outputs stacked by rows, each
    through the one ``a_hat``.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size != a_hat.shape[0]:
        raise ShapeError(f"{ids.size} node ids for {a_hat.shape[0]} nodes")
    if ids.size and ids.max() >= w1.shape[-2]:
        raise ShapeError(f"node id {int(ids.max())} outside the {w1.shape[-2]} W1 rows")
    xw = rows(w1, ids)
    hidden = relu(constant_matmul(a_hat, xw))
    return matmul(constant_matmul(a_hat, hidden), w2)


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
