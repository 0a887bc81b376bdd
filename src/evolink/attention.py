"""Attention transitions that carry first-layer weights between snapshots.

Given the previous first-layer matrix W_prev (one row per registered
node), a transition into snapshot k rebuilds the row of every node present
in that snapshot as an attention-weighted mixture of its neighbors'
transformed rows:

    alpha_u = softmax over N_u of sigmoid(A_k(u, v) * a . [T w_u || T w_v])
    row_u   = ELU(mean over heads of sum_v alpha_uv * T w_v)

where T is the head's (hidden x hidden) transform and ``a`` its scoring
vector over the concatenated pair. N_u is the set of graph neighbors of u;
a node with no neighbors attends to itself with unit edge weight, so every
neighborhood is nonempty. Rows of nodes absent from the snapshot are
carried forward unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .graphs import NeighbourLists, SnapshotGraph
from .tape import Tensor, add, as_tensor, edge_attention, edge_softmax, elu, rows, scale, with_rows

Array = np.ndarray


@dataclass
class AttentionHead:
    """One head: a shared row transform and a pair-scoring vector.

    ``transform`` is (hidden, hidden); ``score_vec`` is (2 * hidden, 1),
    applied to the concatenation of the two transformed rows.
    """

    transform: Tensor
    score_vec: Tensor


@dataclass
class Transition:
    """The heads carrying weights across one snapshot boundary."""

    heads: list[AttentionHead]


@dataclass(frozen=True, eq=False)
class AttentionInputs:
    """The constants of a snapshot that attention reads, built once.

    ``ids`` are the sorted node ids as an index array. ``edges`` are the
    neighbourhoods as neighbour lists weighted by the edge weights used in
    the scores: connected nodes attend to their graph neighbours only, and
    an isolated node gets a self-entry of weight 1 so its softmax row is
    defined.
    """

    ids: Array
    edges: NeighbourLists

    @classmethod
    def build(cls, g: SnapshotGraph) -> "AttentionInputs":
        rows, cols, weights = g.edge_arrays
        degree = np.bincount(rows, minlength=g.n) + np.bincount(cols, minlength=g.n)
        ids = np.asarray(g.nodes, dtype=np.intp)
        ids.flags.writeable = False
        return cls(ids=ids, edges=NeighbourLists.symmetric(g.n, rows, cols, weights,
                                                           np.flatnonzero(degree == 0)))


def attention_inputs(g: SnapshotGraph | AttentionInputs) -> AttentionInputs:
    """The attention constants of ``g``; passes AttentionInputs through."""
    return g if isinstance(g, AttentionInputs) else AttentionInputs.build(g)


def attention_coefficients(g: SnapshotGraph | AttentionInputs, head: AttentionHead,
                           w_prev) -> Tensor:
    """The (n_k, n_k) coefficient matrix of one head, as a constant.

    Each row is a distribution over the node's attention neighborhood;
    entries outside the neighborhood are exactly zero. A diagnostic: the
    model itself never forms this matrix.
    """
    g = attention_inputs(g)
    x = rows(as_tensor(w_prev), g.ids).value
    _, _, alpha = edge_softmax(x, head.transform.value, head.score_vec.value, g.edges)
    return Tensor(g.edges.matrix(alpha).toarray())


def evolve_weights(g: SnapshotGraph | AttentionInputs, transition: Transition,
                   w_prev) -> Tensor:
    """First-layer weights for snapshot ``g`` derived from ``w_prev``.

    Returns a full (n_global, hidden) matrix: rows of nodes present in
    ``g`` are rebuilt through the transition's heads, all other rows are
    copied from ``w_prev`` unchanged.
    """
    w_prev = as_tensor(w_prev)
    if not transition.heads:
        raise ShapeError("transition with no attention heads")
    g = attention_inputs(g)
    if g.ids.size == 0:
        raise ShapeError("cannot evolve weights into an empty snapshot")
    x = rows(w_prev, g.ids)
    mixed = None
    for head in transition.heads:
        z = edge_attention(x, head.transform, head.score_vec, g.edges)
        mixed = z if mixed is None else add(mixed, z)
    new_rows = elu(scale(mixed, 1.0 / len(transition.heads)))
    return with_rows(w_prev, g.ids, new_rows)
