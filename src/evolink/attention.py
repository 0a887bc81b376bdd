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

from .errors import NumericError, ShapeError
from .graphs import SnapshotGraph
from .tape import (
    Tensor,
    add,
    as_tensor,
    elu,
    masked_softmax_rows,
    matmul,
    mul,
    rows,
    scale,
    sigmoid,
    transpose,
    with_rows,
)

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

    ``ids`` are the sorted node ids as an index array. ``weights`` are the
    edge weights used in the scores and ``mask`` the neighborhoods. Isolated
    nodes get a self-entry of weight 1 so their softmax row is defined;
    connected nodes attend to their graph neighbors only.
    """

    ids: Array
    weights: Array
    mask: Array

    @classmethod
    def from_adjacency(cls, ids: Array, adjacency: Array) -> "AttentionInputs":
        """Inputs from a snapshot's dense adjacency, which is not modified."""
        mask = adjacency != 0.0
        isolated = np.flatnonzero(~mask.any(axis=1))
        weights = adjacency
        if isolated.size:
            weights = adjacency.copy()
            weights[isolated, isolated] = 1.0
            mask[isolated, isolated] = True
        return cls(ids=ids, weights=weights, mask=mask)


def attention_inputs(g: SnapshotGraph | AttentionInputs) -> AttentionInputs:
    """The attention constants of ``g``; passes AttentionInputs through."""
    if isinstance(g, AttentionInputs):
        return g
    return AttentionInputs.from_adjacency(np.asarray(g.nodes, dtype=np.intp), g.adjacency())


def _head_attention(g: AttentionInputs, head: AttentionHead,
                    w_prev: Tensor) -> tuple[Tensor, Tensor]:
    """Attention coefficients and transformed rows for one head."""
    d1 = head.transform.shape[0]
    if head.transform.shape != (d1, d1):
        raise ShapeError(f"head transform must be square, got {head.transform.shape}")
    if head.score_vec.shape != (2 * d1, 1):
        raise ShapeError(f"score vector shape {head.score_vec.shape} does not match "
                         f"(2*{d1}, 1)")
    if w_prev.shape[1] != d1:
        raise ShapeError(f"W1 width {w_prev.shape[1]} does not match head size {d1}")
    projected = matmul(rows(w_prev, g.ids), transpose(head.transform))
    # a . [p_u || p_v] splits into the two halves of the scoring vector.
    src_half = rows(head.score_vec, np.arange(d1))
    dst_half = rows(head.score_vec, np.arange(d1, 2 * d1))
    per_src = matmul(projected, src_half)
    per_dst = matmul(projected, dst_half)
    pair_term = add(per_src, transpose(per_dst))
    scores = sigmoid(mul(Tensor(g.weights), pair_term))
    if not np.all(np.isfinite(scores.value)):
        raise NumericError("non-finite attention score")
    alpha = masked_softmax_rows(scores, g.mask)
    return alpha, projected


def attention_coefficients(g: SnapshotGraph | AttentionInputs, head: AttentionHead,
                           w_prev) -> Tensor:
    """The (n_k, n_k) coefficient matrix of one head.

    Each row is a distribution over the node's attention neighborhood;
    entries outside the neighborhood are exactly zero.
    """
    alpha, _ = _head_attention(attention_inputs(g), head, as_tensor(w_prev))
    return alpha


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
    mixed = None
    for head in transition.heads:
        alpha, projected = _head_attention(g, head, w_prev)
        z = matmul(alpha, projected)
        mixed = z if mixed is None else add(mixed, z)
    new_rows = elu(scale(mixed, 1.0 / len(transition.heads)))
    return with_rows(w_prev, g.ids, new_rows)
