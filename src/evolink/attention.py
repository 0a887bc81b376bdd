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
carried forward unchanged. A transition's heads are one recorded op,
:func:`evolink.tape.edge_attention`, which returns the mean over heads.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .graphs import SnapshotGraph
from .tape import Tensor, as_tensor, edge_attention, edge_softmax, elu, rows, with_rows


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


def attention_coefficients(g: SnapshotGraph, head: AttentionHead, w_prev) -> Tensor:
    """The (n_k, n_k) coefficient matrix of one head, as a constant.

    Each row is a distribution over the node's attention neighborhood;
    entries outside the neighborhood are exactly zero. A diagnostic: the
    model itself never forms this matrix. The head must be one model's; a
    stacked head raises ShapeError.
    """
    if head.transform.value.ndim != 2:
        raise ShapeError(f"attention_coefficients takes one model's head, got a "
                         f"transform of shape {head.transform.shape}")
    edges = g.attention_lists
    x = rows(as_tensor(w_prev), g.node_ids).value
    _, _, alpha = edge_softmax(x, [head.transform.value], [head.score_vec.value], edges)
    return Tensor(edges.matrix(alpha).toarray())


def evolve_weights(g: SnapshotGraph, transition: Transition, w_prev) -> Tensor:
    """First-layer weights for snapshot ``g`` derived from ``w_prev``.

    Returns a full (n_global, hidden) matrix: rows of nodes present in
    ``g`` are rebuilt through the transition's heads, all other rows are
    copied from ``w_prev`` unchanged.
    """
    w_prev = as_tensor(w_prev)
    if g.n == 0:
        raise ShapeError("cannot evolve weights into an empty snapshot")
    heads = transition.heads
    mixed = edge_attention(rows(w_prev, g.node_ids), [h.transform for h in heads],
                           [h.score_vec for h in heads], g.attention_lists)
    return with_rows(w_prev, g.node_ids, elu(mixed))
