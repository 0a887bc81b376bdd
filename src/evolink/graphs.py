"""Data model for evolving weighted graphs.

An event is an ordered run of snapshots over a shared node registry. Raw
edge lists (arbitrary non-negative integer ids, positive raw weights such
as measured throughput) are turned into an :class:`EventSequence` by
:func:`normalize_weights`, which assigns dense ids in first-appearance
order and rescales weights into ``[WEIGHT_EPS, 1 - WEIGHT_EPS]`` so they
are comparable with sigmoid outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

from .errors import (
    EmptyEventError,
    MalformedGraphError,
    OutOfRangeError,
    WindowUnderflowError,
)

Array = np.ndarray

# Margin keeping normalized weights away from the saturated ends of the
# sigmoid; raw_min maps to WEIGHT_EPS, raw_max to 1 - WEIGHT_EPS.
WEIGHT_EPS = 0.05

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class SnapshotGraph:
    """One undirected weighted snapshot. Immutable after construction.

    ``nodes`` are sorted global ids; ``edges`` hold each undirected pair
    once as ``(u, v, w)`` with ``u < v`` and ``0 < w <= 1``. Dense matrix
    positions follow the sorted node order. The cached properties are the
    constants that training and inference read: each is built on first
    use, read-only, and kept as long as the snapshot, so every window
    over it reuses them. None of them is n×n.
    """

    index: int
    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.index < 0:
            raise MalformedGraphError(f"negative snapshot index {self.index}")
        if list(self.nodes) != sorted(set(self.nodes)):
            raise MalformedGraphError("snapshot nodes must be sorted and unique")
        if any(u < 0 for u in self.nodes):
            raise MalformedGraphError("negative node id")
        node_set = set(self.nodes)
        seen: set[tuple[int, int]] = set()
        for u, v, w in self.edges:
            if u >= v:
                raise MalformedGraphError(f"edge ({u}, {v}) must satisfy u < v")
            if u not in node_set or v not in node_set:
                raise MalformedGraphError(f"edge ({u}, {v}) references a missing node")
            if (u, v) in seen:
                raise MalformedGraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            if not math.isfinite(w):
                raise MalformedGraphError(f"non-finite weight on edge ({u}, {v})")
            if not 0.0 < w <= 1.0:
                raise MalformedGraphError(f"weight {w} on edge ({u}, {v}) outside (0, 1]")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def position(self) -> dict[int, int]:
        """Global node id -> row index in this snapshot's matrices."""
        return {u: i for i, u in enumerate(self.nodes)}

    @cached_property
    def edge_arrays(self) -> tuple[Array, Array, Array]:
        """``(rows, cols, weights)``: each edge's matrix positions and weight."""
        return _edge_arrays(self)

    @cached_property
    def adjacency_lists(self) -> NeighbourLists:
        """The weighted adjacency, zero diagonal, as neighbour lists: the
        reconstruction loss's target."""
        return NeighbourLists.symmetric(self.n, *self.edge_arrays, np.empty(0, dtype=np.intp))

    @cached_property
    def attention_lists(self) -> NeighbourLists:
        """The neighbourhoods that attention scores, weighted by the edge
        weights, plus a unit self-entry on each isolated node so that its
        softmax row is defined."""
        rows, cols, weights = self.edge_arrays
        degree = np.bincount(rows, minlength=self.n) + np.bincount(cols, minlength=self.n)
        return NeighbourLists.symmetric(self.n, rows, cols, weights, np.flatnonzero(degree == 0))

    @cached_property
    def normalized_adjacency(self) -> csr_matrix:
        """``D^(-1/2) (A + I) D^(-1/2)`` as a CSR matrix, where
        ``D`` holds the row sums of ``A + I``: the encoder's propagation
        matrix."""
        if self.n < 1:
            raise MalformedGraphError("cannot normalize an empty snapshot")
        rows, cols, weights = self.edge_arrays
        lists = NeighbourLists.symmetric(self.n, rows, cols, weights, np.arange(self.n))
        a_hat = lists.matrix(_normalized(self.n, lists.rows, lists.cols, lists.weights))
        a_hat.data.flags.writeable = False
        return a_hat

    @cached_property
    def node_ids(self) -> Array:
        """``nodes`` as an index array."""
        ids = np.asarray(self.nodes, dtype=np.intp)
        ids.flags.writeable = False
        return ids

    def adjacency(self) -> Array:
        """Dense symmetric weight matrix with a zero diagonal."""
        rows, cols, weights = self.edge_arrays
        a = np.zeros((self.n, self.n), dtype=np.float64)
        a[rows, cols] = weights
        a[cols, rows] = weights
        return a

    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.edges)


def _edge_arrays(g: SnapshotGraph) -> tuple[Array, Array, Array]:
    pos = g.position()
    m = len(g.edges)
    rows = np.fromiter((pos[u] for u, _, _ in g.edges), dtype=np.intp, count=m)
    cols = np.fromiter((pos[v] for _, v, _ in g.edges), dtype=np.intp, count=m)
    weights = np.fromiter((w for _, _, w in g.edges), dtype=np.float64, count=m)
    for arr in (rows, cols, weights):
        arr.flags.writeable = False
    return rows, cols, weights


@dataclass(frozen=True, eq=False)
class NeighbourLists:
    """A symmetric sparsity pattern over ``n`` nodes in CSR order.

    Row ``u`` holds the entries ``indptr[u]:indptr[u + 1]``, columns
    ascending; entry ``e`` links ``rows[e]`` to ``cols[e]`` with
    ``weights[e]``. Every entry's mirror ``(cols[e], rows[e])`` is an entry
    too. Index arrays are int32, which scipy.sparse takes without a copy.
    All arrays are read-only.
    """

    indptr: Array
    rows: Array
    cols: Array
    weights: Array

    @classmethod
    def symmetric(cls, n: int, rows: Array, cols: Array, weights: Array,
                  loops: Array) -> "NeighbourLists":
        """Each edge ``(rows[k], cols[k], weights[k])`` in both directions,
        plus a unit self-entry at every position in ``loops``."""
        r = np.concatenate([rows, cols, loops]).astype(np.int32)
        c = np.concatenate([cols, rows, loops]).astype(np.int32)
        w = np.concatenate([weights, weights, np.ones(len(loops))])
        order = np.lexsort((c, r))
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(r, minlength=n), out=indptr[1:])
        lists = cls(indptr=indptr, rows=r[order], cols=c[order], weights=w[order])
        for arr in (lists.indptr, lists.rows, lists.cols, lists.weights):
            arr.flags.writeable = False
        return lists

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @cached_property
    def transpose(self) -> Array:
        """``transpose[e]`` is the position of entry ``e``'s mirror, so
        ``data[transpose]`` lays out the transposed matrix on this pattern."""
        # The pattern is symmetric, so the k-th entry in (col, row) order
        # is the mirror of the k-th entry in (row, col) order.
        order = np.lexsort((self.rows, self.cols))
        order.flags.writeable = False
        return order

    def matrix(self, data: Array) -> csr_matrix:
        """The (n, n) CSR matrix holding ``data[e]`` at entry ``e``."""
        return csr_matrix((data, self.cols, self.indptr), shape=(self.n, self.n))


@dataclass(frozen=True)
class WeightScale:
    """Affine map taking raw weights in [raw_min, raw_max] to [eps, 1-eps]."""

    raw_min: float
    raw_max: float
    eps: float = WEIGHT_EPS

    def apply(self, w) -> Array:
        """The mapped weight of ``w``, a raw weight or an array of them."""
        w = np.asarray(w, dtype=np.float64)
        if self.raw_max == self.raw_min:
            # Degenerate raw range: every weight collapses to the midpoint.
            return np.full(w.shape, 0.5)
        lo, hi = self.eps, 1.0 - self.eps
        t = (w - self.raw_min) / (self.raw_max - self.raw_min)
        # Convex combination hits both endpoints exactly; the clamp guards
        # against interior rounding drifting past them by one ulp.
        return np.minimum(np.maximum(lo * (1.0 - t) + hi * t, lo), hi)


@dataclass(frozen=True)
class RawEvent:
    """Pre-normalization event: per-snapshot edge lists with raw ids/weights."""

    name: str
    snapshots: tuple[tuple[Edge, ...], ...]

    def node_count(self, k: int) -> int:
        ids = {u for u, _, _ in self.snapshots[k]} | {v for _, v, _ in self.snapshots[k]}
        return len(ids)


@dataclass(frozen=True)
class EventSequence:
    """Normalized event: snapshots over dense ids plus the id registry."""

    name: str
    snapshots: tuple[SnapshotGraph, ...]
    registry: dict[int, int] = field(repr=False)
    weight_scale: WeightScale = WeightScale(0.0, 1.0)

    def __post_init__(self):
        for k, g in enumerate(self.snapshots):
            if g.index != k:
                raise MalformedGraphError(f"snapshot at position {k} carries index {g.index}")
        dense = sorted(self.registry.values())
        if dense != list(range(len(dense))):
            raise MalformedGraphError("registry ids must be dense 0..n_global-1")
        known = set(self.registry.values())
        for g in self.snapshots:
            for u in g.nodes:
                if u not in known:
                    raise MalformedGraphError(f"node {u} missing from the registry")
            for _, _, w in g.edges:
                if not WEIGHT_EPS <= w <= 1.0 - WEIGHT_EPS:
                    raise MalformedGraphError(
                        f"normalized weight {w} outside [{WEIGHT_EPS}, {1.0 - WEIGHT_EPS}]")

    @property
    def n_global(self) -> int:
        return len(self.registry)

    def __len__(self) -> int:
        return len(self.snapshots)


@dataclass(frozen=True)
class LinkSet:
    """A set of weighted undirected links, kept in sorted order."""

    links: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.links)

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.links)


def normalize_weights(raw: RawEvent) -> EventSequence:
    """Build a normalized :class:`EventSequence` from raw edge lists.

    Dense ids are assigned in first-appearance order, scanning snapshots
    in sequence and, within an edge, the first endpoint before the second.
    Weights are affinely mapped from the raw range observed across the
    whole event into ``[WEIGHT_EPS, 1 - WEIGHT_EPS]``; a degenerate raw
    range (all weights equal) maps everything to 0.5.
    """
    weights = [w for snap in raw.snapshots for _, _, w in snap]
    if not weights:
        raise EmptyEventError(f"event {raw.name!r} has no edges")
    for w in weights:
        if not math.isfinite(w):
            raise MalformedGraphError("non-finite raw weight")
    scale = WeightScale(float(min(weights)), float(max(weights)))
    scaled = iter(scale.apply(weights).tolist())

    registry: dict[int, int] = {}

    def dense(raw_id: int) -> int:
        if raw_id < 0:
            raise MalformedGraphError(f"negative node id {raw_id}")
        if raw_id not in registry:
            registry[raw_id] = len(registry)
        return registry[raw_id]

    snapshots = []
    for k, snap in enumerate(raw.snapshots):
        mapped = []
        for u, v, _ in snap:
            if u == v:
                raise MalformedGraphError(f"self-loop on node {u} in snapshot {k}")
            du, dv = dense(u), dense(v)
            lo, hi = (du, dv) if du < dv else (dv, du)
            mapped.append((lo, hi, next(scaled)))
        nodes = tuple(sorted({i for e in mapped for i in e[:2]}))
        snapshots.append(SnapshotGraph(index=k, nodes=nodes, edges=tuple(sorted(mapped))))
    return EventSequence(name=raw.name, snapshots=tuple(snapshots),
                         registry=registry, weight_scale=scale)


def _normalized(n: int, rows: Array, cols: Array, weights: Array) -> Array:
    """``D^(-1/2) (A + I) D^(-1/2)`` at the given entries of ``A + I``,
    where ``D`` holds the row sums of ``A + I``."""
    inv_root = 1.0 / np.sqrt(np.bincount(rows, weights, minlength=n))
    # The product of the two factors is the same in either order, so the
    # result is bitwise symmetric.
    return weights * (inv_root[rows] * inv_root[cols])


def normalize_adjacency(g: SnapshotGraph | Array) -> Array:
    """Symmetrically normalized adjacency with self-loops, dense.

    ``g`` is a snapshot or its dense adjacency, ``g.adjacency()``. Returns
    ``D^(-1/2) (A + I) D^(-1/2)`` where ``D`` holds the row sums of
    ``A + I``. The result is exactly symmetric and every entry lies in
    ``[0, 1]``; an isolated node gets a 1 on the diagonal.
    """
    if isinstance(g, SnapshotGraph):
        return g.normalized_adjacency.toarray()
    a = np.asarray(g, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MalformedGraphError(f"adjacency must be a square matrix, got {a.shape}")
    n = a.shape[0]
    if n < 1:
        raise MalformedGraphError("cannot normalize an empty snapshot")
    a_tilde = a + np.eye(n)
    if not np.all(np.isfinite(a_tilde)):
        raise MalformedGraphError("non-finite adjacency entries")
    rows, cols = np.nonzero(a_tilde)
    out = np.zeros((n, n), dtype=np.float64)
    out[rows, cols] = _normalized(n, rows, cols, a_tilde[rows, cols])
    return out


def build_window(event: EventSequence, k: int, length: int) -> list[SnapshotGraph]:
    """Snapshots ``k - length .. k`` inclusive (``length + 1`` of them)."""
    if length < 0:
        raise WindowUnderflowError(f"negative window length {length}")
    if k >= len(event):
        raise OutOfRangeError(f"snapshot {k} out of range for {len(event)} snapshots")
    if k - length < 0:
        raise WindowUnderflowError(f"window of length {length} ending at {k} "
                                   f"reaches before snapshot 0")
    return list(event.snapshots[k - length:k + 1])


def unobserved_links(event: EventSequence, k: int, length: int) -> LinkSet:
    """Links of snapshot ``k + 1`` absent from every window snapshot.

    These carry their snapshot-``k + 1`` weights and are the prediction
    targets: the window ``k - length .. k`` is what a model may train on.
    """
    if k + 1 >= len(event):
        raise OutOfRangeError(f"snapshot {k + 1} out of range for {len(event)} snapshots")
    window = build_window(event, k, length)
    seen: set[tuple[int, int]] = set()
    for g in window:
        seen.update(g.edge_pairs())
    links = tuple(e for e in event.snapshots[k + 1].edges if (e[0], e[1]) not in seen)
    return LinkSet(links=links)
