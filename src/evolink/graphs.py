"""Data model for evolving weighted graphs.

An event is an ordered run of snapshots over a shared node registry. Raw
edge lists (arbitrary non-negative integer ids, positive raw weights such
as measured throughput) are turned into an :class:`EventSequence` by
:func:`normalize_weights`, which assigns dense ids in first-appearance
order and rescales weights into ``[WEIGHT_EPS, 1 - WEIGHT_EPS]`` so they
are comparable with sigmoid outputs.
"""
from __future__ import annotations

import copy
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain

import numpy as np
from scipy.sparse import csr_matrix

from .errors import (
    EmptyEventError,
    MalformedGraphError,
    OutOfRangeError,
    ShapeError,
    WindowUnderflowError,
)

Array = np.ndarray

# Margin keeping normalized weights away from the saturated ends of the
# sigmoid; raw_min maps to WEIGHT_EPS, raw_max to 1 - WEIGHT_EPS.
WEIGHT_EPS = 0.05

Edge = tuple[int, int, float]


@dataclass(frozen=True, init=False)
class SnapshotGraph:
    """One undirected weighted snapshot. Immutable after construction.

    ``nodes`` are sorted global ids; ``edges`` hold each undirected pair
    once as ``(u, v, w)`` with ``u < v`` and ``0 < w <= 1``, as Python
    scalars. Dense matrix positions follow the sorted node order. The
    snapshot is built from exactly one of ``edges`` and ``arrays`` (node
    ids equal to ``nodes``, u, v, w), checked on arrays, and keeps them:
    ``node_ids``, ``nodes`` as an index array, and ``edge_arrays``, each
    edge's matrix positions and weight as ``(rows, cols, weights)``. The
    cached properties, ``edges`` among them when not given, are built on
    first use, read-only, and kept as long as the snapshot, so every window
    over it reuses them. None of them is n×n.
    Only ``index``, ``nodes`` and ``edges`` take part in ``==``.
    """

    index: int
    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]  # read through the cached property below
    node_ids: Array = field(init=False, repr=False, compare=False)
    edge_arrays: tuple[Array, Array, Array] = field(init=False, repr=False, compare=False)

    def __init__(self, index: int, nodes: tuple[int, ...], edges: tuple[Edge, ...] | None = None,
                 arrays: tuple[Array, Array, Array, Array] | None = None):
        if (edges is None) == (arrays is None):
            raise MalformedGraphError("a snapshot takes exactly one of edges and arrays")
        if arrays is None:
            try:
                ids = np.array(nodes, dtype=np.intp)
            except OverflowError:
                raise MalformedGraphError("node ids must fit in 64 bits") from None
            arrays = (ids, *_edge_columns(edges, len(edges)))
        elif arrays[0].tolist() != list(nodes):
            raise MalformedGraphError("the node ids of arrays differ from nodes")
        ids, u, v, w = arrays
        rows, cols = _edge_positions(index, ids, u, v, w)
        for arr in (ids, rows, cols, w):
            arr.flags.writeable = False
        self.__dict__.update(index=index, nodes=nodes, node_ids=ids, edge_arrays=(rows, cols, w))
        if edges is not None:
            self.__dict__["edges"] = edges

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return self.edges_at(slice(None))

    def edges_at(self, keep) -> tuple[Edge, ...]:
        """The edges at ``keep`` in ``edge_arrays`` as ``(u, v, w)`` Python scalars."""
        rows, cols, weights = (a[keep] for a in self.edge_arrays)
        return tuple(zip(self.node_ids[rows].tolist(), self.node_ids[cols].tolist(),
                         weights.tolist()))

    @property
    def n(self) -> int:
        return len(self.nodes)

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
        matrix. It equals its transpose bit for bit, every entry lies in
        ``[0, 1]``, and an isolated node gets a 1 on the diagonal."""
        if self.n < 1:
            raise MalformedGraphError("cannot normalize an empty snapshot")
        rows, cols, weights = self.edge_arrays
        lists = NeighbourLists.symmetric(self.n, rows, cols, weights, np.arange(self.n))
        inv_root = 1.0 / np.sqrt(np.bincount(lists.rows, lists.weights, minlength=self.n))
        # The product of the two factors is the same in either order, so the
        # result is bitwise symmetric.
        a_hat = lists.matrix(lists.weights * (inv_root[lists.rows] * inv_root[lists.cols]))
        a_hat.data.flags.writeable = False
        return a_hat

    def adjacency(self) -> Array:
        """Dense symmetric weight matrix with a zero diagonal."""
        rows, cols, weights = self.edge_arrays
        a = np.zeros((self.n, self.n), dtype=np.float64)
        a[rows, cols] = weights
        a[cols, rows] = weights
        return a


_EDGE = np.dtype([("u", np.intp), ("v", np.intp), ("w", np.float64)])


def _edge_columns(edges: Iterable[Edge] | Array, m: int) -> tuple[Array, Array, Array]:
    """The endpoints and the weights of ``m`` ``(u, v, w)`` tuples, or of a
    table of them, as three contiguous arrays."""
    try:
        table = (edges.astype(_EDGE) if isinstance(edges, np.ndarray)
                 else np.fromiter(edges, dtype=_EDGE, count=m))
    except OverflowError:
        raise MalformedGraphError("node ids must fit in 64 bits") from None
    return table["u"].copy(), table["v"].copy(), table["w"].copy()


def _require(ok: Array, message) -> None:
    """Raise MalformedGraphError(message(i)) for the first ``i`` where
    ``ok[i]`` is False, if there is one."""
    if not ok.all():
        raise MalformedGraphError(message(int(np.argmin(ok))))


def _edge_positions(index: int, ids: Array, u: Array, v: Array, w: Array) -> tuple[Array, Array]:
    """Check a snapshot given as arrays and return each edge's matrix
    positions: the row of ``u`` and the column of ``v`` among ``ids``."""
    if index < 0:
        raise MalformedGraphError(f"negative snapshot index {index}")
    _require(ids[1:] > ids[:-1], lambda i: "snapshot nodes must be sorted and unique")
    _require(ids[:1] >= 0, lambda i: "negative node id")
    _require(u < v, lambda i: f"edge ({u[i]}, {v[i]}) must satisfy u < v")
    n = ids.size
    rows, cols = np.searchsorted(ids, u), np.searchsorted(ids, v)
    _require(np.zeros(u.size, dtype=bool) if not n else
             (ids.take(rows, mode="clip") == u) & (ids.take(cols, mode="clip") == v),
             lambda i: f"edge ({u[i]}, {v[i]}) references a missing node")
    keys = np.sort(rows * n + cols)
    _require(keys[1:] != keys[:-1],
             lambda i: f"duplicate edge ({ids[keys[i] // n]}, {ids[keys[i] % n]})")
    _require(np.isfinite(w), lambda i: f"non-finite weight on edge ({u[i]}, {v[i]})")
    _require((w > 0.0) & (w <= 1.0),
             lambda i: f"weight {w[i]} on edge ({u[i]}, {v[i]}) outside (0, 1]")
    return rows, cols


@dataclass(frozen=True, eq=False)
class NeighbourLists:
    """A symmetric sparsity pattern over ``n`` nodes in CSR order.

    Row ``u`` holds the entries ``indptr[u]:indptr[u + 1]``, columns
    ascending; entry ``e`` links ``rows[e]`` to ``cols[e]`` with
    ``weights[e]``. Every entry's mirror ``(cols[e], rows[e])`` is an entry
    too. Index arrays are ``intp``, so gathers and ``bincount`` take them
    without a conversion. All arrays are read-only.
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
        r = np.concatenate([rows, cols, loops]).astype(np.intp)
        c = np.concatenate([cols, rows, loops]).astype(np.intp)
        w = np.concatenate([weights, weights, np.ones(len(loops))])
        order = np.lexsort((c, r))
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(r, minlength=n), out=indptr[1:])
        return cls._frozen(indptr, r[order], c[order], w[order])

    @classmethod
    def _frozen(cls, indptr: Array, rows: Array, cols: Array,
                weights: Array) -> "NeighbourLists":
        for arr in (indptr, rows, cols, weights):
            arr.flags.writeable = False
        return cls(indptr=indptr, rows=rows, cols=cols, weights=weights)

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

    @cached_property
    def _shell(self) -> csr_matrix:
        """A CSR matrix on this pattern, built once with scipy's checks;
        :meth:`matrix` gives each call its own shallow copy."""
        return csr_matrix((self.weights, self.cols, self.indptr), shape=(self.n, self.n))

    def matrix(self, data: Array) -> csr_matrix:
        """The (n, n) CSR matrix holding ``data[e]`` at entry ``e``.

        Each call returns a new matrix that shares the pattern's index
        arrays and holds ``data`` itself, not a copy, so ``data`` must not
        change while the matrix is in use. ``data`` holds one value per
        entry, or ShapeError is raised.
        """
        if data.shape != self.rows.shape:
            raise ShapeError(f"matrix: {data.shape} values for {self.rows.size} entries")
        m = copy.copy(self._shell)
        m.data = data
        return m

    def tile(self, copies: int) -> "NeighbourLists":
        """The block-diagonal pattern of ``copies`` disjoint copies over
        ``copies * n`` nodes, weights repeated; built once per count."""
        if copies == 1:
            return self
        tiles = self._tiles
        if copies not in tiles:
            n, m = self.n, self.rows.size
            shift = np.arange(copies)[:, None]
            indptr = np.append((self.indptr[:-1] + m * shift).ravel(), copies * m)
            tiles[copies] = NeighbourLists._frozen(indptr, (self.rows + n * shift).ravel(),
                                                   (self.cols + n * shift).ravel(),
                                                   np.tile(self.weights, copies))
        return tiles[copies]

    @cached_property
    def _tiles(self) -> dict[int, "NeighbourLists"]:
        return {}


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
        n = len(self.registry)
        dense = np.fromiter(self.registry.values(), dtype=np.intp, count=n)
        if not np.array_equal(np.sort(dense), np.arange(n)):
            raise MalformedGraphError("registry ids must be dense 0..n_global-1")
        for g in self.snapshots:
            # The registry holds exactly 0..n-1, and snapshot nodes are
            # sorted and non-negative.
            ids, w = g.node_ids, g.edge_arrays[2]
            _require(ids[-1:] < n, lambda i: f"node {ids[-1]} missing from the registry")
            _require((w >= WEIGHT_EPS) & (w <= 1.0 - WEIGHT_EPS),
                     lambda i: f"normalized weight {w[i]} outside "
                               f"[{WEIGHT_EPS}, {1.0 - WEIGHT_EPS}]")

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
    sizes = [len(snap) for snap in raw.snapshots]
    return normalize_edges(raw.name, sizes, chain.from_iterable(raw.snapshots))


def normalize_edges(name: str, sizes: list[int], edges: Iterable[Edge] | Array) -> EventSequence:
    """:func:`normalize_weights` of an event given as ``sizes[k]`` raw edges
    per snapshot ``k``, all snapshots' edges in one table or iterable."""
    bounds = [0, *accumulate(sizes)]
    if not bounds[-1]:
        raise EmptyEventError(f"event {name!r} has no edges")
    u, v, raw_w = _edge_columns(edges, bounds[-1])
    _require(np.isfinite(raw_w), lambda e: "non-finite raw weight")
    _require((u >= 0) & (v >= 0), lambda e: f"negative node id {min(u[e], v[e])}")
    _require(u != v, lambda e: f"self-loop on node {u[e]} in snapshot "
                               f"{bisect_right(bounds, e) - 1}")
    scale = WeightScale(float(raw_w.min()), float(raw_w.max()))
    w = scale.apply(raw_w)

    # Dense ids: rank each raw id by its first position among the
    # endpoints read edge by edge, first endpoint first.
    ends = np.empty(2 * u.size, dtype=np.intp)
    ends[0::2], ends[1::2] = u, v
    raw_ids, first, inverse = np.unique(ends, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first)
    dense_of = np.empty(raw_ids.size, dtype=np.intp)
    dense_of[by_appearance] = np.arange(raw_ids.size)
    dense = dense_of[inverse]
    lo = np.minimum(dense[0::2], dense[1::2])
    hi = np.maximum(dense[0::2], dense[1::2])

    snapshots = []
    for k, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        order = start + np.lexsort((hi[start:stop], lo[start:stop]))
        a, b, wk = lo[order], hi[order], w[order]
        present = np.zeros(raw_ids.size, dtype=bool)
        present[a] = present[b] = True
        ids = np.flatnonzero(present)
        snapshots.append(SnapshotGraph(k, tuple(ids.tolist()), arrays=(ids, a, b, wk)))
    registry = dict(zip(raw_ids[by_appearance].tolist(), range(raw_ids.size)))
    return EventSequence(name=name, snapshots=tuple(snapshots),
                         registry=registry, weight_scale=scale)


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
    seen = np.concatenate([_pair_keys(g, event.n_global) for g in window])
    target = event.snapshots[k + 1]
    return LinkSet(links=target.edges_at(~np.isin(_pair_keys(target, event.n_global), seen)))


def _pair_keys(g: SnapshotGraph, base: int) -> Array:
    """Each edge ``(u, v)`` of ``g`` packed into one integer, ``u * base + v``."""
    rows, cols, _ = g.edge_arrays
    return g.node_ids[rows] * base + g.node_ids[cols]
