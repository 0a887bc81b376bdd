"""Reference implementations the package's array code is tested against.

``simulate_event_masks`` is the simulator whose partner pick builds
full-length eligibility masks, O(v) per pick; ``check_snapshot`` and
``check_event`` are the per-edge validation loops of ``SnapshotGraph``
and ``EventSequence``. Each is kept as it was written, so the faster
versions can be compared draw for draw and input for input.

The tape ops ``add``, ``sub``, ``mul``, ``scale``, ``transpose``,
``sigmoid``, ``mean``, ``square`` and ``sqrt`` are recorded ops that no
fit needs: the fused ops of :mod:`evolink.tape` (the attention heads'
mean, the MLP scorer's squared error, the sigmoid-Gram loss) are checked
against chains of them, and tests use ``mul`` for weighted readouts.

``edge_attention_per_entry`` is :func:`evolink.tape.edge_attention` with
the backward it had before it took the score vectors' gradient from
products on the neighbour pattern: it forms every entry's gradient
through row gathers, a block of entries at a time, and sums it per row
and per column with ``bincount``.
"""
from __future__ import annotations

import math

import numpy as np

from evolink.errors import MalformedGraphError, NumericError, ShapeError
from evolink.graphs import WEIGHT_EPS, NeighbourLists, RawEvent
from evolink.simulate import MIN_RAW_WEIGHT, SimConfig, arrival_counts
from evolink.tape import (Tensor, _accumulate, _head_sum, _heads, _softmax, as_tensor,
                          expit)

Array = np.ndarray


def simulate_event_masks(cfg: SimConfig) -> RawEvent:
    """Generate one event; weights are raw (caller normalizes)."""
    rng = np.random.default_rng(cfg.seed)
    v = cfg.viewers

    # Balanced office assignment over a shuffled viewer order, so every
    # office is populated whenever viewers >= offices.
    office = np.empty(v, dtype=np.intp)
    office[rng.permutation(v)] = np.arange(v) % cfg.offices

    counts = arrival_counts(cfg)
    joins_at = np.empty(v, dtype=np.intp)
    order = rng.permutation(v)
    start = 0
    for k, c in enumerate(counts):
        joins_at[order[start:start + c]] = k
        start += c

    pair_weight: dict[tuple[int, int], float] = {}

    def weight_of(u: int, w: int) -> float:
        key = (u, w) if u < w else (w, u)
        if key not in pair_weight:
            loc, spread = cfg.intra_bw if office[u] == office[w] else cfg.inter_bw
            pair_weight[key] = max(float(rng.normal(loc, spread)), MIN_RAW_WEIGHT)
        return pair_weight[key]

    # State kept across the whole run, so that a pick never rescans the
    # viewers: who is present, each viewer's degree (always len(adj[u])),
    # and which viewers sit in each office.
    adj: dict[int, dict[int, float]] = {u: {} for u in range(v)}
    present = np.zeros(v, dtype=bool)
    degree = np.zeros(v, dtype=np.intp)
    in_office = [office == o for o in range(cfg.offices)]

    def link(u: int, w: int) -> None:
        wt = weight_of(u, w)
        adj[u][w] = wt
        adj[w][u] = wt
        degree[u] += 1
        degree[w] += 1

    def unlink(u: int, w: int) -> None:
        del adj[u][w]
        del adj[w][u]
        degree[u] -= 1
        degree[w] -= 1

    def pick_partner(u: int, capped: bool) -> int | None:
        """Choose a partner for u with the same-office preference: any
        present viewer other than u and its neighbours, and, if ``capped``,
        only one still under the degree cap. Candidates are taken in
        ascending id order."""
        eligible = present & (degree < cfg.degree_cap) if capped else present.copy()
        eligible[u] = False
        eligible[np.fromiter(adj[u], dtype=np.intp, count=len(adj[u]))] = False
        mine = eligible & in_office[office[u]]
        same = np.flatnonzero(mine)
        other = np.flatnonzero(eligible ^ mine)
        if same.size and (not other.size or rng.random() < cfg.same_office_bias):
            pool = same
        elif other.size:
            pool = other
        else:
            return None
        return int(pool[rng.integers(0, len(pool))])

    snapshots: list[tuple[tuple[int, int, float], ...]] = []
    for k in range(cfg.snapshots):
        present[joins_at == k] = True

        if cfg.departure_prob > 0.0 and k > 0:
            leaving = [u for u in np.flatnonzero(present).tolist()
                       if joins_at[u] < k and rng.random() < cfg.departure_prob]
            for u in leaving:
                for w in list(adj[u]):
                    unlink(u, w)
                present[u] = False

        # Rewiring: swap the weakest link for a strictly stronger candidate.
        if cfg.rewire_prob > 0.0:
            for u in np.flatnonzero(present).tolist():
                if not adj[u] or rng.random() >= cfg.rewire_prob:
                    continue
                weakest, w_min = min(adj[u].items(), key=lambda kv: (kv[1], kv[0]))
                cand = pick_partner(u, capped=True)
                if cand is not None and weight_of(u, cand) > w_min:
                    unlink(u, weakest)
                    link(u, cand)

        # Growth: each viewer initiates at most growth_rate new links per
        # snapshot, staying within the degree cap, so the mesh densifies
        # over the whole event instead of saturating at arrival. A
        # completely unconnected viewer may ignore partners' caps so that
        # no present viewer stays isolated (when at least two are present).
        for u in np.flatnonzero(present).tolist():
            budget = cfg.growth_rate
            while budget > 0 and degree[u] < cfg.degree_cap:
                cand = pick_partner(u, capped=True)
                if cand is None and not adj[u]:
                    cand = pick_partner(u, capped=False)
                if cand is None:
                    break
                link(u, cand)
                budget -= 1

        edges = sorted((u, w, adj[u][w]) for u in np.flatnonzero(present).tolist()
                       for w in adj[u] if u < w)
        snapshots.append(tuple(edges))

    pattern = cfg.arrival.replace("_", "-")
    name = f"sim-{pattern}-o{cfg.offices}-v{v}-s{cfg.seed}"
    return RawEvent(name=name, snapshots=tuple(snapshots))


def check_snapshot(index, nodes, edges) -> None:
    """The per-edge checks of one snapshot's index, nodes and edges."""
    if index < 0:
        raise MalformedGraphError(f"negative snapshot index {index}")
    if list(nodes) != sorted(set(nodes)):
        raise MalformedGraphError("snapshot nodes must be sorted and unique")
    if any(u < 0 for u in nodes):
        raise MalformedGraphError("negative node id")
    node_set = set(nodes)
    seen: set[tuple[int, int]] = set()
    for u, v, w in edges:
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


def check_event(snapshots, registry) -> None:
    """The per-edge checks of an event over already valid snapshots."""
    for k, g in enumerate(snapshots):
        if g.index != k:
            raise MalformedGraphError(f"snapshot at position {k} carries index {g.index}")
    dense = sorted(registry.values())
    if dense != list(range(len(dense))):
        raise MalformedGraphError("registry ids must be dense 0..n_global-1")
    known = set(registry.values())
    for g in snapshots:
        for u in g.nodes:
            if u not in known:
                raise MalformedGraphError(f"node {u} missing from the registry")
        for _, _, w in g.edges:
            if not WEIGHT_EPS <= w <= 1.0 - WEIGHT_EPS:
                raise MalformedGraphError(
                    f"normalized weight {w} outside [{WEIGHT_EPS}, {1.0 - WEIGHT_EPS}]")


# -- tape ops that only the tests compose ------------------------------------

def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _broadcastable(a: Tensor, b: Tensor, opname: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast") from exc


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcastable(a, b, "add")

    def bw(g: Array) -> None:
        for t in (a, b):
            if t.requires_grad:
                gt = _unbroadcast(g, t.shape)
                _accumulate(t, gt, fresh=gt is not g)

    return Tensor(a.value + b.value, _parents=(a, b), _backward=bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcastable(a, b, "sub")

    def bw(g: Array) -> None:
        if a.requires_grad:
            ga = _unbroadcast(g, a.shape)
            _accumulate(a, ga, fresh=ga is not g)
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.shape), fresh=True)

    return Tensor(a.value - b.value, _parents=(a, b), _backward=bw)


def mul(a, b) -> Tensor:
    """Hadamard (elementwise) product with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    _broadcastable(a, b, "mul")

    def bw(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.value, a.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.value, b.shape), fresh=True)

    return Tensor(a.value * b.value, _parents=(a, b), _backward=bw)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def bw(g: Array) -> None:
        _accumulate(a, g * c, fresh=True)

    return Tensor(a.value * c, _parents=(a,), _backward=bw)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.value.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d operand, got {a.shape}")

    def bw(g: Array) -> None:
        _accumulate(a, g.T)

    return Tensor(a.value.T, _parents=(a,), _backward=bw)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = expit(a.value)

    def bw(g: Array) -> None:
        _accumulate(a, g * s * (1.0 - s), fresh=True)

    return Tensor(s, _parents=(a,), _backward=bw)


def mean(a) -> Tensor:
    a = as_tensor(a)
    n = a.value.size
    if n == 0:
        raise ShapeError("mean of an empty tensor")

    def bw(g: Array) -> None:
        _accumulate(a, g / n)

    return Tensor(a.value.mean(), _parents=(a,), _backward=bw)


def square(a) -> Tensor:
    a = as_tensor(a)

    def bw(g: Array) -> None:
        _accumulate(a, 2.0 * a.value * g, fresh=True)

    return Tensor(a.value * a.value, _parents=(a,), _backward=bw)


def sqrt(a) -> Tensor:
    """Elementwise square root; the derivative at exactly zero is taken as 0."""
    a = as_tensor(a)
    if np.any(a.value < 0.0):
        raise NumericError("sqrt of a negative value")
    root = np.sqrt(a.value)

    def bw(g: Array) -> None:
        safe = np.where(root > 0.0, root, 1.0)
        _accumulate(a, g * np.where(root > 0.0, 0.5 / safe, 0.0), fresh=True)

    return Tensor(root, _parents=(a,), _backward=bw)


# -- the attention heads' per-entry backward ---------------------------------

# Entries whose (entries, d) row gathers the backward of
# :func:`edge_attention_per_entry` forms at a time.
ENTRY_BLOCK = 1024


def edge_attention_per_entry(x, transforms, score_vecs, edges: NeighbourLists) -> Tensor:
    """:func:`evolink.tape.edge_attention`, its value bit for bit, with a
    backward that forms every entry's gradient ``d_pair``."""
    x = as_tensor(x)
    transforms = [as_tensor(t) for t in transforms]
    score_vecs = [as_tensor(a) for a in score_vecs]
    t4, a4 = _heads([t.value for t in transforms], [a.value for a in score_vecs])
    p, s, alpha = _softmax(x.value, t4, a4, edges)
    models, heads, d = t4.shape[0], t4.shape[1], t4.shape[-1]
    lists = edges.tile(models * heads)
    z = value = lists.matrix(alpha) @ p
    if heads > 1:
        value = _head_sum(z.reshape(models, heads, -1, d)).reshape(-1, d)
        value *= 1.0 / heads
    leaves = (x, *transforms, *score_vecs)
    u, v, n = lists.rows, lists.cols, lists.n
    alpha_t = lists.matrix(alpha[lists.transpose])
    # The row of its model's g that each row of every head reads.
    model_row = np.arange(models * edges.n).reshape(models, 1, -1).repeat(heads, 1).ravel()

    def bw(g: Array) -> None:
        proj = p
        if heads > 1:
            # Each head's share of the mean's gradient, as scale gives it.
            g = g * (1.0 / heads)
        # Through the softmax: a row's sum of alpha * d_alpha is g_u . z_u.
        # Each entry's dot product is the same in any block of entries.
        d_pair = np.empty(u.size)
        for lo in range(0, u.size, ENTRY_BLOCK):
            hi = lo + ENTRY_BLOCK
            np.einsum("ij,ij->i", g[model_row[u[lo:hi]]], proj[v[lo:hi]], out=d_pair[lo:hi])
        if heads > 1:
            g = np.broadcast_to(g.reshape(models, 1, -1, d),
                                (models, heads, edges.n, d)).reshape(-1, d)
        # d_pair = alpha * (d_alpha - (g . z)[u]) * s * (1 - s) * weights,
        # formed in place in that order.
        d_pair -= np.einsum("ij,ij->i", g, z)[u]
        d_pair *= alpha
        d_pair *= s
        d_pair *= 1.0 - s
        d_pair *= lists.weights
        d_src = np.bincount(u, d_pair, minlength=n).reshape(models, heads, -1, 1)
        d_dst = np.bincount(v, d_pair, minlength=n).reshape(models, heads, -1, 1)
        dp4 = (alpha_t @ g).reshape(models, heads, -1, d)
        dp4 += d_src * a4[:, :, None, :d, 0]
        dp4 += d_dst * a4[:, :, None, d:, 0]
        pt = proj.reshape(models, heads, -1, d).swapaxes(2, 3)
        grad = np.concatenate([pt @ d_src, pt @ d_dst], axis=2)
        for h, a in enumerate(score_vecs):
            if a.requires_grad:
                _accumulate(a, grad[:, h].reshape(a.shape), fresh=True)
        grad = dp4.swapaxes(2, 3) @ x.value.reshape(models, 1, -1, d)
        for h, t in enumerate(transforms):
            if t.requires_grad:
                _accumulate(t, grad[:, h].reshape(t.shape), fresh=True)
        if x.requires_grad:
            _accumulate(x, _head_sum(dp4 @ t4).reshape(x.shape), fresh=True)

    return Tensor(value, _parents=leaves, _backward=bw)
