"""Graph data model: snapshot validation, weight normalization, windows."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import check_event, check_snapshot

from evolink.errors import (EmptyEventError, MalformedGraphError,
                            OutOfRangeError, ShapeError, WindowUnderflowError)
from evolink.graphs import (WEIGHT_EPS, EventSequence, RawEvent, SnapshotGraph,
                            WeightScale, build_window, normalize_weights,
                            unobserved_links)
from evolink.eventio import export_event, load_event
from evolink.simulate import SimConfig, simulate_event


def snap(index, nodes, edges):
    return SnapshotGraph(index=index, nodes=tuple(nodes), edges=tuple(edges))


def random_raw_event(rng, snapshots=4, ids=30, edges=25) -> RawEvent:
    snaps = []
    for _ in range(snapshots):
        seen = set()
        lst = []
        while len(lst) < edges:
            u, v = rng.integers(0, ids, size=2)
            if u == v or (min(u, v), max(u, v)) in seen:
                continue
            seen.add((min(u, v), max(u, v)))
            lst.append((int(u), int(v), float(rng.uniform(0.5, 120.0))))
        snaps.append(tuple(lst))
    return RawEvent(name="rand", snapshots=tuple(snaps))


class TestSnapshotGraph:
    def test_adjacency_is_symmetric_with_zero_diagonal(self):
        g = snap(0, [0, 1, 2], [(0, 1, 0.5), (1, 2, 0.25)])
        a = g.adjacency()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)
        assert a[0, 1] == 0.5 and a[1, 2] == 0.25 and a[0, 2] == 0.0

    def test_position_follows_sorted_node_order(self):
        g = snap(0, [2, 5, 9], [(2, 9, 0.3)])
        assert g.node_ids.tolist() == [2, 5, 9]
        assert g.adjacency()[0, 2] == 0.3
        assert g.normalized_adjacency[1, 1] == 1.0  # node 5 is isolated

    @pytest.mark.parametrize("nodes,edges", [
        ([1, 0], []),                       # unsorted
        ([0, 0, 1], []),                    # duplicate node
        ([0, 1], [(1, 0, 0.5)]),            # u >= v
        ([0, 1], [(0, 2, 0.5)]),            # missing endpoint
        ([0, 1], [(0, 1, 0.5), (0, 1, 0.6)]),  # duplicate edge
        ([0, 1], [(0, 1, 0.0)]),            # weight at 0
        ([0, 1], [(0, 1, 1.5)]),            # weight above 1
        ([0, 1], [(0, 1, float("nan"))]),   # non-finite
    ])
    def test_rejects_malformed(self, nodes, edges):
        with pytest.raises(MalformedGraphError):
            snap(0, nodes, edges)

    def test_takes_its_edges_from_one_source(self):
        """A snapshot is built from ``edges`` or from ``arrays``, never
        both, and the node ids of ``arrays`` are ``nodes``."""
        ids, u, v, w = (np.array([0, 1]), np.array([0]), np.array([1]), np.array([0.5]))
        g = SnapshotGraph(0, (0, 1), arrays=(ids, u, v, w))
        assert g == snap(0, [0, 1], [(0, 1, 0.5)])
        with pytest.raises(MalformedGraphError, match="exactly one of edges and arrays"):
            SnapshotGraph(0, (0, 1), edges=((0, 1, 0.25),), arrays=(ids, u, v, w))
        with pytest.raises(MalformedGraphError, match="exactly one of edges and arrays"):
            SnapshotGraph(0, (0, 1))
        with pytest.raises(MalformedGraphError, match="node ids of arrays differ"):
            SnapshotGraph(0, (0, 5), arrays=(ids, u, v, w))
        with pytest.raises(MalformedGraphError, match="node ids of arrays differ"):
            SnapshotGraph(0, (0, 1, 2), arrays=(ids, u, v, w))


class TestWeightScale:
    def test_endpoints_map_exactly(self):
        s = WeightScale(2.0, 10.0)
        assert s.apply(2.0) == WEIGHT_EPS
        assert s.apply(10.0) == 1.0 - WEIGHT_EPS
        assert s.apply(6.0) == pytest.approx(0.5)

    def test_degenerate_range_collapses_to_midpoint(self):
        s = WeightScale(3.0, 3.0)
        assert s.apply(3.0) == 0.5

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_stays_inside_band(self, t):
        s = WeightScale(0.0, 1.0)
        assert WEIGHT_EPS <= s.apply(t) <= 1.0 - WEIGHT_EPS

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=2,
                    max_size=20, unique=True))
    def test_monotone(self, raws):
        s = WeightScale(min(raws), max(raws))
        raws = sorted(raws)
        normalized = [s.apply(w) for w in raws]
        assert all(a <= b for a, b in zip(normalized, normalized[1:]))


class TestNormalizeWeights:
    def test_first_appearance_registry_order(self):
        raw = RawEvent(name="e", snapshots=(
            ((7, 3, 10.0), (3, 9, 20.0)),
            ((9, 1, 15.0),),
        ))
        event = normalize_weights(raw)
        # Scan order: 7 then 3 (first edge), 9 (second edge), 1 (snapshot 1).
        assert event.registry == {7: 0, 3: 1, 9: 2, 1: 3}
        assert event.n_global == 4

    def test_weight_band_and_extremes(self):
        raw = RawEvent(name="e", snapshots=(((0, 1, 10.0), (1, 2, 110.0)),))
        event = normalize_weights(raw)
        ws = sorted(w for _, _, w in event.snapshots[0].edges)
        assert ws[0] == WEIGHT_EPS and ws[-1] == 1.0 - WEIGHT_EPS

    def test_equal_raw_weights_map_to_half(self):
        raw = RawEvent(name="e", snapshots=(((0, 1, 4.0), (1, 2, 4.0)),))
        event = normalize_weights(raw)
        assert all(w == 0.5 for _, _, w in event.snapshots[0].edges)

    def test_rejects_self_loop_and_empty(self):
        with pytest.raises(MalformedGraphError):
            normalize_weights(RawEvent(name="e", snapshots=(((2, 2, 1.0),),)))
        with pytest.raises(EmptyEventError):
            normalize_weights(RawEvent(name="e", snapshots=((), ())))

    def test_rejects_ids_beyond_64_bits(self):
        with pytest.raises(MalformedGraphError):
            normalize_weights(RawEvent(name="e", snapshots=(((0, 2**63, 1.0),),)))
        with pytest.raises(MalformedGraphError):
            snap(0, [0, 2**63], [])
        with pytest.raises(MalformedGraphError):
            snap(0, [0, 1], [(0, 2**64, 0.5)])

    def test_random_events_are_valid_and_deterministic(self):
        rng = np.random.default_rng(5)
        raw = random_raw_event(rng)
        a = normalize_weights(raw)
        b = normalize_weights(raw)
        assert a.registry == b.registry
        for ga, gb in zip(a.snapshots, b.snapshots):
            assert ga.edges == gb.edges


def per_edge_weight(scale: WeightScale, w: float) -> float:
    """The weight map one Python float at a time."""
    if scale.raw_max == scale.raw_min:
        return 0.5
    lo, hi = scale.eps, 1.0 - scale.eps
    t = (w - scale.raw_min) / (scale.raw_max - scale.raw_min)
    return min(max(lo * (1.0 - t) + hi * t, lo), hi)


@pytest.mark.parametrize("viewers, seed", [(80, 3), (1000, 0)])
def test_normalized_weights_match_the_per_edge_map(viewers, seed):
    """The array map gives every edge of the desk and the 1000-viewer
    events the bits of the per-edge map, as Python floats."""
    raw = simulate_event(SimConfig(offices=4, viewers=viewers, snapshots=8,
                                   arrival="front_loaded", seed=seed))
    event = normalize_weights(raw)
    dense, scale = event.registry, event.weight_scale
    for edges, g in zip(raw.snapshots, event.snapshots):
        want = sorted((min(dense[u], dense[v]), max(dense[u], dense[v]),
                       per_edge_weight(scale, w)) for u, v, w in edges)
        assert g.edges == tuple(want)
        assert all(type(u) is int and type(v) is int and type(w) is float
                   for u, v, w in g.edges)
        assert all(type(u) is int for u in g.nodes)


# sha256 of the repr of a normalized event's name, sorted registry, weight
# scale and every snapshot's index, nodes and edges: any change to the id
# map, the weights, their order or their Python types changes it.
NORMALIZED_GOLDEN = {
    "desk": (SimConfig(offices=4, viewers=80, snapshots=8, arrival="front_loaded", seed=3),
             "fca223923004ac706d4a9e5bdbffe5ab660f73272347a2b95d12b395b871038d"),
    "cli-pipeline": (SimConfig(offices=4, viewers=320, snapshots=8, seed=0),
                     "c241f3487c1b1a5415c7991ad8770fa6f9edeae795195ad0ea67d2914bca0b93"),
    "viewers-1000": (SimConfig(offices=4, viewers=1000, snapshots=8, seed=0),
                     "c5f1b1679e06c4d7c2bf0616add17e85a8f005cca8d88b30da84cf6ea97b8a5f"),
}


def normalized_digest(event: EventSequence) -> str:
    key = (event.name, sorted(event.registry.items()), event.weight_scale,
           [(g.index, g.nodes, g.edges) for g in event.snapshots])
    return hashlib.sha256(repr(key).encode()).hexdigest()


@pytest.mark.parametrize("name", NORMALIZED_GOLDEN)
def test_golden_normalized_event(name):
    cfg, digest = NORMALIZED_GOLDEN[name]
    assert normalized_digest(normalize_weights(simulate_event(cfg))) == digest


def test_golden_normalized_event_after_a_csv_round_trip(tmp_path):
    """The CLI's event, written and read back, normalizes to the same bits."""
    cfg, digest = NORMALIZED_GOLDEN["cli-pipeline"]
    raw = simulate_event(cfg)
    export_event(raw, tmp_path)
    loaded = load_event(tmp_path)
    assert normalized_digest(loaded) == digest
    assert loaded == normalize_weights(raw)


def test_snapshot_and_event_equality_hash_and_repr_are_pinned():
    """``==``, ``hash`` and ``repr`` of a snapshot read its index, nodes and
    edge tuples, whether it was built from arrays or from the tuples; an
    event compares its snapshots, and its registry makes it unhashable."""
    cfg, _ = NORMALIZED_GOLDEN["desk"]
    event, again = normalize_weights(simulate_event(cfg)), normalize_weights(simulate_event(cfg))
    hashes = [hash(g) for g in event.snapshots]
    assert hashlib.sha256(repr((repr(event), hashes)).encode()).hexdigest() == \
        "5fef5b8febc2e6cd3649a74602b588cef189cfcbdeccfe8cb522b2e44513fd09"
    for g, h in zip(event.snapshots, again.snapshots):
        built = SnapshotGraph(g.index, g.nodes, g.edges)
        assert g == h == built and hash(g) == hash(h) == hash(built) == \
            hash((g.index, g.nodes, g.edges))
        assert repr(g) == repr(built) == \
            f"SnapshotGraph(index={g.index!r}, nodes={g.nodes!r}, edges={g.edges!r})"
        u, v, w = g.edges[-1]
        moved = SnapshotGraph(g.index, g.nodes, g.edges[:-1] + ((u, v, w / 2),))
        assert g != moved and g != (g.index, g.nodes, g.edges)
    assert event == again and event != EventSequence(event.name, event.snapshots[:-1],
                                                     event.registry, event.weight_scale)
    with pytest.raises(TypeError, match="unhashable"):
        hash(event)


class TestNormalizeAdjacency:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 20))
            nodes = tuple(range(n))
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.3:
                        edges.append((u, v, float(rng.uniform(0.05, 0.95))))
            g = snap(0, nodes, edges)
            got = g.normalized_adjacency.toarray()
            # Independent dense recomputation, scalar loops only.
            at = g.adjacency() + np.eye(n)
            expect = np.zeros((n, n))
            deg = [sum(at[i][j] for j in range(n)) for i in range(n)]
            for i in range(n):
                for j in range(n):
                    expect[i, j] = at[i, j] / (np.sqrt(deg[i]) * np.sqrt(deg[j]))
            assert np.max(np.abs(got - expect)) < 1e-12

    def test_exactly_symmetric(self):
        g = snap(0, [0, 1, 2, 3], [(0, 1, 0.9), (1, 2, 0.2), (2, 3, 0.7)])
        a = g.normalized_adjacency.toarray()
        assert np.array_equal(a, a.T)  # bitwise, not just approximately

    def test_isolated_node_row(self):
        g = snap(0, [0, 1, 2], [(0, 1, 0.5)])
        a = g.normalized_adjacency.toarray()
        assert a[2, 2] == 1.0
        assert np.all(a[2, :2] == 0.0) and np.all(a[:2, 2] == 0.0)

    def test_single_node(self):
        assert np.array_equal(snap(0, [0], []).normalized_adjacency.toarray(), np.eye(1))


def small_event(num_snapshots=6) -> EventSequence:
    rng = np.random.default_rng(3)
    return normalize_weights(random_raw_event(rng, snapshots=num_snapshots))


class TestWindows:
    def test_window_bounds(self):
        event = small_event()
        w = build_window(event, 4, 2)
        assert [g.index for g in w] == [2, 3, 4]

    def test_window_errors(self):
        event = small_event()
        with pytest.raises(WindowUnderflowError):
            build_window(event, 1, 3)
        with pytest.raises(OutOfRangeError):
            build_window(event, 99, 1)
        with pytest.raises(WindowUnderflowError):
            build_window(event, 2, -1)

    def test_unobserved_links_equal_brute_force(self):
        event = small_event()
        k, length = 3, 2
        got = unobserved_links(event, k, length).pairs()
        window_pairs = set()
        for g in event.snapshots[k - length:k + 1]:
            window_pairs |= {(u, v) for u, v, _ in g.edges}
        expect = {(u, v) for u, v, _ in event.snapshots[k + 1].edges
                  if (u, v) not in window_pairs}
        assert got == expect

    def test_unobserved_links_carry_next_snapshot_weights(self):
        event = small_event()
        nxt = {(u, v): w for u, v, w in event.snapshots[4].edges}
        for u, v, w in unobserved_links(event, 3, 2).links:
            assert nxt[(u, v)] == w

    def test_unobserved_needs_following_snapshot(self):
        event = small_event()
        with pytest.raises(OutOfRangeError):
            unobserved_links(event, len(event) - 1, 1)


class TestEventSequenceValidation:
    def test_rejects_misindexed_snapshots(self):
        g = snap(1, [0, 1], [(0, 1, 0.5)])
        with pytest.raises(MalformedGraphError):
            EventSequence(name="e", snapshots=(g,), registry={0: 0, 1: 1})

    def test_rejects_sparse_registry(self):
        g = snap(0, [0], [])
        with pytest.raises(MalformedGraphError):
            EventSequence(name="e", snapshots=(g,), registry={0: 0, 9: 2})

    def test_rejects_out_of_band_weights(self):
        g = snap(0, [0, 1], [(0, 1, 0.01)])  # valid snapshot, invalid event
        with pytest.raises(MalformedGraphError):
            EventSequence(name="e", snapshots=(g,), registry={0: 0, 1: 1})


@pytest.fixture(scope="module")
def windows():
    """The desk window (80 viewers) and a 1000-viewer window, both ending
    at snapshot 6."""
    return [build_window(normalize_weights(simulate_event(SimConfig(
        offices=4, viewers=viewers, snapshots=8, arrival="front_loaded", seed=seed))), 6, 3)
        for viewers, seed in ((80, 3), (1000, 0))]


def test_normalized_adjacency_is_exactly_symmetric(windows):
    """``constant_matmul`` takes ``a @ g`` for the gradient ``a.T @ g``:
    the CSR normalized adjacency and its dense form equal their transposes
    bit for bit on every snapshot of both windows, and so do the two CSR
    products."""
    rng = np.random.default_rng(0)
    for window in windows:
        for g in window:
            a = g.normalized_adjacency
            assert (a != a.T).nnz == 0
            grad = rng.normal(size=(g.n, 8))
            assert np.array_equal(a @ grad, a.T @ grad)
            dense = a.toarray()
            assert np.array_equal(dense, dense.T)


def test_neighbour_lists_hold_read_only_intp_indices(windows):
    for g in windows[0]:
        for lists in (g.attention_lists, g.adjacency_lists):
            for arr in (lists.indptr, lists.rows, lists.cols, lists.transpose):
                assert arr.dtype == np.intp
                assert not arr.flags.writeable
            assert not lists.weights.flags.writeable


def test_matrix_is_the_checked_csr_build_without_a_copy(windows):
    """``matrix(data)`` equals scipy's checked construction from the same
    arrays, holds ``data`` itself, and is a new matrix on every call."""
    from scipy.sparse import csr_matrix
    lists = windows[0][-1].attention_lists
    data = np.random.default_rng(0).uniform(size=lists.rows.size)
    got = lists.matrix(data)
    want = csr_matrix((data, lists.cols, lists.indptr), shape=(lists.n, lists.n))
    assert got.data is data
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.shape == want.shape and got.has_canonical_format
    x = np.random.default_rng(1).normal(size=(lists.n, 3))
    assert np.array_equal(got @ x, want @ x)
    other = lists.matrix(2.0 * data)
    assert other is not got and got.data is data
    # scipy reads only the first rows.size values of a longer array.
    for wrong in (np.tile(data, 2), data[:-1], data[:, None]):
        with pytest.raises(ShapeError):
            lists.matrix(wrong)


def test_tiled_lists_are_disjoint_copies(windows):
    """``tile(k)`` lays ``k`` copies of the pattern along the diagonal, and
    a block-diagonal product gives each copy the bits of its own product."""
    lists = windows[0][-1].attention_lists
    assert lists.tile(1) is lists
    tiled = lists.tile(3)
    assert tiled is lists.tile(3) and tiled.n == 3 * lists.n
    data = np.random.default_rng(2).uniform(size=lists.rows.size)
    x = np.random.default_rng(3).normal(size=(3, lists.n, 4))
    got = (tiled.matrix(np.tile(data, 3)) @ x.reshape(-1, 4)).reshape(x.shape)
    for k in range(3):
        assert np.array_equal(got[k], lists.matrix(data) @ x[k])
        m = lists.rows.size
        assert np.array_equal(tiled.transpose[k * m:(k + 1) * m], lists.transpose + k * m)


# -- validation against the per-edge loops ------------------------------------

BAD_WEIGHTS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.25, 1.5, 1.0, 0.01,
                              0.99])


@st.composite
def snapshot_inputs(draw, index=st.sampled_from([0, 1, -1])):
    """An index, nodes and edges: a valid snapshot, then broken in none,
    one or several ways. Nodes unsorted, repeated or negative; an edge
    with u >= v, a missing endpoint, a repeated pair; a weight that is
    NaN, infinite, 0, negative, above 1 or outside the normalized band."""
    nodes = sorted(draw(st.sets(st.integers(0, 12), max_size=8)))
    pairs = [(u, v) for u in nodes for v in nodes if u < v]
    edges = [(u, v, draw(st.floats(WEIGHT_EPS, 1.0 - WEIGHT_EPS)))
             for u, v in (draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True))
                          if pairs else [])]
    flip = st.integers(0, 5).map(lambda r: r == 0)
    if draw(flip):
        nodes = draw(st.lists(st.integers(-3, 12), max_size=8))
    if edges and draw(flip):
        u, v, w = edges.pop(draw(st.integers(0, len(edges) - 1)))
        edges.append((v, u, w) if draw(st.booleans()) else (u, u, w))
    if draw(flip):
        edges.append((draw(st.integers(-3, 14)), draw(st.integers(-3, 14)),
                      draw(st.floats(WEIGHT_EPS, 1.0 - WEIGHT_EPS))))
    if edges and draw(flip):
        edges.append(draw(st.sampled_from(edges)))
    if edges and draw(flip):
        i = draw(st.integers(0, len(edges) - 1))
        edges[i] = (*edges[i][:2], draw(BAD_WEIGHTS))
    return draw(index), tuple(nodes), tuple(draw(st.permutations(edges)))


def rejects(build) -> bool:
    try:
        build()
    except MalformedGraphError:
        return True
    return False


@settings(max_examples=400, deadline=None)
@given(snapshot_inputs())
def test_snapshot_checks_reject_what_the_per_edge_loop_rejects(inputs):
    index, nodes, edges = inputs
    assert rejects(lambda: SnapshotGraph(index=index, nodes=nodes, edges=edges)) == \
        rejects(lambda: check_snapshot(index, nodes, edges))


@settings(max_examples=300, deadline=None)
@given(st.lists(snapshot_inputs(index=st.just(0)), min_size=1, max_size=3),
       st.booleans(), st.one_of(st.just(13), st.integers(0, 14)),
       st.lists(st.integers(-1, 15), max_size=14, unique=True), st.booleans())
def test_event_checks_reject_what_the_per_edge_loop_rejects(inputs, misindexed, n, ids, dense):
    """Over the valid snapshots, in place or misindexed, with a dense or a
    sparse registry that may miss some of their nodes."""
    snapshots = []
    for _, nodes, edges in inputs:
        k = len(snapshots) + misindexed
        if not rejects(lambda: check_snapshot(k, nodes, edges)):
            snapshots.append(SnapshotGraph(index=k, nodes=nodes, edges=edges))
    values = range(n) if dense else ids
    registry = {100 + i: x for i, x in enumerate(values)}
    assert rejects(lambda: EventSequence(name="e", snapshots=tuple(snapshots),
                                         registry=registry)) == \
        rejects(lambda: check_event(snapshots, registry))
