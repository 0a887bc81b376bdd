"""Graph data model: snapshot validation, weight normalization, windows."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolink.errors import (EmptyEventError, MalformedGraphError,
                            OutOfRangeError, WindowUnderflowError)
from evolink.graphs import (WEIGHT_EPS, EventSequence, RawEvent, SnapshotGraph,
                            WeightScale, build_window, normalize_adjacency,
                            normalize_weights, unobserved_links)
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
        assert g.position() == {2: 0, 5: 1, 9: 2}
        assert g.adjacency()[0, 2] == 0.3

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
        assert all(type(w) is float for _, _, w in g.edges)


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
            got = normalize_adjacency(g)
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
        a = normalize_adjacency(g)
        assert np.array_equal(a, a.T)  # bitwise, not just approximately

    def test_isolated_node_row(self):
        g = snap(0, [0, 1, 2], [(0, 1, 0.5)])
        a = normalize_adjacency(g)
        assert a[2, 2] == 1.0
        assert np.all(a[2, :2] == 0.0) and np.all(a[:2, 2] == 0.0)

    def test_single_node(self):
        assert np.array_equal(normalize_adjacency(snap(0, [0], [])), np.eye(1))

    def test_takes_the_dense_adjacency(self):
        g = snap(0, [0, 1, 2], [(0, 1, 0.5), (1, 2, 0.25)])
        dense = g.adjacency()
        assert np.array_equal(normalize_adjacency(dense), normalize_adjacency(g))
        assert np.array_equal(dense, g.adjacency())  # the input is not modified
        with pytest.raises(MalformedGraphError):
            normalize_adjacency(np.zeros((2, 3)))


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
            window_pairs |= set(g.edge_pairs())
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
    the CSR and the dense normalized adjacency equal their transposes bit
    for bit on every snapshot of both windows, and so do the two CSR
    products."""
    rng = np.random.default_rng(0)
    for window in windows:
        for g in window:
            a = g.normalized_adjacency
            assert (a != a.T).nnz == 0
            grad = rng.normal(size=(g.n, 8))
            assert np.array_equal(a @ grad, a.T @ grad)
            dense = normalize_adjacency(g)
            assert np.array_equal(dense, dense.T)
            assert np.array_equal(normalize_adjacency(g.adjacency()), dense)


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


def test_tiled_lists_are_disjoint_copies(windows):
    """``tile(k)`` lays ``k`` copies of the pattern along the diagonal, and
    a block-diagonal product gives each copy the bits of its own product."""
    g = windows[0][-1]
    lists = g.attention_lists
    assert lists.tile(1) is lists
    tiled = lists.tile(3)
    assert tiled is lists.tile(3) and tiled.n == 3 * lists.n
    data = np.random.default_rng(2).uniform(size=lists.rows.size)
    x = np.random.default_rng(3).normal(size=(3, lists.n, 4))
    got = (tiled.matrix(np.tile(data, 3)) @ x.reshape(-1, 4)).reshape(x.shape)
    block = g.propagation(3) @ x.reshape(-1, 4)
    for k in range(3):
        assert np.array_equal(got[k], lists.matrix(data) @ x[k])
        assert np.array_equal(block[k * g.n:(k + 1) * g.n], g.normalized_adjacency @ x[k])
        m = lists.rows.size
        assert np.array_equal(tiled.transpose[k * m:(k + 1) * m], lists.transpose + k * m)
    assert g.propagation(1) is g.normalized_adjacency
