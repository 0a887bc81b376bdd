"""Attention transitions: oracle parity, row stochasticity, gradient flow."""
import numpy as np
import pytest
from scipy.special import expit

from evolink.attention import (AttentionHead, Transition, attention_coefficients,
                               evolve_weights)
from evolink.errors import ShapeError
from evolink import graphs
from evolink.graphs import SnapshotGraph
from evolink.tape import Tensor, backward, mul, param, tsum


def head_from(rng, d1):
    return AttentionHead(transform=param(rng.normal(size=(d1, d1))),
                         score_vec=param(rng.normal(size=(2 * d1, 1))))


def random_graph(rng, n, p=0.5):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, float(rng.uniform(0.05, 0.95))))
    return SnapshotGraph(index=0, nodes=tuple(range(n)), edges=tuple(edges))


def oracle_coefficients(g, head, w_prev):
    """Score-then-softmax with independent scalar arithmetic."""
    n = g.n
    pos = g.position()
    t = head.transform.value
    a_vec = head.score_vec.value[:, 0]
    d1 = t.shape[0]
    proj = {u: [sum(t[r][c] * w_prev[u][c] for c in range(d1)) for r in range(d1)]
            for u in g.nodes}
    adj = {u: {} for u in g.nodes}
    for u, v, w in g.edges:
        adj[u][v] = w
        adj[v][u] = w
    alpha = np.zeros((n, n))
    for u in g.nodes:
        neigh = sorted(adj[u]) if adj[u] else [u]
        weight = {v: (adj[u][v] if adj[u] else 1.0) for v in neigh}
        scores = {}
        for v in neigh:
            cat = proj[u] + proj[v]
            raw = sum(a_vec[i] * cat[i] for i in range(2 * d1))
            scores[v] = expit(weight[v] * raw)
        m = max(scores.values())
        exp = {v: np.exp(s - m) for v, s in scores.items()}
        total = sum(exp.values())
        for v in neigh:
            alpha[pos[u], pos[v]] = exp[v] / total
    return alpha


def oracle_evolved(g, transition, w_prev):
    """Per-node head mixture, ELU, scatter into the carried-forward matrix."""
    out = w_prev.copy()
    pos = g.position()
    accum = np.zeros((g.n, w_prev.shape[1]))
    for head in transition.heads:
        alpha = oracle_coefficients(g, head, w_prev)
        proj = w_prev[list(g.nodes)] @ head.transform.value.T
        accum += alpha @ proj
    accum /= len(transition.heads)
    mixed = np.where(accum > 0, accum, np.expm1(accum))
    for u in g.nodes:
        out[u] = mixed[pos[u]]
    return out


def test_coefficients_match_oracle_many_instances():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, p=0.5)
        d1 = int(rng.integers(2, 5))
        head = head_from(rng, d1)
        w_prev = rng.normal(size=(n + 3, d1))  # registry larger than snapshot
        got = attention_coefficients(g, head, Tensor(w_prev)).value
        expect = oracle_coefficients(g, head, w_prev)
        assert np.max(np.abs(got - expect)) < 1e-10, f"trial {trial}"


def test_rows_are_stochastic():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 10)), p=0.4)
        head = head_from(rng, 3)
        alpha = attention_coefficients(g, head, Tensor(rng.normal(size=(g.n, 3)))).value
        assert np.max(np.abs(alpha.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(alpha >= 0.0)


def test_isolated_node_attends_to_itself_exactly():
    g = SnapshotGraph(index=0, nodes=(0, 1, 2), edges=((0, 1, 0.5),))
    rng = np.random.default_rng(1)
    head = head_from(rng, 2)
    alpha = attention_coefficients(g, head, Tensor(rng.normal(size=(3, 2)))).value
    assert alpha[2, 2] == 1.0  # exact, not approximate
    assert alpha[2, 0] == 0.0 and alpha[2, 1] == 0.0


def test_single_neighbor_coefficient_is_exactly_one():
    g = SnapshotGraph(index=0, nodes=(0, 1), edges=((0, 1, 0.7),))
    rng = np.random.default_rng(2)
    head = head_from(rng, 2)
    alpha = attention_coefficients(g, head, Tensor(rng.normal(size=(2, 2)))).value
    assert alpha[0, 1] == 1.0 and alpha[1, 0] == 1.0
    assert alpha[0, 0] == 0.0 and alpha[1, 1] == 0.0


def test_two_neighbors_with_equal_scores_split_evenly():
    # Zero W rows zero every score, so softmax over two neighbors is (.5, .5).
    g = SnapshotGraph(index=0, nodes=(0, 1, 2),
                      edges=((0, 1, 0.3), (0, 2, 0.9), (1, 2, 0.4)))
    head = AttentionHead(transform=param(np.eye(2)),
                         score_vec=param(np.ones((4, 1))))
    alpha = attention_coefficients(g, head, Tensor(np.zeros((3, 2)))).value
    assert np.allclose(alpha[0, 1:], 0.5, atol=1e-15)


def test_locality_distant_rows_do_not_mix():
    # Nodes in separate components must not influence each other's rows.
    g = SnapshotGraph(index=0, nodes=(0, 1, 2, 3),
                      edges=((0, 1, 0.5), (2, 3, 0.5)))
    rng = np.random.default_rng(5)
    tr = Transition(heads=[head_from(rng, 3)])
    w = rng.normal(size=(4, 3))
    base = evolve_weights(g, tr, Tensor(w)).value
    w_mod = w.copy()
    w_mod[3] += 10.0  # perturb a node in the other component
    moved = evolve_weights(g, tr, Tensor(w_mod)).value
    assert np.array_equal(base[0], moved[0])
    assert np.array_equal(base[1], moved[1])
    assert not np.array_equal(base[2], moved[2])  # neighbor of 3 must move


def test_evolved_matches_oracle():
    rng = np.random.default_rng(29)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n, p=0.6)
        heads = [head_from(rng, 3) for _ in range(int(rng.integers(1, 4)))]
        tr = Transition(heads=heads)
        w_prev = rng.normal(size=(n + 2, 3))
        got = evolve_weights(g, tr, Tensor(w_prev)).value
        expect = oracle_evolved(g, tr, w_prev)
        assert np.max(np.abs(got - expect)) < 1e-10


def test_absent_rows_carried_forward_unchanged():
    g = SnapshotGraph(index=0, nodes=(1, 3), edges=((1, 3, 0.5),))
    rng = np.random.default_rng(31)
    tr = Transition(heads=[head_from(rng, 2)])
    w_prev = rng.normal(size=(5, 2))
    out = evolve_weights(g, tr, Tensor(w_prev)).value
    for absent in (0, 2, 4):
        assert np.array_equal(out[absent], w_prev[absent])
    assert not np.array_equal(out[1], w_prev[1])


def test_gradient_flows_to_attended_rows_only():
    g = SnapshotGraph(index=0, nodes=(0, 1), edges=((0, 1, 0.5),))
    rng = np.random.default_rng(37)
    tr = Transition(heads=[head_from(rng, 2)])
    w_prev = param(rng.normal(size=(4, 2)), "w_prev")
    out = evolve_weights(g, tr, w_prev)
    # Read only the rebuilt rows; carried-forward rows pass gradient
    # straight through, which would mask the attention path.
    from evolink.tape import rows as gather
    backward(tsum(gather(out, np.array([0, 1]))))
    touched = np.abs(w_prev.grad).sum(axis=1) > 0
    assert touched[0] and touched[1]
    assert not touched[2] and not touched[3]


def test_head_shape_validation():
    g = SnapshotGraph(index=0, nodes=(0, 1), edges=((0, 1, 0.5),))
    bad = AttentionHead(transform=param(np.ones((2, 3))),
                        score_vec=param(np.ones((4, 1))))
    with pytest.raises(ShapeError):
        attention_coefficients(g, bad, Tensor(np.zeros((2, 2))))
    short = AttentionHead(transform=param(np.eye(2)),
                          score_vec=param(np.ones((3, 1))))
    with pytest.raises(ShapeError):
        attention_coefficients(g, short, Tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeError):
        evolve_weights(g, Transition(heads=[]), Tensor(np.zeros((2, 2))))


def two_head_gradients_agree(rng) -> bool:
    """Central differences against the analytic gradient of a two-head
    transition's weighted readout, on every head parameter."""
    g = random_graph(rng, 7, p=0.4)
    transition = Transition(heads=[head_from(rng, 3), head_from(rng, 3)])
    w_prev = param(rng.normal(size=(9, 3)), "w_prev")
    read = Tensor(rng.normal(size=(9, 3)))

    def loss():
        return tsum(mul(evolve_weights(g, transition, w_prev), read))

    leaves = [w_prev] + [t for h in transition.heads for t in (h.transform, h.score_vec)]
    backward(loss())
    for leaf, grad in [(leaf, leaf.grad.copy()) for leaf in leaves]:
        flat = leaf.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-6
            hi = float(loss().value)
            flat[i] = orig - 1e-6
            lo = float(loss().value)
            flat[i] = orig
            num = (hi - lo) / 2e-6
            if abs(num - grad.reshape(-1)[i]) > 1e-6 * max(1.0, abs(num)):
                return False
    return True


@pytest.mark.parametrize("share", ["object", "buffer"])
def test_heads_whose_matrices_share_storage_fail_the_gradient_check(share, monkeypatch):
    """Each head's backward holds a matrix built in its forward pass, so a
    ``matrix()`` that handed every call on one pattern the same matrix
    object, or the same data buffer, would give a two-head transition
    wrong gradients. The real one passes the check; both mutants fail it."""
    assert two_head_gradients_agree(np.random.default_rng(5))
    real = graphs.NeighbourLists.matrix
    shared = {}

    def one_object(self, data):
        m = shared.setdefault(id(self), real(self, data))
        m.data = data
        return m

    def one_buffer(self, data):
        buf = shared.setdefault(id(self), np.empty(data.size))
        buf[:] = data
        return real(self, buf)

    monkeypatch.setattr(graphs.NeighbourLists, "matrix",
                        one_object if share == "object" else one_buffer)
    assert not two_head_gradients_agree(np.random.default_rng(5))
