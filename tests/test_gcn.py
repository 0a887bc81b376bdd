"""Snapshot encoder: forward oracle, identity-feature row selection, param count."""
import numpy as np
import pytest
from scipy.sparse import csr_matrix

from evolink.errors import ShapeError
from evolink.gcn import Embeddings, count_params, gcn_forward
from evolink.graphs import SnapshotGraph
from evolink.model import ModelConfig
from evolink.tape import backward, param, tsum


def random_graph(rng, n):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                edges.append((u, v, float(rng.uniform(0.05, 0.95))))
    return SnapshotGraph(index=0, nodes=tuple(range(n)), edges=tuple(edges))


def scalar_oracle(a_hat, x, w1, w2):
    """gcn forward with explicit python loops, no vectorized ops."""
    n, m = x.shape
    d1 = w1.shape[1]
    d2 = w2.shape[1]
    xw = [[sum(x[i][k] * w1[k][j] for k in range(m)) for j in range(d1)]
          for i in range(n)]
    h_pre = [[sum(a_hat[i][k] * xw[k][j] for k in range(n)) for j in range(d1)]
             for i in range(n)]
    h = [[max(v, 0.0) for v in row] for row in h_pre]
    ah = [[sum(a_hat[i][k] * h[k][j] for k in range(n)) for j in range(d1)]
          for i in range(n)]
    return np.array([[sum(ah[i][k] * w2[k][j] for k in range(d1)) for j in range(d2)]
                     for i in range(n)])


def one_hot(ids, n_global):
    x = np.zeros((len(ids), n_global))
    for r, u in enumerate(ids):
        x[r, u] = 1.0
    return x


def test_forward_matches_scalar_oracle():
    # Identity features over a snapshot that owns only some of the W1 rows:
    # the oracle multiplies the explicit one-hot X into W1.
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        n_global = n + int(rng.integers(0, 4))
        ids = tuple(sorted(rng.choice(n_global, size=n, replace=False).tolist()))
        g = random_graph(rng, n)
        g = SnapshotGraph(index=0, nodes=ids,
                          edges=tuple((ids[u], ids[v], w) for u, v, w in g.edges))
        a_hat = g.normalized_adjacency
        w1 = rng.normal(size=(n_global, 5))
        w2 = rng.normal(size=(5, 3))
        got = gcn_forward(a_hat, g.node_ids, param(w1), param(w2)).value
        expect = scalar_oracle(a_hat.toarray(), one_hot(ids, n_global), w1, w2)
        assert np.max(np.abs(got - expect)) < 1e-10


def test_single_isolated_node():
    # A_hat = [[1]], W1 row [2], W2 [[3]] -> relu(2) * 3 = 6.
    g = SnapshotGraph(index=0, nodes=(0,), edges=())
    out = gcn_forward(g.normalized_adjacency, g.node_ids, param(np.array([[2.0]])),
                      param(np.array([[3.0]])))
    assert out.value.shape == (1, 1)
    assert out.value[0, 0] == 6.0


def test_identity_features_select_rows():
    # With X = I restricted to the snapshot nodes, X W1 is a row gather of
    # the global W1; explicit one-hot matmul must agree exactly. An identity
    # A_hat (a snapshot of isolated nodes) and W2 and a non-negative W1 leave
    # the gather as the output.
    rng = np.random.default_rng(7)
    w1_val = np.abs(rng.normal(size=(10, 4)))
    ids = (1, 4, 9)
    a_hat = SnapshotGraph(index=0, nodes=ids, edges=()).normalized_adjacency
    gathered = gcn_forward(a_hat, ids, param(w1_val), param(np.eye(4)))
    assert np.array_equal(gathered.value, one_hot(ids, 10) @ w1_val)


def test_identity_gradient_reaches_only_selected_rows():
    w1 = param(np.random.default_rng(0).normal(size=(6, 3)), "w1")
    g = SnapshotGraph(index=0, nodes=(0, 5), edges=((0, 5, 0.5),))
    out = gcn_forward(g.normalized_adjacency, g.node_ids, w1, param(np.ones((3, 2))))
    backward(tsum(out))
    touched = np.abs(w1.grad).sum(axis=1) > 0
    assert touched[0] and touched[5]
    assert not touched[1:5].any()


def test_forward_shape_checks():
    w1, w2 = param(np.ones((4, 2))), param(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        gcn_forward(csr_matrix(np.ones((2, 3))), (0, 1), w1, w2)
    with pytest.raises(ShapeError):
        gcn_forward(csr_matrix(np.eye(3)), (0, 1), w1, w2)  # row mismatch
    with pytest.raises(ShapeError, match="node id 5 outside the 4 W1 rows"):
        gcn_forward(csr_matrix(np.eye(1)), (5,), w1, w2)
    with pytest.raises(ShapeError, match="needs a CSR matrix"):
        gcn_forward(np.eye(2), (0, 1), w1, w2)


def test_embeddings_lookup():
    emb = Embeddings(z=np.arange(6.0).reshape(3, 2), ids=(2, 4, 7))
    assert np.array_equal(emb.row(4), [2.0, 3.0])
    with pytest.raises(KeyError):
        emb.row(3)


def test_embeddings_lookup_is_a_position_map():
    """Rows are found through a map built once, not a scan of the ids:
    the same rows and the same KeyError as ``ids.index``."""
    ids = tuple(range(0, 3000, 3))
    emb = Embeddings(z=np.random.default_rng(0).normal(size=(len(ids), 4)), ids=ids)
    for u in (0, 1497, 2997):
        assert np.array_equal(emb.row(u), emb.z[ids.index(u)])
    with pytest.raises(KeyError, match="node 5 has no embedding"):
        emb.row(5)

    class NoScan(tuple):
        def index(self, *args):
            raise AssertionError("row() scanned the ids")

    scanless = Embeddings(z=emb.z, ids=NoScan(ids))
    assert np.array_equal(scanless.row(2997), emb.z[-1])


class TestCountParams:
    def test_documented_example(self):
        cfg = ModelConfig(window=2, heads=2, hidden_dim=32, embed_dim=16)
        # 100*32 + 3*32*16 + 2*2*(32^2 + 2*32) = 3200 + 1536 + 4352
        assert count_params(cfg, 100) == 9088

    def test_matches_enumerated_leaves(self):
        from evolink.model import GcnChain
        for window in (1, 2, 3):
            for heads in (1, 2, 4):
                cfg = ModelConfig(window=window, heads=heads, hidden_dim=6,
                                  embed_dim=3, seed=0)
                chain = GcnChain.init(cfg, n_global=17)
                total = sum(t.value.size for t in chain.trainable().values())
                assert total == count_params(cfg, 17)

    def test_requires_positive_node_count(self):
        with pytest.raises(ShapeError):
            count_params(ModelConfig(), 0)
