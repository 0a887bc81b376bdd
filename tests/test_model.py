"""Window-model tests: config validation, init bookkeeping, losses.

The loss oracles here are scalar python loops so that a vectorization bug
in the library cannot hide in the reference.
"""
import math

import numpy as np
import pytest
from scipy.special import expit

from evolink.errors import ConfigError, ShapeError
from evolink.gcn import Embeddings, count_params, param_spec
from evolink.graphs import SnapshotGraph
from evolink.model import (
    GcnChain,
    ModelConfig,
    WindowData,
    distillation_loss,
    reconstruction_loss,
    student_defaults,
    teacher_defaults,
)
from evolink.tape import backward, param


def make_snapshot(index, nodes, edges):
    return SnapshotGraph(index=index, nodes=tuple(nodes), edges=tuple(edges))


def line_window(window, n=5, d_seed=0):
    """window+1 path graphs on the same node set, weights drifting."""
    rng = np.random.default_rng(d_seed)
    out = []
    for k in range(window + 1):
        edges = tuple((i, i + 1, float(rng.uniform(0.2, 0.9)))
                      for i in range(n - 1))
        out.append(make_snapshot(k, range(n), edges))
    return out


def adjacency_by_hand(g):
    a = [[0.0] * g.n for _ in range(g.n)]
    pos = {u: i for i, u in enumerate(g.nodes)}
    for u, v, w in g.edges:
        a[pos[u]][pos[v]] = w
        a[pos[v]][pos[u]] = w
    return a


def sigmoid_scalar(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def recon_oracle(z, g):
    """sqrt of the mean squared gap, every ordered pair, scalar loops."""
    a = adjacency_by_hand(g)
    n = g.n
    total = 0.0
    for i in range(n):
        for j in range(n):
            s = sigmoid_scalar(sum(z[i][k] * z[j][k] for k in range(len(z[0]))))
            total += (s - a[i][j]) ** 2
    return math.sqrt(total / (n * n))


def distill_oracle(zs, zt, g, gamma):
    """The blend of the teacher term and recon_oracle, scalar loops."""
    n = g.n
    total = 0.0
    for i in range(n):
        for j in range(n):
            s = sigmoid_scalar(sum(zs[i][k] * zs[j][k] for k in range(len(zs[0]))))
            t = sigmoid_scalar(sum(zt[i][k] * zt[j][k] for k in range(len(zt[0]))))
            total += (s - t) ** 2
    return (1.0 - gamma) * math.sqrt(total / (n * n)) + gamma * recon_oracle(zs, g)


# -- config -----------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(window=-1),
    dict(heads=0),
    dict(embed_dim=0),
    dict(embed_dim=9, hidden_dim=8),
    dict(lr=0.0),
    dict(lr=-1e-3),
    dict(epochs=0),
    dict(gamma=-0.1),
    dict(gamma=1.2),
    dict(role="critic"),
    dict(heads=2.5),
    dict(window=True),
    dict(epochs=True),
    dict(hidden_dim="32"),
    dict(embed_dim=4.0),
    dict(seed=1.5),
    dict(seed=False),
    dict(seed=-1),
    dict(lr="0.01"),
    dict(lr=True),
    dict(lr=float("nan")),
    dict(lr=float("inf")),
    dict(gamma=None),
    dict(gamma="0.5"),
    dict(gamma=True),
])
def test_config_rejects(bad):
    with pytest.raises(ConfigError):
        ModelConfig(**bad)


def test_config_accepts_numpy_integers():
    cfg = ModelConfig(window=np.int64(2), heads=np.int32(2), gamma=np.float64(0.25))
    assert count_params(cfg, 5) == count_params(ModelConfig(window=2, heads=2), 5)


def test_default_helpers():
    t = teacher_defaults()
    s = student_defaults()
    assert t.role == "teacher"
    assert s.role == "student"
    assert s.hidden_dim < t.hidden_dim and s.embed_dim < t.embed_dim
    assert teacher_defaults(epochs=7).epochs == 7
    assert student_defaults(gamma=0.25).gamma == 0.25


# -- init and bookkeeping ---------------------------------------------------

def test_leaf_count_matches_formula():
    cfg = ModelConfig(window=2, heads=2, hidden_dim=6, embed_dim=3)
    chain = GcnChain.init(cfg, n_global=11)
    leaves = chain.trainable()
    assert sum(t.value.size for t in leaves.values()) == count_params(cfg, 11)
    assert list(param_spec(cfg, 11)) == list(leaves)
    # one w1, window+1 w2, per transition heads x (transform, score)
    assert list(leaves) == (["w1/0"]
                            + [f"w2/{i}" for i in range(3)]
                            + [f"attn/{t}/{j}/{part}"
                               for t in range(2) for j in range(2)
                               for part in ("transform", "score")])


def test_init_deterministic_digest():
    cfg = ModelConfig(window=1, heads=1, hidden_dim=4, embed_dim=2, seed=5)
    a = GcnChain.init(cfg, n_global=6).param_digest()
    b = GcnChain.init(cfg, n_global=6).param_digest()
    c = GcnChain.init(ModelConfig(window=1, heads=1, hidden_dim=4,
                                  embed_dim=2, seed=6), n_global=6).param_digest()
    assert a == b
    assert a != c


def test_digest_sees_every_leaf():
    cfg = ModelConfig(window=1, heads=1, hidden_dim=4, embed_dim=2)
    chain = GcnChain.init(cfg, n_global=6)
    before = chain.param_digest()
    chain.transitions[0].heads[0].score_vec.value[3, 0] += 1e-9
    assert chain.param_digest() != before


def test_init_bounds_follow_layer():
    cfg = ModelConfig(window=1, heads=1, hidden_dim=16, embed_dim=8, seed=1)
    chain = GcnChain.init(cfg, n_global=400)
    r = 1.0 / math.sqrt(16)
    assert np.max(np.abs(chain.w1_first.value)) <= r
    for head in chain.transitions[0].heads:
        assert np.max(np.abs(head.transform.value)) <= r
        assert np.max(np.abs(head.score_vec.value)) <= r
    r_out = math.sqrt(6.0 / (16 + 8))
    w2 = np.concatenate([t.value.ravel() for t in chain.w2])
    assert np.max(np.abs(w2)) <= r_out
    # output layer is allowed to exceed the first-layer range
    assert np.max(np.abs(w2)) > r


def test_chain_shape_validation():
    cfg = ModelConfig(window=1, heads=2, hidden_dim=4, embed_dim=2)
    good = GcnChain.init(cfg, n_global=5)
    with pytest.raises(ConfigError):
        GcnChain(cfg, 0, good.w1_first, good.w2, good.transitions)
    with pytest.raises(ShapeError):
        GcnChain(cfg, 5, param(np.zeros((5, 3)), "w1"), good.w2, good.transitions)
    with pytest.raises(ShapeError):
        GcnChain(cfg, 5, good.w1_first, good.w2[:1], good.transitions)
    with pytest.raises(ShapeError):
        GcnChain(cfg, 5, good.w1_first, good.w2, [])


# -- forward ----------------------------------------------------------------

def test_forward_window_length_checked():
    cfg = ModelConfig(window=2, heads=1, hidden_dim=4, embed_dim=2)
    chain = GcnChain.init(cfg, n_global=5)
    with pytest.raises(ConfigError):
        chain.forward(line_window(1))
    with pytest.raises(ConfigError):
        chain.final(line_window(1))


def test_forward_shapes_and_embeddings():
    cfg = ModelConfig(window=2, heads=2, hidden_dim=6, embed_dim=3, seed=2)
    chain = GcnChain.init(cfg, n_global=7)
    window = line_window(2, n=6)
    zs = chain.forward(window)
    assert len(zs) == 3
    assert all(z.shape == (6, 3) for z in zs)
    emb = chain.embeddings(window)
    assert emb.ids == window[-1].nodes
    np.testing.assert_array_equal(emb.z, zs[-1].value)


def test_final_is_the_last_forward_output():
    """The final-snapshot pass gives ``forward(window)[-1]`` bit for bit,
    and the same gradient on every leaf; the earlier second-layer leaves
    get none either way."""
    cfg = ModelConfig(window=3, heads=2, hidden_dim=6, embed_dim=3, seed=5)
    window = line_window(3, n=6, d_seed=1)
    results = []
    for run in (lambda c: c.forward(window)[-1], lambda c: c.final(window)):
        chain = GcnChain.init(cfg, n_global=7)
        z = run(chain)
        backward(reconstruction_loss(z, window[-1]))
        results.append((z.value, {k: t.grad for k, t in chain.trainable().items()}))
    (z_all, grads_all), (z_final, grads_final) = results
    np.testing.assert_array_equal(z_final, z_all)
    assert list(grads_final) == list(grads_all)
    for name, g in grads_all.items():
        if name in ("w2/0", "w2/1", "w2/2"):
            assert g is None and grads_final[name] is None
        else:
            np.testing.assert_array_equal(grads_final[name], g)


def test_window_data_gives_the_snapshot_path_bits():
    """The constants of a window whose last snapshot has an isolated node:
    the same embeddings and losses as the snapshots themselves, the
    attention self-entry only in the attention neighbour lists, and
    read-only arrays."""
    cfg = ModelConfig(window=2, heads=2, hidden_dim=6, embed_dim=3, seed=2)
    chain = GcnChain.init(cfg, n_global=7)
    window = line_window(1, n=6) + [make_snapshot(2, range(7), [(0, 1, 0.4), (2, 3, 0.6),
                                                                (3, 4, 0.3), (4, 5, 0.8)])]
    data = WindowData.build(window)
    assert len(data) == 3 and data.n == 7
    np.testing.assert_array_equal(chain.forward(data)[-1].value,
                                  chain.forward(window)[-1].value)
    z = np.random.default_rng(4).normal(size=(7, 3))
    assert reconstruction_loss(z, data).value == reconstruction_loss(z, window[-1]).value
    assert (distillation_loss(z, z[:, :2], data, 0.3).value
            == distillation_loss(z, z[:, :2], window[-1], 0.3).value)
    target = data.final.adjacency_lists
    np.testing.assert_array_equal(target.matrix(target.weights).toarray(),
                                  window[-1].adjacency())
    for arr in (target.indptr, target.rows, target.cols, target.weights):
        assert arr.ndim == 1 and arr.size <= 2 * len(window[-1].edges) + data.n + 1
    edges = data.attention[-1].edges
    lonely = slice(edges.indptr[6], edges.indptr[7])
    assert edges.cols[lonely].tolist() == [6] and edges.weights[lonely].tolist() == [1.0]
    with pytest.raises(ValueError):
        data.a_hats[0][0, 0] = 0.0


# -- reconstruction loss ----------------------------------------------------

def test_reconstruction_zero_embedding_closed_form():
    g = make_snapshot(0, range(4), [(0, 1, 0.8), (2, 3, 0.4)])
    loss = reconstruction_loss(np.zeros((4, 3)), g)
    # all scores sit at 0.5; 4 ordered edge slots miss by (0.5 - w),
    # the other 12 pairs (diagonal included) miss by 0.5
    total = 2 * (0.5 - 0.8) ** 2 + 2 * (0.5 - 0.4) ** 2 + 12 * 0.25
    assert math.isclose(loss.value, math.sqrt(total / 16), rel_tol=1e-12)


def test_reconstruction_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        kept = pairs[: max(1, len(pairs) // 2)]
        g = make_snapshot(0, range(n),
                          sorted((u, v, float(rng.uniform(0.1, 1.0)))
                                 for u, v in kept))
        z = rng.normal(0, 0.7, size=(n, 3))
        got = reconstruction_loss(z, g).value
        assert abs(got - recon_oracle(z.tolist(), g)) < 1e-10


def test_reconstruction_gradient_matches_fd():
    rng = np.random.default_rng(4)
    g = make_snapshot(0, range(4), [(0, 1, 0.6), (1, 2, 0.3), (0, 3, 0.9)])
    z0 = rng.normal(0, 0.5, size=(4, 2))

    z = param(z0, "z")
    loss = reconstruction_loss(z, g)
    backward(loss)
    analytic = z.grad.copy()

    eps = 1e-6
    for i in range(4):
        for j in range(2):
            zp, zm = z0.copy(), z0.copy()
            zp[i, j] += eps
            zm[i, j] -= eps
            fd = (reconstruction_loss(zp, g).value
                  - reconstruction_loss(zm, g).value) / (2 * eps)
            assert abs(fd - analytic[i, j]) < 1e-6 * max(1.0, abs(fd))


def test_reconstruction_permutation_invariant():
    rng = np.random.default_rng(5)
    n = 6
    edges = [(0, 1, 0.5), (1, 2, 0.9), (3, 4, 0.2), (2, 5, 0.7)]
    g = make_snapshot(0, range(n), edges)
    z = rng.normal(0, 0.8, size=(n, 3))
    perm = rng.permutation(n)
    g2 = make_snapshot(0, range(n),
                       sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), w)
                              for u, v, w in edges))
    z2 = np.empty_like(z)
    z2[perm] = z
    a = reconstruction_loss(z, g).value
    b = reconstruction_loss(z2, g2).value
    assert abs(a - b) < 1e-12


def test_reconstruction_shape_errors():
    g = make_snapshot(0, range(3), [(0, 1, 0.5)])
    with pytest.raises(ShapeError):
        reconstruction_loss(np.zeros((4, 2)), g)
    with pytest.raises(ShapeError):
        reconstruction_loss(np.zeros(3), g)


# -- soft scores and distillation -------------------------------------------

def test_distillation_matches_scalar_oracle():
    """The loss value against scalar loops over every ordered pair, at
    both boundaries and inside, on a snapshot with an isolated node."""
    rng = np.random.default_rng(6)
    g = make_snapshot(0, range(5), [(0, 1, 0.7), (1, 3, 0.2), (0, 4, 0.9)])
    zs = rng.normal(0, 1.2, size=(5, 3))
    zt = rng.normal(0, 1.2, size=(5, 4))
    for gamma in (0.0, 0.35, 1.0):
        got = distillation_loss(zs, zt, g, gamma).value
        want = distill_oracle(zs.tolist(), zt.tolist(), g, gamma)
        assert abs(got - want) < 1e-12


def test_distillation_gamma_one_is_plain_reconstruction():
    g = make_snapshot(0, range(4), [(0, 1, 0.8), (1, 2, 0.4)])
    rng = np.random.default_rng(7)
    zs = rng.normal(0, 0.5, size=(4, 2))
    zt = rng.normal(0, 0.5, size=(4, 5))
    d = distillation_loss(zs, zt, g, gamma=1.0).value
    assert d == reconstruction_loss(zs, g).value


def test_distillation_gamma_zero_is_teacher_term_only():
    g = make_snapshot(0, range(3), [(0, 2, 0.6)])
    rng = np.random.default_rng(8)
    zs = rng.normal(0, 0.5, size=(3, 2))
    zt = rng.normal(0, 0.5, size=(3, 4))
    got = distillation_loss(zs, zt, g, gamma=0.0).value
    want = math.sqrt(np.mean((expit(zs @ zs.T) - expit(zt @ zt.T)) ** 2))
    assert abs(got - want) < 1e-12


def test_distillation_interior_blend_arithmetic():
    g = make_snapshot(0, range(4), [(0, 1, 0.7), (2, 3, 0.3), (0, 3, 0.9)])
    rng = np.random.default_rng(9)
    zs = rng.normal(0, 0.6, size=(4, 2))
    zt = rng.normal(0, 0.6, size=(4, 3))
    teacher_term = distillation_loss(zs, zt, g, gamma=0.0).value
    recon = reconstruction_loss(zs, g).value
    for gamma in (0.25, 0.5, 0.9):
        got = distillation_loss(zs, zt, g, gamma=gamma).value
        want = (1.0 - gamma) * teacher_term + gamma * recon
        assert abs(got - want) < 1e-15


def test_distillation_accepts_embeddings_wrapper():
    g = make_snapshot(0, range(3), [(0, 1, 0.5), (1, 2, 0.8)])
    rng = np.random.default_rng(10)
    zs = rng.normal(0, 0.5, size=(3, 2))
    zt = rng.normal(0, 0.5, size=(3, 4))
    raw = distillation_loss(zs, zt, g, gamma=0.3).value
    wrapped = distillation_loss(zs, Embeddings(z=zt, ids=(0, 1, 2)), g,
                                gamma=0.3).value
    assert raw == wrapped


def test_distillation_validation():
    g = make_snapshot(0, range(3), [(0, 1, 0.5)])
    z3 = np.zeros((3, 2))
    with pytest.raises(ConfigError):
        distillation_loss(z3, z3, g, gamma=-0.1)
    with pytest.raises(ConfigError):
        distillation_loss(z3, z3, g, gamma=1.0000001)
    with pytest.raises(ShapeError):
        distillation_loss(np.zeros((4, 2)), z3, g, gamma=0.5)
    for gamma in (0.0, 0.5):
        with pytest.raises(ShapeError):
            distillation_loss(z3, np.zeros((4, 2)), g, gamma=gamma)
        with pytest.raises(ShapeError):
            distillation_loss(np.zeros((4, 2)), np.zeros((4, 2)), g, gamma=gamma)


def test_distillation_gradient_matches_fd():
    g = make_snapshot(0, range(3), [(0, 1, 0.6), (1, 2, 0.2)])
    rng = np.random.default_rng(11)
    z0 = rng.normal(0, 0.5, size=(3, 2))
    zt = rng.normal(0, 0.5, size=(3, 3))
    gamma = 0.4

    z = param(z0, "z")
    loss = distillation_loss(z, zt, g, gamma)
    backward(loss)
    analytic = z.grad.copy()

    eps = 1e-6
    for i in range(3):
        for j in range(2):
            zp, zm = z0.copy(), z0.copy()
            zp[i, j] += eps
            zm[i, j] -= eps
            fd = (distillation_loss(zp, zt, g, gamma).value
                  - distillation_loss(zm, zt, g, gamma).value) / (2 * eps)
            assert abs(fd - analytic[i, j]) < 1e-6 * max(1.0, abs(fd))


def test_forward_loss_reaches_all_leaves_except_early_w2():
    """Only the final snapshot feeds the loss, so earlier second-layer
    matrices legitimately stay out of the graph; everything else gets a
    gradient."""
    cfg = ModelConfig(window=2, heads=1, hidden_dim=4, embed_dim=2, seed=3)
    chain = GcnChain.init(cfg, n_global=5)
    window = line_window(2)
    loss = reconstruction_loss(chain.forward(window)[-1], window[-1])
    backward(loss)
    leaves = chain.trainable()
    for name, leaf in leaves.items():
        if name in ("w2/0", "w2/1"):
            assert leaf.grad is None
        else:
            assert leaf.grad is not None and np.any(leaf.grad != 0)
