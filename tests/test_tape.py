"""Gradient and forward checks for the recorded-computation tape.

Every primitive is validated against central finite differences on random
inputs. The FD step is 1e-5 and the acceptance bar is a relative error
below 1e-4 per coordinate, matched against max(|analytic|, |numeric|, 1e-8)
to keep near-zero coordinates from blowing up the ratio.
"""
import numpy as np
import pytest
from scipy.special import expit

from evolink.attention import AttentionInputs
from evolink.errors import DegenerateSoftmaxError, NumericError, ShapeError
from evolink.graphs import NeighbourLists, SnapshotGraph
from evolink.tape import (Tensor, add, backward, concat_cols, constant_matmul,
                          edge_attention, edge_softmax, elu, matmul, mean, mul, param,
                          relu, rmse_sigmoid_gram, rows, scale, sigmoid, sqrt, square,
                          sub, tsum, transpose, with_rows)

FD_STEP = 1e-5
FD_TOL = 1e-4


def fd_check(build_loss, leaves, step=FD_STEP, tol=FD_TOL):
    """Compare backward() gradients on ``leaves`` with central differences.

    ``build_loss`` must rebuild the whole graph from the leaves' current
    values each call, so perturbing a leaf value re-runs the forward pass.
    """
    loss = build_loss()
    backward(loss)
    grads = [leaf.grad.copy() for leaf in leaves]
    for leaf, g in zip(leaves, grads):
        flat = leaf.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(build_loss().value)
            flat[i] = orig - step
            lo = float(build_loss().value)
            flat[i] = orig
            num = (hi - lo) / (2.0 * step)
            ana = g.reshape(-1)[i]
            denom = max(abs(num), abs(ana), 1e-8)
            assert abs(num - ana) / denom < tol, (
                f"leaf {leaf.name}: coord {i}: analytic {ana} vs numeric {num}")


def weighted_sum(t: Tensor, rng) -> Tensor:
    """Scalar readout with a fixed random cotangent, so gradients are dense."""
    r = rng.normal(size=t.shape)
    return tsum(mul(t, Tensor(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240907)


def test_matmul_gradients(rng):
    a = param(rng.normal(size=(4, 3)), "a")
    b = param(rng.normal(size=(3, 5)), "b")
    read = Tensor(rng.normal(size=(4, 5)))
    fd_check(lambda: tsum(mul(matmul(a, b), read)), [a, b])


def test_add_sub_mul_broadcast_gradients(rng):
    a = param(rng.normal(size=(4, 3)), "a")
    row = param(rng.normal(size=(1, 3)), "row")
    read = Tensor(rng.normal(size=(4, 3)))

    fd_check(lambda: tsum(mul(add(a, row), read)), [a, row])
    fd_check(lambda: tsum(mul(sub(a, row), read)), [a, row])
    fd_check(lambda: tsum(mul(mul(a, row), read)), [a, row])


def test_scale_transpose_concat_gradients(rng):
    a = param(rng.normal(size=(3, 4)), "a")
    b = param(rng.normal(size=(3, 2)), "b")
    read = Tensor(rng.normal(size=(3, 6)))
    fd_check(lambda: tsum(mul(concat_cols(scale(a, -1.7), b), read)), [a, b])
    read_t = Tensor(rng.normal(size=(4, 3)))
    fd_check(lambda: tsum(mul(transpose(a), read_t)), [a])


def test_rows_gather_accumulates(rng):
    # A repeated index must receive the sum of both output-row gradients.
    a = param(rng.normal(size=(5, 3)), "a")
    idx = np.array([1, 3, 1, 0])
    read = Tensor(rng.normal(size=(4, 3)))
    fd_check(lambda: tsum(mul(rows(a, idx), read)), [a])

    loss = tsum(rows(a, np.array([2, 2])))
    backward(loss)
    assert np.allclose(a.grad[2], 2.0)
    assert np.allclose(np.delete(a.grad, 2, axis=0), 0.0)


def test_with_rows_routes_gradients(rng):
    base = param(rng.normal(size=(5, 3)), "base")
    new = param(rng.normal(size=(2, 3)), "new")
    idx = np.array([4, 1])
    read = Tensor(rng.normal(size=(5, 3)))
    fd_check(lambda: tsum(mul(with_rows(base, idx, new), read)), [base, new])

    out = with_rows(base, idx, new)
    assert np.array_equal(out.value[idx], new.value)
    untouched = [i for i in range(5) if i not in idx]
    assert np.array_equal(out.value[untouched], base.value[untouched])


@pytest.mark.parametrize("op", [relu, elu, sigmoid, square])
def test_elementwise_gradients(op, rng):
    # Values are kept away from 0 so relu/elu kinks cannot poison the FD.
    vals = rng.normal(size=(4, 4))
    vals = np.where(np.abs(vals) < 0.05, 0.25, vals)
    a = param(vals, "a")
    read = Tensor(rng.normal(size=(4, 4)))
    fd_check(lambda: tsum(mul(op(a), read)), [a])


def test_sqrt_gradient_and_zero_policy(rng):
    a = param(rng.uniform(0.5, 2.0, size=(3, 3)), "a")
    read = Tensor(rng.normal(size=(3, 3)))
    fd_check(lambda: tsum(mul(sqrt(a), read)), [a])

    z = param(np.zeros((2,)), "z")
    backward(tsum(sqrt(z)))
    assert np.array_equal(z.grad, np.zeros(2))  # derivative pinned to 0 at 0

    with pytest.raises(NumericError):
        sqrt(Tensor([-1.0]))


def test_reduction_gradients(rng):
    a = param(rng.normal(size=(3, 5)), "a")
    fd_check(lambda: mean(square(a)), [a])
    fd_check(lambda: tsum(a), [a])


def neighbour_lists(n, edges):
    """The attention neighbour lists the model builds for ``edges`` over
    nodes 0..n-1, with a unit self-entry on every isolated node."""
    g = SnapshotGraph(index=0, nodes=tuple(range(n)), edges=tuple(sorted(edges)))
    return AttentionInputs.build(g).edges


def dense_head(x, transform, score_vec, n, edges):
    """The per-head formula on dense (n, n) arrays: masked score matrix,
    row softmax over the neighbourhood, then the mixture of rows."""
    weights = np.zeros((n, n))
    for u, v, w in edges:
        weights[u, v] = weights[v, u] = w
    mask = weights != 0.0
    lonely = ~mask.any(axis=1)
    weights[lonely, lonely] = 1.0
    mask[lonely, lonely] = True
    d = transform.shape[0]
    p = x @ transform.T
    pair = (p @ score_vec[:d]) + (p @ score_vec[d:]).T
    scores = np.where(mask, expit(weights * pair), -np.inf)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    return alpha, alpha @ p


def hub_graph():
    """Node 0 links to nodes 1-16 (degree 16), nodes 17 and 18 only to
    each other (single neighbours), node 19 to nothing."""
    edges = [(0, v, 0.05 + 0.05 * v) for v in range(1, 17)]
    edges += [(1, 2, 0.7), (3, 4, 0.2), (17, 18, 0.6)]
    return 20, edges


def test_edge_attention_gradients_and_structure(rng):
    """Finite differences through one fused head, on a graph with a
    degree-16 node, single-neighbour rows and an isolated node, with
    pre-sigmoid scores reaching about +-10."""
    n, edges = hub_graph()
    lists = neighbour_lists(n, edges)
    x = param(rng.normal(0, 1.5, size=(n, 3)), "x")
    transform = param(rng.normal(0, 1.5, size=(3, 3)), "transform")
    score_vec = param(rng.normal(0, 1.5, size=(6, 1)), "score_vec")
    read = Tensor(rng.normal(size=(n, 3)))
    fd_check(lambda: tsum(mul(edge_attention(x, transform, score_vec, lists), read)),
             [x, transform, score_vec])

    p, s, alpha = edge_softmax(x.value, transform.value, score_vec.value, lists)
    pair = lists.weights * ((p @ score_vec.value[:3, 0])[lists.rows]
                            + (p @ score_vec.value[3:, 0])[lists.cols])
    assert np.abs(pair).max() > 8.0
    dense = lists.matrix(alpha).toarray()
    assert np.allclose(dense.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.count_nonzero(dense[0]) == 16
    assert dense[17, 18] == dense[18, 17] == 1.0  # exact, not approximate
    assert dense[19, 19] == 1.0 and np.count_nonzero(dense[19]) == 1


def test_edge_attention_matches_the_dense_formula(rng):
    for trial in range(20):
        n = int(rng.integers(2, 30))
        edges = [(u, v, float(rng.uniform(0.05, 0.95)))
                 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        transform = rng.normal(size=(d, d))
        score_vec = rng.normal(size=(2 * d, 1))
        lists = neighbour_lists(n, edges)
        alpha, mixed = dense_head(x, transform, score_vec, n, edges)
        _, _, got_alpha = edge_softmax(x, transform, score_vec, lists)
        got = edge_attention(Tensor(x), Tensor(transform), Tensor(score_vec), lists).value
        assert np.max(np.abs(lists.matrix(got_alpha).toarray() - alpha)) < 1e-12, trial
        assert np.max(np.abs(got - mixed)) < 1e-12, trial


def test_edge_attention_stays_finite_under_large_scores():
    n, edges = hub_graph()
    lists = neighbour_lists(n, edges)
    x = np.full((n, 2), 1e3)
    x[::2] *= -1.0
    transform = np.eye(2)
    score_vec = np.array([[1.0], [2.0], [-3.0], [0.5]])
    alpha, mixed = dense_head(x, transform, score_vec, n, edges)
    _, s, got_alpha = edge_softmax(x, transform, score_vec, lists)
    assert np.all(np.minimum(s, 1.0 - s) < 1e-12)  # every score saturated
    assert np.allclose(lists.matrix(got_alpha).toarray(), alpha, rtol=0.0, atol=1e-12)
    got = edge_attention(Tensor(x), Tensor(transform), Tensor(score_vec), lists).value
    assert np.allclose(got, mixed, rtol=1e-12, atol=0.0)


def test_edge_attention_rejects_an_empty_row():
    lists = NeighbourLists.symmetric(3, np.array([0]), np.array([1]), np.array([0.5]),
                                     np.array([], dtype=np.intp))
    with pytest.raises(DegenerateSoftmaxError):
        edge_attention(Tensor(np.ones((3, 2))), Tensor(np.eye(2)), Tensor(np.ones((4, 1))),
                       lists)
    with pytest.raises(ShapeError):
        edge_attention(Tensor(np.ones((2, 2))), Tensor(np.eye(2)), Tensor(np.ones((4, 1))),
                       neighbour_lists(3, [(0, 1, 0.5)]))


def test_constant_matmul_takes_dense_and_sparse(rng):
    n, edges = hub_graph()
    lists = neighbour_lists(n, edges)
    x = param(rng.normal(size=(n, 3)), "x")
    read = Tensor(rng.normal(size=(n, 3)))
    for a in (lists.matrix(lists.weights), lists.matrix(lists.weights).toarray()):
        fd_check(lambda: tsum(mul(constant_matmul(a, x), read)), [x])
    grads = []
    for a in (lists.matrix(lists.weights), lists.matrix(lists.weights).toarray()):
        backward(tsum(mul(constant_matmul(a, x), read)))
        grads.append(x.grad)
    assert np.allclose(grads[0], grads[1], rtol=1e-14, atol=0.0)
    with pytest.raises(ShapeError):
        constant_matmul(np.eye(3), x)


def test_rmse_sigmoid_gram_gradient(rng):
    z = param(rng.normal(0, 0.6, size=(5, 3)), "z")
    target = rng.uniform(0.0, 1.0, size=(5, 5))
    fd_check(lambda: rmse_sigmoid_gram(z, target), [z])


def composed_rmse(z, target):
    return sqrt(mean(square(sub(sigmoid(matmul(z, transpose(z))), Tensor(target)))))


@pytest.mark.parametrize("exact", [False, True])
def test_rmse_sigmoid_gram_is_the_composed_chain(exact, rng):
    """Value and gradient equal the seven-op chain bit for bit, under a
    non-unit incoming gradient and two consumers of z. ``exact`` makes the
    target the scores themselves, so the root is 0 and its derivative is
    pinned to 0."""
    z0 = rng.normal(0, 0.7, size=(6, 3))
    target = expit(z0 @ z0.T) if exact else rng.uniform(0.0, 1.0, size=(6, 6))
    other = rng.uniform(0.0, 1.0, size=(6, 6))
    results = []
    for rmse in (composed_rmse, rmse_sigmoid_gram):
        z = param(z0, "z")
        loss = add(scale(rmse(z, target), 0.3), scale(rmse(z, other), 0.7))
        backward(loss)
        results.append((loss.value, z.grad))
    (chain_value, chain_grad), (fused_value, fused_grad) = results
    assert np.array_equal(fused_value, chain_value)
    assert np.array_equal(fused_grad, chain_grad)
    if exact:
        plain = param(z0, "z")
        backward(rmse_sigmoid_gram(plain, target))
        assert np.array_equal(plain.grad, np.zeros_like(z0))


def test_rmse_sigmoid_gram_shape_check():
    with pytest.raises(ShapeError):
        rmse_sigmoid_gram(Tensor(np.zeros((3, 2))), np.zeros((2, 2)))


def test_gradients_are_kept_on_reached_params_only(rng):
    a = param(rng.normal(size=(3, 2)), "a")
    b = param(rng.normal(size=(2, 2)), "b")
    unreached = param(rng.normal(size=(2, 2)), "unreached")
    const = Tensor(rng.normal(size=(3, 2)))
    hidden = sigmoid(matmul(a, b))
    mixed = mul(hidden, const)
    loss = tsum(sub(mixed, Tensor(np.ones((3, 2)))))
    backward(loss)
    assert a.grad is not None and b.grad is not None
    assert unreached.grad is None
    for t in (const, hidden, mixed, loss):
        assert t.grad is None
    assert not const.requires_grad and hidden.requires_grad

    constant_loss = tsum(const)
    backward(constant_loss)
    assert constant_loss.grad is None and const.grad is None


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        backward(Tensor(np.zeros((2, 2))))


def test_backward_handles_diamond_reuse(rng):
    # The same node feeding two consumers must accumulate both cotangents.
    a = param(rng.normal(size=(3, 3)), "a")
    s = sigmoid(a)
    fd_check(lambda: tsum(mul(sigmoid(a), sigmoid(a))), [a])
    loss = tsum(add(s, s))
    backward(loss)
    assert np.allclose(loss.value, 2.0 * s.value.sum())


def test_backward_is_iterative_on_deep_chains():
    # A graph deeper than CPython's default recursion limit must still work.
    t = param(np.ones((1, 1)), "t")
    x = t
    for _ in range(3000):
        x = scale(x, 1.0)
    backward(tsum(x))
    assert t.grad[0, 0] == 1.0


def test_grad_zeroed_between_backward_calls(rng):
    a = param(rng.normal(size=(2, 2)), "a")
    backward(tsum(a))
    first = a.grad.copy()
    backward(tsum(a))
    assert np.array_equal(a.grad, first)  # reset, not accumulated across calls


def test_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError):
        transpose(Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        concat_cols(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))))
    with pytest.raises(ShapeError):
        rows(Tensor(np.zeros((2, 2))), np.array([2]))
    with pytest.raises(ShapeError):
        with_rows(Tensor(np.zeros((3, 2))), np.array([0, 0]), Tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeError):
        mean(Tensor(np.zeros((0,))))


def test_param_rejects_non_finite():
    with pytest.raises(NumericError):
        param(np.array([1.0, np.nan]), "bad")


def test_elu_matches_definition():
    x = np.array([-30.0, -1.0, 0.0, 1.0, 2.5])
    out = elu(Tensor(x)).value
    expected = np.where(x > 0, x, np.expm1(x))
    assert np.allclose(out, expected, atol=1e-15)
    assert out[0] > -1.0  # asymptote, never reached
    assert out[2] == 0.0 and out[3] == 1.0
