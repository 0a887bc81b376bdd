"""Gradient and forward checks for the recorded-computation tape.

Every primitive is validated against central finite differences on random
inputs. The FD step is 1e-5 and the acceptance bar is a relative error
below 1e-4 per coordinate, matched against max(|analytic|, |numeric|, 1e-8)
to keep near-zero coordinates from blowing up the ratio.
"""
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from evolink.attention import AttentionInputs
from evolink.errors import DegenerateSoftmaxError, NumericError, ShapeError
from evolink.graphs import NeighbourLists, SnapshotGraph
from evolink import tape
from evolink.tape import (LOSS_BLOCK, SigmoidGram, Tensor, add, backward, constant_matmul,
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


def test_scale_transpose_gradients(rng):
    a = param(rng.normal(size=(3, 4)), "a")
    read = Tensor(rng.normal(size=(3, 4)))
    fd_check(lambda: tsum(mul(scale(a, -1.7), read)), [a])
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


def test_edge_attention_backward_in_entry_blocks(rng, monkeypatch):
    """The backward forms its per-entry products a block of entries at a
    time: finite differences hold across block edges, and every gradient
    has the bits of the one-block pass."""
    n, edges = hub_graph()
    lists = neighbour_lists(n, edges)
    leaves = [param(rng.normal(0, 1.5, size=shape), name)
              for name, shape in (("x", (n, 3)), ("transform", (3, 3)), ("score_vec", (6, 1)))]
    read = Tensor(rng.normal(size=(n, 3)))

    def loss():
        return tsum(mul(edge_attention(*leaves, lists), read))

    grads = []
    for block in (tape.EDGE_BLOCK, 7, 1):
        monkeypatch.setattr(tape, "EDGE_BLOCK", block)
        backward(loss())
        grads.append([leaf.grad for leaf in leaves])
    for blocked in grads[1:]:
        for got, want in zip(blocked, grads[0]):
            assert np.array_equal(got, want)
    monkeypatch.setattr(tape, "EDGE_BLOCK", 7)
    fd_check(loss, leaves)


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


def random_lists(n, rng):
    """Symmetric neighbour lists over n nodes, about three edges a node,
    without a diagonal: a reconstruction target."""
    u, v = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
    pairs = sorted({(a, b) for a, b in zip(u.tolist(), v.tolist()) if a < b})
    rows_, cols_ = (np.array([p[k] for p in pairs], dtype=np.intp) for k in (0, 1))
    return NeighbourLists.symmetric(n, rows_, cols_, rng.uniform(0.05, 0.95, len(pairs)),
                                    np.empty(0, dtype=np.intp))


def dense_rmse(z, target):
    """The seven-op chain over a dense (n, n) target."""
    return sqrt(mean(square(sub(sigmoid(matmul(z, transpose(z))), Tensor(target)))))


def dense_target(target):
    if isinstance(target, SigmoidGram):
        return expit(target.y @ target.y.T)
    return target.matrix(target.weights).toarray()


def test_rmse_sigmoid_gram_gradient(rng, monkeypatch):
    """Finite differences through both kinds of target, in one block and,
    with a 3-row block, in blocks of 3, 3 and 1 rows."""
    z = param(rng.normal(0, 0.6, size=(7, 3)), "z")
    terms = [(0.4, SigmoidGram(rng.normal(0, 0.8, size=(7, 5)))), (0.6, random_lists(7, rng))]
    for block in (LOSS_BLOCK, 3):
        monkeypatch.setattr(tape, "LOSS_BLOCK", block)
        fd_check(lambda: rmse_sigmoid_gram(z, terms), [z])


def add_all(tensors):
    total = tensors[0]
    for t in tensors[1:]:
        total = add(total, t)
    return total


@pytest.mark.parametrize("two", [False, True])
def test_rmse_sigmoid_gram_is_the_composed_chain(two, rng):
    """Value and gradient equal the composed dense chain to 1e-12 relative
    (the blocks sum in another order, so not bit for bit), with one or two
    targets, under a non-unit incoming gradient, for one row, one block,
    exactly one, two, and a block height that does not divide n."""
    for n in (1, 5, LOSS_BLOCK, 2 * LOSS_BLOCK, 300):
        z0 = rng.normal(0, 0.7, size=(n, 4))
        terms = [(0.3 if two else 1.0, random_lists(n, rng))]
        if two:
            terms.append((0.7, SigmoidGram(rng.normal(0, 0.7, size=(n, 6)))))
        assert_matches_dense_chain(z0, terms)


def assert_matches_dense_chain(z0, terms):
    """Value and gradient of the op at ``z0`` equal the composed dense
    chain's to 1e-12 relative, under an incoming gradient of -1.7."""
    results = []
    for build in (lambda z: rmse_sigmoid_gram(z, terms),
                  lambda z: add_all([scale(dense_rmse(z, dense_target(t)), c)
                                     for c, t in terms])):
        z = param(z0, "z")
        loss = scale(build(z), -1.7)
        backward(loss)
        results.append((float(loss.value), z.grad))
    (value, grad), (want_value, want_grad) = results
    assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(grad, want_grad, rtol=0.0, atol=1e-12 * np.abs(want_grad).max())


def test_expit_matches_scipy():
    """The array sigmoid is scipy's formula to 1e-15 relative (numpy's
    vectorized exp and glibc's differ in the last place on some entries,
    so not bit for bit), is exactly 0 where exp(-x) overflows, raises no
    overflow warning, and works in place and on a 0-d array."""
    x = np.concatenate([np.linspace(-800.0, 800.0, 100001),
                        [0.0, 709.78, -709.78, 745.0, -745.0, np.inf, -np.inf, np.nan]])
    want = expit(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = tape.expit(x)
        inplace = x.copy()
        assert tape.expit(inplace, out=inplace) is inplace
        scalar = tape.expit(np.array(-3.0))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    assert np.array_equal(inplace, got, equal_nan=True)
    assert np.array_equal(got == 0.0, want == 0.0) and got[x < -709.79].max() == 0.0
    assert np.isnan(got[-1]) and got[-3] == 1.0 and got[-2] == 0.0
    assert scalar.shape == () and scalar == pytest.approx(expit(-3.0), rel=1e-15, abs=0.0)


def test_rmse_sigmoid_gram_evaluates_the_upper_triangle(rng, monkeypatch):
    """Each row block is evaluated right of its diagonal tile only: at
    n = 300 in blocks of 128 rows the scores and a SigmoidGram target each
    take 0.69 n^2 sigmoids, where full row blocks would take n^2."""
    n = 300
    counted = []
    real = tape.expit

    def counting(x, out=None):
        counted.append(np.size(x))
        return real(x, out=out)

    monkeypatch.setattr(tape, "expit", counting)
    z = param(rng.normal(0, 0.7, size=(n, 4)), "z")
    terms = [(0.5, random_lists(n, rng)), (0.5, SigmoidGram(rng.normal(0, 0.7, size=(n, 6))))]
    backward(rmse_sigmoid_gram(z, terms))
    assert LOSS_BLOCK == 128
    assert sum(counted) <= 2 * 0.75 * n * n


@pytest.mark.parametrize("centre", [9, 4])
def test_rmse_sigmoid_gram_counts_the_lower_triangle_through_mirrors(centre, rng, monkeypatch):
    """A star on the last row puts all of that row's entries left of the
    diagonal, where no block evaluates them; a star on row 4 splits its row
    across the diagonal tile. With 3-row blocks, value and gradient still
    equal the dense chain's: each entry left of a tile is counted through
    its mirror, once."""
    n = 10
    leaves = np.array([u for u in range(n) if u != centre], dtype=np.intp)
    star = NeighbourLists.symmetric(n, np.minimum(leaves, centre), np.maximum(leaves, centre),
                                    rng.uniform(0.05, 0.95, n - 1), np.empty(0, dtype=np.intp))
    terms = [(0.6, star), (0.4, SigmoidGram(rng.normal(0, 0.7, size=(n, 3))))]
    monkeypatch.setattr(tape, "LOSS_BLOCK", 3)
    assert_matches_dense_chain(rng.normal(0, 0.7, size=(n, 4)), terms)


def test_rmse_sigmoid_gram_zero_root_gives_no_gradient(rng):
    """A target equal to the scores themselves has root 0, whose derivative
    is taken as 0: alone it gives a zero gradient, beside another term it
    leaves that term's gradient unchanged."""
    z0 = rng.normal(0, 0.7, size=(200, 3))
    lists = random_lists(200, rng)
    z = param(z0, "z")
    loss = rmse_sigmoid_gram(z, [(0.5, SigmoidGram(z0))])
    backward(loss)
    assert loss.value == 0.0
    assert np.array_equal(z.grad, np.zeros_like(z0))
    grads = []
    for terms in ([(0.5, SigmoidGram(z0)), (0.5, lists)], [(0.5, lists)]):
        z = param(z0, "z")
        backward(rmse_sigmoid_gram(z, terms))
        grads.append(z.grad)
    assert np.array_equal(grads[0], grads[1])


def test_rmse_sigmoid_gram_holds_no_n_by_n_array(rng):
    """Value and gradient of two terms over 1000 rows peak below half of
    one (n, n) float64 array: the op holds row blocks, never the whole."""
    n = 1000
    z = param(rng.normal(0, 0.5, size=(n, 4)), "z")
    terms = [(0.5, SigmoidGram(rng.normal(0, 0.5, size=(n, 16)))), (0.5, random_lists(n, rng))]
    tracemalloc.start()
    try:
        backward(rmse_sigmoid_gram(z, terms))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * n * 8


def test_rmse_sigmoid_gram_on_constants_records_nothing(rng):
    z0 = rng.normal(0, 0.7, size=(9, 3))
    terms = [(0.5, random_lists(9, rng)), (0.5, SigmoidGram(rng.normal(size=(9, 2))))]
    loss = rmse_sigmoid_gram(Tensor(z0), terms)
    assert not loss.requires_grad and loss._parents == () and loss._backward is None
    assert loss.value == rmse_sigmoid_gram(param(z0, "z"), terms).value


def test_rmse_sigmoid_gram_shape_check(rng):
    z = Tensor(np.zeros((3, 2)))
    for terms in ([(1.0, random_lists(4, rng))], [(1.0, SigmoidGram(np.zeros((2, 2))))],
                  [(1.0, np.zeros((3, 3)))], []):
        with pytest.raises(ShapeError):
            rmse_sigmoid_gram(z, terms)
    for bad in (np.zeros(3), np.zeros((0, 2))):
        with pytest.raises(ShapeError):
            rmse_sigmoid_gram(Tensor(bad), [(1.0, random_lists(3, rng))])
    with pytest.raises(ShapeError):
        SigmoidGram(np.zeros(3))


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
