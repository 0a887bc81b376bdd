"""Gradient and forward checks for the recorded-computation tape.

Every primitive is validated against central finite differences on random
inputs. The FD step is 1e-5 and the acceptance bar is a relative error
below 1e-4 per coordinate, matched against max(|analytic|, |numeric|, 1e-8)
to keep near-zero coordinates from blowing up the ratio.
"""
import numpy as np
import pytest
from scipy.special import expit

from evolink.errors import DegenerateSoftmaxError, NumericError, ShapeError
from evolink.tape import (Tensor, add, backward, concat_cols, elu,
                          masked_softmax_rows, matmul, mean, mul, param, relu,
                          rmse_sigmoid_gram, rows, scale, sigmoid, sqrt, square,
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


def test_masked_softmax_gradients_and_structure(rng):
    a = param(rng.normal(size=(4, 4)), "a")
    mask = rng.random((4, 4)) < 0.6
    mask[np.arange(4), rng.integers(0, 4, size=4)] = True  # keep rows alive
    read = Tensor(rng.normal(size=(4, 4)))
    fd_check(lambda: tsum(mul(masked_softmax_rows(a, mask), read)), [a])

    out = masked_softmax_rows(a, mask).value
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out[~mask] == 0.0)


def test_masked_softmax_is_shift_stable():
    a = Tensor(np.array([[1000.0, 1001.0], [-1000.0, -1001.0]]))
    out = masked_softmax_rows(a, np.ones((2, 2), dtype=bool)).value
    assert np.all(np.isfinite(out))
    assert np.allclose(out.sum(axis=1), 1.0)
    # Shifting a row by a constant must not change its softmax.
    b = masked_softmax_rows(Tensor(np.array([[0.0, 1.0], [-0.0, -1.0]])),
                            np.ones((2, 2), dtype=bool)).value
    assert np.allclose(out, b, atol=1e-12)


def test_masked_softmax_rejects_dead_rows():
    a = Tensor(np.zeros((2, 3)))
    mask = np.array([[True, False, True], [False, False, False]])
    with pytest.raises(DegenerateSoftmaxError):
        masked_softmax_rows(a, mask)


def test_single_unmasked_entry_is_exactly_one():
    a = Tensor(np.array([[3.7, -2.0, 0.4]]))
    mask = np.array([[False, True, False]])
    out = masked_softmax_rows(a, mask).value
    assert out[0, 1] == 1.0
    assert out[0, 0] == 0.0 and out[0, 2] == 0.0


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
