"""Adam update rule: analytic first step, bias correction, divergence,
in-place updates."""
import numpy as np
import pytest

from evolink.errors import ShapeError, TrainingDivergedError
from evolink.optim import BETA1, BETA2, EPS, Adam
from evolink.tape import backward, param, tsum
from oracles import square


def grad_step(opt: Adam, **grads) -> None:
    """Put ``grads`` on the named leaves of ``opt`` and take one step."""
    for name, g in grads.items():
        opt.params[name].grad = np.asarray(g, dtype=np.float64)
    opt.step()


def test_first_step_magnitude():
    # With g = 1 everywhere, bias correction cancels exactly on step one and
    # the update is lr / (1 + eps/|g_hat|) = lr / (1 + eps) elementwise.
    w = param(np.zeros((2, 2)), "w")
    opt = Adam({"w": w}, lr=1e-3)
    grad_step(opt, w=np.ones((2, 2)))
    expected = -1e-3 / (1.0 + EPS)
    assert np.allclose(w.value, expected, rtol=0, atol=1e-18)
    assert opt.t == 1


def test_two_steps_match_scalar_reference():
    # Hand-rolled scalar Adam, same constants, run twice.
    lr, g1, g2, w = 0.01, 0.3, -0.7, 1.0
    m = v = 0.0
    ws = []
    for t, g in ((1, g1), (2, g2)):
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        m_hat = m / (1 - BETA1 ** t)
        v_hat = v / (1 - BETA2 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + EPS)
        ws.append(w)

    leaf = param(np.array([[1.0]]), "w")
    opt = Adam({"w": leaf}, lr)
    grad_step(opt, w=[[g1]])
    assert leaf.value[0, 0] == pytest.approx(ws[0], abs=1e-15)
    grad_step(opt, w=[[g2]])
    assert leaf.value[0, 0] == pytest.approx(ws[1], abs=1e-15)


def test_gradient_shape_check():
    w = param(np.ones(2), "w")
    opt = Adam({"w": w}, 0.1)
    with pytest.raises(ShapeError):
        grad_step(opt, w=np.ones(3))
    assert np.array_equal(w.value, np.ones(2))
    assert opt.t == 0


def test_non_finite_gradient_diverges():
    # The check runs before any leaf moves, so a finite leaf listed first
    # is left as it was too.
    ok = param(np.ones(2), "ok")
    w = param(np.ones(2), "w")
    opt = Adam({"ok": ok, "w": w}, 0.1)
    with pytest.raises(TrainingDivergedError, match="'w'"):
        grad_step(opt, ok=np.ones(2), w=[1.0, np.nan])
    assert np.array_equal(ok.value, np.ones(2))
    assert np.array_equal(opt.m["ok"], np.zeros(2))
    assert opt.t == 0


def test_step_updates_in_place():
    w = param(np.array([[2.0, -1.5]]), "w")
    opt = Adam({"w": w}, lr=0.01)
    arrays = (w.value, opt.m["w"], opt.v["w"])
    for _ in range(3):
        backward(tsum(square(w)))
        opt.step()
    assert w.value is arrays[0] and opt.m["w"] is arrays[1] and opt.v["w"] is arrays[2]
    assert not np.array_equal(w.value, [[2.0, -1.5]])


def test_step_matches_the_out_of_place_formula():
    # The in-place update repeats the textbook statement's float operations
    # in the same order, so the bits agree over many steps.
    rng = np.random.default_rng(7)
    w = param(rng.normal(size=(5, 3)), "w")
    opt = Adam({"w": w}, lr=3e-3)
    p, m, v = w.value.copy(), np.zeros((5, 3)), np.zeros((5, 3))
    for t in range(1, 40):
        g = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-6, 3)
        grad_step(opt, w=g)
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        p = p - 3e-3 * (m / (1.0 - BETA1 ** t)) / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)
        assert np.array_equal(w.value, p)


def test_wrapper_drives_tensors_to_minimum():
    w = param(np.array([[5.0, -3.0]]), "w")
    opt = Adam({"w": w}, lr=0.05)
    for _ in range(2000):
        backward(tsum(square(w)))
        opt.step()
    assert np.max(np.abs(w.value)) < 1e-3


def test_wrapper_is_deterministic():
    def run():
        w = param(np.array([2.0, -1.5]), "w")
        opt = Adam({"w": w}, lr=0.01)
        for _ in range(50):
            backward(tsum(square(w)))
            opt.step()
        return w.value.copy()

    assert np.array_equal(run(), run())


def test_wrapper_leaves_unreached_params_untouched():
    # A leaf that never enters the loss keeps grad None; it takes a zero
    # gradient, whose moments stay 0 and whose update is exactly 0.0.
    w = param(np.array([1.0]), "w")
    dead = param(np.array([7.0, -0.0]), "dead")
    opt = Adam({"w": w, "dead": dead}, lr=0.1)
    for _ in range(60):
        backward(tsum(square(w)))
        opt.step()
    assert dead.grad is None and opt.t == 60
    assert dead.value.tobytes() == np.array([7.0, -0.0]).tobytes()
    assert opt.m["dead"].tobytes() == opt.v["dead"].tobytes() == np.zeros(2).tobytes()
    assert w.value[0] != 1.0


def test_runs_of_reached_leaves_skip_the_leaf_between_them():
    # "a" and "c"-"d" are reached around an unreached "b": each reached leaf
    # moves as it would alone, and "b" keeps its value and zero moments.
    rng = np.random.default_rng(3)
    values = {k: rng.normal(size=shape) for k, shape in
              (("a", (2, 3)), ("b", (4,)), ("c", (3, 1)), ("d", (2, 2)))}
    leaves = {k: param(v.copy(), k) for k, v in values.items()}
    opt = Adam(leaves, lr=0.01)
    grads = {k: rng.normal(size=values[k].shape) for k in ("a", "c", "d")}
    grad_step(opt, **grads)
    for k, g in grads.items():
        alone = param(values[k].copy(), k)
        grad_step(Adam({k: alone}, lr=0.01), **{k: g})
        assert np.array_equal(leaves[k].value, alone.value), k
    assert np.array_equal(leaves["b"].value, values["b"])
    assert not opt.m["b"].any() and not opt.v["b"].any()


def test_a_leaf_without_a_gradient_steps_as_with_a_zero_gradient():
    # Once reached, a leaf whose grad is None moves on its moments, bit for
    # bit as an explicit zero gradient moves it.
    def run(b_grad):
        a = param(np.array([1.0, 2.0]), "a")
        b = param(np.array([[3.0]]), "b")
        opt = Adam({"a": a, "b": b}, lr=0.1)
        grad_step(opt, a=[0.5, -0.5], b=[[2.0]])
        kept = b.value.copy()
        b.grad = b_grad
        grad_step(opt, a=[0.25, 0.75])
        assert not np.array_equal(b.value, kept)
        return [x.tobytes() for x in (a.value, b.value, opt.m["b"], opt.v["b"])]

    assert run(None) == run(np.zeros((1, 1)))


def test_non_finite_gradient_in_a_later_run_moves_nothing():
    leaves = {k: param(np.full(2, float(i)), k) for i, k in enumerate("abc")}
    opt = Adam(leaves, lr=0.1)
    grad_step(opt, a=np.ones(2), b=np.ones(2), c=np.ones(2))
    before = {k: (t.value.copy(), opt.m[k].copy(), opt.v[k].copy())
              for k, t in leaves.items()}
    leaves["b"].grad = None
    with pytest.raises(TrainingDivergedError, match="'c'"):
        grad_step(opt, a=np.ones(2), c=[1.0, np.inf])
    assert opt.t == 1
    for k, (value, m, v) in before.items():
        assert np.array_equal(leaves[k].value, value), k
        assert np.array_equal(opt.m[k], m) and np.array_equal(opt.v[k], v), k
