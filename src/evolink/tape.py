"""Recorded dense-array computations with reverse-mode gradients.

A tensor requires a gradient if it is a :func:`param` leaf or is computed
from one; a plain ``Tensor(...)`` is a constant. Every operation returns a
new Tensor, and one that requires a gradient remembers its parents and how
to push a gradient back to them, so a forward pass implicitly records an
acyclic operation log. Calling :func:`backward` on a scalar result walks
that log once in reverse topological order. A gradient is allocated at
its first contribution, and an interior node's gradient is dropped as
soon as it has been passed on, so after the call ``.grad`` is set on the
reached ``param`` leaves only. All storage is float64.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.special import expit

from .errors import DegenerateSoftmaxError, NumericError, ShapeError

if TYPE_CHECKING:
    from .graphs import NeighbourLists

Array = np.ndarray


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("value", "grad", "name", "requires_grad", "_parents", "_backward")

    def __init__(self, value, *, name: str | None = None, _parents=(), _backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        self.name = name
        # Only a tensor that needs a gradient keeps its parents and backward
        # closure, so constant intermediates are freed as soon as unused.
        self.requires_grad = any(p.requires_grad for p in _parents)
        self._parents: tuple[Tensor, ...] = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor(shape={self.value.shape}{tag})"

    # Light operator sugar; every operator defers to the module-level ops.
    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)


def as_tensor(x) -> Tensor:
    """Wrap ``x`` in a constant Tensor unless it already is one."""
    return x if isinstance(x, Tensor) else Tensor(x)


def param(value, name: str | None = None) -> Tensor:
    """Create a trainable leaf. Leaf values must be finite."""
    t = Tensor(value, name=name)
    if not np.all(np.isfinite(t.value)):
        raise NumericError(f"non-finite entries in parameter {name!r}")
    t.requires_grad = True
    return t


def backward(loss: Tensor) -> None:
    """Set ``t.grad`` to d(loss)/d(t) on every ``param`` leaf that loss reaches.

    Only tensors that require a gradient are walked. Interior gradients are
    released once passed on; a reached leaf's previous gradient is replaced.
    """
    if loss.value.shape != ():
        raise ShapeError(f"backward requires a scalar, got shape {loss.value.shape}")
    if not loss.requires_grad:
        return
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    for t in order:
        t.grad = None
    loss.grad = np.ones((), dtype=np.float64)
    for t in reversed(order):
        if t._backward is not None:
            t._backward(t.grad)
            t.grad = None


def _accumulate(t: Tensor, g: Array, fresh: bool = False) -> None:
    """Add the contribution ``g`` to ``t.grad``.

    The first contribution becomes the gradient: as it is when ``fresh``
    (a new array of ``t``'s shape that nothing else holds), otherwise as a
    copy broadcast to ``t``'s shape.
    """
    if t.grad is None:
        t.grad = np.asarray(g) if fresh else np.array(np.broadcast_to(g, t.shape))
    else:
        t.grad += g


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


def constant_matmul(a, x) -> Tensor:
    """``a @ x`` for a constant (n, n) matrix ``a``, dense or scipy.sparse.

    Only ``x`` is recorded; its gradient is ``a.T @ g``.
    """
    x = as_tensor(x)
    if a.ndim != 2 or x.value.ndim != 2 or a.shape[1] != x.shape[0]:
        raise ShapeError(f"constant_matmul: shapes {a.shape} and {x.shape} do not chain")

    def bw(g: Array) -> None:
        _accumulate(x, a.T @ g, fresh=True)

    return Tensor(a @ x.value, _parents=(x,), _backward=bw)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")

    def bw(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, g @ b.value.T, fresh=True)
        if b.requires_grad:
            _accumulate(b, a.value.T @ g, fresh=True)

    return Tensor(a.value @ b.value, _parents=(a, b), _backward=bw)


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


def concat_cols(a, b) -> Tensor:
    """Concatenate two matrices with equal row counts along columns."""
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: incompatible shapes {a.shape} and {b.shape}")
    p = a.shape[1]

    def bw(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, g[:, :p])
        if b.requires_grad:
            _accumulate(b, g[:, p:])

    return Tensor(np.concatenate([a.value, b.value], axis=1), _parents=(a, b), _backward=bw)


def rows(a, idx) -> Tensor:
    """Gather rows of a matrix; the backward pass scatter-adds."""
    a = as_tensor(a)
    if a.value.ndim != 2:
        raise ShapeError(f"rows needs a 2-d operand, got {a.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("rows: index must be one-dimensional")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"rows: index out of range for {a.shape[0]} rows")

    def bw(g: Array) -> None:
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        np.add.at(a.grad, idx, g)

    return Tensor(a.value[idx], _parents=(a,), _backward=bw)


def with_rows(base, idx, new) -> Tensor:
    """Copy ``base`` with the rows at ``idx`` replaced by ``new``."""
    base, new = as_tensor(base), as_tensor(new)
    idx = np.asarray(idx, dtype=np.intp)
    if base.value.ndim != 2 or new.value.ndim != 2:
        raise ShapeError("with_rows needs 2-d operands")
    if new.shape != (idx.size, base.shape[1]):
        raise ShapeError(f"with_rows: replacement shape {new.shape} does not match "
                         f"({idx.size}, {base.shape[1]})")
    if idx.size and (idx.min() < 0 or idx.max() >= base.shape[0]):
        raise ShapeError(f"with_rows: index out of range for {base.shape[0]} rows")
    if len(np.unique(idx)) != idx.size:
        raise ShapeError("with_rows: duplicate row indices")
    value = base.value.copy()
    value[idx] = new.value

    def bw(g: Array) -> None:
        if base.requires_grad:
            gb = g.copy()
            gb[idx] = 0.0
            _accumulate(base, gb, fresh=True)
        if new.requires_grad:
            _accumulate(new, g[idx], fresh=True)

    return Tensor(value, _parents=(base, new), _backward=bw)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def bw(g: Array) -> None:
        _accumulate(a, g * (a.value > 0.0), fresh=True)

    return Tensor(np.maximum(a.value, 0.0), _parents=(a,), _backward=bw)


def elu(a) -> Tensor:
    """Exponential linear unit with unit negative-branch scale."""
    a = as_tensor(a)
    pos = a.value > 0.0
    # expm1 is evaluated on the positive branch too and discarded; suppress
    # the spurious overflow warning that can generate.
    with np.errstate(over="ignore"):
        value = np.where(pos, a.value, np.expm1(a.value))

    def bw(g: Array) -> None:
        _accumulate(a, g * np.where(pos, 1.0, np.exp(np.minimum(a.value, 0.0))), fresh=True)

    return Tensor(value, _parents=(a,), _backward=bw)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = expit(a.value)

    def bw(g: Array) -> None:
        _accumulate(a, g * s * (1.0 - s), fresh=True)

    return Tensor(s, _parents=(a,), _backward=bw)


def tsum(a) -> Tensor:
    """Reduce to a scalar by summing every entry."""
    a = as_tensor(a)

    def bw(g: Array) -> None:
        _accumulate(a, g)

    return Tensor(a.value.sum(), _parents=(a,), _backward=bw)


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


def edge_softmax(x: Array, transform: Array, score_vec: Array,
                 edges: "NeighbourLists") -> tuple[Array, Array, Array]:
    """The coefficients of one attention head over neighbour lists.

    ``x`` is (n, d), ``transform`` (d, d), ``score_vec`` (2d, 1) and
    ``edges`` the symmetric neighbour lists of the n rows, every row
    non-empty. With ``p = x transform^T``, the entry from ``u`` to ``v``
    scores ``s = sigmoid(w_uv (p_u . score_vec[:d] + p_v . score_vec[d:]))``
    and its coefficient ``alpha`` is the softmax of ``s`` over row ``u``'s
    entries. Returns ``(p, s, alpha)``, the last two per entry. Records
    nothing.
    """
    d = transform.shape[0]
    if transform.shape != (d, d):
        raise ShapeError(f"head transform must be square, got {transform.shape}")
    if score_vec.shape != (2 * d, 1):
        raise ShapeError(f"score vector shape {score_vec.shape} does not match (2*{d}, 1)")
    if x.ndim != 2 or x.shape != (edges.n, d):
        raise ShapeError(f"edge_softmax: rows {x.shape} do not match ({edges.n}, {d})")
    if np.any(edges.indptr[1:] == edges.indptr[:-1]):
        raise DegenerateSoftmaxError("softmax row with no neighbour entry")
    p = x @ transform.T
    pair = (p @ score_vec[:d, 0])[edges.rows] + (p @ score_vec[d:, 0])[edges.cols]
    s = expit(edges.weights * pair)
    if not np.all(np.isfinite(s)):
        raise NumericError("non-finite attention score")
    # Scores lie in [0, 1], so their exponentials need no shift.
    e = np.exp(s)
    alpha = e / np.bincount(edges.rows, e, minlength=edges.n)[edges.rows]
    return p, s, alpha


def edge_attention(x, transform, score_vec, edges: "NeighbourLists") -> Tensor:
    """One attention head over neighbour lists as one recorded op.

    Row ``u`` of the (n, d) result is ``sum_v alpha_uv p_v`` with ``p`` and
    ``alpha`` from :func:`edge_softmax`. The backward is derived by hand,
    so the tape holds per-entry vectors and (n, d) matrices, never an
    (n, n) one.
    """
    x, transform, score_vec = as_tensor(x), as_tensor(transform), as_tensor(score_vec)
    p, s, alpha = edge_softmax(x.value, transform.value, score_vec.value, edges)
    value = edges.matrix(alpha) @ p
    u, v, n, d = edges.rows, edges.cols, edges.n, p.shape[1]

    def bw(g: Array) -> None:
        dp = edges.matrix(alpha[edges.transpose]) @ g
        # Through the softmax: a row's sum of alpha * d_alpha is g_u . value_u.
        d_alpha = np.einsum("ij,ij->i", g[u], p[v])
        d_s = alpha * (d_alpha - np.einsum("ij,ij->i", g, value)[u])
        d_pair = d_s * s * (1.0 - s) * edges.weights
        d_src = np.bincount(u, d_pair, minlength=n)
        d_dst = np.bincount(v, d_pair, minlength=n)
        a = score_vec.value[:, 0]
        dp += np.outer(d_src, a[:d])
        dp += np.outer(d_dst, a[d:])
        if score_vec.requires_grad:
            _accumulate(score_vec, np.concatenate([p.T @ d_src, p.T @ d_dst])[:, None],
                        fresh=True)
        if transform.requires_grad:
            _accumulate(transform, dp.T @ x.value, fresh=True)
        if x.requires_grad:
            _accumulate(x, dp @ transform.value, fresh=True)

    return Tensor(value, _parents=(x, transform, score_vec), _backward=bw)


def rmse_sigmoid_gram(z, target) -> Tensor:
    """``sqrt(mean((sigmoid(z z^T) - target)^2))`` as one recorded op.

    ``target`` is a constant (n, n) array for the (n, d) matrix ``z``. The
    value and the gradient are bit-identical to the composed chain
    ``sqrt(mean(square(sub(sigmoid(matmul(z, transpose(z))), target))))``:
    the backward repeats that chain's float operations in the tape's order,
    without recording its n x n intermediates.
    """
    z = as_tensor(z)
    target = np.asarray(target, dtype=np.float64)
    if z.value.ndim != 2 or target.shape != (z.shape[0], z.shape[0]):
        raise ShapeError(f"rmse_sigmoid_gram: target {target.shape} does not match "
                         f"embeddings {z.shape}")
    zv = z.value
    s = expit(zv @ zv.T)
    diff = s - target
    root = np.sqrt((diff * diff).mean())

    def bw(g: Array) -> None:
        # sqrt, mean, square, sub, sigmoid, then the two halves of z z^T.
        safe = np.where(root > 0.0, root, 1.0)
        g_mean = g * np.where(root > 0.0, 0.5 / safe, 0.0)
        g_gram = 2.0 * diff * (g_mean / diff.size) * s * (1.0 - s)
        _accumulate(z, g_gram @ zv, fresh=True)
        z.grad += (zv.T @ g_gram).T

    return Tensor(root, _parents=(z,), _backward=bw)
