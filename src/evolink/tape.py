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

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSoftmaxError, NumericError, ShapeError
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


def expit(x: Array, out: Array | None = None) -> Array:
    """The logistic sigmoid ``1 / (1 + exp(-x))`` of a float64 array, in place
    when ``out is x``.

    The same formula as ``scipy.special.expit``, on numpy's vectorized
    ``exp``, which may differ from it in the last place. Below about
    -709.78 the exponential overflows to inf and the result is exactly 0.0,
    as scipy's is; that overflow raises no warning.
    """
    if out is None:
        out = np.empty(np.shape(x))
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


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


# Entries whose (entries, d) row gathers the backward of
# :func:`edge_attention` forms at a time. Gathering every entry at once
# makes two arrays large enough that the allocator maps fresh pages for
# them on every call.
EDGE_BLOCK = 1024


def edge_softmax(x: Array, transform: Array, score_vec: Array,
                 edges: NeighbourLists) -> tuple[Array, Array, Array]:
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
    pair *= edges.weights
    s = expit(pair, out=pair)
    if not np.all(np.isfinite(s)):
        raise NumericError("non-finite attention score")
    # Scores lie in [0, 1], so their exponentials need no shift.
    e = np.exp(s)
    alpha = e / np.bincount(edges.rows, e, minlength=edges.n)[edges.rows]
    return p, s, alpha


def edge_attention(x, transform, score_vec, edges: NeighbourLists) -> Tensor:
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
        # Each entry's dot product is the same in any block of entries.
        d_alpha = np.empty(u.size)
        for lo in range(0, u.size, EDGE_BLOCK):
            hi = lo + EDGE_BLOCK
            np.einsum("ij,ij->i", g[u[lo:hi]], p[v[lo:hi]], out=d_alpha[lo:hi])
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


# Rows of ``expit(z z^T)`` that :func:`rmse_sigmoid_gram` holds at a time.
LOSS_BLOCK = 128


@dataclass(frozen=True, eq=False)
class SigmoidGram:
    """The loss target ``expit(y y^T)`` of a constant (n, d) matrix ``y``,
    computed a row block at a time, never as a whole."""

    y: Array

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        if y.ndim != 2:
            raise ShapeError(f"SigmoidGram needs an (n, d) matrix, got shape {y.shape}")
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]


def rmse_sigmoid_gram(z, terms) -> Tensor:
    """``sum_k c_k sqrt(mean((expit(z z^T) - T_k)^2))`` as one recorded op.

    ``terms`` is a sequence of ``(c_k, T_k)`` pairs. Each target ``T_k`` is
    symmetric over the n rows of ``z``: either a :class:`NeighbourLists`
    (its weights at its entries, zero elsewhere) or a :class:`SigmoidGram`.
    No dense (n, n) target is taken, and no (n, n) array is formed: the
    scores ``s`` are evaluated ``LOSS_BLOCK`` rows at a time, and every
    term's squared error and, when ``z`` needs a gradient, its product
    ``(diff * s * (1 - s)) @ z`` come from the same pass.

    Since ``s`` and every target are symmetric, the block of rows
    ``lo:hi`` is evaluated over the columns ``lo:`` only, a trapezoid: the
    square tile on the diagonal, and to its right the mirror of every entry
    left of it. Each entry right of the tile is counted twice in the squared
    error, and its gradient product is added to both of its rows. The same
    symmetry makes the gradient of ``sum(diff^2)`` through ``z z^T`` equal
    to ``4 (diff * s * (1 - s)) @ z``, so the backward only scales the
    stored products. A term whose root is 0 contributes no gradient.
    """
    z = as_tensor(z)
    zv = z.value
    if zv.ndim != 2 or zv.shape[0] == 0:
        raise ShapeError(f"rmse_sigmoid_gram needs (n, d) embeddings, got shape {z.shape}")
    n = zv.shape[0]
    if not terms:
        raise ShapeError("rmse_sigmoid_gram needs at least one term")
    for _, target in terms:
        if not isinstance(target, (NeighbourLists, SigmoidGram)):
            raise ShapeError(f"rmse_sigmoid_gram: a target must be NeighbourLists or "
                             f"SigmoidGram, got {type(target).__name__}")
        if target.n != n:
            raise ShapeError(f"rmse_sigmoid_gram: a target over {target.n} rows does not "
                             f"match embeddings {z.shape}")
    # Each neighbour-list target's rows as intp, for 1-d positions.
    rows = [t.rows.astype(np.intp) if isinstance(t, NeighbourLists) else None
            for _, t in terms]
    grad = z.requires_grad
    height = min(LOSS_BLOCK, n)
    # One allocation for s, diff and s * (1 - s): three separate ones made
    # the allocator map fresh pages for them on every call. Each block's
    # arrays are contiguous views of the front of their buffer (strided
    # views into (height, n) buffers made the elementwise ops two to three
    # times slower). The last slot of d_buf, past every block's diff,
    # starts at 0 so that what is sent there stays finite.
    s_buf, d_buf, w_buf = np.empty((3, height * n + 1))
    d_buf[-1] = 0.0
    prods = [np.zeros_like(zv) for _ in terms] if grad else None
    sse = [0.0] * len(terms)
    for lo in range(0, n, height):
        hi = min(lo + height, n)
        h, width = hi - lo, n - lo
        s = s_buf[:h * width].reshape(h, width)
        diff = d_buf[:h * width].reshape(h, width)
        np.matmul(zv[lo:hi], zv[lo:].T, out=s)
        expit(s, out=s)
        if grad:
            w = w_buf[:h * width].reshape(h, width)
            np.subtract(1.0, s, out=w)
            w *= s
        for k, (_, target) in enumerate(terms):
            if isinstance(target, SigmoidGram):
                np.matmul(target.y[lo:hi], target.y[lo:].T, out=diff)
                expit(diff, out=diff)
                np.subtract(s, diff, out=diff)
            else:
                np.copyto(diff, s)
                e0, e1 = target.indptr[lo], target.indptr[hi]
                cols = target.cols[e0:e1]
                at = (rows[k][e0:e1] - lo) * width + (cols - lo)
                # An entry left of the diagonal tile counts through its
                # mirror, so it goes to the last slot, which nothing reads.
                at[cols < lo] = d_buf.size - 1
                d_buf[at] -= target.weights[e0:e1]
            tile, mirrored = diff[:, :h], diff[:, h:]
            sse[k] += (np.einsum("ij,ij->", tile, tile)
                       + 2.0 * np.einsum("ij,ij->", mirrored, mirrored))
            if grad:
                diff *= w
                prods[k][lo:hi] += diff @ zv[lo:]
                prods[k][hi:] += diff[:, h:].T @ zv[lo:hi]
    roots = [np.sqrt(e / (n * n)) for e in sse]
    value = sum(c * root for (c, _), root in zip(terms, roots))
    if not grad:
        return Tensor(value)
    # d/dz of c sqrt(sse / n^2) is c / (2 root n^2) times d(sse)/dz, which
    # is 4 (diff * s * (1 - s)) @ z summed over the blocks and their mirrors.
    prod = np.zeros_like(zv)
    for (c, _), root, p in zip(terms, roots, prods):
        if root > 0.0:
            prod += p * (c * 2.0 / (root * n * n))

    def bw(g: Array) -> None:
        _accumulate(z, g * prod, fresh=True)

    return Tensor(value, _parents=(z,), _backward=bw)
