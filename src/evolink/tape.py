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

Several same-shape models can be recorded as one. A weight of shape
(G, r, c) stacks the (r, c) weights of G models; an array indexed by nodes
then stacks the models' rows, (G * n, d), as G disjoint copies of the
graph. Only the ops that meet a weight handle this model axis:
:func:`matmul`, :func:`rows`, :func:`with_rows`, :func:`edge_attention`
and :func:`rmse_sigmoid_gram`. Each forms, for every model, the same
operations in the same order as its one-model call, so each model's values
and gradients have the bits they would have alone. The other ops are
elementwise, reductions, or products with a constant, which the caller
makes block diagonal.
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
    """``a @ x`` for a constant symmetric (n, n) matrix ``a``, dense or
    scipy.sparse.

    Only ``x`` is recorded. Its gradient ``a.T @ g`` is taken as ``a @ g``,
    which is the same only because ``a`` is symmetric: the caller must
    pass a matrix equal to its transpose, as every normalized adjacency is
    bit for bit. A sparse ``a.T`` would be rebuilt in CSC form on every
    call.
    """
    x = as_tensor(x)
    if a.ndim != 2 or x.value.ndim != 2 or a.shape[1] != x.shape[0]:
        raise ShapeError(f"constant_matmul: shapes {a.shape} and {x.shape} do not chain")

    def bw(g: Array) -> None:
        _accumulate(x, a @ g, fresh=True)

    return Tensor(a @ x.value, _parents=(x,), _backward=bw)


def _stack(w: Array) -> Array:
    """``w`` as a stack of matrices: (G, r, c) as it is, (r, c) as (1, r, c)."""
    return w if w.ndim == 3 else w[None]


def _increasing(idx: Array) -> bool:
    """Whether ``idx`` is strictly increasing, so that its entries differ."""
    return bool((idx[1:] > idx[:-1]).all())


def _stacked_index(idx: Array, copies: int, rows: int) -> Array:
    """``idx`` applied to each of ``copies`` stacked blocks of ``rows`` rows."""
    return idx if copies == 1 else (idx + rows * np.arange(copies)[:, None]).ravel()


def matmul(a, b) -> Tensor:
    """``a @ b`` of 2-d operands. A stack ``b`` of G (k, p) matrices
    multiplies each of the G equal row blocks of ``a`` by its own matrix."""
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim not in (2, 3):
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    bs = _stack(b.value)
    models, k, out = bs.shape
    if a.shape[1] != k or a.shape[0] % models:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    a3 = a.value.reshape(models, -1, k)

    def bw(g: Array) -> None:
        g3 = g.reshape(models, -1, out)
        if a.requires_grad:
            _accumulate(a, (g3 @ bs.swapaxes(1, 2)).reshape(a.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, (a3.swapaxes(1, 2) @ g3).reshape(b.shape), fresh=True)

    return Tensor((a3 @ bs).reshape(-1, out), _parents=(a, b), _backward=bw)


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
    """Gather rows of a matrix; the backward pass scatter-adds. A stack
    ``a`` of G matrices gives the G gathers stacked, (G * len(idx), d)."""
    a = as_tensor(a)
    if a.value.ndim not in (2, 3):
        raise ShapeError(f"rows needs a 2-d operand or a stack of them, got {a.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("rows: index must be one-dimensional")
    n = a.shape[-2]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"rows: index out of range for {n} rows")
    flat = a.value.reshape(-1, a.shape[-1])
    at = _stacked_index(idx, _stack(a.value).shape[0], n)
    # Distinct rows take one addition each, which fancy indexing does at a
    # fraction of the cost of np.add.at, with the same bits.
    distinct = _increasing(idx)

    def bw(g: Array) -> None:
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        grad = a.grad.reshape(flat.shape)
        if distinct:
            grad[at] += g
        else:
            np.add.at(grad, at, g)

    return Tensor(flat[at], _parents=(a,), _backward=bw)


def with_rows(base, idx, new) -> Tensor:
    """Copy ``base`` with the rows at ``idx`` replaced by ``new``. For a
    stack ``base`` of G matrices, ``new`` stacks the G replacements."""
    base, new = as_tensor(base), as_tensor(new)
    idx = np.asarray(idx, dtype=np.intp)
    if base.value.ndim not in (2, 3) or new.value.ndim != 2:
        raise ShapeError("with_rows needs 2-d operands")
    n, d = base.shape[-2:]
    copies = _stack(base.value).shape[0]
    if new.shape != (copies * idx.size, d):
        raise ShapeError(f"with_rows: replacement shape {new.shape} does not match "
                         f"({copies * idx.size}, {d})")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"with_rows: index out of range for {n} rows")
    if not _increasing(idx) and len(np.unique(idx)) != idx.size:
        raise ShapeError("with_rows: duplicate row indices")
    at = _stacked_index(idx, copies, n)
    value = base.value.copy()
    value.reshape(-1, d)[at] = new.value

    def bw(g: Array) -> None:
        if base.requires_grad:
            gb = g.copy()
            gb.reshape(-1, d)[at] = 0.0
            _accumulate(base, gb, fresh=True)
        if new.requires_grad:
            _accumulate(new, g.reshape(-1, d)[at], fresh=True)

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
    nothing. For a stack of G heads, ``transform`` (G, d, d) and
    ``score_vec`` (G, 2d, 1), ``x`` stacks the G models' rows and the
    entries are those of ``edges.tile(G)``.
    """
    t3 = _stack(transform)
    models, d = t3.shape[0], t3.shape[-1]
    if t3.shape[1] != d:
        raise ShapeError(f"head transform must be square, got {transform.shape}")
    if score_vec.shape != transform.shape[:-2] + (2 * d, 1):
        raise ShapeError(f"score vector shape {score_vec.shape} does not match (2*{d}, 1)")
    lists = edges.tile(models)
    if x.ndim != 2 or x.shape != (lists.n, d):
        raise ShapeError(f"edge_softmax: rows {x.shape} do not match ({lists.n}, {d})")
    if np.any(edges.indptr[1:] == edges.indptr[:-1]):
        raise DegenerateSoftmaxError("softmax row with no neighbour entry")
    a3 = _stack(score_vec)
    p3 = x.reshape(models, -1, d) @ t3.swapaxes(1, 2)
    pair = (p3 @ a3[:, :d]).reshape(-1)[lists.rows] + (p3 @ a3[:, d:]).reshape(-1)[lists.cols]
    pair *= lists.weights
    s = expit(pair, out=pair)
    if not np.all(np.isfinite(s)):
        raise NumericError("non-finite attention score")
    # Scores lie in [0, 1], so their exponentials need no shift.
    e = np.exp(s)
    alpha = e / np.bincount(lists.rows, e, minlength=lists.n)[lists.rows]
    return p3.reshape(-1, d), s, alpha


def edge_attention(x, transform, score_vec, edges: NeighbourLists) -> Tensor:
    """One attention head over neighbour lists as one recorded op.

    Row ``u`` of the (n, d) result is ``sum_v alpha_uv p_v`` with ``p`` and
    ``alpha`` from :func:`edge_softmax`, which also states the shapes of a
    stack of heads. The backward is derived by hand, so the tape holds
    per-entry vectors and (n, d) matrices, never an (n, n) one.
    """
    x, transform, score_vec = as_tensor(x), as_tensor(transform), as_tensor(score_vec)
    p, s, alpha = edge_softmax(x.value, transform.value, score_vec.value, edges)
    t3, a3 = _stack(transform.value), _stack(score_vec.value)
    models = t3.shape[0]
    lists = edges.tile(models)
    value = lists.matrix(alpha) @ p
    if not (x.requires_grad or transform.requires_grad or score_vec.requires_grad):
        return Tensor(value)
    u, v, n, d = lists.rows, lists.cols, lists.n, p.shape[1]
    # The transposed coefficients, on the same pattern. The closure holds
    # this matrix until the backward pass runs, after every later head's
    # forward pass, so each call's matrix must own its data.
    alpha_t = lists.matrix(alpha[lists.transpose])

    def bw(g: Array) -> None:
        dp = alpha_t @ g
        # Through the softmax: a row's sum of alpha * d_alpha is g_u . value_u.
        # Each entry's dot product is the same in any block of entries.
        d_alpha = np.empty(u.size)
        for lo in range(0, u.size, EDGE_BLOCK):
            hi = lo + EDGE_BLOCK
            np.einsum("ij,ij->i", g[u[lo:hi]], p[v[lo:hi]], out=d_alpha[lo:hi])
        d_s = alpha * (d_alpha - np.einsum("ij,ij->i", g, value)[u])
        d_pair = d_s * s * (1.0 - s) * lists.weights
        d_src = np.bincount(u, d_pair, minlength=n).reshape(models, -1, 1)
        d_dst = np.bincount(v, d_pair, minlength=n).reshape(models, -1, 1)
        dp3 = dp.reshape(models, -1, d)
        dp3 += d_src * a3[:, None, :d, 0]
        dp3 += d_dst * a3[:, None, d:, 0]
        if score_vec.requires_grad:
            pt = p.reshape(models, -1, d).swapaxes(1, 2)
            _accumulate(score_vec, np.concatenate([pt @ d_src, pt @ d_dst], axis=1)
                        .reshape(score_vec.shape), fresh=True)
        if transform.requires_grad:
            _accumulate(transform, (dp3.swapaxes(1, 2) @ x.value.reshape(models, -1, d))
                        .reshape(transform.shape), fresh=True)
        if x.requires_grad:
            _accumulate(x, (dp3 @ t3).reshape(x.shape), fresh=True)

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

    A stack of G models gives each coefficient as an array of G values,
    one per model; ``z`` then stacks the models' embeddings by rows,
    (G * n, d), and the result holds the G losses. Each target's block is
    evaluated once for every model, and a term whose coefficient is 0 for
    a model adds nothing to that model's loss or gradient.
    """
    z = as_tensor(z)
    zv = z.value
    if zv.ndim != 2 or zv.shape[0] == 0:
        raise ShapeError(f"rmse_sigmoid_gram needs (n, d) embeddings, got shape {z.shape}")
    if not terms:
        raise ShapeError("rmse_sigmoid_gram needs at least one term")
    shapes = [np.shape(c) for c, _ in terms]
    stacked = any(shapes)
    models = max((shape[0] for shape in shapes if shape), default=1)
    if any(shape not in ((), (models,)) for shape in shapes):
        raise ShapeError("rmse_sigmoid_gram: coefficients must be scalars or G values each")
    # Each term's coefficient per model, as Python floats.
    coefs = [np.broadcast_to(np.asarray(c, dtype=np.float64), (models,)).tolist()
             if shape else [float(c)] * models for (c, _), shape in zip(terms, shapes)]
    n = zv.shape[0] // models
    for _, target in terms:
        if not isinstance(target, (NeighbourLists, SigmoidGram)):
            raise ShapeError(f"rmse_sigmoid_gram: a target must be NeighbourLists or "
                             f"SigmoidGram, got {type(target).__name__}")
        if target.n != n or n * models != zv.shape[0]:
            raise ShapeError(f"rmse_sigmoid_gram: a target over {target.n} rows does not "
                             f"match embeddings {z.shape} of {models} model(s)")
    z3 = zv.reshape(models, n, -1)
    grad = z.requires_grad
    height = min(LOSS_BLOCK, n)
    # One allocation for s, diff and s * (1 - s): three separate ones made
    # the allocator map fresh pages for them on every call. Each block's
    # arrays are contiguous views of the front of each model's row of their
    # buffer (strided views into (height, n) buffers made the elementwise
    # ops two to three times slower). The last slot of each row of d_buf,
    # past every block's diff, starts at 0 so that what is sent there stays
    # finite.
    s_buf, d_buf, w_buf = np.empty((3, models, height * n + 1))
    d_buf[:, -1] = 0.0
    prods = [np.zeros_like(z3) for _ in terms] if grad else None
    sse = [np.zeros(models) for _ in terms]
    for lo in range(0, n, height):
        hi = min(lo + height, n)
        h, width = hi - lo, n - lo
        s = s_buf[:, :h * width].reshape(models, h, width)
        diff = d_buf[:, :h * width].reshape(models, h, width)
        np.matmul(z3[:, lo:hi], z3[:, lo:].swapaxes(1, 2), out=s)
        expit(s, out=s)
        if grad:
            w = w_buf[:, :h * width].reshape(models, h, width)
            np.subtract(1.0, s, out=w)
            w *= s
        for k, (_, target) in enumerate(terms):
            if isinstance(target, SigmoidGram):
                # The target's block, once for every model, in the last
                # model's diff, which is overwritten last and in place.
                shared = diff[-1]
                np.matmul(target.y[lo:hi], target.y[lo:].T, out=shared)
                expit(shared, out=shared)
                np.subtract(s[:-1], shared, out=diff[:-1])
                np.subtract(s[-1], shared, out=shared)
            else:
                np.copyto(diff, s)
                e0, e1 = target.indptr[lo], target.indptr[hi]
                cols = target.cols[e0:e1]
                at = (target.rows[e0:e1] - lo) * width + (cols - lo)
                # An entry left of the diagonal tile counts through its
                # mirror, so it goes to the last slot, which nothing reads.
                at[cols < lo] = d_buf.shape[1] - 1
                for row in d_buf:
                    row[at] -= target.weights[e0:e1]
            tile, mirrored = diff[:, :, :h], diff[:, :, h:]
            sse[k] += (np.einsum("gij,gij->g", tile, tile)
                       + 2.0 * np.einsum("gij,gij->g", mirrored, mirrored))
            if grad:
                diff *= w
                prods[k][:, lo:hi] += diff @ z3[:, lo:]
                prods[k][:, hi:] += diff[:, :, h:].swapaxes(1, 2) @ z3[:, lo:hi]
    roots = [np.sqrt(e / (n * n)).tolist() for e in sse]
    # Each model's terms, in order, without those its coefficient zeroes.
    active = [[(k, c[m], roots[k][m]) for k, c in enumerate(coefs) if c[m] != 0.0]
              for m in range(models)]
    losses = [sum(c * root for _, c, root in terms_m) for terms_m in active]
    value = np.array(losses) if stacked else losses[0]
    if not grad:
        return Tensor(value)
    # d/dz of c sqrt(sse / n^2) is c / (2 root n^2) times d(sse)/dz, which
    # is 4 (diff * s * (1 - s)) @ z summed over the blocks and their mirrors.
    prod = np.zeros_like(z3)
    for m, terms_m in enumerate(active):
        for k, c, root in terms_m:
            if root > 0.0:
                prod[m] += prods[k][m] * (c * 2.0 / (root * n * n))

    def bw(g: Array) -> None:
        _accumulate(z, (np.reshape(g, (-1, 1, 1)) * prod).reshape(zv.shape), fresh=True)

    return Tensor(value, _parents=(z,), _backward=bw)
