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
graph. The ops that meet a weight or the graph handle this model axis:
:func:`matmul`, :func:`rows`, :func:`with_rows`, :func:`constant_matmul`,
:func:`edge_attention` and :func:`rmse_sigmoid_gram`. Each forms, for
every model, the same operations in the same order as its one-model call,
so each model's values and gradients have the bits they would have alone.
The other ops are elementwise or reductions.

:func:`edge_attention` also takes a second axis, the H heads of an
attention transition, each its own leaf. It evaluates them as one op on
H copies of the neighbour pattern, sharing the input rows, and forms for
every head the operations of its one-head call; the heads' results and
their gradients with respect to the shared input are added in head order,
as H one-head ops would be added one after another. Its backward takes the
score vectors' gradients from sparse products on the neighbour pattern,
never from a gradient per entry.

:func:`mlp_mse` is the MLP link scorer's whole decoder and squared error
as one op. Its value and weight gradients have the bits of the composed
elementwise, product and reduction ops. The tape holds only the ops a fit
runs; the composed ops its fused ones are checked against live in
``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

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


def constant_matmul(a: csr_matrix, x) -> Tensor:
    """``a @ x`` for a constant symmetric (n, n) CSR matrix ``a``, such as
    ``SnapshotGraph.normalized_adjacency``; any other matrix is refused
    with ShapeError. An ``x`` of G stacked (n, d) blocks, (G * n, d), gives
    each block's product with ``a``, stacked the same way.

    Only ``x`` is recorded. Its gradient ``a.T @ g`` is taken as ``a @ g``,
    which is the same only because ``a`` is symmetric: the caller must
    pass a matrix equal to its transpose, as every normalized adjacency is
    bit for bit. ``a.T`` would be rebuilt in CSC form on every call.
    """
    if not isinstance(a, csr_matrix):
        raise ShapeError(f"constant_matmul: needs a CSR matrix, got a {type(a).__name__}")
    x = as_tensor(x)
    n = a.shape[-1]
    models = x.shape[0] // n if x.value.ndim == 2 and n else 0
    if models < 1 or a.shape != (n, n) or x.shape[0] != models * n:
        raise ShapeError(f"constant_matmul: shapes {a.shape} and {x.shape} do not chain")

    def product(v: Array) -> Array:
        blocks = v.reshape(models, n, -1)
        # scipy sums each output entry over its row's stored entries in
        # their order, whatever the column count, so the blocks laid side
        # by side as (n, G * d) columns keep their bits. One block's
        # reshapes are views.
        side = (a @ blocks.swapaxes(0, 1).reshape(n, -1)).reshape(n, models, -1)
        return side.swapaxes(0, 1).reshape(v.shape)

    def bw(g: Array) -> None:
        _accumulate(x, product(g), fresh=True)

    return Tensor(product(x.value), _parents=(x,), _backward=bw)


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


def tsum(a) -> Tensor:
    """Reduce to a scalar by summing every entry."""
    a = as_tensor(a)

    def bw(g: Array) -> None:
        _accumulate(a, g)

    return Tensor(a.value.sum(), _parents=(a,), _backward=bw)


def _heads(transforms, score_vecs) -> tuple[Array, Array]:
    """A transition's H heads as (G, H, d, d) and (G, H, 2d, 1) stacks.

    Each head is a (d, d) transform and a (2d, 1) score vector, or G of
    each stacked on a leading model axis; every head has the shapes of
    the first. One head is viewed, not copied.
    """
    if not transforms or len(transforms) != len(score_vecs):
        raise ShapeError(f"attention needs one score vector per head and at least one "
                         f"head, got {len(transforms)} transforms and {len(score_vecs)} "
                         f"score vectors")
    t0, a0 = transforms[0], score_vecs[0]
    d = t0.shape[-1]
    if t0.ndim not in (2, 3) or t0.shape[-2] != d:
        raise ShapeError(f"head transform must be square, got {t0.shape}")
    if a0.shape != t0.shape[:-2] + (2 * d, 1):
        raise ShapeError(f"score vector shape {a0.shape} does not match (2*{d}, 1)")
    if len(transforms) == 1:
        return t0.reshape(-1, 1, d, d), a0.reshape(-1, 1, 2 * d, 1)
    if any(t.shape != t0.shape for t in transforms) or any(a.shape != a0.shape
                                                          for a in score_vecs):
        raise ShapeError("attention heads differ in shape")
    return (np.stack([t.reshape(-1, d, d) for t in transforms], axis=1),
            np.stack([a.reshape(-1, 2 * d, 1) for a in score_vecs], axis=1))


def _project(x: Array, t4: Array) -> Array:
    """Every head's ``x transform^T``, (G, H, n, d). A model's heads share
    its rows of ``x`` through a broadcast product, so each head's GEMM has
    the shape it has alone."""
    return x.reshape(t4.shape[0], 1, -1, t4.shape[-1]) @ t4.swapaxes(2, 3)


def _softmax(x: Array, t4: Array, a4: Array,
             edges: NeighbourLists) -> tuple[Array, Array, Array]:
    """:func:`edge_softmax` of the stacks :func:`_heads` makes."""
    models, heads, d = t4.shape[0], t4.shape[1], t4.shape[-1]
    if x.ndim != 2 or x.shape != (models * edges.n, d):
        raise ShapeError(f"edge_softmax: rows {x.shape} do not match "
                         f"({models * edges.n}, {d})")
    if (edges.indptr[1:] == edges.indptr[:-1]).any():
        raise DegenerateSoftmaxError("softmax row with no neighbour entry")
    lists = edges.tile(models * heads)
    p = _project(x, t4)
    pair = (p @ a4[:, :, :d]).reshape(-1)[lists.rows] + (p @ a4[:, :, d:]).reshape(-1)[lists.cols]
    pair *= lists.weights
    s = expit(pair, out=pair)
    if not np.isfinite(s).all():
        raise NumericError("non-finite attention score")
    # Scores lie in [0, 1], so their exponentials need no shift.
    e = np.exp(s)
    alpha = e / np.bincount(lists.rows, e, minlength=lists.n)[lists.rows]
    return p.reshape(-1, d), s, alpha


def edge_softmax(x: Array, transforms, score_vecs,
                 edges: NeighbourLists) -> tuple[Array, Array, Array]:
    """The coefficients of a transition's H attention heads over neighbour
    lists.

    ``x`` is (n, d), each of the H ``transforms`` (d, d) and each of the
    ``score_vecs`` (2d, 1), and ``edges`` the symmetric neighbour lists of
    the n rows, every row non-empty. For head ``h``, with
    ``p = x transform_h^T``, the entry from ``u`` to ``v`` scores
    ``s = sigmoid(w_uv (p_u . score_vec_h[:d] + p_v . score_vec_h[d:]))``
    and its coefficient ``alpha`` is the softmax of ``s`` over row ``u``'s
    entries. Returns ``(p, s, alpha)``: the H heads' ``p`` stacked by rows,
    (H * n, d), and ``s`` and ``alpha`` per entry of ``edges.tile(H)``.
    Records nothing. For G stacked models, each transform is (G, d, d) and
    each score vector (G, 2d, 1), ``x`` stacks the G models' rows, and the
    blocks run model-major over ``edges.tile(G * H)``: model ``m``'s head
    ``h`` is block ``m * H + h``.
    """
    return _softmax(x, *_heads(transforms, score_vecs), edges)


def _head_sum(a: Array) -> Array:
    """The sum over the head axis of a (G, H, ...) array, added in head
    order into a new array; for one head, a view of its slice."""
    if a.shape[1] == 1:
        return a[:, 0]
    total = a[:, 0] + a[:, 1]
    for h in range(2, a.shape[1]):
        total += a[:, h]
    return total


def edge_attention(x, transforms, score_vecs, edges: NeighbourLists) -> Tensor:
    """A transition's H attention heads over neighbour lists as one recorded
    op, returning their mean.

    Head ``h`` gives row ``u`` the mixture ``sum_v alpha_uv p_v`` with
    ``p`` and ``alpha`` from :func:`edge_softmax`, which also states the
    shapes of stacked models; the (n, d) result, (G * n, d) for a stack,
    adds the heads' mixtures in head order and multiplies the sum by
    ``1 / H``. Each head's transform and score vector stays its own leaf.
    The backward is derived by hand and forms no gradient per neighbour
    entry: the score vectors read that gradient only through its sums
    over each row and each column, which it takes as sparse products of
    ``C = alpha s (1 - s) w`` and ``C^T`` on the pattern with (n, d)
    matrices. It holds the coefficients and scores on the pattern and
    (n, d) matrices, never an (n, n) or (entries, d) array. A head's value
    and gradients have the bits of the one-head call, and the sum and
    scaling those of the ``add`` and ``scale`` ops of
    ``tests/oracles.py``; the per-entry backward there agrees with it to
    rounding.
    """
    x = as_tensor(x)
    transforms = [as_tensor(t) for t in transforms]
    score_vecs = [as_tensor(a) for a in score_vecs]
    t4, a4 = _heads([t.value for t in transforms], [a.value for a in score_vecs])
    p, s, alpha = _softmax(x.value, t4, a4, edges)
    models, heads, d = t4.shape[0], t4.shape[1], t4.shape[-1]
    lists = edges.tile(models * heads)
    z = value = lists.matrix(alpha) @ p
    if heads > 1:
        value = _head_sum(z.reshape(models, heads, -1, d)).reshape(-1, d)
        value *= 1.0 / heads
    leaves = (x, *transforms, *score_vecs)
    if not any(t.requires_grad for t in leaves):
        return Tensor(value)
    # The transposed coefficients, on the same pattern. The closure holds
    # this matrix until the backward pass runs, after every later
    # transition's forward pass, so each call's matrix must own its data.
    alpha_t = lists.matrix(alpha[lists.transpose])

    # One head's projection is held for the backward pass. Several heads'
    # are formed again there, with the same bits, rather than held as H
    # (n, d) arrays per transition beside the loss's buffers.
    held = p if heads == 1 else None

    def bw(g: Array) -> None:
        proj = held
        if heads > 1:
            proj = _project(x.value, t4).reshape(-1, d)
            # Every head's copy of its share of the mean's gradient, as
            # scale gives it.
            g = np.broadcast_to((g * (1.0 / heads)).reshape(models, 1, -1, d),
                                (models, heads, edges.n, d)).reshape(-1, d)
        # Through the softmax and the sigmoid, entry (u, v) has the gradient
        # c_uv (g_u . p_v - g_u . z_u), c = alpha * s * (1 - s) * weights.
        # The score vectors read it only through its sums over each row and
        # each column, which are products with C and C^T on the pattern.
        c = alpha * s
        c *= 1.0 - s
        c *= lists.weights
        gz = np.einsum("ij,ij->i", g, z)
        d_src = np.einsum("ij,ij->i", g, lists.matrix(c) @ proj)
        d_src -= gz * np.bincount(lists.rows, c, minlength=lists.n)
        c_t = lists.matrix(c[lists.transpose])
        d_dst = np.einsum("ij,ij->i", proj, c_t @ g)
        d_dst -= c_t @ gz
        del c, c_t, gz
        d_src = d_src.reshape(models, heads, -1, 1)
        d_dst = d_dst.reshape(models, heads, -1, 1)
        dp4 = (alpha_t @ g).reshape(models, heads, -1, d)
        del g  # not held beside the gradient products below
        dp4 += d_src * a4[:, :, None, :d, 0]
        dp4 += d_dst * a4[:, :, None, d:, 0]
        if any(a.requires_grad for a in score_vecs):
            pt = proj.reshape(models, heads, -1, d).swapaxes(2, 3)
            grad = np.concatenate([pt @ d_src, pt @ d_dst], axis=2)
            for h, a in enumerate(score_vecs):
                if a.requires_grad:
                    _accumulate(a, grad[:, h].reshape(a.shape), fresh=True)
        if any(t.requires_grad for t in transforms):
            grad = dp4.swapaxes(2, 3) @ x.value.reshape(models, 1, -1, d)
            for h, t in enumerate(transforms):
                if t.requires_grad:
                    _accumulate(t, grad[:, h].reshape(t.shape), fresh=True)
        if x.requires_grad:
            _accumulate(x, _head_sum(dp4 @ t4).reshape(x.shape), fresh=True)

    return Tensor(value, _parents=leaves, _backward=bw)


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


def mlp_mse(x, w_hidden, b_hidden, w_out, b_out, y) -> Tensor:
    """``mean((sigmoid(relu(x w_hidden + b_hidden) w_out + b_out) - y)^2)``
    as one recorded op.

    ``x`` is a constant (N, d) feature matrix and ``y`` the constant (N, 1)
    targets; ``w_hidden`` is (d, k), ``b_hidden`` (1, k), ``w_out`` (k, 1)
    and ``b_out`` (1, 1). The value and each weight's gradient have the bits
    of the composed chain :func:`matmul`, ``add``, :func:`relu`,
    :func:`matmul`, ``add``, ``sigmoid``, ``sub``, ``square``, ``mean``,
    whose other ops live in ``tests/oracles.py``: the same 2-d products,
    the bias gradients as the same column sums, and the hidden gradient of
    the one-column output product as the broadcast product that the k = 1
    ``matmul`` of that chain equals. Only the activations are held for the
    backward pass.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    w_hidden, b_hidden, w_out, b_out = leaves = [as_tensor(t) for t in
                                                 (w_hidden, b_hidden, w_out, b_out)]
    n, d = x.shape if x.ndim == 2 else (0, 0)
    k = w_hidden.shape[-1] if w_hidden.value.ndim else 0
    want = ((d, k), (1, k), (k, 1), (1, 1))
    if n == 0 or y.shape != (n, 1) or any(t.shape != s for t, s in zip(leaves, want)):
        raise ShapeError(f"mlp_mse: shapes x {x.shape}, w_hidden {w_hidden.shape}, b_hidden "
                         f"{b_hidden.shape}, w_out {w_out.shape}, b_out {b_out.shape} and y "
                         f"{y.shape} do not chain")
    pre = x @ w_hidden.value
    pre += b_hidden.value
    h = np.maximum(pre, 0.0)
    s = h @ w_out.value
    s += b_out.value
    expit(s, out=s)
    diff = s - y
    value = (diff * diff).mean()
    if not any(t.requires_grad for t in leaves):
        return Tensor(value)

    def bw(g: Array) -> None:
        # Through mean, square and sigmoid, in the chain's order.
        d_out = 2.0 * diff
        d_out *= g / n
        d_out *= s
        d_out *= 1.0 - s
        d_pre = d_out * w_out.value.reshape(1, -1)
        d_pre *= pre > 0.0
        grads = (x.T @ d_pre, d_pre.sum(axis=0, keepdims=True),
                 h.T @ d_out, d_out.sum(axis=0, keepdims=True))
        for t, grad in zip(leaves, grads):
            if t.requires_grad:
                _accumulate(t, grad, fresh=True)

    return Tensor(value, _parents=tuple(leaves), _backward=bw)
