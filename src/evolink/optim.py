"""Adam optimizer over the tape leaves of a model.

:class:`Adam` keeps the first and second moments of every leaf in two
flat buffers, in the order of its leaf dict; ``m[name]`` and ``v[name]``
are views of a leaf's slice. A step concatenates every leaf's gradient,
zeros for a leaf whose ``.grad`` is ``None`` (it did not reach the loss),
updates both moment buffers in place, forms the update in one elementwise
pass and subtracts each leaf's slice from its value in place. Each entry
gets the bits of a leaf-by-leaf update; a never-reached leaf has zero
moments and an update of exactly 0.0, so it keeps its value bit for bit.
Gradients are checked before any leaf moves: a wrong shape raises
ShapeError and a non-finite entry raises TrainingDivergedError naming its
leaf, leaving every leaf and moment as it was.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError, TrainingDivergedError
from .tape import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Stateful bias-corrected Adam over a dict of tape Tensors."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = float(lr)
        # Each leaf's [lo, hi) slice of the flat moment buffers.
        self._slices = {}
        lo = 0
        for name, leaf in params.items():
            self._slices[name] = (lo, lo + leaf.value.size)
            lo += leaf.value.size
        self._m, self._v = np.zeros((2, lo))
        self.m = {k: self._m[a:b].reshape(params[k].shape) for k, (a, b) in self._slices.items()}
        self.v = {k: self._v[a:b].reshape(params[k].shape) for k, (a, b) in self._slices.items()}
        self.t = 0

    def step(self) -> None:
        """Apply one update using the ``.grad`` currently on each leaf."""
        grads = []
        for name, leaf in self.params.items():
            if leaf.grad is None:
                grads.append(np.zeros(leaf.value.size))
            elif leaf.grad.shape != leaf.value.shape:
                raise ShapeError(f"Adam: gradient shape {leaf.grad.shape} for {name!r} "
                                 f"does not match parameter shape {leaf.value.shape}")
            else:
                grads.append(leaf.grad.ravel())
        g = np.concatenate(grads)
        if not np.isfinite(g).all():
            name = next(name for name, grad in zip(self.params, grads)
                        if not np.isfinite(grad).all())
            raise TrainingDivergedError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        bias1, bias2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        self._m *= BETA1
        self._m += (1.0 - BETA1) * g
        self._v *= BETA2
        self._v += (1.0 - BETA2) * (g * g)
        # value -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        denom = self._v / bias2
        np.sqrt(denom, out=denom)
        denom += EPS
        update = self._m / bias1
        update *= self.lr
        update /= denom
        for name, leaf in self.params.items():
            lo, hi = self._slices[name]
            leaf.value -= update[lo:hi].reshape(leaf.value.shape)
