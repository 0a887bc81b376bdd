"""Adam optimizer over the tape leaves of a model.

:class:`Adam` keeps the first and second moments of every leaf in two
flat buffers, in the order of its leaf dict; ``m[name]`` and ``v[name]``
are views of a leaf's slice. A leaf whose ``.grad`` is ``None`` (it did
not reach the loss) is skipped, moments included, as ``torch.optim.Adam``
skips it. A step takes each maximal run of consecutive reached leaves as
one vector: it concatenates their gradients, updates the run's moments
in place and forms its update with one elementwise pass, and subtracts
each leaf's slice from that leaf's value in place. The arithmetic is
elementwise, so every entry gets the bits of a leaf-by-leaf update.
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

    def _runs(self) -> list[list[tuple[str, Tensor, int, int]]]:
        """The maximal runs of consecutive reached leaves, each a list of
        ``(name, leaf, lo, hi)`` with the leaf's slice of the moment
        buffers. Checks each gradient's shape."""
        runs: list[list[tuple[str, Tensor, int, int]]] = []
        for name, leaf in self.params.items():
            if leaf.grad is None:
                continue
            if leaf.grad.shape != leaf.value.shape:
                raise ShapeError(f"Adam: gradient shape {leaf.grad.shape} for {name!r} "
                                 f"does not match parameter shape {leaf.value.shape}")
            lo, hi = self._slices[name]
            if runs and runs[-1][-1][3] == lo:
                runs[-1].append((name, leaf, lo, hi))
            else:
                runs.append([(name, leaf, lo, hi)])
        return runs

    def step(self) -> None:
        """Apply one update using the ``.grad`` currently on each leaf."""
        runs = self._runs()
        grads = [np.concatenate([leaf.grad.ravel() for _, leaf, _, _ in run]) for run in runs]
        for run, g in zip(runs, grads):
            if not np.isfinite(g).all():
                name = next(name for name, leaf, _, _ in run if not np.isfinite(leaf.grad).all())
                raise TrainingDivergedError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        bias1, bias2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        for run, g in zip(runs, grads):
            lo, hi = run[0][2], run[-1][3]
            m, v = self._m[lo:hi], self._v[lo:hi]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            # value -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            denom = v / bias2
            np.sqrt(denom, out=denom)
            denom += EPS
            update = m / bias1
            update *= self.lr
            update /= denom
            for _, leaf, a, b in run:
                leaf.value -= update[a - lo:b - lo].reshape(leaf.value.shape)
