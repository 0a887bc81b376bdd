"""Adam optimizer over the tape leaves of a model.

:class:`Adam` keeps one first- and one second-moment array per leaf and
updates them and the leaf values in place, so a step allocates only its
temporaries. A leaf whose ``.grad`` is ``None`` (it did not reach the
loss) is skipped, as ``torch.optim.Adam`` skips it. Gradients are checked
before any leaf moves: a wrong shape raises ShapeError and a non-finite
entry raises TrainingDivergedError, leaving every leaf and moment as it was.
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
        self.m = {k: np.zeros_like(t.value) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.value) for k, t in params.items()}
        self.t = 0

    def step(self) -> None:
        """Apply one update using the ``.grad`` currently on each leaf."""
        reached = {k: t for k, t in self.params.items() if t.grad is not None}
        for name, leaf in reached.items():
            if leaf.grad.shape != leaf.value.shape:
                raise ShapeError(f"Adam: gradient shape {leaf.grad.shape} for {name!r} "
                                 f"does not match parameter shape {leaf.value.shape}")
            if not np.all(np.isfinite(leaf.grad)):
                raise TrainingDivergedError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        bias1, bias2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        for name, leaf in reached.items():
            g, m, v = leaf.grad, self.m[name], self.v[name]
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
            leaf.value -= update
