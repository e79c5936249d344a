"""Adam optimizer and gradient-norm helpers operating on Tensor leaves.

Each ``Adam`` owns its moment estimates and step count, so the generator
and the discriminator are driven by independent optimizers.  ``step``
consumes the accumulated gradients and clears them afterwards.
"""

from __future__ import annotations

import numpy as np

from .tensor import ContractError, Tensor


class Adam:
    """Bias-corrected Adam over a fixed list of requires_grad leaves.

    ``m`` and ``v`` hold one moment array per parameter; the
    hyperparameters and the step count ``t`` are shared by all of them.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        for p in self.params:
            if not isinstance(p, Tensor) or not p.requires_grad:
                raise ContractError("Adam expects requires_grad leaf tensors")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]

    def step(self):
        """One update of every parameter; gradients are cleared.  Raises
        ContractError, before changing anything, if a parameter has none."""
        if any(p.grad is None for p in self.params):
            raise ContractError("Adam step on a parameter with no accumulated gradient")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat, v_hat = self.m[i] / c1, self.v[i] / c2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)
            p.grad = None


def grad_norm(params):
    """Global L2 norm over all accumulated gradients (missing grads count as 0)."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    return float(np.sqrt(total))


def clip_grad_norm(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm."""
    norm = grad_norm(params)
    if norm > max_norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
