"""Adam optimizer and gradient-norm helpers operating on Tensor leaves.

``Adam`` packs its parameters into one float64 vector, so a step is a fixed
number of vector operations however many tensors a network has.  Code that
writes a parameter in place (``p.data[...] = ...``, as
``model.restore_params`` does) writes through to that vector; rebinding
``p.data`` detaches the parameter, and the next step raises ContractError.
The newest ``Adam`` owns its parameters: building one packs them afresh,
which detaches them from any older ``Adam`` in the same way.

Each ``Adam`` owns its moment estimates and step count, so the generator
and the discriminator are driven by independent optimizers.  ``step``
consumes the accumulated gradients and clears them afterwards.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ContractError, Tensor


class Adam:
    """Bias-corrected Adam over a fixed list of requires_grad leaves.

    The parameters' current values are copied bit for bit, back to back,
    into one float64 vector, and each ``p.data`` becomes a C-contiguous view
    of its slice.  ``m``, ``v``, the gathered gradient and two scratch
    vectors have the same length; the hyperparameters and the step count
    ``t`` are shared by all parameters.  The update is the per-tensor Adam's
    elementwise arithmetic in the same order, so its values are
    bit-identical to it.

    The newest ``Adam`` owns its parameters: an older ``Adam`` over any of
    them finds it rebound and raises ContractError at its next step.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        for p in self.params:
            if not isinstance(p, Tensor) or not p.requires_grad:
                raise ContractError("Adam expects requires_grad leaf tensors")
        if len({id(p) for p in self.params}) != len(self.params):
            raise ContractError("Adam got the same parameter twice")
        self.lr, self.beta1, self.beta2, self.epsilon = lr, beta1, beta2, epsilon
        self.t = 0
        n = sum(p.data.size for p in self.params)
        self.vec = np.zeros(n)
        start = 0
        for p in self.params:
            view = self.vec[start:start + p.data.size].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            start += view.size
        self._views = [p.data for p in self.params]
        self.m, self.v, self._g, self._s, self._u = (np.zeros(n) for _ in range(5))

    def step(self):
        """One update of every parameter; gradients are cleared.  Raises
        ContractError, before changing anything, if a parameter has no
        gradient, one of another shape, or no longer views its slice."""
        parts = []
        for p, view in zip(self.params, self._views):
            g = p.grad
            if g is None:
                raise ContractError("Adam step on a parameter with no accumulated gradient")
            if g.shape != view.shape:
                raise ContractError(f"gradient of shape {g.shape} for a parameter of "
                                    f"shape {view.shape}")
            if p.data is not view:
                raise ContractError("parameter data was rebound away from its packed slice")
            parts.append(g.ravel())
        g, s, u, m, v = self._g, self._s, self._u, self.m, self.v
        np.concatenate(parts, out=g)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        m *= b1
        np.multiply(g, 1.0 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, g, out=s)
        s *= 1.0 - b2
        v += s
        # vec -= lr*(m/c1) / (sqrt(v/c2) + eps)
        np.divide(m, c1, out=s)
        s *= self.lr
        np.divide(v, c2, out=u)
        np.sqrt(u, out=u)
        u += self.epsilon
        s /= u
        self.vec -= s
        for p in self.params:
            p.grad = None


def grad_norm(params):
    """Global L2 norm over all accumulated gradients (missing grads count as
    0): one gather and one dot product."""
    grads = [p.grad.ravel() for p in params if p.grad is not None]
    if not grads:
        return 0.0
    g = np.concatenate(grads)
    return math.sqrt(g @ g)


def clip_grad_norm(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm."""
    norm = grad_norm(params)
    if norm > max_norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
