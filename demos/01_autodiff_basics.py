"""
Reverse-mode gradients on the tape
==================================

Build a tiny expression graph, run backward, and cross-check one gradient
against a central finite difference.
"""

import numpy as np

from trajgan import tensor as T
from trajgan.tensor import Tape, Tensor

# two small leaf matrices; requires_grad marks them as trainable
rng = np.random.default_rng(0)
W = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)


def loss_value():
    # a little network: affine map, nonlinearity, scalar readout
    h = T.tanh(T.matmul(x, W))
    return T.tsum(T.mul(h, h))


# forward and backward run inside a tape, which records every op
with Tape():
    loss = loss_value()
    T.backward(loss)

print("loss:", float(loss.data))
print("dloss/dW:\n", W.grad)

# finite-difference check of one coordinate of W
h = 1e-6
orig = W.data[1, 0]
W.data[1, 0] = orig + h
up = float(loss_value().data)
W.data[1, 0] = orig - h
down = float(loss_value().data)
W.data[1, 0] = orig

fd = (up - down) / (2 * h)
print(f"W[1,0]: backward {W.grad[1, 0]:.10f} vs finite diff {fd:.10f}")

# gradients accumulate across backward calls until cleared, as Adam.step does
W.grad = None
print("after clearing:", W.grad)
