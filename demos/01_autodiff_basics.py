"""
Reverse-mode gradients on the tape
==================================

Build a tiny network from the ops the models use, run backward, and
cross-check one gradient against a central finite difference.
"""

import numpy as np

from trajgan import tensor as T
from trajgan.tensor import Tape, Tensor

# a two-layer MLP's leaf parameters; requires_grad marks them as trainable
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
W1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
b1 = Tensor(np.zeros(5), requires_grad=True)
W2 = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
b2 = Tensor(np.zeros(1), requires_grad=True)
labels = np.array([[1.0], [0.0], [1.0], [0.0]])


def loss_value():
    # affine map, leaky ReLU, affine readout as one tape node, then the
    # discriminator's binary cross entropy of the logits against the labels
    logits = T.mlp(x, [(W1, b1), (W2, b2)], "leaky_relu", 0.2)
    return T.bce_logits(logits, labels)


# forward and backward run inside a tape, which records every op
with Tape() as tape:
    loss = loss_value()
    T.backward(loss)

print("loss:", float(loss.data), f"({len(tape.nodes)} tape nodes)")
print("dloss/dW1:\n", W1.grad)

# finite-difference check of one coordinate of W1
h = 1e-6
orig = W1.data[1, 0]
W1.data[1, 0] = orig + h
up = float(loss_value().data)
W1.data[1, 0] = orig - h
down = float(loss_value().data)
W1.data[1, 0] = orig

fd = (up - down) / (2 * h)
print(f"W1[1,0]: backward {W1.grad[1, 0]:.10f} vs finite diff {fd:.10f}")

# gradients accumulate across backward calls until cleared, as Adam.step does
W1.grad = None
print("after clearing:", W1.grad)
