"""Adam over an adapter set's flat parameter and gradient buffers.

One elementwise pass updates the whole buffer, with the same bits as a loop
over the tensors that view it; an entry the loss did not reach reads zero."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, data: np.ndarray, grad: np.ndarray, lr: float = 2e-4):
        self.data = data
        self.grad = grad
        self.lr = lr
        self.t = 0
        # Up front, so the census is exact; np.zeros leaves pages untouched.
        self.m = np.zeros(data.size, data.dtype)
        self.v = np.zeros(data.size, data.dtype)

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        g, m, v = self.grad, self.m, self.v
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        self.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)

    def zero_grad(self) -> None:
        self.grad.fill(0)

    def state_bytes(self) -> int:
        return self.m.nbytes + self.v.nbytes
