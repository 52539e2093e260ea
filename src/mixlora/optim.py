"""Adam over a fixed parameter list."""

from __future__ import annotations

import numpy as np

from .numerics import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 2e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        # Moments allocated eagerly so the memory census is exact up front.
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def state_bytes(self) -> int:
        return sum(m.nbytes + v.nbytes for m, v in zip(self.m, self.v))
