"""Adam: the size of its first step, None gradients, and its state census."""

import numpy as np

from mixlora.numerics import Tensor
from mixlora.optim import EPS, Adam


def test_first_step_moves_each_parameter_by_lr_times_normalised_gradient(rng):
    # Bias correction makes m/c1 = g and sqrt(v/c2) = |g| after one step.
    p = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    start = p.data.copy()
    g = rng.normal(size=(3, 4))
    p.grad = g.copy()
    Adam([p], lr=0.1).step()
    np.testing.assert_allclose(start - p.data, 0.1 * g / (np.abs(g) + EPS),
                               rtol=1e-12, atol=0)


def test_none_gradient_counts_as_zero(rng):
    a = Tensor(rng.normal(size=5), requires_grad=True)
    b = Tensor(a.data.copy(), requires_grad=True)
    opt_a, opt_b = Adam([a], lr=0.1), Adam([b], lr=0.1)
    g = rng.normal(size=5)
    a.grad, b.grad = g.copy(), g.copy()
    opt_a.step()
    opt_b.step()
    after_first = a.data.copy()
    opt_a.zero_grad()
    assert a.grad is None
    b.grad = np.zeros(5)
    opt_a.step()
    opt_b.step()
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, after_first)  # the first moment still moves it


def test_state_bytes_is_twice_the_parameter_bytes():
    params = [Tensor(np.zeros((4, 3), dtype=np.float32), requires_grad=True),
              Tensor(np.zeros(7), requires_grad=True)]
    opt = Adam(params)
    assert opt.state_bytes() == 2 * (4 * 3 * 4 + 7 * 8)
