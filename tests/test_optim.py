"""Adam over a flat buffer: its first step, its equality with a per-tensor
update, zero_grad, and its state census."""

import numpy as np
import pytest

from mixlora.optim import BETA1, BETA2, EPS, Adam


def test_first_step_moves_each_parameter_by_lr_times_normalised_gradient(rng):
    # Bias correction makes m/c1 = g and sqrt(v/c2) = |g| after one step.
    data = rng.normal(size=12)
    start = data.copy()
    g = rng.normal(size=12)
    Adam(data, g.copy(), lr=0.1).step()
    np.testing.assert_allclose(start - data, 0.1 * g / (np.abs(g) + EPS),
                               rtol=1e-12, atol=0)


def per_tensor_adam(params, grads, lr, steps):
    """The update one tensor at a time, as a loop over (parameter, m, v)."""
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        c1 = 1.0 - BETA1**t
        c2 = 1.0 - BETA2**t
        for p, g, m, v in zip(params, grads[t - 1], ms, vs):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_update_is_bit_equal_to_a_per_tensor_update(rng, dtype):
    shapes = [(3, 5), (7,), (4, 2), (6, 1)]
    sizes = [int(np.prod(s)) for s in shapes]
    params = [rng.normal(size=s).astype(dtype) for s in shapes]
    steps = 5
    grads = [[rng.normal(size=s).astype(dtype) for s in shapes] for _ in range(steps)]
    for step in grads:
        step[2][...] = 0  # a tensor the loss never reaches
    data = np.concatenate([p.ravel() for p in params])
    grad = np.zeros_like(data)
    opt = Adam(data, grad, lr=1e-2)
    for step in grads:
        grad[...] = np.concatenate([g.ravel() for g in step])
        opt.step()
        opt.zero_grad()
    per_tensor_adam(params, grads, 1e-2, steps)
    for p, flat in zip(params, np.split(data, np.cumsum(sizes)[:-1])):
        assert np.array_equal(flat.reshape(p.shape), p)


def test_zero_grad_zeroes_the_buffer_in_place_and_the_first_moment_still_moves(rng):
    data = rng.normal(size=5)
    grad = rng.normal(size=5)
    opt = Adam(data, grad, lr=0.1)
    opt.step()
    after_first = data.copy()
    opt.zero_grad()
    assert opt.grad is grad and not grad.any()
    opt.step()
    assert not np.array_equal(data, after_first)


def test_state_bytes_is_twice_the_parameter_bytes():
    for dtype, itemsize in ((np.float32, 4), (np.float64, 8)):
        opt = Adam(np.zeros(19, dtype), np.zeros(19, dtype))
        assert opt.state_bytes() == 2 * 19 * itemsize
