import tracemalloc

import numpy as np
import pytest

import ops
from qprune.errors import DimensionError
from qprune.layers import Param
from qprune.optim import Adam
from qprune.tensor import Tape, Tensor


def scalar_param(value: float) -> Param:
    return Param("w", Tensor(np.array(value, dtype=np.float64), requires_grad=True), True)


def test_first_step_magnitude_is_learning_rate():
    for g in (0.5, -3.0, 1e-3):
        p = scalar_param(1.0)
        p.tensor.grad = np.array(g)
        opt = Adam([p], lr=0.01)
        opt.step()
        delta = float(p.tensor.data) - 1.0
        # bias-corrected m/sqrt(v) is sign(g) up to eps
        assert delta == pytest.approx(-np.sign(g) * 0.01, rel=1e-4)


def test_zero_gradient_leaves_parameters_unchanged():
    p = scalar_param(2.5)
    p.tensor.grad = np.array(0.0)
    opt = Adam([p], lr=0.1)
    for _ in range(5):
        opt.step()
        p.tensor.grad = np.array(0.0)
    assert float(p.tensor.data) == 2.5


def adam_reference(w0: float, lr: float, steps: int) -> float:
    """Independent reimplementation: quadratic loss w^2/2, gradient w."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    w, m, v = w0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = w
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def test_three_step_quadratic_matches_reference():
    p = scalar_param(1.7)
    opt = Adam([p], lr=0.05)
    for _ in range(3):
        with Tape() as tape:
            loss = ops.scale(ops.mul(p.tensor, p.tensor), 0.5)
        tape.backward(loss)
        opt.step()
    assert float(p.tensor.data) == pytest.approx(adam_reference(1.7, 0.05, 3), abs=1e-10)


def test_masked_positions_receive_no_update():
    data = np.array([1.0, -2.0, 0.0, 3.0])
    p = Param("w", Tensor(data.copy(), requires_grad=True), True)
    mask = {"w": np.array([1, 1, 0, 1], dtype=np.uint8)}
    p.tensor.data[2] = 0.0
    opt = Adam([p], lr=0.1)
    for _ in range(100):
        p.tensor.grad = np.ones(4)
        opt.step(mask)
    assert p.tensor.data[2] == 0.0  # bit-exact
    assert all(p.tensor.data[i] != data[i] for i in (0, 1, 3))


def test_step_consumes_gradient():
    p = scalar_param(1.0)
    p.tensor.grad = np.array(1.0)
    Adam([p], lr=0.1).step()
    assert p.tensor.grad is None


def test_mask_shape_mismatch():
    p = Param("w", Tensor(np.zeros(4), requires_grad=True), True)
    p.tensor.grad = np.ones(4)
    with pytest.raises(DimensionError):
        Adam([p], lr=0.1).step({"w": np.ones(5, dtype=np.uint8)})


def test_state_invariants_hold_across_steps():
    p = Param("w", Tensor(np.array([1.0, -2.0]), requires_grad=True), True)
    opt = Adam([p], lr=0.01)
    rng = np.random.default_rng(0)
    for expected_t in range(1, 20):
        p.tensor.grad = rng.standard_normal(2)
        opt.step()
        assert opt.t == expected_t  # strictly +1 per step
        assert np.all(opt.v[0] >= 0.0)
        assert opt.m[0].shape == p.tensor.data.shape


# ---------------------------------------------------------------------------
# in-place update against the allocating one


class AllocatingAdam:
    """The allocating update the in-place step must reproduce bit for bit."""

    def __init__(self, datas, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.data = [d.copy() for d in datas]
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(d) for d in datas]
        self.v = [np.zeros_like(d) for d in datas]

    def step(self, grads, masks=None):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for i, data in enumerate(self.data):
            g = grads[i] if grads[i] is not None else np.zeros_like(data)
            pm = masks[i] if masks is not None else None
            if pm is not None:
                g = g * pm
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(data.dtype, copy=False)
            if pm is not None:
                data *= pm


SHAPES = [(), (7,), (5, 3)]


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_step_is_bit_identical_to_the_allocating_update(dtype, masked):
    rng = np.random.default_rng(21)
    datas = [rng.standard_normal(s).astype(dtype) for s in SHAPES]
    masks = [(rng.random(s) < 0.7).astype(np.uint8) for s in SHAPES] if masked else None
    if masked:
        masks[0] = np.array(1, dtype=np.uint8)
        for d, pm in zip(datas, masks):
            d *= pm
    params = [Param(f"p{i}", Tensor(d.copy(), requires_grad=True), True) for i, d in enumerate(datas)]
    opt = Adam(params, lr=0.01)
    ref = AllocatingAdam(datas, lr=0.01)
    mask = {p.name: pm for p, pm in zip(params, masks)} if masked else None
    moments = opt.m + opt.v
    for step in range(20):
        grads = [rng.standard_normal(s).astype(dtype) for s in SHAPES]
        if step % 7 == 3:
            grads[1] = None  # a parameter the loss did not reach
        kept = [None if g is None else g.copy() for g in grads]
        for p, g in zip(params, grads):
            p.tensor.grad = g
        opt.step(mask)
        ref.step(grads, masks)
        for g, k in zip(grads, kept):
            np.testing.assert_array_equal(g, k)  # read, never written into
        assert all(p.tensor.grad is None for p in params)
    assert all(a is b for a, b in zip(opt.m + opt.v, moments))  # updated in place
    for i, p in enumerate(params):
        assert p.tensor.data.dtype == dtype
        np.testing.assert_array_equal(p.tensor.data, ref.data[i])
        np.testing.assert_array_equal(opt.m[i], ref.m[i])
        np.testing.assert_array_equal(opt.v[i], ref.v[i])


@pytest.mark.parametrize("masked", [False, True])
def test_step_allocates_less_than_one_parameter(masked):
    rng = np.random.default_rng(24)
    p = Param("w", Tensor(rng.standard_normal((256, 64)).astype(np.float32), requires_grad=True), True)
    mask = {"w": (rng.random((256, 64)) < 0.5).astype(np.uint8)} if masked else None
    opt = Adam([p], lr=0.01)
    p.tensor.grad = rng.standard_normal((256, 64)).astype(np.float32)
    opt.step(mask)
    p.tensor.grad = rng.standard_normal((256, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        opt.step(mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.tensor.data.nbytes, f"a step allocated {peak} bytes"
