import numpy as np
import pytest

from ekgen import diffkit as dk


def test_adam_no_gradient_leaves_params_unchanged():
    p = dk.Tensor(np.ones(4), requires_grad=True)
    opt = dk.Adam({"p": p})
    before = p.data.copy()
    opt.step(0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adam_constant_gradient_approaches_lr_times_sign():
    with dk.use_dtype(np.float64):
        p = dk.Tensor(np.zeros(3), requires_grad=True)
        opt = dk.Adam({"p": p})
        g = np.array([2.0, -0.5, 7.0])
        lr = 0.01
        prev = p.data.copy()
        for _ in range(2000):
            p.grad = g.copy()
            prev = p.data.copy()
            opt.step(lr)
        update = p.data - prev
        np.testing.assert_allclose(update, -lr * np.sign(g), rtol=1e-3)


def test_adam_step_counter_increments():
    p = dk.Tensor(np.zeros(2), requires_grad=True)
    opt = dk.Adam({"p": p})
    assert opt.step_count == 0
    p.grad = np.ones(2)
    opt.step(0.1)
    assert opt.step_count == 1
    opt.step(0.1)
    assert opt.step_count == 2


def test_lr_schedule_branches_equal_at_warmup():
    warmup = 5000
    at = dk.lr_schedule(warmup, 64, warmup, 1.0)
    linear = 64 ** -0.5 * warmup * warmup ** -1.5
    decay = 64 ** -0.5 * warmup ** -0.5
    assert at == pytest.approx(linear, rel=1e-12)
    assert at == pytest.approx(decay, rel=1e-12)


def test_lr_schedule_linear_region_ratio():
    ratio = (dk.lr_schedule(2500, 64, 5000, 1.0)
             / dk.lr_schedule(5000, 64, 5000, 1.0))
    assert ratio == pytest.approx(0.5, rel=1e-12)


def test_lr_schedule_monotone_decay_after_warmup():
    vals = [dk.lr_schedule(s, 64, 100, 1.0) for s in range(100, 1000, 17)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lr_schedule_rejects_step_zero():
    with pytest.raises(ValueError):
        dk.lr_schedule(0, 64, 100, 1.0)


def test_lr_schedule_scale_is_linear():
    assert dk.lr_schedule(10, 64, 100, scale=2.0) == pytest.approx(
        2.0 * dk.lr_schedule(10, 64, 100, scale=1.0), rel=1e-12)
