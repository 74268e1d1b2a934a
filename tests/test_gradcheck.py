import numpy as np
import pytest

from ekgen import diffkit as dk


def test_quadratic_gradient_tight():
    with dk.use_dtype(np.float64):
        x = dk.Tensor(np.array([0.5, -1.2, 2.0]), requires_grad=True)
        assert dk.grad_check(lambda: (x * x).sum(), {"x": x}) < 1e-8


def test_grad_check_requires_scalar():
    x = dk.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        dk.grad_check(lambda: x * 2, {"x": x})


def test_grad_check_flags_wrong_gradient():
    with dk.use_dtype(np.float64):
        x = dk.Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def broken():
            out = dk.Tensor(float((x.data ** 2).sum()), requires_grad=True,
                            _parents=(x,))
            # deliberately wrong backward rule: gradient x instead of 2x
            out._backward = lambda: x._accum(out.grad * x.data)
            return out

        assert dk.grad_check(broken, {"x": x}) > 0.1
