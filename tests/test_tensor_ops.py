import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekgen import diffkit as dk
from ekgen.diffkit.tensor import gelu_data


def test_softmax_symmetry():
    out = dk.softmax(dk.Tensor([0.0, 0.0, 0.0])).numpy()
    np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-7)


def test_softmax_worked_two_class():
    out = dk.softmax(dk.Tensor([np.log(3.0), 0.0])).numpy()
    np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
def test_softmax_sums_to_one_and_positive(vals):
    out = dk.softmax(dk.Tensor(vals)).numpy()
    assert abs(out.sum() - 1.0) <= 1e-6
    assert (out > 0).all()


def test_cross_entropy_zero_when_target_certain():
    # logits so extreme the softmax is numerically one-hot
    logits = dk.Tensor([100.0, 0.0, 0.0])
    loss = dk.cross_entropy_label_smoothed(logits, 0, 0.0)
    assert loss.item() == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_label_smoothing_mixes_uniform():
    with dk.use_dtype(np.float64):
        logits = dk.Tensor(np.array([0.3, -1.2, 0.7, 0.1]))
        logp = dk.log_softmax(logits).numpy()
        eps = 0.1
        expected = -((1 - eps) * logp[2] + eps / 4 * logp.sum())
        loss = dk.cross_entropy_label_smoothed(logits, 2, eps)
        assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_matmul_shape_error():
    a = dk.Tensor(np.zeros((2, 3)))
    b = dk.Tensor(np.zeros((4, 2)))
    with pytest.raises(dk.ShapeMismatch):
        a @ b


def _matmul_backward(a, b, a_learned, b_learned):
    ta = dk.Tensor(a, requires_grad=a_learned)
    tb = dk.Tensor(b, requires_grad=b_learned)
    (ta @ tb).sum().backward()
    return ta, tb


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2, 5, 3), (2, 3, 4)), ((5, 3), (3, 4)), ((2, 5, 3), (3, 4)),
    ((3,), (3, 4)), ((5, 3), (3,))])
@pytest.mark.parametrize("constant", ["left", "right"])
def test_matmul_backward_computes_no_gradient_for_a_constant(
        monkeypatch, a_shape, b_shape, constant):
    """The backward of `a @ b` does not compute the gradient of an operand
    that needs none, such as phase 1's constant feature block, and computes
    the other's as when both are wanted."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
    both = _matmul_backward(a, b, True, True)
    handed = []
    accum = dk.Tensor._accum

    def spy(self, grad):
        handed.append((self, grad))
        accum(self, grad)
    monkeypatch.setattr(dk.Tensor, "_accum", spy)
    ta, tb = _matmul_backward(a, b, constant == "right", constant == "left")
    k = 0 if constant == "left" else 1
    assert [g is None for t, g in handed if t is (ta, tb)[k]] == [True]
    np.testing.assert_array_equal((ta, tb)[1 - k].grad, both[1 - k].grad)


def test_backward_through_concat_and_slice():
    v = dk.Tensor([1.0, 2.0], requires_grad=True)
    w = dk.Tensor([3.0, 4.0], requires_grad=True)
    out = (dk.concat([v, w])[1:3] ** 2).sum()
    out.backward()
    np.testing.assert_allclose(v.grad, [0.0, 4.0])
    np.testing.assert_allclose(w.grad, [6.0, 0.0])


def test_broadcast_gradient_unbroadcasts():
    a = dk.Tensor(np.ones((3, 4)), requires_grad=True)
    b = dk.Tensor(np.ones(4), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    np.testing.assert_allclose(b.grad, 3.0 * np.ones(4))


def test_l2_distance_known_value():
    a = dk.Tensor([0.0, 3.0])
    b = dk.Tensor([4.0, 0.0])
    assert dk.l2_distance(a, b).item() == pytest.approx(5.0, abs=1e-6)


def test_layer_norm_zero_mean_unit_var():
    x = dk.Tensor(np.random.default_rng(0).standard_normal((5, 8)))
    gain = dk.Tensor(np.ones(8))
    bias = dk.Tensor(np.zeros(8))
    y = dk.layer_norm(x, gain, bias).numpy()
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)


def test_embedding_lookup_repeated_index_accumulates_grad():
    table = dk.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = dk.embedding_lookup(table, [1, 1, 2]).sum()
    out.backward()
    np.testing.assert_allclose(table.grad[1], [2.0, 2.0, 2.0])
    np.testing.assert_allclose(table.grad[2], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(table.grad[0], 0.0)


def test_use_dtype_switches_new_tensors():
    assert dk.Tensor([1.0]).data.dtype == np.float32
    with dk.use_dtype(np.float64):
        assert dk.Tensor([1.0]).data.dtype == np.float64
    assert dk.Tensor([1.0]).data.dtype == np.float32


def test_forward_ops_finite_on_finite_input():
    rng = np.random.default_rng(1)
    x = dk.Tensor(rng.standard_normal((4, 4)))
    for op in (lambda t: t.tanh(), lambda t: t.sigmoid(), lambda t: t.gelu(),
               lambda t: t.leaky_relu(0.2), lambda t: dk.softmax(t),
               lambda t: dk.log_softmax(t)):
        assert np.isfinite(op(x).numpy()).all()


def _gelu_float64(x):
    x = x.astype(np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                    * (x + 0.044715 * x ** 3)))


def test_gelu_float32_matches_the_float64_formula():
    x = np.linspace(-20, 20, 400001, dtype=np.float32)
    y = dk.Tensor(x).gelu().numpy()
    assert y.dtype == np.float32
    # below 1e-8, in the negative tail, the float32 cube's round-off shows
    np.testing.assert_allclose(y, _gelu_float64(x), rtol=1e-6, atol=1e-8)


class _DtypeSpy(np.ndarray):
    """An array that records the dtype of every ufunc result computed from
    it, and passes itself on to those results."""

    seen: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [a.view(np.ndarray) if isinstance(a, _DtypeSpy) else a
                 for a in inputs]
        result = getattr(ufunc, method)(*plain, **kwargs)
        _DtypeSpy.seen.append(result.dtype)
        return result.view(_DtypeSpy)


def test_gelu_data_on_float32_creates_no_float64_array():
    x = np.linspace(-6, 6, 101, dtype=np.float32).view(_DtypeSpy)
    _DtypeSpy.seen = []
    y = gelu_data(x)
    assert len(_DtypeSpy.seen) > 5
    assert set(_DtypeSpy.seen) == {np.dtype(np.float32)}
    assert y.dtype == np.float32


def test_gelu_where_the_cube_overflows_matches_the_powf_form():
    x = np.array([-1e13, -7.5e12, 7.5e12, 1e13], dtype=np.float32)
    t = dk.Tensor(x, requires_grad=True)
    c = np.sqrt(2.0 / np.pi)
    with np.errstate(over="ignore"):
        y = t.gelu()
        y.sum().backward()
        th = np.tanh(c * (x + 0.044715 * x ** 3))
        want = 0.5 * x * (1.0 + th)
        dwant = (0.5 * (1.0 + th)
                 + 0.5 * x * (1.0 - th * th) * c * (1.0 + 3 * 0.044715 * x ** 2))
        assert np.isinf(x ** 3).all()
    assert np.array_equal(y.numpy(), want.astype(np.float32))
    assert np.array_equal(y.numpy(), np.where(x > 0, x, 0.0))
    assert np.array_equal(t.grad, dwant.astype(np.float32))


def test_backward_requires_scalar():
    x = dk.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_basic_slices_write_gradient_into_place():
    x = dk.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    out = (x[1:, ::2].sum() + (x[0] * 2).sum() + x[2, 3] + x[np.int64(2)].sum()
           + x[..., 1:2].sum())
    out.backward()
    expected = np.array([[2, 3, 2, 2], [1, 1, 1, 0], [2, 2, 2, 2]], dtype=float)
    np.testing.assert_array_equal(x.grad, expected)


def test_no_grad_builds_no_graph():
    w = dk.Tensor(np.ones((3, 3)), requires_grad=True)
    x = dk.Tensor(np.ones(3))
    with dk.no_grad():
        outs = [x @ w, dk.softmax(x @ w), dk.concat([w, w]), dk.stack([w, w]),
                dk.log_softmax(w), w[0], (w * 2).sum()]
    for out in outs:
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None
    assert (x @ w).requires_grad


def test_no_grad_nests_and_restores_after_exception():
    w = dk.Tensor(np.ones(2), requires_grad=True)
    with dk.no_grad():
        with dk.no_grad():
            pass
        assert not (w * 2).requires_grad
    assert (w * 2).requires_grad
    with pytest.raises(KeyError):
        with dk.no_grad():
            raise KeyError("boom")
    assert (w * 2).requires_grad


def test_backward_frees_closures_and_refuses_a_second_pass():
    w = dk.Tensor(np.ones(3), requires_grad=True)
    hidden = w * 3
    loss = (hidden * hidden).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, 18.0)
    assert loss._backward is None and hidden._backward is None
    assert loss._parents            # the graph can still be walked
    with pytest.raises(RuntimeError, match="already backpropagated"):
        loss.backward()
    # a new output over part of the spent graph cannot reach `w` either
    with pytest.raises(RuntimeError, match="already backpropagated"):
        (hidden * 2).sum().backward()


def _perfbench_graph_nodes():
    """`graph_nodes` of perfbench's spans, which its `after_backward` hook
    calls on a loss after `backward()` has run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.graph_nodes


def test_backward_frees_interior_gradients_and_keeps_leaf_gradients():
    graph_nodes = _perfbench_graph_nodes()
    rng = np.random.default_rng(4)
    layer = dk.TransformerEncoderLayer(rng, 8, 2, 16)
    x = dk.Tensor(rng.standard_normal((5, 8)), requires_grad=True)
    loss = (layer(x) * dk.Tensor(rng.standard_normal((5, 8)))).sum()
    nodes, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t._parents)
    interior = [t for t in nodes.values() if t._parents and t is not loss]
    leaves = [t for t in nodes.values() if not t._parents and t.requires_grad]
    before = graph_nodes(loss)
    loss.backward()
    assert len(interior) > 10 and len(leaves) == len(layer.parameters()) + 1
    assert all(t.grad is None for t in interior)
    assert all(t.grad is not None for t in leaves)
    assert loss.grad is not None
    assert graph_nodes(loss) == before
