"""Minimal reverse-mode autodiff on numpy arrays.

Single-threaded, CPU only. Training runs in float32; gradient checking
switches the whole graph to float64 via `use_dtype`.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

_DTYPE = np.float32
_GRAD_ENABLED = True


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible for an op."""


@contextlib.contextmanager
def use_dtype(dtype):
    """Temporarily set the default dtype for newly created tensors."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = prev


@contextlib.contextmanager
def no_grad():
    """Build no autodiff graph: ops inside record no parents and no backward
    closures, and their outputs have `requires_grad` False. For inference."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _tracks(parents) -> bool:
    """True when an op on `parents` must record a graph node."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _child(data, parents) -> "Tensor":
    """Output of an op on `parents`; a graph node when any parent needs grad."""
    rg = _tracks(parents)
    return Tensor(data, requires_grad=rg, _parents=tuple(parents) if rg else ())


def _basic_index(idx) -> bool:
    """True when `idx` selects a view (ints, slices and `...`), so no element
    repeats."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(i, slice) or i is Ellipsis
               or (isinstance(i, (int, np.integer)) and not isinstance(i, bool))
               for i in parts)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    ndiff = grad.ndim - len(shape)
    if ndiff > 0:
        grad = grad.sum(axis=tuple(range(ndiff)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _const(value) -> np.ndarray:
    """`value` as the data of a constant tensor, e.g. the `1 / n` of a mean."""
    return np.asarray(value, dtype=_DTYPE)


def _node_grad(grad: np.ndarray, shape: tuple, dtype) -> np.ndarray:
    """The gradient an interior node of `shape` and `dtype` would hold
    after its first `_accum(grad)`, up to memory order: C-contiguous, as
    that node's copy is, so later sums and matmuls see the same layout."""
    return np.ascontiguousarray(
        _unbroadcast(np.asarray(grad, dtype=dtype), shape))


def _check_matmul(a: np.ndarray, b: np.ndarray):
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")


def _matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray,
                  want_a: bool = True, want_b: bool = True):
    """Gradients of `a @ b` with respect to `a` and to `b`, given `g`; None
    in place of one not wanted, which is then not computed."""
    if b.ndim == 1:
        ga = lambda: np.outer(g, b) if a.ndim == 2 else g * b
        gb = lambda: a.T @ g if a.ndim == 2 else a * g
    elif a.ndim == 1:
        ga, gb = lambda: g @ b.T, lambda: np.outer(a, g)
    elif a.ndim > 2 and b.ndim == 2:
        # a batch of row blocks times one matrix: one gemm over all rows
        ga = lambda: g @ b.T
        gb = lambda: a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    else:
        ga = lambda: _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
        gb = lambda: _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
    return (ga() if want_a else None), (gb() if want_b else None)


def softmax_data(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_sigmoid(x: np.ndarray) -> np.ndarray:
    """sigmoid(2u) in `x`'s dtype, with gelu's u = c·(x + 0.044715·x³), so
    that gelu(x) = 0.5·x·(1 + tanh u) = x·sigmoid(2u). Far in the negative
    tail exp(−2u) overflows to inf and the sigmoid is exactly 0. The cube
    is `x * x * x`: a float32 `x ** 3` calls `powf` per element and takes
    two orders of magnitude longer."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-2.0 * _GELU_C * (x + 0.044715 * (x * x * x))))


def gelu_data(x: np.ndarray) -> np.ndarray:
    """Forward kernel of `Tensor.gelu`, in `x`'s dtype."""
    return x * _gelu_sigmoid(x)


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = ()):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward: Callable[[], None] | None = None
        self._parents = _parents

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- graph machinery -----------------------------------------------------

    def backward(self, grad: np.ndarray | None = None):
        """Accumulate gradients into every leaf that requires them.

        Each node's backward closure is dropped once it has run, which breaks
        the node -> closure -> node cycle so the graph is freed by reference
        counting; a graph can therefore be backpropagated only once. So is
        the gradient of every interior node but `self`, once its closure has
        passed it on: afterwards an interior node's `.grad` is None, as for
        a non-leaf tensor in PyTorch, and only leaves hold gradients.
        `_parents` stay, so the graph can still be walked afterwards.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._parents and node._backward is None:
                raise RuntimeError(
                    "backward() through a graph that was already backpropagated; "
                    "run the forward pass again to build a new graph")
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.asarray(grad, dtype=self.data.dtype)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()
            node._backward = None
            if node._parents and node is not self:
                node.grad = None

    def _accum(self, grad: np.ndarray):
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = _child(self.data + other.data, (self, other))
        if out.requires_grad:
            def _bw():
                self._accum(out.grad)
                other._accum(out.grad)
            out._backward = _bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _child(-self.data, (self,))
        if out.requires_grad:
            out._backward = lambda: self._accum(-out.grad)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        out = _child(self.data * other.data, (self, other))
        if out.requires_grad:
            def _bw():
                self._accum(out.grad * other.data)
                other._accum(out.grad * self.data)
            out._backward = _bw
        return out

    __rmul__ = __mul__

    def __pow__(self, p: float):
        out = _child(self.data ** p, (self,))
        if out.requires_grad:
            out._backward = lambda: self._accum(out.grad * p * self.data ** (p - 1))
        return out

    def matmul(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        _check_matmul(a, b)
        out = _child(a @ b, (self, other))
        if out.requires_grad:
            def _bw():
                # an operand that needs no gradient, such as a constant
                # feature block, has none computed
                ga, gb = _matmul_grads(a, b, out.grad, self.requires_grad,
                                       other.requires_grad)
                self._accum(ga)
                other._accum(gb)
            out._backward = _bw
        return out

    __matmul__ = matmul

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        out = _child(self.data.reshape(*shape), (self,))
        if out.requires_grad:
            out._backward = lambda: self._accum(out.grad.reshape(self.data.shape))
        return out

    def transpose(self, *axes) -> "Tensor":
        axes = axes or None
        out = _child(np.transpose(self.data, axes), (self,))
        if out.requires_grad:
            inv = np.argsort(axes) if axes else None
            out._backward = lambda: self._accum(np.transpose(out.grad, inv))
        return out

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        out = _child(self.data[idx], (self,))
        if out.requires_grad:
            if _basic_index(idx):
                def _bw():
                    if not self.requires_grad:
                        return
                    if self.grad is None:
                        self.grad = np.zeros_like(self.data)
                    self.grad[idx] += out.grad
            else:
                # integer arrays may repeat an index, whose gradients must add
                def _bw():
                    g = np.zeros_like(self.data)
                    np.add.at(g, idx, out.grad)
                    self._accum(g)
            out._backward = _bw
        return out

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        out = _child(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def _bw():
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accum(np.broadcast_to(g, self.data.shape))
            out._backward = _bw
        return out

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinearities -----------------------------------------

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = _child(y, (self,))
        if out.requires_grad:
            out._backward = lambda: self._accum(out.grad * (1.0 - y * y))
        return out

    def sigmoid(self) -> "Tensor":
        y = 1.0 / (1.0 + np.exp(-self.data))
        out = _child(y, (self,))
        if out.requires_grad:
            out._backward = lambda: self._accum(out.grad * y * (1.0 - y))
        return out

    def leaky_relu(self, slope: float) -> "Tensor":
        x = self.data
        out = _child(np.where(x > 0, x, slope * x), (self,))
        if out.requires_grad:
            # the factor is float64; the product is cast to x's dtype
            out._backward = lambda: self._accum(
                (out.grad * np.where(x > 0, 1.0, slope)).astype(x.dtype, copy=False))
        return out

    def relu(self) -> "Tensor":
        return self.leaky_relu(0.0)

    def gelu(self) -> "Tensor":
        """tanh-approximated gelu; smooth, so finite differences stay clean.
        The backward recomputes the sigmoid from the input and stores
        nothing."""
        x = self.data
        out = _child(gelu_data(x), (self,))
        if out.requires_grad:
            def _bw():
                # d/dx x·s(2u) = s + x·s·(1 − s)·2u', u' = c·(1 + 3·0.044715·x²)
                s = _gelu_sigmoid(x)
                self._accum(out.grad * (s + 2.0 * _GELU_C * x * s * (1.0 - s)
                                        * (1.0 + 3 * 0.044715 * (x * x))))
            out._backward = _bw
        return out

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.data)
        out = _child(y, (self,))
        if out.requires_grad:
            out._backward = lambda: self._accum(out.grad * 0.5 / np.maximum(y, 1e-12))
        return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = _child(data, tensors)
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def _bw():
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * data.ndim
                sl[axis] = slice(lo, hi)
                t._accum(out.grad[tuple(sl)])
        out._backward = _bw
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    out = _child(data, tensors)
    if out.requires_grad:
        def _bw():
            for i, t in enumerate(tensors):
                t._accum(np.take(out.grad, i, axis=axis))
        out._backward = _bw
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    y = softmax_data(x.data, axis)
    out = _child(y, (x,))
    if out.requires_grad:
        out._backward = lambda: x._accum(_softmax_grad(y, out.grad, axis))
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = _child(y, (x,))
    if out.requires_grad:
        p = np.exp(y)
        def _bw():
            g = out.grad
            x._accum(g - p * g.sum(axis=axis, keepdims=True))
        out._backward = _bw
    return out


def cross_entropy_label_smoothed(logits: Tensor, target: int | np.ndarray,
                                 eps_ls: float = 0.0) -> Tensor:
    """Negative log-likelihood with label smoothing.

    Target distribution mixes the one-hot target with the uniform
    distribution over all classes by weight `eps_ls`; `eps_ls=0` is plain
    cross entropy. `logits` is (..., n) with integer targets of shape
    `logits.shape[:-1]` (one integer for (n,) logits); the loss is the mean
    over all of them.
    """
    logits = as_tensor(logits)
    logp = log_softmax(logits, axis=-1)
    n = logits.shape[-1]
    idx = np.asarray(target, dtype=np.int64)
    picked = logp[(*np.indices(idx.shape, sparse=True), idx)]
    if eps_ls == 0.0:
        return -picked.mean()
    return -((1.0 - eps_ls) * picked.mean()
             + (eps_ls / n) * logp.sum(axis=-1).mean())


def l2_distance(a: Tensor, b: Tensor) -> Tensor:
    """Euclidean distance between two vectors."""
    d = as_tensor(a) - as_tensor(b)
    return (d * d).sum().sqrt()


# Fused ops. Each is one graph node whose forward repeats, expression by
# expression, the float arithmetic of the graph of elementary ops it
# replaces, and whose backward makes the same `_accum` calls on its parents
# in the same order with the same values. Its parents are listed in the
# order in which that graph reached them, so the backward pass still visits
# the rest of the graph in the same order: results are bitwise those of
# the elementary graph. The forward arithmetic is a `*_data` kernel on plain
# arrays (as are `softmax_data`, `gelu_data` and the attention core's), which
# decoding calls without building a graph, so both share one expression.

def linear_data(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward kernel of `linear`: `x @ w + b`."""
    return x @ w + b


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """`x @ w + b` for a 2-D `w` as one graph node; without `b` it is
    `x @ w`."""
    x = as_tensor(x)
    if b is None:
        return x @ w
    _check_matmul(x.data, w.data)
    out = _child(linear_data(x.data, w.data, b.data), (x, w, b))
    if out.requires_grad:
        def _bw():
            b._accum(out.grad)
            g = _node_grad(out.grad, out.data.shape, out.data.dtype)
            w._accum(x.data.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1]))
            if x.requires_grad:       # not, e.g., rows of a frozen table
                x._accum(g @ w.data.T)
        out._backward = _bw
    return out


def layer_norm_data(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                    eps: float = 1e-5):
    """Forward kernel of `layer_norm`: the output, then the per-row parts
    its backward reads, (mu, inv, var_eps)."""
    inv_n = _const(1.0 / x.shape[-1])
    mu = x.sum(axis=-1, keepdims=True) * inv_n
    centered = x + (-mu)
    var_eps = (centered * centered).sum(axis=-1, keepdims=True) * inv_n + _const(eps)
    inv = var_eps ** -0.5
    normed = centered * inv
    return normed * gain + bias, (mu, inv, var_eps)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    One graph node; its numbers are those of
    `centered * (var + eps) ** -0.5 * gain + bias` with
    `centered = x - x.mean(-1)` and `var = (centered * centered).mean(-1)`
    built from elementary ops. It keeps only per-row arrays: the backward
    recomputes `centered` and `normed` from `x` with the forward's
    expressions, so they are bitwise the forward's.
    """
    x = as_tensor(x)
    y, (mu, inv, var_eps) = layer_norm_data(x.data, gain.data, bias.data, eps)
    out = _child(y, (x, gain, bias))
    if out.requires_grad:
        def _bw():
            p = -0.5
            inv_n = _const(1.0 / x.data.shape[-1])
            centered = x.data + (-mu)
            normed = centered * inv
            g = out.grad
            bias._accum(g)
            g_scaled = _node_grad(g, normed.shape, normed.dtype)
            g_normed = g_scaled * gain.data
            gain._accum(g_scaled * normed)
            g_centered = g_normed * inv
            g_inv = _unbroadcast(g_normed * centered, inv.shape)
            g_var = g_inv * p * var_eps ** (p - 1) * inv_n
            # the square's two factors are one tensor: two accumulations
            g_sq = g_var * centered
            g_centered += g_sq
            g_centered += g_sq
            x._accum(g_centered)
            g_mu = -_unbroadcast(g_centered, inv.shape) * inv_n
            x._accum(np.broadcast_to(g_mu, x.data.shape))
        out._backward = _bw
    return out


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Gather rows of `table` (n, d) by integer `indices`."""
    idx = np.asarray(indices, dtype=np.int64)
    return table[idx]


def parameter(rng: np.random.Generator, *shape, scale: float | None = None) -> Tensor:
    """Trainable tensor with uniform Glorot-style init."""
    if scale is None:
        fan = sum(shape) if len(shape) > 1 else shape[0]
        scale = float(np.sqrt(6.0 / max(fan, 1)))
    data = rng.uniform(-scale, scale, size=shape)
    return Tensor(data, requires_grad=True)


def zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)
