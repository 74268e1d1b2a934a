"""Trainable layers built on the tensor engine: LSTM, attention, transformer."""

from __future__ import annotations

import numpy as np

from .tensor import (Tensor, _child, _const, _matmul_grads, _node_grad,
                     _softmax_grad, _tracks, as_tensor, gelu_data,
                     layer_norm, layer_norm_data, linear, linear_data,
                     parameter, softmax_data, zeros)


class Module:
    """Base for layers; parameters() flattens the nested name->Tensor map."""

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, val in vars(self).items():
            if isinstance(val, Tensor) and val.requires_grad:
                out[name] = val
            elif isinstance(val, Module):
                for k, v in val.parameters().items():
                    out[f"{name}.{k}"] = v
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        for k, v in item.parameters().items():
                            out[f"{name}.{i}.{k}"] = v
        return out

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()

    def load_state(self, state: dict[str, np.ndarray]):
        """Set each parameter to its array in `state`. A state whose names or
        shapes are not the parameters' raises ValueError naming them."""
        params = self.parameters()
        missing = set(params) ^ set(state)
        if missing:
            raise ValueError(f"checkpoint/model parameter mismatch: {sorted(missing)}")
        for name, p in params.items():
            shape = np.shape(state[name])
            if shape != p.data.shape:
                raise ValueError(f"parameter {name!r} has shape {list(shape)}, "
                                 f"not {list(p.data.shape)}")
            p.data = np.asarray(state[name], dtype=p.data.dtype)

    def state(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.parameters().items()}


class Linear(Module):
    def __init__(self, rng, d_in: int, d_out: int, bias: bool = True):
        self.w = parameter(rng, d_in, d_out)
        self.b = zeros(d_out) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """`self(x)` on an array, without a graph."""
        return linear_data(x, self.w.data, self.b.data)


class LSTMCell(Module):
    """Parameters of a standard LSTM cell; gate order i, f, g, o.

    `lstm_sequence` runs one cell over a whole sequence; `bilstm_layer`
    runs a forward and a backward cell in one time loop.
    """

    def __init__(self, rng, d_in: int, d_hidden: int):
        self.d_hidden = d_hidden
        self.w_ih = parameter(rng, d_in, 4 * d_hidden)
        self.w_hh = parameter(rng, d_hidden, 4 * d_hidden)
        self.b = zeros(4 * d_hidden)


def _recur(xs: np.ndarray, w_hh: np.ndarray, n: int, track: bool):
    """An LSTM run from a zero state over the input projections `xs`
    (steps, ..., 4n), bias included, in their order. Returns the hidden
    states in that order and, when `track`, the caches its backward reads:
    the gates after their nonlinearity (i, f, g, o), the cell states and
    their tanh."""
    hs = np.empty(xs.shape[:-1] + (n,), dtype=xs.dtype)
    if track:
        caches = np.empty_like(xs), np.empty_like(hs), np.empty_like(hs)
    h = np.zeros(hs.shape[1:], dtype=xs.dtype)
    c = np.zeros_like(h)
    for k in range(len(xs)):
        z = xs[k] + h @ w_hh
        act = 1.0 / (1.0 + np.exp(-z))
        act[..., 2 * n:3 * n] = np.tanh(z[..., 2 * n:3 * n])
        i, f, g, o = (act[..., j * n:(j + 1) * n] for j in range(4))
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        hs[k] = h
        if track:
            caches[0][k], caches[1][k], caches[2][k] = act, c, tc
    return hs, (caches if track else None)


def _shifted(a: np.ndarray) -> np.ndarray:
    """The state each step of a step-ordered `a` read: the previous step's,
    or zero at the first."""
    prev = np.zeros_like(a)
    prev[1:] = a[:-1]
    return prev


def _bptt(gates, cs, tcs, dh_out, w_hh, n: int) -> np.ndarray:
    """Backpropagation through time over `_recur`'s caches, given the
    gradient of each step's hidden state: the gradients of the gate
    pre-activations, in step order. The gate derivatives are taken for all
    steps at once, so each step does only its recurrent products."""
    d_act = gates * (1.0 - gates)                    # sigmoid' of i, f, o
    g = gates[..., 2 * n:3 * n]
    d_act[..., 2 * n:3 * n] = 1.0 - g * g            # tanh' of g
    d_c = gates[..., 3 * n:] * (1.0 - tcs * tcs)     # dh -> dc through tanh(c)
    c_prev = _shifted(cs)
    dz = np.empty_like(gates)
    dh = np.zeros_like(dh_out[0])
    dc = np.zeros_like(dh)
    w_hh_t = np.swapaxes(w_hh, -1, -2)
    for k in reversed(range(len(gates))):
        i, f, g = (gates[k, ..., j * n:(j + 1) * n] for j in range(3))
        dh = dh + dh_out[k]
        dc = dc + dh * d_c[k]
        z = dz[k]
        z[..., 0:n] = dc * g
        z[..., n:2 * n] = dc * c_prev[k]
        z[..., 2 * n:3 * n] = dc * i
        z[..., 3 * n:] = dh * tcs[k]
        z *= d_act[k]
        dc = dc * f
        dh = z @ w_hh_t
    return dz


def _accum_cell_grads(cell: LSTMCell, x: np.ndarray, h_prev: np.ndarray,
                      dz: np.ndarray):
    """`cell`'s weight gradients from the steps' inputs `x`, the hidden
    states they read `h_prev` and their pre-activation gradients `dz`, all
    in time order, each one gemm (or sum) over all rows."""
    flat = dz.reshape(-1, dz.shape[-1])
    cell.w_ih._accum(x.reshape(-1, x.shape[-1]).T @ flat)
    cell.w_hh._accum(h_prev.reshape(-1, h_prev.shape[-1]).T @ flat)
    cell.b._accum(flat.sum(axis=0))


def lstm_sequence(x: Tensor, cell: LSTMCell, reverse: bool = False) -> Tensor:
    """Hidden states of `cell` run from a zero state over the leading axis of
    `x` (T, ..., d_in), as one autodiff node of shape (T, ..., d_hidden).

    The input projection is one matmul over all T steps; each step adds only
    its recurrent term. With `reverse` the steps run from T - 1 down to 0, and
    row t is still the state after reading step t. The backward pass is
    backpropagation through time over the gates cached here, which are kept
    only when a graph is being built.

    One direction alone: the reference `bilstm_layer` is tested against.
    """
    x = as_tensor(x)
    parents = (x, cell.w_ih, cell.w_hh, cell.b)
    track = _tracks(parents)
    n = cell.d_hidden
    run = slice(None, None, -1) if reverse else slice(None)   # time <-> step
    xw = x.data @ cell.w_ih.data + cell.b.data
    hs, caches = _recur(xw[run], cell.w_hh.data, n, track)
    out = _child(hs[run], parents)
    if not track:
        return out

    def _bw():
        dz = np.ascontiguousarray(
            _bptt(*caches, out.grad[run], cell.w_hh.data, n)[run])
        _accum_cell_grads(cell, x.data, _shifted(hs)[run], dz)
        if x.requires_grad:
            x._accum(dz @ cell.w_ih.data.T)
    out._backward = _bw
    return out


def bilstm_layer(x: Tensor, fwd: LSTMCell, bwd: LSTMCell) -> Tensor:
    """`concat([lstm_sequence(x, fwd), lstm_sequence(x, bwd, reverse=True)],
    axis=-1)` as one autodiff node, equal to it in value and in every
    gradient.

    Both directions advance in one time loop: step k reads time k forward
    and time T - 1 - k backward, with the two states stacked on a leading
    axis of 2 and one batched `h @ w_hh` over both directions' weights. The
    sequence axes `x.shape[1:-1]` are flattened into one column axis inside.
    Gates are cached only when a graph is being built.
    """
    x = as_tensor(x)
    cells = (fwd, bwd)
    parents = (x, fwd.w_ih, fwd.w_hh, fwd.b, bwd.w_ih, bwd.w_hh, bwd.b)
    track = _tracks(parents)
    n = fwd.d_hidden
    T = x.shape[0]
    m = int(np.prod(x.shape[1:-1], dtype=np.int64))
    # each direction's input projection over all steps, as lstm_sequence's,
    # in step order: [k, 0] is forward time k, [k, 1] backward time T - 1 - k
    xs = np.stack([(x.data @ fwd.w_ih.data + fwd.b.data).reshape(T, m, 4 * n),
                   (x.data @ bwd.w_ih.data + bwd.b.data)
                   .reshape(T, m, 4 * n)[::-1]], axis=1)
    w_hh = np.stack([fwd.w_hh.data, bwd.w_hh.data])
    hs, caches = _recur(xs, w_hh, n, track)
    y = np.concatenate([hs[:, 0], hs[::-1, 1]], axis=-1)
    out = _child(y.reshape(x.shape[:-1] + (2 * n,)), parents)
    if not track:
        return out

    def _bw():
        grad = out.grad.reshape(T, m, 2 * n)
        dh_out = np.stack([grad[..., :n], grad[::-1, ..., n:]], axis=1)
        dz = _bptt(*caches, dh_out, w_hh, n)
        h_prev = _shifted(hs)
        # each direction's gradients summed over its rows in time order
        for d, cell in enumerate(cells):
            run = slice(None, None, -1) if d else slice(None)   # step -> time
            dz_d = dz[run, d]
            _accum_cell_grads(cell, x.data, h_prev[run, d], dz_d)
            if x.requires_grad:
                dz_x = dz_d.reshape(x.shape[:-1] + (4 * n,))
                x._accum(dz_x @ cell.w_ih.data.T)
    out._backward = _bw
    return out


class BiLSTM(Module):
    """Stacked bidirectional LSTM over a (T, ..., d_in) sequence.

    Output at step t is concat(forward h_t, backward h_t), so the feature
    width is 2 * d_hidden. Each layer is one `bilstm_layer` node, run over
    all T steps; callers that need some (time, sequence) rows index the
    output.
    """

    def __init__(self, rng, d_in: int, d_hidden: int, n_layers: int = 2):
        self.n_layers = n_layers
        self.d_hidden = d_hidden
        self.fwd = []
        self.bwd = []
        d = d_in
        for _ in range(n_layers):
            self.fwd.append(LSTMCell(rng, d, d_hidden))
            self.bwd.append(LSTMCell(rng, d, d_hidden))
            d = 2 * d_hidden

    def __call__(self, inputs: Tensor) -> Tensor:
        if inputs.shape[0] == 0:
            raise ValueError("BiLSTM requires a non-empty sequence")
        x = inputs
        for fcell, bcell in zip(self.fwd, self.bwd):
            x = bilstm_layer(x, fcell, bcell)
        return x


def attention_data(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
                   mask: np.ndarray | None = None):
    """Forward kernel of `multi_head_attention`: the output, then the parts
    its backward reads, (qh, kt, vh, weights, heads)."""
    d = q.shape[-1]
    dh = d // n_heads

    def split(t):                        # (..., L, d) -> (..., heads, L, dh)
        return t.reshape(*t.shape[:-1], n_heads, dh).swapaxes(-3, -2)

    qh, kh, vh = split(q), split(k), split(v)
    kt = kh.swapaxes(-1, -2)
    scores = qh @ kt * _const(1.0 / np.sqrt(dh))
    if mask is not None:
        scores = scores + _const(mask)
    weights = softmax_data(scores, -1)
    heads = weights @ vh                 # (..., heads, Lq, dh)
    merged = heads.swapaxes(-3, -2)
    return merged.reshape(*merged.shape[:-2], d), (qh, kt, vh, weights, heads)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                         mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention with additive mask.

    q: (..., Lq, d), k/v: (..., Lk, d); leading dims broadcast, so 2-D keys
    and values serve a batch of queries. mask broadcastable to (Lq, Lk), -inf
    where attention is forbidden. Heads split the model dim and run as one
    batched matmul.

    One graph node with parents (q, k, v). Its numbers are those of the
    elementary graph that splits heads (reshape, swap axes), takes
    `softmax(qh @ kh^T * dh ** -0.5 + mask) @ vh` and merges heads, and it
    passes the same views to each matmul.
    """
    d = q.shape[-1]
    if d % n_heads:
        raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
    if mask is not None and mask.shape[-1] != k.shape[-2]:
        raise ValueError(f"mask shape {mask.shape} vs keys {k.shape}")
    y, (qh, kt, vh, weights, heads) = attention_data(q.data, k.data, v.data,
                                                      n_heads, mask)
    out = _child(y, (q, k, v))
    if out.requires_grad:
        def _bw():
            scale = _const(1.0 / np.sqrt(d // n_heads))
            merged_shape = np.swapaxes(heads, -3, -2).shape
            g_heads = _node_grad(np.swapaxes(
                out.grad.reshape(merged_shape), -3, -2), heads)
            g_weights, g_vh = _matmul_grads(weights, vh, g_heads)
            g_scores = _softmax_grad(weights, g_weights, -1) * scale
            g_qh, g_kt = _matmul_grads(qh, kt, g_scores)
            # merge heads back: swap the axes again, then undo the reshape
            q._accum(np.swapaxes(g_qh, -3, -2).reshape(q.shape))
            k._accum(np.swapaxes(np.swapaxes(g_kt, -1, -2), -3, -2)
                     .reshape(k.shape))
            v._accum(np.swapaxes(g_vh, -3, -2).reshape(v.shape))
        out._backward = _bw
    return out


class MultiHeadAttention(Module):
    def __init__(self, rng, d_model: int, n_heads: int):
        self.n_heads = n_heads
        self.wq = Linear(rng, d_model, d_model)
        self.wk = Linear(rng, d_model, d_model)
        self.wv = Linear(rng, d_model, d_model)
        self.wo = Linear(rng, d_model, d_model)

    def __call__(self, q, k, v, mask=None):
        return self.attend(q, self.wk(k), self.wv(v), mask)

    def attend(self, q, keys, values, mask=None):
        """Attention of `q` over already projected keys and values."""
        out = multi_head_attention(self.wq(q), keys, values, self.n_heads, mask)
        return self.wo(out)


class FeedForward(Module):
    def __init__(self, rng, d_model: int, d_ff: int):
        self.l1 = Linear(rng, d_model, d_ff)
        self.l2 = Linear(rng, d_ff, d_model)

    def __call__(self, x):
        return self.l2(self.l1(x).gelu())


class LayerNorm(Module):
    def __init__(self, d: int):
        self.gain = Tensor(np.ones(d), requires_grad=True)
        self.bias = zeros(d)

    def __call__(self, x):
        return layer_norm(x, self.gain, self.bias)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """`self(x)` on an array, without a graph."""
        return layer_norm_data(x, self.gain.data, self.bias.data)[0]


class TransformerEncoderLayer(Module):
    def __init__(self, rng, d_model: int, n_heads: int, d_ff: int):
        self.attn = MultiHeadAttention(rng, d_model, n_heads)
        self.ff = FeedForward(rng, d_model, d_ff)
        self.ln1 = LayerNorm(d_model)
        self.ln2 = LayerNorm(d_model)

    def __call__(self, x, mask=None):
        x = self.ln1(x + self.attn(x, x, x, mask))
        return self.ln2(x + self.ff(x))


class TransformerDecoderLayer(Module):
    """Causal self-attention followed by cross-attention over the memory."""

    def __init__(self, rng, d_model: int, n_heads: int, d_ff: int):
        self.self_attn = MultiHeadAttention(rng, d_model, n_heads)
        self.cross_attn = MultiHeadAttention(rng, d_model, n_heads)
        self.ff = FeedForward(rng, d_model, d_ff)
        self.ln1 = LayerNorm(d_model)
        self.ln2 = LayerNorm(d_model)
        self.ln3 = LayerNorm(d_model)

    def __call__(self, x, memory, causal_mask):
        x = self.ln1(x + self.self_attn(x, x, x, causal_mask))
        x = self.ln2(x + self.cross_attn(x, memory, memory))
        return self.ln3(x + self.ff(x))

    def start(self, memory: np.ndarray) -> tuple[np.ndarray, ...]:
        """What every `step` over `memory` (L, d) reads: the self-attention's
        query, key and value projections joined into one (d, 3d) weight and
        its bias, then the cross-attention keys and values of `memory`."""
        sa, ca = self.self_attn, self.cross_attn
        return (np.concatenate([sa.wq.w.data, sa.wk.w.data, sa.wv.w.data],
                               axis=1),
                np.concatenate([sa.wq.b.data, sa.wk.b.data, sa.wv.b.data]),
                ca.wk.apply(memory), ca.wv.apply(memory))

    def step(self, x: np.ndarray, cache: tuple, past=None):
        """Advance one position for each row of the array `x` (B, 1, d),
        with the forward kernels of the ops `self(...)` runs: no graph, and
        bitwise the numbers of those ops (the joined projection's column
        blocks equal the three separate projections bitwise).

        `cache` is `start(memory)`. `past` holds the self-attention (keys,
        values) of the earlier positions, (B, t, d) arrays each, or is None
        at the first position. Returns the output and `past` extended by
        this position; a position needs no causal mask, since every cached
        key precedes it.
        """
        w_qkv, b_qkv, mem_keys, mem_values = cache
        sa, ca = self.self_attn, self.cross_attn
        d = x.shape[-1]
        qkv = linear_data(x, w_qkv, b_qkv)
        keys, values = qkv[..., d:2 * d], qkv[..., 2 * d:]
        if past is not None:
            keys = np.concatenate([past[0], keys], axis=-2)
            values = np.concatenate([past[1], values], axis=-2)
        a = attention_data(qkv[..., :d], keys, values, sa.n_heads)[0]
        x = self.ln1.apply(x + sa.wo.apply(a))
        a = attention_data(ca.wq.apply(x), mem_keys, mem_values, ca.n_heads)[0]
        x = self.ln2.apply(x + ca.wo.apply(a))
        h = gelu_data(self.ff.l1.apply(x))[0]
        return self.ln3.apply(x + self.ff.l2.apply(h)), (keys, values)


def causal_mask(n: int) -> np.ndarray:
    """Additive mask forbidding position i from attending to j > i."""
    m = np.zeros((n, n))
    m[np.triu_indices(n, k=1)] = -1e9
    return m


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    pos = np.arange(n)[:, None]
    i = np.arange(d // 2)[None, :]
    angles = pos / np.power(10000.0, 2 * i / d)
    out = np.zeros((n, d))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out
