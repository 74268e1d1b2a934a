"""The fused ops (`linear`, `layer_norm`, the attention core and
`bilstm_layer`) against the graphs of elementary ops they
replace, kept here as references. Outputs and every gradient must be bitwise
equal, not merely close: the desk overfit criterion moves under one-ulp
changes. The array decode step, which runs the fused ops' forward kernels,
must be bitwise equal to the same graphs too."""

import contextlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ekgen import diffkit as dk
from ekgen import pipeline
from ekgen.config import load_config
from ekgen.corpus import BOS
from ekgen.diffkit import nn as dk_nn
from ekgen.graph2seq import Graph2SeqModel, train_g2s

D = 64
SHAPES = {"desk": 13, "novel": 200}      # passage lengths of the workloads


# ---------------------------------------------------------------------------
# references: the elementary graphs the fused ops replace

def reference_linear(self, x):
    y = dk.as_tensor(x) @ self.w
    return y + self.b if self.b is not None else y


def reference_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    return centered * inv * gain + bias


def _split_heads(x, n_heads):
    *lead, L, d = x.shape
    n = len(lead)
    return x.reshape(*lead, L, n_heads, d // n_heads).transpose(
        *range(n), n + 1, n, n + 2)


def reference_attention(q, k, v, n_heads, mask=None):
    d = q.shape[-1]
    dh = d // n_heads
    qh, kh, vh = (_split_heads(t, n_heads) for t in (q, k, v))
    n = kh.ndim
    scores = qh @ kh.transpose(*range(n - 2), n - 1, n - 2) * (1.0 / np.sqrt(dh))
    if mask is not None:
        scores = scores + dk.Tensor(mask)
    out = dk.softmax(scores, axis=-1) @ vh
    n = out.ndim
    out = out.transpose(*range(n - 3), n - 2, n - 3, n - 1)
    return out.reshape(*out.shape[:-2], d)


def reference_bilstm_layer(x, fwd, bwd):
    return dk.concat([dk.lstm_sequence(x, fwd),
                      dk.lstm_sequence(x, bwd, reverse=True)], axis=-1)


def reference_bilstm(self, inputs):
    """`BiLSTM.__call__` with every layer as the concat of two
    `lstm_sequence` directions."""
    x = inputs
    for fwd, bwd in zip(self.fwd, self.bwd):
        x = reference_bilstm_layer(x, fwd, bwd)
    return x


@contextlib.contextmanager
def references():
    """Route every fused layer of the model through its reference graph."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dk.Linear, "__call__", reference_linear)
        mp.setattr(dk_nn, "layer_norm", reference_layer_norm)
        mp.setattr(dk_nn, "multi_head_attention", reference_attention)
        mp.setattr(dk_nn, "bilstm_layer", reference_bilstm_layer)
        yield


# ---------------------------------------------------------------------------
# harness

def _leaf(data, grad=None):
    t = dk.Tensor(data, requires_grad=True)
    if grad is not None:
        t.grad = np.asarray(grad, dtype=t.data.dtype).copy()
    return t


def _run(build, arrays, held, probe):
    """Fresh leaves from `arrays` (those named in `held` already holding a
    gradient), one forward through `build`, one backward of `probe`; the
    output and every leaf gradient."""
    leaves = {k: _leaf(a, held.get(k)) for k, a in arrays.items()}
    out = build(**leaves)
    out.backward(probe)
    return out.numpy().copy(), {k: t.grad for k, t in leaves.items()}


def _assert_bitwise(fused, reference):
    (out, grads), (ref_out, ref_grads) = fused, reference
    assert out.dtype == ref_out.dtype
    np.testing.assert_array_equal(out, ref_out)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert (g is None) == (ref_grads[name] is None), name
        if g is not None:
            np.testing.assert_array_equal(g, ref_grads[name], err_msg=name)


def _probe(rng, shape, strided):
    """A gradient for the op's output, as a transposed view when `strided`
    so the op also sees an output gradient that is not C-contiguous."""
    if not strided:
        return rng.standard_normal(shape).astype(np.float32)
    return rng.standard_normal(shape[::-1]).astype(np.float32).T


# ---------------------------------------------------------------------------
# what a node keeps for its backward

def _gelu(x):
    return x.gelu(), 0


def _layer_norm(x):
    d = x.shape[-1]
    gain = dk.Tensor(np.ones(d), requires_grad=True)
    return dk.layer_norm(x, gain, dk.zeros(d)), 0


def _attention(x):
    n_heads = 4
    rows = x.shape[-2]
    weights = n_heads * rows * rows * x.data.itemsize
    return dk.multi_head_attention(x, x, x, n_heads), weights


@pytest.mark.parametrize("op", [_gelu, _layer_norm, _attention])
def test_node_keeps_no_array_the_size_of_its_input(op):
    """Beyond its output (and, for attention, its softmax weights), a fused
    node retains less than one input-sized array for its backward: what it
    reads there is recomputed from its parents or is per row."""
    rng = np.random.default_rng(5)
    x = dk.Tensor(rng.standard_normal((64, 64)), requires_grad=True)
    op(x)                                     # warm up numpy's caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out, weights = op(x)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert kept - out.data.nbytes - weights < x.data.nbytes


# ---------------------------------------------------------------------------
# linear

@pytest.mark.parametrize("size", list(SHAPES))
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("held", [False, True])
def test_linear_bitwise_reference(size, bias, held):
    rng = np.random.default_rng(1)
    L = SHAPES[size]
    arrays = {"x": rng.standard_normal((L, D)),
              "w": rng.standard_normal((D, 2 * D)) * 0.1}
    if bias:
        arrays["b"] = rng.standard_normal(2 * D)
    held_grads = {"x": rng.standard_normal((L, D)),
                  "w": rng.standard_normal((D, 2 * D))} if held else {}
    probe = _probe(rng, (L, 2 * D), strided=held)

    def fused(x, w, b=None):
        return dk.linear(x, w, b)

    def reference(x, w, b=None):
        y = x @ w
        return y + b if b is not None else y

    _assert_bitwise(_run(fused, arrays, held_grads, probe),
                    _run(reference, arrays, held_grads, probe))


def test_linear_batched_rows_and_vector_input():
    rng = np.random.default_rng(2)
    for x_shape in [(4, 1, D), (D,)]:
        arrays = {"x": rng.standard_normal(x_shape),
                  "w": rng.standard_normal((D, D)) * 0.1,
                  "b": rng.standard_normal(D)}
        probe = rng.standard_normal(x_shape[:-1] + (D,)).astype(np.float32)
        _assert_bitwise(
            _run(lambda x, w, b: dk.linear(x, w, b), arrays, {}, probe),
            _run(lambda x, w, b: x @ w + b, arrays, {}, probe))


def test_linear_builds_one_node():
    rng = np.random.default_rng(3)
    layer = dk.Linear(rng, 4, 3)
    x = dk.Tensor(rng.standard_normal((2, 4)))
    out = layer(x)
    assert out._parents == (x, layer.w, layer.b)
    with dk.no_grad():
        assert not layer(x).requires_grad


# ---------------------------------------------------------------------------
# layer norm

@pytest.mark.parametrize("shape", [(13, D), (200, D), (4, 1, D), (2, 3, 4)],
                         ids=["desk", "novel", "decode-step", "3d"])
@pytest.mark.parametrize("held", [False, True])
def test_layer_norm_bitwise_reference(shape, held):
    rng = np.random.default_rng(4)
    d = shape[-1]
    arrays = {"x": rng.standard_normal(shape) * 3.0 + 1.0,
              "gain": rng.standard_normal(d) * 0.5 + 1.0,
              "bias": rng.standard_normal(d)}
    held_grads = {"x": rng.standard_normal(shape),
                  "gain": rng.standard_normal(d)} if held else {}
    probe = _probe(rng, shape, strided=held)
    _assert_bitwise(_run(dk.layer_norm, arrays, held_grads, probe),
                    _run(reference_layer_norm, arrays, held_grads, probe))


# ---------------------------------------------------------------------------
# attention core

@pytest.mark.parametrize("size", list(SHAPES))
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("held", [False, True])
def test_attention_bitwise_reference(size, masked, held):
    rng = np.random.default_rng(5)
    L = SHAPES[size]
    Lq = L + 1 if masked else L          # causal decoder self-attention
    arrays = {"q": rng.standard_normal((Lq, D)),
              "k": rng.standard_normal((Lq if masked else L, D)),
              "v": rng.standard_normal((Lq if masked else L, D))}
    mask = dk.causal_mask(Lq) if masked else None
    held_grads = {name: rng.standard_normal(a.shape)
                  for name, a in arrays.items()} if held else {}
    probe = _probe(rng, (Lq, D), strided=held)
    _assert_bitwise(
        _run(lambda q, k, v: dk.multi_head_attention(q, k, v, 4, mask),
             arrays, held_grads, probe),
        _run(lambda q, k, v: reference_attention(q, k, v, 4, mask),
             arrays, held_grads, probe))


def test_attention_over_one_tensor_with_held_gradient():
    """Queries, keys and values are one tensor that already holds a
    gradient, so the order of the three accumulations shows."""
    rng = np.random.default_rng(14)
    arrays = {"x": rng.standard_normal((SHAPES["desk"], D))}
    held = {"x": rng.standard_normal((SHAPES["desk"], D))}
    probe = rng.standard_normal((SHAPES["desk"], D)).astype(np.float32)
    _assert_bitwise(
        _run(lambda x: dk.multi_head_attention(x, x, x, 4), arrays, held,
             probe),
        _run(lambda x: reference_attention(x, x, x, 4), arrays, held, probe))


def test_attention_batched_queries_over_shared_memory():
    """3-D queries against 2-D keys and values, as beam decoding has them;
    the key and value gradients sum over the batch."""
    rng = np.random.default_rng(6)
    arrays = {"q": rng.standard_normal((4, 3, D)),
              "k": rng.standard_normal((SHAPES["desk"], D)),
              "v": rng.standard_normal((SHAPES["desk"], D))}
    probe = rng.standard_normal((4, 3, D)).astype(np.float32)
    _assert_bitwise(
        _run(lambda q, k, v: dk.multi_head_attention(q, k, v, 4), arrays, {},
             probe),
        _run(lambda q, k, v: reference_attention(q, k, v, 4), arrays, {},
             probe))


def test_attention_keys_and_values_shared_by_two_layers():
    """One memory projection feeds the cross-attention of two stacked
    layers, so its keys and values collect gradients from both."""
    rng = np.random.default_rng(7)
    layers = [dk.MultiHeadAttention(np.random.default_rng(s), D, 4)
              for s in (8, 9)]
    data = {"x": rng.standard_normal((14, D)),
            "memory": rng.standard_normal((18, D))}
    probe = rng.standard_normal((14, D)).astype(np.float32)

    def run():
        for layer in layers:
            layer.zero_grad()
        x, memory = (_leaf(a) for a in data.values())
        keys, values = layers[0].wk(memory), layers[0].wv(memory)
        h = x
        for layer in layers:
            h = layer.attend(h, keys, values)
        h.backward(probe)
        grads = {f"{i}.{k}": p.grad.copy() for i, layer in enumerate(layers)
                 for k, p in layer.parameters().items() if p.grad is not None}
        return h.numpy().copy(), {"x": x.grad, "memory": memory.grad, **grads}

    fused = run()
    with references():
        reference = run()
    _assert_bitwise(fused, reference)


def test_attention_builds_one_node():
    rng = np.random.default_rng(10)
    q, k, v = (dk.Tensor(rng.standard_normal((3, 8)), requires_grad=True)
               for _ in range(3))
    out = dk.multi_head_attention(q, k, v, 2)
    assert out._parents == (q, k, v)


# ---------------------------------------------------------------------------
# BiLSTM layer and its gathered rows

def _bilstm_results(run, data, probe, params, held):
    """Output, input gradient and each of `params`' gradients of one
    forward through `run` and one backward of `probe`, with `params` first
    holding `held`, as after another sequence."""
    for k, p in params.items():
        p.grad = held[k].copy()
    x = _leaf(data)
    out = run(x)
    out.backward(probe.astype(out.data.dtype))
    return (out.numpy().copy(),
            {"x": x.grad, **{k: p.grad.copy() for k, p in params.items()}})


def _picks(rng, T, lead, n):
    """`n` (time, sequence) pairs over a (T, *lead) grid that hold the
    first and the last step and repeat one pair."""
    times = rng.integers(0, T, n)
    times[0], times[-1] = 0, T - 1
    cols = [rng.integers(0, s, n) for s in lead]
    for a in (times, *cols):
        a[2] = a[1]
    return (times, *cols)


@pytest.mark.parametrize("T", [1, 3, 16])
@pytest.mark.parametrize("lead", [(), (5,)], ids=["2d", "3d"])
@pytest.mark.parametrize("layers", [1, 2])
def test_bilstm_layer_bitwise_concat_of_directions(layers, lead, T):
    """Each layer one `bilstm_layer` against the concat of two
    `lstm_sequence` directions, over the whole sequence and at picks."""
    rng = np.random.default_rng(T + len(lead))
    lstm = dk.BiLSTM(np.random.default_rng(layers), D, D // 2, n_layers=layers)
    held = {k: rng.standard_normal(p.shape).astype(np.float32)
            for k, p in lstm.parameters().items()}
    data = rng.standard_normal((T, *lead, D))
    for pick in (None, _picks(rng, T, lead, 7)):
        shape = (T, *lead) if pick is None else pick[0].shape
        probe = rng.standard_normal((*shape, D))
        index = pick or (slice(None),)
        _assert_bitwise(*(
            _bilstm_results(lambda x: run(lstm, x)[index], data, probe,
                            lstm.parameters(), held)
            for run in (dk.BiLSTM.__call__, reference_bilstm)))


def test_bilstm_layer_builds_no_graph_under_no_grad():
    rng = np.random.default_rng(9)
    fwd, bwd = (dk.LSTMCell(rng, 3, 2) for _ in range(2))
    x = dk.Tensor(rng.standard_normal((4, 2, 3)))
    out = dk.bilstm_layer(x, fwd, bwd)
    assert out._parents == (x, *fwd.parameters().values(),
                            *bwd.parameters().values())
    with dk.no_grad():
        inference = dk.bilstm_layer(x, fwd, bwd)
    assert not inference.requires_grad and inference._backward is None
    assert inference._parents == ()
    np.testing.assert_array_equal(inference.numpy(), out.numpy())


@pytest.mark.parametrize("T,c_e", [(3, 5), (16, 5), (16, 1)],
                         ids=["desk", "novel", "one-vertex"])
@pytest.mark.parametrize("layers", [1, 2])
def test_bilstm_row_bitwise_reference(T, c_e, layers):
    rng = np.random.default_rng(11)
    lstm = dk.BiLSTM(np.random.default_rng(12), D, D // 2, n_layers=layers)
    data = rng.standard_normal((T, c_e, D))
    # parameters already hold a gradient, as after the other sequence
    held = {k: rng.standard_normal(p.shape).astype(np.float32)
            for k, p in lstm.parameters().items()}
    # one time for every row, then one time per row: mixed with the first,
    # the last and a repeated time (a single time on a one-row sequence),
    # the last time for every row, and pairs that repeat a (time, row)
    rows = np.arange(c_e)
    picks = [(np.full(c_e, t), rows) for t in sorted({0, 1, T // 2, T - 1}
                                                     & set(range(T)))]
    picks += [(np.resize([T // 2, 0, T - 1, T // 2], c_e), rows),
              (np.full(c_e, T - 1), rows), _picks(rng, T, (c_e,), 9)]
    for pick in picks:
        probe = rng.standard_normal((len(pick[0]), D))
        _assert_bitwise(*(
            _bilstm_results(lambda x: run(lstm, x)[pick], data, probe,
                            lstm.parameters(), held)
            for run in (dk.BiLSTM.__call__, reference_bilstm)))


def test_bilstm_row_takes_negative_index_and_rejects_out_of_range():
    """The (time, sequence) gather `_lstm_rows` reads from the Bi-LSTM
    output follows numpy's index rules, one time per sequence included."""
    rng = np.random.default_rng(13)
    lstm = dk.BiLSTM(rng, 3, 2)
    out = lstm(dk.Tensor(rng.standard_normal((4, 3))))
    np.testing.assert_array_equal(out[-1].numpy(), out[3].numpy())
    with pytest.raises(IndexError):
        out[4]
    out = lstm(dk.Tensor(rng.standard_normal((4, 3, 3))))
    rows = np.arange(3)
    np.testing.assert_array_equal(
        out[np.array([-1, 0, -4]), rows].numpy(),
        out[np.array([3, 0, 0]), np.array([-3, 1, 2])].numpy())
    for bad in ([0, 4, 1], [0, -5, 1]):
        with pytest.raises(IndexError):
            out[np.array(bad), rows]
    with pytest.raises(IndexError):
        out[np.array([0, 1]), np.array([0, 3])]


# ---------------------------------------------------------------------------
# the model: decoding and training

@pytest.fixture(scope="module")
def desk_setup(tmp_path_factory):
    """Desk-scale examples after a short embedding run, and the tables
    their locals name."""
    ws = tmp_path_factory.mktemp("fused") / "ws"
    cfg = load_config(seed=0, overrides=[
        "phase1_steps=20", "phase2_steps=6"])
    for stage in (pipeline.run_synth, pipeline.run_ingest,
                  pipeline.run_build_ekg, pipeline.run_train_ekg):
        stage(ws, cfg)
    w = pipeline.Workspace(ws, cfg)
    return cfg, w.corpus.vocab, w.examples(), w.tables


def _train(cfg, vocab, examples, tables, steps=5):
    model = Graph2SeqModel(cfg, len(vocab))
    model.tables = tables
    history = train_g2s(examples, model,
                        replace(cfg, g2s_steps=steps, lr_scale=1.0))
    return history["loss"], {k: v.copy() for k, v in model.state().items()}


def test_train_g2s_parameters_bitwise_reference(desk_setup):
    cfg, vocab, examples, tables = desk_setup
    loss, state = _train(cfg, vocab, examples, tables)
    with references():
        ref_loss, ref_state = _train(cfg, vocab, examples, tables)
    assert loss == ref_loss
    assert state.keys() == ref_state.keys()
    for name in state:
        np.testing.assert_array_equal(state[name], ref_state[name],
                                      err_msg=name)


def reference_step(layer, x, memory_kv, past=None):
    """`TransformerDecoderLayer.step` as a graph of reference ops, with
    separate query, key and value projections."""
    sa, ca = layer.self_attn, layer.cross_attn

    def attend(attn, q, keys, values):
        out = reference_attention(reference_linear(attn.wq, q), keys, values,
                                  attn.n_heads)
        return reference_linear(attn.wo, out)

    def norm(ln, x):
        return reference_layer_norm(x, ln.gain, ln.bias)

    keys, values = reference_linear(sa.wk, x), reference_linear(sa.wv, x)
    if past is not None:
        keys = dk.concat([past[0], keys], axis=-2)
        values = dk.concat([past[1], values], axis=-2)
    x = norm(layer.ln1, x + attend(sa, x, keys, values))
    x = norm(layer.ln2, x + attend(ca, x, *memory_kv))
    ff = reference_linear(layer.ff.l2, reference_linear(layer.ff.l1, x).gelu())
    return norm(layer.ln3, x + ff), (keys, values)


def reference_decode_steps(model, memory, schedule):
    """Next-token probabilities of each step of `schedule` (one token per
    row), fed through `reference_step` with the keys and values as
    tensors."""
    d = model.config.d_model
    past = [None] * len(model.dec_layers)
    probs = []
    with dk.no_grad():
        memory_kv = [(reference_linear(layer.cross_attn.wk, memory),
                      reference_linear(layer.cross_attn.wv, memory))
                     for layer in model.dec_layers]
        for pos, tokens in enumerate(schedule):
            x = dk.embedding_lookup(model.tok_emb, tokens) * np.sqrt(d)
            x = (x + dk.Tensor(model.pos[pos])).reshape(len(tokens), 1, d)
            for i, layer in enumerate(model.dec_layers):
                x, past[i] = reference_step(layer, x, memory_kv[i], past[i])
            logits = reference_linear(model.out_proj, x)
            probs.append(dk.softmax(logits, axis=-1).numpy()[:, 0])
    return np.stack(probs)


def _schedule(ex, steps=4):
    """Three hypotheses over a few steps."""
    return [[BOS, BOS, BOS]] + [[tok, BOS, tok] for tok in ex.comment_ids[:steps]]


def test_decode_step_probabilities_bitwise_reference(desk_setup):
    """The array decode step, with its joined query, key and value
    projection, against the reference graph."""
    cfg, vocab, examples, tables = desk_setup
    model = Graph2SeqModel(cfg, len(vocab))
    model.tables = tables
    # off their initial values, so no layer norm gain is 1 and no bias 0
    rng = np.random.default_rng(16)
    for p in model.parameters().values():
        p.data += (0.1 * rng.standard_normal(p.shape)).astype(p.data.dtype)
    for ex in examples[:3]:
        with dk.no_grad():
            memory = model.fuse_memory(ex.passage_ids, ex.local)
        state = model.start_decode(memory)
        schedule = _schedule(ex)
        fused = np.stack([model.fuse_and_decode_step(state, tokens)
                          for tokens in schedule])
        np.testing.assert_array_equal(
            fused, reference_decode_steps(model, memory, schedule))


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("d", [D, 8])
def test_joined_qkv_projection_bitwise_separate(rows, d):
    """The column blocks of `x @ [Wq|Wk|Wv] + [bq|bk|bv]` equal the three
    separate projections bitwise; decoding joins them on this."""
    rng = np.random.default_rng(15)
    x = rng.standard_normal((rows, 1, d)).astype(np.float32)
    ws = [(rng.standard_normal((d, d)) * 0.1).astype(np.float32)
          for _ in range(3)]
    bs = [rng.standard_normal(d).astype(np.float32) for _ in range(3)]
    joined = dk.linear_data(x, np.concatenate(ws, axis=1), np.concatenate(bs))
    for i, (w, b) in enumerate(zip(ws, bs)):
        np.testing.assert_array_equal(joined[..., i * d:(i + 1) * d],
                                      dk.linear_data(x, w, b))
