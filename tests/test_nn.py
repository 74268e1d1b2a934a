import numpy as np
import pytest

from ekgen import diffkit as dk


def _zeroed(module):
    for p in module.parameters().values():
        p.data[...] = 0.0
    return module


def test_lstm_cell_zero_weights_zero_output():
    cell = _zeroed(dk.LSTMCell(np.random.default_rng(0), 3, 4))
    # a non-zero cell state after step 0 would show in step 1's output
    h = dk.lstm_sequence(dk.Tensor(np.ones((2, 3))), cell)
    np.testing.assert_allclose(h.numpy(), 0.0)


def _scalar_lstm_oracle(x_seq, cell):
    """Step-by-step scalar-loop LSTM, independent of the tensor engine."""
    w_ih = cell.w_ih.numpy()
    w_hh = cell.w_hh.numpy()
    b = cell.b.numpy()
    n = cell.d_hidden
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    h = np.zeros(n)
    c = np.zeros(n)
    outs = []
    for x in x_seq:
        z = np.zeros(4 * n)
        for k in range(4 * n):
            acc = b[k]
            for a in range(len(x)):
                acc += x[a] * w_ih[a, k]
            for a in range(n):
                acc += h[a] * w_hh[a, k]
            z[k] = acc
        i, f = sig(z[0:n]), sig(z[n:2 * n])
        g, o = np.tanh(z[2 * n:3 * n]), sig(z[3 * n:4 * n])
        c = f * c + i * g
        h = o * np.tanh(c)
        outs.append(h.copy())
    return outs


def test_lstm_matches_scalar_loop_oracle():
    rng = np.random.default_rng(7)
    cell = dk.LSTMCell(rng, 3, 4)
    seq = rng.standard_normal((3, 3))
    expected = _scalar_lstm_oracle(seq, cell)
    h = dk.lstm_sequence(dk.Tensor(seq), cell).numpy()
    for t in range(3):
        np.testing.assert_allclose(h[t], expected[t], atol=1e-5)
    # reversed, row t is the state after reading steps T-1 .. t
    h = dk.lstm_sequence(dk.Tensor(seq), cell, reverse=True).numpy()
    for t, want in enumerate(_scalar_lstm_oracle(seq[::-1], cell)):
        np.testing.assert_allclose(h[2 - t], want, atol=1e-5)


def _reference_cell_step(cell, x, h, c):
    """One LSTM step built from elementary tensor ops."""
    z = x @ cell.w_ih + h @ cell.w_hh + cell.b
    n = cell.d_hidden
    i = z[..., 0:n].sigmoid()
    f = z[..., n:2 * n].sigmoid()
    g = z[..., 2 * n:3 * n].tanh()
    o = z[..., 3 * n:4 * n].sigmoid()
    c_next = f * c + i * g
    return o * c_next.tanh(), c_next


def _reference_bilstm(lstm, inputs):
    """Per-step BiLSTM loop of tiny ops: the reference for the fused
    `lstm_sequence` path."""
    T = inputs.shape[0]
    steps = [inputs[t] for t in range(T)]
    for fcell, bcell in zip(lstm.fwd, lstm.bwd):
        h = c = dk.Tensor(np.zeros(lstm.d_hidden))
        fw = []
        for t in range(T):
            h, c = _reference_cell_step(fcell, steps[t], h, c)
            fw.append(h)
        h = c = dk.Tensor(np.zeros(lstm.d_hidden))
        bw = [None] * T
        for t in reversed(range(T)):
            h, c = _reference_cell_step(bcell, steps[t], h, c)
            bw[t] = h
        steps = [dk.concat([fw[t], bw[t]], axis=-1) for t in range(T)]
    return dk.stack(steps)


def test_bilstm_matches_per_step_reference():
    rng = np.random.default_rng(12)
    lstm = dk.BiLSTM(rng, 64, 32, n_layers=2)
    data = rng.standard_normal((16, 5, 64))
    probe = dk.Tensor(rng.standard_normal((16, 5, 64)))
    results = []
    for run in (lstm, lambda x: _reference_bilstm(lstm, x)):
        lstm.zero_grad()
        x = dk.Tensor(data, requires_grad=True)
        out = run(x)
        (out * probe).sum().backward()
        grads = {k: p.grad.copy() for k, p in lstm.parameters().items()}
        results.append((out.numpy(), x.grad, grads))
    (out, dx, grads), (ref_out, ref_dx, ref_grads) = results
    np.testing.assert_allclose(out, ref_out, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(dx, ref_dx, rtol=1e-5, atol=1e-5)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-5,
                                   atol=1e-5, err_msg=name)


def test_lstm_sequence_builds_one_node_and_no_graph_under_no_grad():
    rng = np.random.default_rng(13)
    cell = dk.LSTMCell(rng, 3, 4)
    x = dk.Tensor(rng.standard_normal((5, 3)))
    out = dk.lstm_sequence(x, cell)
    assert out.requires_grad and out._parents == (x, cell.w_ih, cell.w_hh,
                                                  cell.b)
    with dk.no_grad():
        inference = dk.lstm_sequence(x, cell)
    assert not inference.requires_grad and inference._backward is None
    np.testing.assert_array_equal(inference.numpy(), out.numpy())


def test_bilstm_t1_uses_single_input_both_directions():
    rng = np.random.default_rng(3)
    lstm = dk.BiLSTM(rng, 3, 2, n_layers=1)
    x = rng.standard_normal((1, 3))
    out = lstm(dk.Tensor(x)).numpy()
    assert out.shape == (1, 4)
    # forward and backward passes both see only the single step
    fwd = _scalar_lstm_oracle(x, lstm.fwd[0])[0]
    bwd = _scalar_lstm_oracle(x, lstm.bwd[0])[0]
    np.testing.assert_allclose(out[0], np.concatenate([fwd, bwd]), atol=1e-5)


def test_bilstm_output_width_is_twice_hidden():
    lstm = dk.BiLSTM(np.random.default_rng(0), 5, 3, n_layers=2)
    out = lstm(dk.Tensor(np.random.default_rng(1).standard_normal((4, 5))))
    assert out.shape == (4, 6)


def test_bilstm_rejects_empty_sequence():
    lstm = dk.BiLSTM(np.random.default_rng(0), 3, 2)
    with pytest.raises(ValueError):
        lstm(dk.Tensor(np.zeros((0, 3))))


def test_attention_rows_sum_to_one():
    # one-hot value rows turn the output into the attention weights themselves
    L = 5
    q = dk.Tensor(np.random.default_rng(2).standard_normal((L, L)))
    weights = dk.multi_head_attention(q, q, dk.Tensor(np.eye(L)), 1).numpy()
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
    assert (weights >= 0).all()


def test_attention_causal_mask_gives_exact_zero_weight():
    L = 4
    q = dk.Tensor(np.random.default_rng(4).standard_normal((L, L)))
    weights = dk.multi_head_attention(q, q, dk.Tensor(np.eye(L)), 1,
                                      mask=dk.causal_mask(L)).numpy()
    upper = weights[np.triu_indices(L, k=1)]
    np.testing.assert_array_equal(upper, 0.0)


def test_attention_single_position_returns_value_row():
    d = 6
    rng = np.random.default_rng(5)
    q = dk.Tensor(rng.standard_normal((1, d)))
    v = dk.Tensor(rng.standard_normal((1, d)))
    out = dk.multi_head_attention(q, q, v, 1).numpy()
    np.testing.assert_allclose(out, v.numpy(), atol=1e-6)


def test_attention_mask_shape_mismatch_rejected():
    q = dk.Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        dk.multi_head_attention(q, q, q, 1, mask=np.zeros((3, 7)))


def test_attention_head_divisibility_enforced():
    q = dk.Tensor(np.zeros((2, 6)))
    with pytest.raises(ValueError):
        dk.multi_head_attention(q, q, q, 4)


def test_decoder_layer_shapes_and_determinism():
    rng = np.random.default_rng(6)
    layer = dk.TransformerDecoderLayer(rng, 8, 2, 16)
    x = dk.Tensor(rng.standard_normal((3, 8)))
    mem = dk.Tensor(rng.standard_normal((5, 8)))
    mask = dk.causal_mask(3)
    a = layer(x, mem, mask).numpy()
    b = layer(x, mem, mask).numpy()
    assert a.shape == (3, 8)
    np.testing.assert_array_equal(a, b)


def test_sinusoidal_positions_shape_and_range():
    pos = dk.sinusoidal_positions(10, 8)
    assert pos.shape == (10, 8)
    assert (np.abs(pos) <= 1.0 + 1e-9).all()
    np.testing.assert_allclose(pos[0, 0::2], 0.0)
    np.testing.assert_allclose(pos[0, 1::2], 1.0)


def test_module_state_roundtrip():
    rng = np.random.default_rng(8)
    layer = dk.TransformerEncoderLayer(rng, 8, 2, 16)
    other = dk.TransformerEncoderLayer(np.random.default_rng(9), 8, 2, 16)
    other.load_state(layer.state())
    x = dk.Tensor(rng.standard_normal((4, 8)))
    np.testing.assert_array_equal(layer(x).numpy(), other(x).numpy())


def test_module_load_state_rejects_mismatch():
    layer = dk.Linear(np.random.default_rng(0), 3, 3)
    with pytest.raises(ValueError, match=r"mismatch: \['b'\]"):
        layer.load_state({"w": np.zeros((3, 3))})  # missing "b"


def test_module_load_state_rejects_permuted_shape():
    layer = dk.Linear(np.random.default_rng(0), 3, 5)
    with pytest.raises(ValueError, match=r"'w' has shape \[5, 3\], not \[3, 5\]"):
        layer.load_state({"w": np.zeros((5, 3)), "b": np.zeros(5)})
