import numpy as np
import pytest

from ekgen import diffkit as dk
from ekgen import embed, pipeline
from ekgen.config import PipelineConfig, load_config
from ekgen.corpus import BOS, EOS
from ekgen.ekg import LocalEKG
from ekgen.embed import EmbeddingTables, train_ekg
from ekgen.graph2seq import (G2SExample, GATLayer, Graph2SeqModel, Hypothesis,
                             beam_decode, gat_layer, greedy_decode, train_g2s)

from test_embed import _tiny_corpus


def _tiny_config(**kw):
    base = dict(d_f=4, d_model=8, n_heads=2, encoder_layers=1,
                decoder_layers=1, bilstm_layers=1, gat_layers=1, mode="GAT_VE",
                max_len=12, max_passage=16, seed=0)
    base.update(kw)
    return PipelineConfig(**base).validate()


def _tables(rng, T, d_f, n_e=8):
    """Standard-normal tables of `n_e` entities over `T` chapters, with an
    edge column for every pair of them."""
    pairs = [(a, b) for a in range(n_e) for b in range(a + 1, n_e)]
    return EmbeddingTables(vertex=rng.standard_normal((T, n_e, d_f)),
                           edge=rng.standard_normal((T, len(pairs), d_f)),
                           column={pair: i for i, pair in enumerate(pairs)})


def _tiny_model(vocab_size=13, T=3, **kw):
    """A tiny generator over `_tables` of `T` chapters drawn from its seed."""
    model = Graph2SeqModel(_tiny_config(**kw), vocab_size)
    model.tables = _tables(np.random.default_rng(model.config.seed), T,
                           model.config.d_f)
    return model


def _tiny_local(c_e=3, t=2):
    return LocalEKG(t=t, vertex_ids=list(range(c_e)),
                    edges=[(i, i + 1) for i in range(c_e - 1)])


# ---------------------------------------------------------------------------
# graph attention

def test_single_vertex_self_loop_only():
    rng = np.random.default_rng(0)
    layer = GATLayer(rng, 4)
    v = dk.Tensor(rng.standard_normal((1, 4)))
    out = layer(v, None, [])
    np.testing.assert_allclose(out.numpy(), layer.w(v).numpy(), atol=1e-6)
    np.testing.assert_allclose(layer.last_coefficients[0], [1.0], atol=1e-7)


def test_coefficients_sum_to_one_per_vertex():
    rng = np.random.default_rng(1)
    for trial in range(20):
        c_e = int(rng.integers(1, 9))
        layer = GATLayer(rng, 6)
        v = dk.Tensor(rng.standard_normal((c_e, 6)))
        all_pairs = [(a, b) for a in range(c_e) for b in range(a + 1, c_e)]
        take = [p for p in all_pairs if rng.random() < 0.5]
        e = dk.Tensor(rng.standard_normal((len(take), 6)))
        layer(v, e if take else None, take)
        for coefs in layer.last_coefficients:
            assert abs(coefs.sum() - 1.0) <= 1e-6
            assert (coefs > 0).all()


def test_gat_v_mode_invariant_to_edge_features():
    rng = np.random.default_rng(2)
    layer = GATLayer(rng, 6)
    v = dk.Tensor(rng.standard_normal((4, 6)))
    edges = [(0, 1), (1, 2), (2, 3)]
    e1 = dk.Tensor(rng.standard_normal((3, 6)))
    e2 = dk.Tensor(rng.standard_normal((3, 6)))
    out1 = gat_layer(v, e1, edges, layer, "GAT_V").numpy()
    out2 = gat_layer(v, e2, edges, layer, "GAT_V").numpy()
    np.testing.assert_array_equal(out1, out2)


def test_gat_ve_mode_sensitive_to_edge_features():
    rng = np.random.default_rng(3)
    layer = GATLayer(rng, 6)
    v = dk.Tensor(rng.standard_normal((4, 6)))
    edges = [(0, 1), (1, 2), (2, 3)]
    e1 = dk.Tensor(rng.standard_normal((3, 6)))
    e2 = dk.Tensor(e1.numpy() + 1.0)
    out1 = gat_layer(v, e1, edges, layer, "GAT_VE").numpy()
    out2 = gat_layer(v, e2, edges, layer, "GAT_VE").numpy()
    assert np.abs(out1 - out2).max() > 1e-6


def test_gat_v_model_builds_no_edge_attention_weights():
    """GAT_V never reads `a_h`, so its layers hold none, and a call that
    would read it is refused; the draws before the first `a_h` are
    GAT_VE's."""
    v_model = _tiny_model(mode="GAT_V", gat_layers=2)
    ve_model = _tiny_model(mode="GAT_VE", gat_layers=2)
    v_names, ve_names = set(v_model.parameters()), set(ve_model.parameters())
    assert ve_names - v_names == {"gat.0.a_h", "gat.1.a_h"}
    assert v_names < ve_names
    np.testing.assert_array_equal(v_model.gat[0].a_g.data,
                                  ve_model.gat[0].a_g.data)
    layer = v_model.gat[0]
    d = layer.a_g.shape[0] // 2
    v = dk.Tensor(np.ones((2, d)))
    e = dk.Tensor(np.ones((1, d)))
    gat_layer(v, e, [(0, 1)], layer, "GAT_V")
    with pytest.raises(ValueError, match="edge attention"):
        gat_layer(v, e, [(0, 1)], layer, "GAT_VE")


def _reference_gat(layer, vfeats, efeats, edges):
    """Per-vertex, per-neighbor loop of tiny ops: the reference for the dense
    masked softmax of `GATLayer`. Returns the output and each vertex's
    coefficients, reordered from the loop's (self, neighbours, edges) into
    the dense layer's column order: vertices by position, then edges."""
    c_e = vfeats.shape[0]
    wv = layer.w(vfeats)
    wr = layer.w(efeats) if efeats is not None and efeats.shape[0] else None
    neighbors = {i: [] for i in range(c_e)}
    incident = {i: [] for i in range(c_e)}
    for e_idx, (a, b) in enumerate(edges):
        neighbors[a].append(b)
        neighbors[b].append(a)
        incident[a].append(e_idx)
        incident[b].append(e_idx)
    rows, coefficients = [], []
    for i in range(c_e):
        logits, values, columns = [], [], [i] + neighbors[i]
        for j in columns:
            logits.append((layer.a_g @ dk.concat([wv[i], wv[j]])
                           ).leaky_relu(layer.slope))
            values.append(wv[j])
        if wr is not None:
            columns += [c_e + e_idx for e_idx in incident[i]]
            for e_idx in incident[i]:
                logits.append((layer.a_h @ dk.concat([wv[i], wr[e_idx]])
                               ).leaky_relu(layer.slope))
                values.append(wr[e_idx])
        coefs = dk.softmax(dk.stack(logits))
        coefficients.append(coefs.numpy()[np.argsort(columns)])
        rows.append(dk.stack(values).T @ coefs)
    return dk.stack(rows), coefficients


@pytest.mark.parametrize("c_e,edges", [
    (1, []),                                       # one vertex
    (4, [(0, 1), (1, 2)]),                         # vertex 3 has no edges
    (6, [(0, 1), (0, 2), (3, 4), (1, 4), (2, 5), (0, 5)]),
])
@pytest.mark.parametrize("mode", ["GAT_V", "GAT_VE"])
def test_gat_matches_per_vertex_reference(c_e, edges, mode):
    rng = np.random.default_rng(17 + c_e)
    layer = GATLayer(rng, 8)
    vdata = rng.standard_normal((c_e, 8))
    edata = rng.standard_normal((len(edges), 8))
    probe = dk.Tensor(rng.standard_normal((c_e, 8)))

    def dense(v, e):
        return gat_layer(v, e, edges, layer, mode), layer.last_coefficients

    def loop(v, e):
        return _reference_gat(layer, v, e if mode == "GAT_VE" else None, edges)

    results = []
    for run in (dense, loop):
        layer.zero_grad()
        v = dk.Tensor(vdata, requires_grad=True)
        e = dk.Tensor(edata, requires_grad=True) if edges else None
        out, coefs = run(v, e)
        (out * probe).sum().backward()
        grads = {k: p.grad for k, p in layer.parameters().items()}
        results.append((out.numpy(), coefs, v.grad,
                        None if e is None else e.grad, grads))
    (out, coefs, dv, de, grads), (ref_out, ref_coefs, ref_dv, ref_de,
                                  ref_grads) = results
    tol = dict(rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(out, ref_out, **tol)
    assert len(coefs) == len(ref_coefs) == c_e
    for got, want in zip(coefs, ref_coefs):
        np.testing.assert_allclose(got, want, **tol)
    np.testing.assert_allclose(dv, ref_dv, **tol)
    if edges and mode == "GAT_VE":
        np.testing.assert_allclose(de, ref_de, **tol)
    else:
        assert de is None or not de.any()
    for name, want in ref_grads.items():
        if want is None:
            assert grads[name] is None or not grads[name].any(), name
        else:
            np.testing.assert_allclose(grads[name], want, err_msg=name, **tol)


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (0, 1)],
                                   [(0, 1), (2, 1), (1, 2)],
                                   [(0, 1), (2, 2)],
                                   [(0, 1), (0, -1)],      # no negative wrap
                                   [(1, 2), (0, 3)]])      # of 3 vertices
def test_gat_rejects_repeated_pair_and_self_loop(edges):
    rng = np.random.default_rng(18)
    layer = GATLayer(rng, 4)
    v = dk.Tensor(rng.standard_normal((3, 4)))
    e = dk.Tensor(rng.standard_normal((len(edges), 4)))
    with pytest.raises(ValueError):
        layer(v, e, edges)


@pytest.mark.parametrize("mode", ["EKG", "GAT_V"])
def test_edge_sequence_unused_outside_gat_ve(mode):
    model = _tiny_model(mode=mode)
    local = _tiny_local()
    assert model.temporal_encode(local)[1] is None
    before = model.graph_encode(local).numpy().copy()
    model.tables.edge[:] = np.nan
    np.testing.assert_array_equal(model.graph_encode(local).numpy(), before)


def test_ekg_mode_bypasses_gat_parameters():
    """An EKG model builds no graph attention; its graph encoding is the
    vertices' Bi-LSTM rows."""
    model = _tiny_model(mode="EKG")
    assert model.gat == []
    assert not [name for name in model.parameters() if name.startswith("gat.")]
    local = _tiny_local()
    np.testing.assert_array_equal(model.graph_encode(local).numpy(),
                                  model.temporal_encode(local)[0].numpy())


# ---------------------------------------------------------------------------
# temporal encoding

def test_temporal_encode_t1_single_step():
    model = _tiny_model(T=1)
    local = _tiny_local(t=1)
    v, e = model.temporal_encode(local)
    assert v.shape == (3, 8)
    assert e.shape == (2, 8)


def test_other_timestep_perturbation_propagates_through_recurrence():
    model = _tiny_model(T=3)
    local = _tiny_local(t=2)
    base = model.temporal_encode(local)[0].numpy().copy()
    model.tables.vertex[0] += 1.0  # perturb a step != t
    perturbed = model.temporal_encode(local)[0].numpy()
    assert np.abs(base - perturbed).max() > 1e-6


def _spy_picks(monkeypatch):
    """Record the input shape of every `BiLSTM` pass and the (time, column)
    pairs then gathered from its output."""
    calls, shapes = [], {}             # id of a pass's output -> input shape
    run, gather = dk.BiLSTM.__call__, dk.Tensor.__getitem__

    def spy_run(self, x):
        out = run(self, x)
        shapes[id(out)] = x.shape
        return out

    def spy_gather(self, index):
        if id(self) in shapes:
            calls.append((shapes.pop(id(self)),
                          [np.asarray(i).tolist() for i in index]))
        return gather(self, index)
    monkeypatch.setattr(dk.BiLSTM, "__call__", spy_run)
    monkeypatch.setattr(dk.Tensor, "__getitem__", spy_gather)
    return calls


def test_one_lstm_column_per_entity_id_and_pair(monkeypatch):
    """Locals that name one entity, or one entity pair, read one Bi-LSTM
    column of it, each at its own chapter."""
    model = _tiny_model()
    a = LocalEKG(t=2, vertex_ids=[0, 1, 2], edges=[(0, 1), (1, 2)])
    b = LocalEKG(t=3, vertex_ids=[1, 2, 4], edges=[(1, 2), (2, 4)])
    c = LocalEKG(t=1, vertex_ids=[2], edges=[])
    calls = _spy_picks(monkeypatch)
    v, e = model.temporal_encode(a, b, c)
    (v_shape, (v_times, v_cols)), (e_shape, (e_times, e_cols)) = calls
    assert v_shape == (3, 4, 4)         # entities 0, 1, 2 and 4
    assert v_cols == [0, 1, 2, 1, 2, 3, 2]
    assert v_times == [1, 1, 1, 2, 2, 2, 0]
    assert e_shape == (3, 3, 4)         # pairs (0, 1), (1, 2) and (2, 4)
    assert e_cols == [0, 1, 1, 2] and e_times == [1, 1, 2, 2]
    v_at = e_at = 0
    for local in (a, b, c):
        own_v, own_e = model.temporal_encode(local)
        np.testing.assert_allclose(v.numpy()[v_at:v_at + len(own_v.data)],
                                   own_v.numpy(), rtol=1e-5, atol=1e-6)
        v_at += len(own_v.data)
        if own_e is not None:
            np.testing.assert_allclose(e.numpy()[e_at:e_at + local.c_r],
                                       own_e.numpy(), rtol=1e-5, atol=1e-6)
            e_at += local.c_r
    assert (v_at, e_at) == (7, 4)


def test_temporal_outputs_backpropagate_one_after_the_other():
    """Each output of `temporal_encode(local)` is its own graph, so each
    backpropagates once, in turn, into the Bi-LSTM parameters."""
    model = _tiny_model()
    v, e = model.temporal_encode(_tiny_local())
    v.backward(np.ones_like(v.data))
    first = model.lstm.fwd[0].w_ih.grad.copy()
    e.backward(np.ones_like(e.data))
    assert np.abs(model.lstm.fwd[0].w_ih.grad - first).max() > 0


# ---------------------------------------------------------------------------
# encoding / decoding contracts

def test_encode_passage_shape_and_empty_error():
    model = _tiny_model()
    out = model.encode_passage([6, 7, 8])
    assert out.shape == (3, 8)
    with pytest.raises(ValueError):
        model.encode_passage([])


def test_passage_truncated_to_max_length():
    model = _tiny_model(max_passage=4)
    out = model.encode_passage([6] * 10)
    assert out.shape == (4, 8)


def test_memory_is_graph_slots_plus_passage():
    model = _tiny_model()
    local = _tiny_local(c_e=3)
    memory = model.fuse_memory([6, 7, 8, 9], local)
    assert memory.shape == (3 + 4, 8)


def test_next_token_distribution_sums_to_one():
    model = _tiny_model()
    local = _tiny_local()
    state = model.start_decode(model.fuse_memory([6, 7], local))
    model.fuse_and_decode_step(state, [BOS])
    probs = model.fuse_and_decode_step(state, [6])
    assert probs.shape == (1, 13)
    assert abs(probs.sum() - 1.0) <= 1e-6


def test_prefix_must_start_with_bos():
    model = _tiny_model()
    state = model.start_decode(model.fuse_memory([6], _tiny_local()))
    with pytest.raises(ValueError):
        model.fuse_and_decode_step(state, [6])


def test_overlong_prefix_rejected():
    model = _tiny_model(max_len=4)
    state = model.start_decode(model.fuse_memory([6], _tiny_local()))
    for tok in [BOS] + [6] * 4:     # a prefix of max_len + 1 tokens is allowed
        model.fuse_and_decode_step(state, [tok])
    with pytest.raises(ValueError):
        model.fuse_and_decode_step(state, [6])


def test_decoder_is_causal():
    model = _tiny_model()
    memory = model.fuse_memory([6, 7], _tiny_local())
    a = model._decode(memory, [BOS, 6, 7, 8]).numpy()
    b = model._decode(memory, [BOS, 6, 7, 12]).numpy()
    # changing the last input token must not change earlier positions
    np.testing.assert_array_equal(a[:3], b[:3])
    assert np.abs(a[3] - b[3]).max() > 1e-9


def test_masking_graph_slot_changes_distribution():
    model = _tiny_model()
    local = _tiny_local()
    memory = model.fuse_memory([6, 7], local)
    baseline = model.fuse_and_decode_step(model.start_decode(memory), [BOS])
    blanked = dk.Tensor(memory.numpy().copy())
    blanked.data[0] = 0.0
    changed = model.fuse_and_decode_step(model.start_decode(blanked), [BOS])
    assert np.abs(baseline - changed).max() > 1e-9


def test_token_accuracy_builds_no_graph(monkeypatch):
    """`token_accuracy` decodes without a graph, to the logits the graph
    holds."""
    model = _tiny_model()
    local = _tiny_local()
    passage, comment = [6, 7, 8, 9], [10, 11, 12]
    decode, logits = model._decode, []

    def spy(*args):
        logits.append(decode(*args))
        return logits[-1]
    monkeypatch.setattr(model, "_decode", spy)
    accuracy = model.token_accuracy(passage, local, comment)
    (got,) = logits
    want = decode(model.fuse_memory(passage, local), [BOS] + comment)
    assert want.requires_grad and not got.requires_grad
    assert np.array_equal(got.data, want.data)
    target = np.asarray(comment + [EOS])
    assert accuracy == float((want.data.argmax(axis=-1) == target).mean())


def test_initial_nll_close_to_log_vocab():
    rng = np.random.default_rng(13)
    model = _tiny_model(vocab_size=100, seed=3)
    local = _tiny_local()
    losses = [model.nll([G2SExample(
        [6, 7, 8], local, [int(rng.integers(6, 100)) for _ in range(8)])]).item()
              for _ in range(4)]
    assert np.mean(losses) == pytest.approx(np.log(100), rel=0.1)


# ---------------------------------------------------------------------------
# training and decoding

def _toy_examples(n=4):
    return [G2SExample(passage_ids=[6, 7, 8], local=_tiny_local(t=1 + i % 3),
                       comment_ids=[9, 10, 11]) for i in range(n)]


def test_train_g2s_runs_and_is_deterministic():
    examples = _toy_examples()
    histories = []
    finals = []
    for _ in range(2):
        model = _tiny_model(seed=5)
        hist = train_g2s(examples, model,
                         _tiny_config(g2s_steps=5, batch_size=2, warmup=10))
        histories.append(hist["loss"])
        finals.append(model.out_proj.w.data.copy())
    assert histories[0] == histories[1]
    np.testing.assert_array_equal(finals[0], finals[1])
    assert all(np.isfinite(v) for v in histories[0])


def test_train_g2s_rejects_empty_dataset():
    model = _tiny_model()
    with pytest.raises(ValueError):
        train_g2s([], model, _tiny_config(g2s_steps=1))


def test_pipeline_config_fields_reach_components(monkeypatch):
    # every value differs from its default and from the other layer counts,
    # so a field read under the wrong name shows
    cfg = PipelineConfig(d_f=6, d_model=12, n_heads=3, encoder_layers=3,
                         decoder_layers=1, bilstm_layers=4, gat_layers=5,
                         max_len=12, max_passage=16, phase1_steps=7,
                         phase2_steps=3, alpha=0.25, g2s_steps=6,
                         batch_size=2, warmup=4, seed=2).validate()
    model = Graph2SeqModel(cfg, 13)
    assert len(model.enc_layers) == cfg.encoder_layers
    assert len(model.dec_layers) == cfg.decoder_layers
    cells = model.lstm.fwd + model.lstm.bwd
    assert len(model.lstm.fwd) == len(model.lstm.bwd) == cfg.bilstm_layers
    assert {c.d_hidden for c in cells} == {cfg.d_model // 2}
    assert model.lstm.fwd[0].w_ih.shape[0] == cfg.d_f
    assert len(model.gat) == cfg.gat_layers

    novel, mentions, ekg = _tiny_corpus()
    margins = []
    triplet_loss = embed.edge_triplet_loss

    def spy(*args):
        margins.append(args[-1])
        return triplet_loss(*args)
    monkeypatch.setattr(embed, "edge_triplet_loss", spy)
    artifact = train_ekg(novel, mentions, ekg, cfg, n_e=3)
    assert artifact.table.w.shape == (novel.num_chapters, 3, cfg.d_f)
    assert len(artifact.history["phase1"]) == cfg.phase1_steps
    assert len(artifact.history["phase2"]) == cfg.phase2_steps
    assert margins == [cfg.alpha] * cfg.phase2_steps

    model.tables = _tables(np.random.default_rng(3), 3, cfg.d_f)
    examples = [G2SExample(passage_ids=[6, 7, 8], local=_tiny_local(),
                           comment_ids=[9, 10]) for _ in range(3)]
    assert len(train_g2s(examples, model, cfg)["loss"]) == cfg.g2s_steps


def _stack_batch(T=6):
    """A batch of locals that read different chapters of a `T`-chapter
    table: a one-vertex local without edges, a one-edge local whose entities
    and pair another local also names, one of three vertices without edges
    and one shared by two comments, as a passage's comments share its
    local."""
    def local(vertex_ids, n_edges, t):
        return LocalEKG(t=t, vertex_ids=vertex_ids,
                        edges=[(vertex_ids[i], vertex_ids[i + 1])
                               for i in range(n_edges)])
    shared = local([0, 1, 2, 3], 3, 2)
    locals_ = [shared, local([5], 0, T), local([2, 3], 1, 1), shared,
               local([5, 6, 7], 0, 4), local([3, 4, 5, 6, 7], 4, 3)]
    return [G2SExample(passage_ids=[6, 7, 8, 9][:2 + i % 3], local=l,
                       comment_ids=[9 + i % 3, 10, 11][:1 + i % 3])
            for i, l in enumerate(locals_)]


def _batch_step(model, batch, stacked):
    """Loss and parameter gradients of one train_g2s step over `batch`:
    one `nll` over the batch, or the mean of each example's own `nll`."""
    model.zero_grad()
    if stacked:
        loss = model.nll(batch)
    else:
        loss = None
        for ex in batch:
            term = model.nll([ex])
            loss = term if loss is None else loss + term
        loss = loss * (1.0 / len(batch))
    loss.backward()
    return loss.item(), {k: None if p.grad is None else p.grad.copy()
                         for k, p in model.parameters().items()}


@pytest.mark.parametrize("mode", ["EKG", "GAT_V", "GAT_VE"])
def test_stacked_step_matches_per_example_step(mode, monkeypatch):
    model = _tiny_model(mode=mode, d_f=16, d_model=16, bilstm_layers=2,
                        seed=7, T=6)
    batch = _stack_batch()
    calls = _spy_picks(monkeypatch)
    loss, grads = _batch_step(model, batch, stacked=True)
    # one pass over the 8 entities of the five distinct locals' 15 vertices,
    # and in GAT_VE one over the 7 pairs of their 8 edges
    assert [shape for shape, _ in calls] == (
        [(6, 8, 16)] + [(6, 7, 16)] * (mode == "GAT_VE"))
    ref_loss, ref_grads = _batch_step(model, batch, stacked=False)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-6)
    assert grads.keys() == ref_grads.keys()
    largest = max(np.abs(g).max() for g in ref_grads.values() if g is not None)
    for name, expected in ref_grads.items():
        assert (grads[name] is None) == (expected is None), name
        if expected is None:
            continue
        if name.endswith("wk.b"):
            # softmax ignores a shift shared by all keys, so a key bias's
            # gradient is zero up to round-off, which differs between the
            # two summation orders: both must be round-off
            for g in (grads[name], expected):
                assert np.abs(g).max() <= 1e-6 * largest, name
            continue
        np.testing.assert_allclose(grads[name], expected, rtol=1e-5,
                                   atol=1e-6 * np.abs(expected).max(),
                                   err_msg=name)
    # the stacked rows are each local's own, in order
    locals_ = list({id(ex.local): ex.local for ex in batch}.values())
    v, e = model.temporal_encode(*locals_)
    assert v.shape == (15, 16)
    assert (e is None) == (mode != "GAT_VE")
    v_at = e_at = 0
    for local in locals_:
        v_ref, e_ref = model.temporal_encode(local)
        c_e = len(local.vertex_ids)
        np.testing.assert_allclose(v.numpy()[v_at:v_at + c_e], v_ref.numpy(),
                                   rtol=1e-5, atol=1e-6)
        v_at += c_e
        assert (e_ref is None) == (mode != "GAT_VE" or not local.edges)
        if e_ref is not None:
            assert e_ref.shape == (len(local.edges), 16)
            np.testing.assert_allclose(e.numpy()[e_at:e_at + local.c_r],
                                       e_ref.numpy(), rtol=1e-5, atol=1e-6)
            e_at += local.c_r
    assert e is None or e.shape == (e_at, 16)


@pytest.mark.parametrize("mode", ["GAT_V", "GAT_VE"])
def test_gat_over_union_normalizes_per_vertex_and_matches_each_local(mode):
    model = _tiny_model(mode=mode, d_f=16, d_model=16, gat_layers=2, seed=8,
                        T=6)
    locals_ = list({id(ex.local): ex.local
                    for ex in _stack_batch()}.values())
    union = model.graph_encode(*locals_).numpy()
    coefs = [layer.last_coefficients for layer in model.gat]
    assert [len(c) for c in coefs] == [union.shape[0]] * len(model.gat)
    for per_layer in coefs:
        for vertex in per_layer:
            assert abs(vertex.sum() - 1.0) <= 1e-6
    at = 0
    for local in locals_:
        own = model.graph_encode(local).numpy()
        np.testing.assert_allclose(union[at:at + len(own)], own, rtol=1e-5,
                                   atol=1e-6)
        # the same coefficients as in the local's own graph
        for got, want in zip(coefs[-1][at:at + len(own)],
                             model.gat[-1].last_coefficients):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
        at += len(own)


def test_beam_one_equals_greedy():
    model = _tiny_model(seed=6)
    local = _tiny_local()
    beams = beam_decode([6, 7], local, model, beam=1, max_len=8)
    assert beams[0][0] == greedy_decode([6, 7], local, model, max_len=8)


def test_beam_outputs_bounded_and_sorted():
    model = _tiny_model(seed=7)
    local = _tiny_local()
    beams = beam_decode([6, 7, 8], local, model, beam=4, max_len=6)
    assert 1 <= len(beams) <= 4
    scores = [s for _, s in beams]
    assert scores == sorted(scores, reverse=True)
    for toks, _ in beams:
        assert len(toks) <= 6
        # decoding stops at EOS and the terminator is stripped
        assert EOS not in toks


# ---------------------------------------------------------------------------
# cached decoding against the full-prefix decoder

@pytest.fixture(scope="module")
def desk_trained(tmp_path_factory):
    """Desk-scale model after a few training steps, one example per passage
    of the first four."""
    ws = tmp_path_factory.mktemp("desk") / "ws"
    cfg = load_config(seed=0, overrides=[
        "phase1_steps=20", "phase2_steps=6", "g2s_steps=20"])
    for stage in (pipeline.run_synth, pipeline.run_ingest,
                  pipeline.run_build_ekg, pipeline.run_train_ekg,
                  pipeline.run_train_g2s):
        stage(ws, cfg)
    w = pipeline.Workspace(ws, cfg)
    c, encode = w.corpus, w.corpus.vocab.encode
    examples = [G2SExample(passage_ids=encode(c.tokens(p)), local=w.locals[p.id],
                           comment_ids=encode(p.comments[-1].text))
                for p in c.passages[:4]]
    return w.model, examples, cfg.max_len


def test_desk_batch_runs_encoder_and_decoder_once_per_shape(desk_trained,
                                                           monkeypatch):
    model, examples, _ = desk_trained
    cfg = model.config
    shapes = {(len(ex.passage_ids[-cfg.max_passage:]),
               len(ex.comment_ids[:cfg.max_len - 1]) + 1,
               len(ex.local.vertex_ids)) for ex in examples}
    assert len(shapes) == 1             # desk passages and comments: one shape
    calls = []
    encode, decode = model.encode_passage, model._decode
    monkeypatch.setattr(model, "encode_passage", lambda ids: (
        calls.append(("encode_passage", np.shape(ids))), encode(ids))[1])
    monkeypatch.setattr(model, "_decode", lambda memory, prefix: (
        calls.append(("_decode", memory.shape)), decode(memory, prefix))[1])
    model.nll(examples)
    (passage, _, c_e), = shapes
    assert calls == [("encode_passage", (len(examples), passage)),
                     ("_decode", (len(examples), c_e + passage, cfg.d_model))]


def test_desk_batch_feeds_at_most_one_lstm_column_per_entity(desk_trained,
                                                           monkeypatch):
    """A step's vertex rows read one Bi-LSTM column per entity, however
    many of its locals name it."""
    model, examples, _ = desk_trained
    calls = _spy_picks(monkeypatch)
    model.nll(examples)
    shape, (_, cols) = calls[0]
    locals_ = {id(ex.local): ex.local for ex in examples}.values()
    n_rows = sum(len(local.vertex_ids) for local in locals_)
    assert len(cols) == n_rows
    assert shape[1] <= load_config().synth_entities < n_rows


def _uncached_beam(passage_ids, local, model, beam, max_len,
                   length_alpha=0.7):
    """Beam search that re-runs the decoder over each hypothesis's whole
    prefix at every step: the reference for the cached `beam_decode`."""
    with dk.no_grad():
        memory = model.fuse_memory(passage_ids, local)
        active = [Hypothesis(tokens=[BOS], logp=0.0)]
        finished = []
        for _ in range(max_len):
            candidates = []
            for hyp in active:
                probs = dk.softmax(model._decode(memory, hyp.tokens)[-1]).numpy()
                logp = np.log(np.maximum(probs, 1e-30))
                for tok in np.argsort(-logp, kind="stable")[:beam]:
                    candidates.append(Hypothesis(
                        tokens=hyp.tokens + [int(tok)],
                        logp=hyp.logp + float(logp[tok])))
            candidates.sort(key=lambda h: -h.logp)
            active = []
            for h in candidates[:beam]:
                (finished if h.tokens[-1] == EOS else active).append(h)
            if not active:
                break
    finished.extend(active)
    finished.sort(key=lambda h: -h.score(length_alpha))
    return [(h.generated(), h.score(length_alpha)) for h in finished[:beam]]


@pytest.mark.parametrize("beam", [1, 4])
def test_cached_beam_matches_uncached(desk_trained, beam):
    model, examples, max_len = desk_trained
    for ex in examples:
        cached = beam_decode(ex.passage_ids, ex.local, model, beam=beam,
                             max_len=max_len)
        reference = _uncached_beam(ex.passage_ids, ex.local, model, beam,
                                   max_len)
        assert [t for t, _ in cached] == [t for t, _ in reference]
        np.testing.assert_allclose([s for _, s in cached],
                                   [s for _, s in reference], atol=1e-5)


def test_cached_step_matches_full_prefix_decode(desk_trained):
    """Every row of every cached step equals the last position of the
    full-prefix decoder, while rows are duplicated, dropped and reordered
    by `select` as beam search does."""
    model, examples, max_len = desk_trained
    ex = examples[0]
    beams = beam_decode(ex.passage_ids, ex.local, model, beam=4,
                        max_len=max_len)
    seqs = [[BOS] + toks for toks, _ in beams]
    with dk.no_grad():
        memory = model.fuse_memory(ex.passage_ids, ex.local)
        state = model.start_decode(memory)
        rows = [[BOS]]
        for t in range(1, max(len(s) for s in seqs) + 1):
            probs = model.fuse_and_decode_step(state, [r[-1] for r in rows])
            for row, p in zip(rows, probs):
                full = dk.softmax(model._decode(memory, row)[-1]).numpy()
                np.testing.assert_allclose(p, full, atol=1e-5)
            nxt = []
            for s in seqs:
                if len(s) > t and s[:t + 1] not in nxt:
                    nxt.append(s[:t + 1])
            if not nxt:
                break
            if t % 2:
                nxt.reverse()
            state.select([rows.index(n[:-1]) for n in nxt])
            rows = nxt


# ---------------------------------------------------------------------------
# beam bookkeeping on a stub model

class _MarkovStub:
    """Stands in for the model in `beam_decode` and `_uncached_beam`: the
    next-token logits depend on the last token alone, as `logits[last]`."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=np.float32)

    def fuse_memory(self, passage_ids, local):
        return None

    def start_decode(self, memory):
        return _StubState()

    def fuse_and_decode_step(self, state, tokens):
        return dk.softmax(dk.Tensor(self.logits[tokens])).numpy()

    def _decode(self, memory, prefix):
        return dk.Tensor(self.logits[prefix])


class _StubState:
    def select(self, rows):
        pass


# PAD, BOS, EOS, then tokens 3..7. After BOS, 3 and 5 tie; after 3 and 5
# the rows are equal, so their hypotheses' candidates tie across rows, and
# 5 and 6 tie within each row.
TIED = [[0, 0, 0, 0, 0, 0, 0, 0],
        [-9, -9, 0.5, 2, 1, 2, 0, -1],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [-9, -9, 1, 0, -1, 1.5, 1.5, 0],
        [-9, -9, 2, 0, 0, 0, 0, 0],
        [-9, -9, 1, 0, -1, 1.5, 1.5, 0],
        [-9, -9, 3, 0, 0, 0, 0, 0],
        [-9, -9, 0, 1, 1, 1, 1, 1]]


@pytest.mark.parametrize("beam,max_len", [(2, 1), (3, 3), (4, 3), (4, 6)])
def test_beam_ties_break_by_row_then_token(beam, max_len):
    model = _MarkovStub(TIED)
    beams = beam_decode([6], None, model, beam=beam, max_len=max_len)
    reference = _uncached_beam([6], None, model, beam, max_len)
    assert [t for t, _ in beams] == [t for t, _ in reference]
    np.testing.assert_allclose([s for _, s in beams],
                               [s for _, s in reference], rtol=1e-12)
    if max_len == 1:
        assert [t for t, _ in beams] == [[3], [5]]


def test_beam_one_survivor_ending_at_first_step_keeps_its_score():
    logits = np.array(TIED)
    logits[BOS, EOS] = 5.0
    model = _MarkovStub(logits)
    beams = beam_decode([6], None, model, beam=1, max_len=4)
    p_eos = dk.softmax(dk.Tensor(model.logits[BOS])).numpy()[EOS]
    assert beams == [([], float(np.log(p_eos)))]
    assert beams == _uncached_beam([6], None, model, 1, 4)
