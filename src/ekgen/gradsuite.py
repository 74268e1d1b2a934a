"""Named finite-difference checks for every differentiable op and loss.

Used by the `grad-check` CLI subcommand and by the acceptance suite.
All checks run in float64; smooth ops are held to 1e-6 relative error,
kinked/compound losses to 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffkit as dk
from .config import PipelineConfig
from .ekg import LocalEKG
from .embed import (MASK_TOKEN, EdgeExample, EmbeddingTables,
                    RelationNetwork, VertexEmbeddingTable, VertexExample,
                    edge_triplet_loss, ngram_features, vertex_loss_total)
from .graph2seq import G2SExample, GATLayer, Graph2SeqModel, gat_layer

SMOOTH_TOL = 1e-6
ROUGH_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.rel_err <= self.tolerance


def _check(name, f, params, tol) -> CheckResult:
    return CheckResult(name=name, rel_err=dk.grad_check(f, params), tolerance=tol)


def _op_checks(rng) -> list[CheckResult]:
    results = []
    a = dk.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = dk.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    c = dk.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    v = dk.Tensor(rng.standard_normal(6), requires_grad=True)
    w = dk.Tensor(rng.standard_normal(6), requires_grad=True)

    results.append(_check("matmul", lambda: (a @ b).sum(), {"a": a, "b": b},
                          SMOOTH_TOL))
    results.append(_check("add_mul", lambda: ((a + c) * c).sum(),
                          {"a": a, "c": c}, SMOOTH_TOL))
    results.append(_check("concat_slice",
                          lambda: (dk.concat([v, w])[2:9] ** 2).sum(),
                          {"v": v, "w": w}, SMOOTH_TOL))
    results.append(_check("tanh", lambda: a.tanh().sum(), {"a": a}, SMOOTH_TOL))
    results.append(_check("sigmoid", lambda: a.sigmoid().sum(), {"a": a},
                          SMOOTH_TOL))
    results.append(_check("gelu", lambda: (a.gelu() * c).sum(), {"a": a},
                          SMOOTH_TOL))
    results.append(_check("leaky_relu",
                          lambda: (a.leaky_relu(0.2) * c).sum(), {"a": a},
                          ROUGH_TOL))
    results.append(_check("softmax",
                          lambda: (dk.softmax(a, axis=-1) * c).sum(), {"a": a},
                          SMOOTH_TOL))
    results.append(_check("cross_entropy_ls",
                          lambda: dk.cross_entropy_label_smoothed(v, 2, 0.1),
                          {"v": v}, SMOOTH_TOL))
    results.append(_check("l2_distance", lambda: dk.l2_distance(v, w),
                          {"v": v, "w": w}, SMOOTH_TOL))
    g = dk.Tensor(rng.standard_normal(4) * 0.5 + 1.0, requires_grad=True)
    bb = dk.Tensor(rng.standard_normal(4), requires_grad=True)
    ln_probe = dk.Tensor(rng.standard_normal((3, 4)))
    results.append(_check("layer_norm",
                          lambda: (dk.layer_norm(a, g, bb) * ln_probe).sum(),
                          {"a": a, "g": g, "b": bb}, SMOOTH_TOL))
    emb = dk.Tensor(rng.standard_normal((7, 4)), requires_grad=True)
    results.append(_check("embedding_lookup",
                          lambda: (dk.embedding_lookup(emb, [1, 3, 1]) ** 2).sum(),
                          {"emb": emb}, SMOOTH_TOL))
    return results


def _nn_checks(rng) -> list[CheckResult]:
    results = []
    seed = int(rng.integers(1 << 30))
    prng = np.random.default_rng(seed)
    cell = dk.LSTMCell(prng, 3, 4)
    x = dk.Tensor(prng.standard_normal((1, 3)), requires_grad=True)
    results.append(_check("lstm_cell",
                          lambda: (dk.lstm_sequence(x, cell) ** 2).sum(),
                          {"x": x, **cell.parameters()}, SMOOTH_TOL))
    # a (T, batch, d_in) sequence in both directions
    xs = dk.Tensor(prng.standard_normal((3, 2, 3)), requires_grad=True)
    hprobe = dk.Tensor(prng.standard_normal((3, 2, 4)))
    for name, reverse in (("lstm_sequence", False),
                          ("lstm_sequence_reverse", True)):
        results.append(_check(
            name, lambda: (dk.lstm_sequence(xs, cell, reverse) * hprobe).sum(),
            {"x": xs, **cell.parameters()}, SMOOTH_TOL))
    lstm = dk.BiLSTM(prng, 3, 2, n_layers=2)
    seq = dk.Tensor(prng.standard_normal((3, 3)), requires_grad=True)
    results.append(_check("bilstm", lambda: (lstm(seq) ** 2).sum(),
                          {"seq": seq, **lstm.parameters()}, ROUGH_TOL))
    attn = dk.MultiHeadAttention(prng, 4, 2)
    q = dk.Tensor(prng.standard_normal((3, 4)), requires_grad=True)
    results.append(_check("multi_head_attention",
                          lambda: (attn(q, q, q) ** 2).sum(),
                          {"q": q, **attn.parameters()}, SMOOTH_TOL))
    dec = dk.TransformerDecoderLayer(prng, 4, 2, 8)
    mem = dk.Tensor(prng.standard_normal((2, 4)), requires_grad=True)
    mask = dk.causal_mask(3)
    results.append(_check("transformer_decoder_layer",
                          lambda: (dec(q, mem, mask) ** 2).sum(),
                          {"q": q, "mem": mem, **dec.parameters()}, ROUGH_TOL))
    # batched heads: 3-D queries against 2-D keys and values shared by the
    # batch, as in beam decoding; and one 2-D causally masked case
    qb = dk.Tensor(prng.standard_normal((2, 3, 4)), requires_grad=True)
    kb = dk.Tensor(prng.standard_normal((5, 4)), requires_grad=True)
    vb = dk.Tensor(prng.standard_normal((5, 4)), requires_grad=True)
    probe = dk.Tensor(prng.standard_normal((2, 3, 4)))
    results.append(_check("multi_head_attention_batched",
                          lambda: (dk.multi_head_attention(qb, kb, vb, 2)
                                   * probe).sum(),
                          {"q": qb, "k": kb, "v": vb}, SMOOTH_TOL))
    km = dk.Tensor(prng.standard_normal((3, 4)), requires_grad=True)
    vm = dk.Tensor(prng.standard_normal((3, 4)), requires_grad=True)
    results.append(_check("multi_head_attention_masked",
                          lambda: (dk.multi_head_attention(q, km, vm, 2, mask)
                                   * probe[0]).sum(),
                          {"q": q, "k": km, "v": vm}, SMOOTH_TOL))
    # vertex 4 has no edges; leaky_relu's kink makes these rough
    gat = GATLayer(prng, 4)
    gv = dk.Tensor(prng.standard_normal((5, 4)), requires_grad=True)
    ge = dk.Tensor(prng.standard_normal((3, 4)), requires_grad=True)
    gprobe = dk.Tensor(prng.standard_normal((5, 4)))
    edges = [(0, 1), (1, 2), (0, 3)]
    for name, mode in (("gat_layer_v", "GAT_V"), ("gat_layer_ve", "GAT_VE")):
        results.append(_check(
            name, lambda: (gat_layer(gv, ge, edges, gat, mode) * gprobe).sum(),
            {"v": gv, "e": ge, **gat.parameters()}, ROUGH_TOL))
    return results


def _triplet_gap(ex, table, rn, f_c) -> float:
    """Distance of the positive minus that of the negative: the hinge of
    `ex` is active when this plus the margin is above zero."""
    w = table.w.data[ex.t - 1]
    def dist(k):
        v_i, v_k = dk.Tensor(w[ex.pair[0]]), dk.Tensor(w[k])
        f = rn.reconstruct(v_i, rn.edge_embedding(v_i, v_k), v_k)
        return dk.l2_distance(f, f_c).item()
    return dist(ex.pair[1]) - dist(ex.negative)


def _loss_checks(rng) -> list[CheckResult]:
    """Eq-level losses: plain and smoothed vertex loss, triplet loss, the
    multi-task sum, and the full generator NLL, alone and over a batch."""
    results = []
    T, n_e, d_f = 3, 4, 6
    table = VertexEmbeddingTable(T, n_e, d_f, seed=int(rng.integers(1 << 30)))
    examples = [VertexExample(t=int(rng.integers(1, T + 1)),
                              entity_id=int(rng.integers(n_e)),
                              tokens=[*"abc", MASK_TOKEN, *"def"], mask_pos=3)
                for _ in range(4)]
    features = ngram_features([e.tokens for e in examples], d_f, 3)
    results.append(_check(
        "vertex_loss_plain",
        lambda: vertex_loss_total(examples, table, (0.0, 1.0, 0.0), 0.0, features),
        {"w": table.w}, ROUGH_TOL))
    results.append(_check(
        "vertex_loss_smoothed",
        lambda: vertex_loss_total(examples, table, (0.5, 1.0, 0.3), 0.1, features),
        {"w": table.w}, ROUGH_TOL))

    rn = RelationNetwork(d_f, seed=int(rng.integers(1 << 30)))
    ex = EdgeExample(t=2, pair=(0, 1), tokens=list("ghijkl"), negative=2)
    f_c = ngram_features([ex.tokens], d_f, 3)
    # margin chosen so the hinge is active, away from its kink
    results.append(_check("edge_triplet_loss",
                          lambda: edge_triplet_loss([ex], table, rn, f_c, 0.3),
                          {"w": table.w, **rn.parameters()}, ROUGH_TOL))

    # four examples, one without a negative; the margin sits halfway across
    # the widest space between the hinges' kinks, so some hinges are active,
    # the others inactive, and none is near its kink
    batch = [EdgeExample(t=1, pair=(0, 1), tokens=list("abcd"), negative=2),
             EdgeExample(t=3, pair=(1, 3), tokens=list("efgh"), negative=0),
             EdgeExample(t=2, pair=(2, 0), tokens=list("ijkl"), negative=None),
             EdgeExample(t=2, pair=(3, 2), tokens=list("mnop"), negative=1)]
    feats = ngram_features([e.tokens for e in batch], d_f, 3)
    batch_rn = RelationNetwork(d_f, seed=int(rng.integers(1 << 30)))
    kinks = sorted(-_triplet_gap(e, table, batch_rn, f)
                   for e, f in zip(batch, feats) if e.negative is not None)
    k = int(np.argmax(np.diff(kinks)))
    margin = (kinks[k] + kinks[k + 1]) / 2
    results.append(_check("edge_triplet_loss_batch",
                          lambda: edge_triplet_loss(batch, table, batch_rn, feats,
                                                    margin),
                          {"w": table.w, **batch_rn.parameters()}, ROUGH_TOL))

    def multitask():
        return (vertex_loss_total(examples, table, (0.5, 1.0, 0.3), 0.1, features)
                + 1.0 * edge_triplet_loss([ex], table, rn, f_c, 0.3))
    results.append(_check("multi_task_loss", multitask,
                          {"w": table.w, **rn.parameters()}, ROUGH_TOL))

    cfg = PipelineConfig(d_f=4, d_model=8, n_heads=2, encoder_layers=1,
                         decoder_layers=1, bilstm_layers=1, gat_layers=1,
                         mode="GAT_VE", max_len=10,
                         seed=int(rng.integers(1 << 30)))
    model = Graph2SeqModel(cfg, 9)
    model.tables = EmbeddingTables(vertex=rng.standard_normal((3, 3, 4)),
                                   edge=rng.standard_normal((3, 2, 4)),
                                   column={(0, 1): 0, (1, 2): 1})
    local = LocalEKG(t=2, vertex_ids=[0, 1, 2], edges=[(0, 1), (1, 2)])
    passage = [6, 7, 8, 6]
    comment = [7, 8]
    params = model.parameters()
    results.append(_check("g2s_full_nll",
                          lambda: model.nll([G2SExample(passage, local, comment)]),
                          params, ROUGH_TOL))
    # three examples: two of one shape share `local`, so their graph rows
    # repeat in one stacked gather; the third is a shape of its own, at
    # another chapter and without edges; one GAT union holds both locals
    other = LocalEKG(t=3, vertex_ids=[0, 1], edges=[])
    batch = [G2SExample(passage, local, comment),
             G2SExample([8, 6, 7, 7], local, [8, 6]),
             G2SExample([8, 6], other, [6])]
    results.append(_check("g2s_batch_nll", lambda: model.nll(batch), params,
                          ROUGH_TOL))
    return results


def _fused_checks(rng) -> list[CheckResult]:
    """Fused ops at the shapes and options the model does not reach in the
    entries above: `linear` on 1-D input and without bias, `layer_norm` over
    a 3-D batch, one `bilstm_layer` over two sequences, and the rows of a
    2-layer `BiLSTM` gathered at (time, sequence) pairs that hold the first
    and the last step and repeat one pair."""
    results = []
    w = dk.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = dk.Tensor(rng.standard_normal(3), requires_grad=True)
    x2 = dk.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    x1 = dk.Tensor(rng.standard_normal(4), requires_grad=True)
    probe = rng.standard_normal((5, 3))
    for name, x, bias, pr in (("linear", x2, b, probe),
                              ("linear_1d", x1, b, probe[0]),
                              ("linear_no_bias", x2, None, probe)):
        params = {"x": x, "w": w}
        if bias is not None:
            params["b"] = bias
        results.append(_check(
            name, lambda: (dk.linear(x, w, bias) * dk.Tensor(pr)).sum(),
            params, SMOOTH_TOL))
    x3 = dk.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    g = dk.Tensor(rng.standard_normal(4) * 0.5 + 1.0, requires_grad=True)
    bb = dk.Tensor(rng.standard_normal(4), requires_grad=True)
    ln_probe = dk.Tensor(rng.standard_normal((2, 3, 4)))
    results.append(_check("layer_norm_3d",
                          lambda: (dk.layer_norm(x3, g, bb) * ln_probe).sum(),
                          {"x": x3, "g": g, "b": bb}, SMOOTH_TOL))
    lstm = dk.BiLSTM(np.random.default_rng(int(rng.integers(1 << 30))), 3, 2,
                     n_layers=2)
    seq = dk.Tensor(rng.standard_normal((3, 2, 3)), requires_grad=True)
    fwd, bwd = lstm.fwd[0], lstm.bwd[0]
    layer_params = {"seq": seq, **{f"{name}.{k}": p for name, cell in
                                   (("fwd", fwd), ("bwd", bwd))
                                   for k, p in cell.parameters().items()}}
    probe = dk.Tensor(rng.standard_normal((3, 2, 4)))
    results.append(_check(
        "bilstm_layer", lambda: (dk.bilstm_layer(seq, fwd, bwd) * probe).sum(),
        layer_params, ROUGH_TOL))
    # (time, sequence) pairs: the first and the last step, and one repeated
    times, cols = np.array([0, 1, 1, 2]), np.array([1, 0, 0, 1])
    row_probe = dk.Tensor(rng.standard_normal((len(times), 4)))
    results.append(_check(
        "bilstm_rows", lambda: (lstm(seq)[times, cols] * row_probe).sum(),
        {"seq": seq, **lstm.parameters()}, ROUGH_TOL))
    return results


def _vertex_boundary_checks(rng) -> list[CheckResult]:
    """The smoothed vertex loss at T = 2, where every chapter drops a
    neighbour's term, with one chapter holding a single example (a 1-row
    matmul)."""
    table = VertexEmbeddingTable(2, 4, 6, seed=int(rng.integers(1 << 30)))
    examples = [VertexExample(t=t, entity_id=e, tokens=[], mask_pos=0)
                for t, e in ((1, 0), (2, 3), (1, 2), (1, 1))]
    features = rng.standard_normal((len(examples), 6))
    return [_check(
        "vertex_loss_boundary",
        lambda: vertex_loss_total(examples, table, (0.5, 1.0, 0.3), 0.1, features),
        {"w": table.w}, ROUGH_TOL)]


def run_gradient_suite(seed: int = 0) -> list[CheckResult]:
    with dk.use_dtype(np.float64):
        rng = np.random.default_rng(seed)
        return (_op_checks(rng) + _nn_checks(rng) + _loss_checks(rng)
                + _fused_checks(rng) + _vertex_boundary_checks(rng))
