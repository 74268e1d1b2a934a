import dataclasses
import zlib
from collections import Counter

import numpy as np
import pytest

from ekgen import diffkit as dk
from ekgen import embed
from ekgen.config import PipelineConfig
from ekgen.corpus import Mention, Novel, Passage, _make_chapter
from ekgen.ekg import (GlobalEKG, LocalEKG, TemporalKG, build_global_ekg,
                       extract_local_ekg)
from ekgen.embed import (EdgeExample, EkgEmbeddings, RelationNetwork,
                         VertexExample, VertexEmbeddingTable, edge_triplet_loss,
                         make_edge_examples, make_vertex_examples,
                         materialize_embeddings, ngram_features,
                         sample_negatives, train_ekg, vertex_loss_smoothed,
                         vertex_loss_total)


def _masked_features(examples, d_f, seed=0):
    """The masked-sentence feature row of each vertex example, after putting
    the mask token at its `mask_pos`, as `make_vertex_examples` does."""
    for e in examples:
        e.tokens[e.mask_pos] = embed.MASK_TOKEN
    return ngram_features([e.tokens for e in examples], d_f, seed)


def test_chapter_index_out_of_range_rejected():
    table = VertexEmbeddingTable(T=2, n_e=3, d_f=2)
    with pytest.raises(ValueError):
        table.at(0)
    with pytest.raises(ValueError):
        table.at(3)


# ---------------------------------------------------------------------------
# smoothed loss

def _reference_plain_loss(example, table, f):
    """Masked-entity cross entropy of feature `f`, computed directly in numpy."""
    logits = table.w.data[example.t - 1] @ f
    shifted = logits - logits.max()
    logp = shifted - np.log(np.exp(shifted).sum())
    return -logp[example.entity_id]


def test_smoothed_reduces_to_plain_loss():
    with dk.use_dtype(np.float64):
        rng = np.random.default_rng(5)
        table = VertexEmbeddingTable(T=3, n_e=4, d_f=8, seed=2)
        for k in range(50):
            ex = VertexExample(t=int(rng.integers(1, 4)),
                               entity_id=int(rng.integers(4)),
                               tokens=list("abcdefgh"[: 4 + k % 5]),
                               mask_pos=k % 3)
            (f,) = _masked_features([ex], 8)
            got = vertex_loss_smoothed(ex, table, (0.0, 1.0, 0.0), 0.0, f).item()
            assert got == pytest.approx(
                _reference_plain_loss(ex, table, f), abs=1e-12)


def test_boundary_chapters_drop_missing_terms():
    with dk.use_dtype(np.float64):
        table = VertexEmbeddingTable(T=1, n_e=3, d_f=6, seed=3)
        ex = VertexExample(t=1, entity_id=1, tokens=list("abcdef"), mask_pos=2)
        (f,) = _masked_features([ex], 6)
        smoothed = vertex_loss_smoothed(ex, table, (0.5, 1.0, 0.3), 0.0, f).item()
        plain = vertex_loss_smoothed(ex, table, (0.0, 1.0, 0.0), 0.0, f).item()
        assert smoothed == pytest.approx(plain, abs=1e-12)


def test_middle_chapter_includes_three_terms():
    with dk.use_dtype(np.float64):
        table = VertexEmbeddingTable(T=3, n_e=3, d_f=6, seed=4)
        ex = VertexExample(t=2, entity_id=0, tokens=list("abcdef"), mask_pos=1)
        (f,) = _masked_features([ex], 6)
        lams = (0.5, 1.0, 0.3)
        total = vertex_loss_smoothed(ex, table, lams, 0.0, f).item()
        parts = 0.0
        for lam, t in zip(lams, (1, 2, 3)):
            shifted = VertexExample(t=t, entity_id=0, tokens=ex.tokens,
                                    mask_pos=1)
            parts += lam * vertex_loss_smoothed(shifted, table, (0, 1, 0), 0.0,
                                                f).item()
        assert total == pytest.approx(parts, abs=1e-10)


def test_all_terms_dropped_is_an_error():
    table = VertexEmbeddingTable(T=1, n_e=3, d_f=6)
    ex = VertexExample(t=1, entity_id=0, tokens=list("abc"), mask_pos=0)
    (f,) = _masked_features([ex], 6)
    with pytest.raises(ValueError):
        vertex_loss_smoothed(ex, table, (0.5, 0.0, 0.3), 0.0, f)


def test_batched_total_matches_per_example_sum():
    with dk.use_dtype(np.float64):
        rng = np.random.default_rng(6)
        table = VertexEmbeddingTable(T=3, n_e=5, d_f=8, seed=7)
        examples = [VertexExample(t=int(rng.integers(1, 4)),
                                  entity_id=int(rng.integers(5)),
                                  tokens=list("abcdefg"), mask_pos=3)
                    for _ in range(9)]
        features = _masked_features(examples, 8)
        slow = sum(vertex_loss_smoothed(e, table, (0.5, 1.0, 0.3), 0.1, f).item()
                   for e, f in zip(examples, features))
        fast = vertex_loss_total(examples, table, (0.5, 1.0, 0.3), 0.1,
                                 features).item()
        assert fast == pytest.approx(slow, rel=1e-10)


# ---------------------------------------------------------------------------
# relation network and triplet loss

def test_rn_zero_weights_give_zero_edge_embedding():
    rn = RelationNetwork(d_f=4, seed=0)
    for p in rn.parameters().values():
        p.data[...] = 0.0
    r = rn.edge_embedding(dk.Tensor(np.ones(4)), dk.Tensor(np.ones(4)))
    np.testing.assert_allclose(r.numpy(), 0.0)


def test_relation_edge_embedding_is_order_sensitive():
    rn = RelationNetwork(d_f=4, seed=1)
    a = dk.Tensor(np.array([1.0, 0.0, 0.0, 0.0]))
    b = dk.Tensor(np.array([0.0, 1.0, 0.0, 0.0]))
    r_ab = rn.edge_embedding(a, b).numpy()
    r_ba = rn.edge_embedding(b, a).numpy()
    assert not np.allclose(r_ab, r_ba)


def test_rn_deterministic():
    rn = RelationNetwork(d_f=4, seed=2)
    a = dk.Tensor(np.linspace(0, 1, 4))
    b = dk.Tensor(np.linspace(1, 0, 4))
    np.testing.assert_array_equal(rn.edge_embedding(a, b).numpy(),
                                  rn.edge_embedding(a, b).numpy())


def test_hinge_arithmetic_worked_examples():
    with dk.use_dtype(np.float64):
        f_c = dk.Tensor(np.zeros(3))
        d = lambda x: dk.l2_distance(dk.Tensor([x, 0.0, 0.0]), f_c)
        inactive = (d(0.2) - d(0.5) + 0.0).relu()
        assert inactive.item() == 0.0
        active = (d(0.5) - d(0.2) + 0.1).relu()
        assert active.item() == pytest.approx(0.4, abs=1e-12)


def test_hinge_inactive_gives_zero_loss_and_zero_gradients():
    with dk.use_dtype(np.float64):
        table = VertexEmbeddingTable(T=1, n_e=4, d_f=6, seed=8)
        rn = RelationNetwork(d_f=6, seed=9)
        ex = EdgeExample(t=1, pair=(0, 1), tokens=list("abcdef"), negative=2)
        loss = edge_triplet_loss([ex], table, rn,
                                 ngram_features([ex.tokens], 6, 0), -1e3)
        assert loss.item() == 0.0
        loss.backward()
        for p in {**rn.parameters(), "w": table.w}.values():
            assert p.grad is None or not np.any(p.grad)


def test_no_negative_returns_none():
    table = VertexEmbeddingTable(T=1, n_e=3, d_f=4)
    rn = RelationNetwork(d_f=4)
    examples = [EdgeExample(t=1, pair=(0, 1), tokens=list("ab"), negative=None),
                EdgeExample(t=1, pair=(1, 2), tokens=list("cd"), negative=None)]
    features = ngram_features([ex.tokens for ex in examples], 4, 0)
    assert edge_triplet_loss(examples, table, rn, features, 0.0) is None
    assert edge_triplet_loss([], table, rn, np.zeros((0, 4)), 0.0) is None


def _per_example_triplet_loss(example, table, rn, f_c):
    """Reconstruction loss at margin 0 of one positive/negative pair against
    the sentence feature `f_c`, built from engine ops, or None when no
    negative was available; `edge_triplet_loss` must match its sum."""
    if example.negative is None:
        return None
    i, j = example.pair
    k = example.negative
    w_t = table.at(example.t)
    v_i, v_j, v_k = w_t[i], w_t[j], w_t[k]
    r_pos = rn.edge_embedding(v_i, v_j)
    f_pos = rn.reconstruct(v_i, r_pos, v_j)
    r_neg = rn.edge_embedding(v_i, v_k)
    f_neg = rn.reconstruct(v_i, r_neg, v_k)
    gap = dk.l2_distance(f_pos, f_c) - dk.l2_distance(f_neg, f_c)
    return gap.relu()


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    """Novel, mentions, entity count and d_f of the desk synthetic corpus."""
    from ekgen import pipeline
    from ekgen.config import load_config
    ws = tmp_path_factory.mktemp("desk")
    cfg = load_config(seed=0)
    pipeline.run_synth(ws, cfg)
    pipeline.run_ingest(ws, cfg)
    c = pipeline.Workspace(ws, cfg).corpus
    return c.novel, c.mentions, c.n_e, cfg.d_f


@pytest.fixture(scope="module")
def synth_edge_batch(desk_corpus):
    """Edge examples of a synthetic corpus with negatives sampled four times
    over, the last one without a negative, and their sentence features. With
    240 examples, adding the hinges in another order changes the sum."""
    novel, mentions, n_e, d_f = desk_corpus
    ekg = build_global_ekg(novel, mentions)
    examples = []
    for seed in range(4):
        examples += sample_negatives(make_edge_examples(novel, ekg), ekg,
                                     np.random.default_rng(seed))
    examples[-1].negative = None
    features = ngram_features([ex.tokens for ex in examples], d_f, 0)
    return examples, novel.num_chapters, n_e, d_f, features


@pytest.mark.parametrize("frozen_table", [True, False])
def test_batched_triplet_loss_matches_the_per_example_sum(synth_edge_batch,
                                                          frozen_table):
    examples, T, n_e, d_f, features = synth_edge_batch
    table = VertexEmbeddingTable(T, n_e, d_f, seed=5)
    table.w.requires_grad = not frozen_table
    rn = RelationNetwork(d_f, seed=6)
    params = {**rn.parameters(), "table.w": table.w}

    reference = None
    for ex, f_c in zip(examples, features):
        term = _per_example_triplet_loss(ex, table, rn, dk.Tensor(f_c))
        if term is not None:
            reference = term if reference is None else reference + term
    (0.7 * reference).backward()
    expected = {k: p.grad for k, p in params.items()}

    for p in params.values():
        p.zero_grad()
    loss = edge_triplet_loss(examples, table, rn, features, 0.0)
    # the batched products and sums add in another order: equal up to
    # float32 round-off, with gradients held relative to their largest entry
    np.testing.assert_allclose(loss.data, reference.data, rtol=1e-5)
    (0.7 * loss).backward()
    hinges = [_per_example_triplet_loss(ex, table, rn, dk.Tensor(f)).item()
              for ex, f in zip(examples, features) if ex.negative is not None]
    assert 0 < sum(h > 0 for h in hinges) < len(hinges)
    for name, p in rn.parameters().items():
        assert p.grad.dtype == np.float32
        np.testing.assert_allclose(p.grad, expected[name], rtol=1e-5,
                                   atol=1e-6 * np.abs(expected[name]).max(),
                                   err_msg=name)
    if frozen_table:
        assert table.w.grad is None
    else:
        np.testing.assert_allclose(table.w.grad, expected["table.w"],
                                   rtol=1e-5, atol=1e-6)


def _reference_bag(tokens, d_f, seed):
    """Hashed n-gram bag, one n-gram at a time."""
    vec = np.zeros(d_f)
    for n in (1, 2, 3):
        for i in range(len(tokens) - n + 1):
            key = ("\x01".join(tokens[i:i + n]) + f"\x02{n}\x02{seed}").encode()
            h = zlib.crc32(key)
            vec[h % d_f] += 1.0 if (h >> 16) & 1 else -1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


@pytest.mark.parametrize("d_f", [3, 64])
def test_bag_matches_one_ngram_at_a_time(d_f):
    rng = np.random.default_rng(d_f)
    alphabet = list("abcdefgh") + ["<mask>", "萧炎", "的"]
    token_lists = [[], ["a"], ["萧炎"]] + [
        [alphabet[k] for k in rng.integers(len(alphabet), size=int(n))]
        for n in rng.integers(2, 80, size=20)]
    for seed in (0, 7):
        for tokens in token_lists:
            (got,) = ngram_features([tokens], d_f, seed)
            want = _reference_bag(tokens, d_f, seed)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want), tokens


def test_negative_sampling_respects_constraints():
    g = TemporalKG(t=1, vertices={0, 1, 2, 3, 4},
                   edges={(0, 1): [(0, 2)], (0, 2): [(0, 2)]})
    ekg = GlobalEKG("n", [g], entity_frequency=None)
    examples = [EdgeExample(t=1, pair=(0, 1), tokens=list("ab"))
                for _ in range(20)]
    sample_negatives(examples, ekg, np.random.default_rng(0))
    for ex in examples:
        # not in the pair and not adjacent to vertex 0 at t
        assert ex.negative in (3, 4)


def test_negative_sampling_unsatisfiable_yields_none():
    g = TemporalKG(t=1, vertices={0, 1}, edges={(0, 1): [(0, 2)]})
    ekg = GlobalEKG("n", [g], entity_frequency=None)
    examples = [EdgeExample(t=1, pair=(0, 1), tokens=list("ab"))]
    sample_negatives(examples, ekg, np.random.default_rng(0))
    assert examples[0].negative is None


# ---------------------------------------------------------------------------
# example construction and training

def _tiny_corpus():
    texts = ["A x B\n\nB y C", "A z C\n\nB w"]
    chapters = [_make_chapter(i + 1, t, "word") for i, t in enumerate(texts)]
    novel = Novel(id="n", title="", chapters=chapters)
    mentions = [Mention(0, 1, (0, 1)), Mention(1, 1, (2, 3)),
                Mention(1, 1, (3, 4)), Mention(2, 1, (5, 6)),
                Mention(0, 2, (0, 1)), Mention(2, 2, (2, 3)),
                Mention(1, 2, (3, 4))]
    return novel, mentions, build_global_ekg(novel, mentions)


def test_vertex_examples_collapse_mention_span():
    novel, mentions, _ = _tiny_corpus()
    examples = make_vertex_examples(novel, mentions)
    assert len(examples) == len(mentions)
    ex = examples[0]
    assert ex.tokens[ex.mask_pos] == embed.MASK_TOKEN
    assert ex.entity_id == 0 and ex.t == 1


def test_edge_examples_one_per_evidence_span():
    novel, mentions, ekg = _tiny_corpus()
    examples = make_edge_examples(novel, ekg)
    expected = sum(len(ev) for g in ekg.graphs for ev in g.edges.values())
    assert len(examples) == expected


def test_train_ekg_learns_and_freezes_table():
    novel, mentions, ekg = _tiny_corpus()
    cfg = PipelineConfig(d_f=16, phase1_steps=40, phase2_steps=5)
    artifact = train_ekg(novel, mentions, ekg, cfg, n_e=3)
    h1 = artifact.history["phase1"]
    assert len(h1) == 40
    assert h1[-1] < h1[0]
    assert all(np.isfinite(v) for v in h1)


def test_train_ekg_lambda_r_zero_skips_phase_two():
    novel, mentions, ekg = _tiny_corpus()
    cfg = PipelineConfig(d_f=8, phase1_steps=3, phase2_steps=5, lambda_r=0.0)
    artifact = train_ekg(novel, mentions, ekg, cfg, n_e=3)
    assert artifact.history["phase2"] == []


def test_artifact_roundtrip(tmp_path):
    novel, mentions, ekg = _tiny_corpus()
    cfg = PipelineConfig(d_f=8, phase1_steps=3, phase2_steps=2)
    artifact = train_ekg(novel, mentions, ekg, cfg, n_e=3)
    path = tmp_path / "embed.bin"
    artifact.save(path)
    loaded = EkgEmbeddings.load(path)
    assert dk.load_arrays(path, magic=dk.EMBED_MAGIC)[1] == {}
    np.testing.assert_allclose(loaded.table.w.data, artifact.table.w.data,
                               atol=1e-6)
    a = dk.Tensor(np.linspace(0, 1, 8))
    b = dk.Tensor(np.linspace(1, 0, 8))
    np.testing.assert_allclose(loaded.rn.edge_embedding(a, b).numpy(),
                               artifact.rn.edge_embedding(a, b).numpy(),
                               atol=1e-6)


def test_materialize_shapes_and_determinism():
    T, d = 3, 8
    table = VertexEmbeddingTable(T=T, n_e=9, d_f=d, seed=1)
    artifact = EkgEmbeddings(table=table, rn=RelationNetwork(d_f=d, seed=2))
    local = LocalEKG(passage_id="p", t=2, vertex_ids=[0, 2, 4, 6, 8],
                     edges=[(0, 2), (2, 4), (4, 6), (6, 8)])
    tables = materialize_embeddings(artifact, [local])
    assert tables.vertex is table.w.data          # the table, not a copy
    assert tables.edge.shape == (3, 4, 8)
    assert np.isfinite(tables.edge).all()
    second = materialize_embeddings(artifact, [local])
    np.testing.assert_array_equal(tables.edge, second.edge)


def _edge_rows_per_pair(artifact, pair):
    """Relation-network edge embeddings of `pair`, one chapter at a time."""
    W = artifact.table.w.data
    i, j = pair
    return np.stack([artifact.rn.edge_embedding(dk.Tensor(w[i]),
                                                dk.Tensor(w[j])).numpy()
                     for w in W])


@pytest.mark.parametrize("vertex_ids, edges", [
    ([0, 2, 4, 6, 8], [(0, 2), (0, 8), (2, 4), (4, 6), (6, 8)]),
    ([1, 5], [(1, 5)]),
    ([3], []),
])
def test_materialize_matches_per_pair_reference(vertex_ids, edges):
    """The local of `vertex_ids` and `edges`, beside a local that falls back
    to the complete graph over entities that never co-occur and one that
    shares its pair (1, 5) with that fallback."""
    T, d = 4, 16
    table = VertexEmbeddingTable(T=T, n_e=9, d_f=d, seed=3)
    table.w.data *= 20.0       # outputs of a few units, as after training
    artifact = EkgEmbeddings(table=table, rn=RelationNetwork(d_f=d, seed=4))
    never = GlobalEKG("n", [TemporalKG(t=1, vertices=set(), edges={})],
                      Counter())
    fallback = extract_local_ekg(never, Passage(
        id="f", chapter_index=2, span=(0, 1), entity_ids={1, 5, 7},
        comments=[]))
    assert fallback.edges == [(1, 5), (1, 7), (5, 7)]
    locals_ = [LocalEKG(passage_id="p", t=1, vertex_ids=vertex_ids,
                        edges=edges), fallback,
               LocalEKG(passage_id="s", t=3, vertex_ids=[0, 1, 5],
                        edges=[(0, 1), (1, 5)])]
    tables = materialize_embeddings(artifact, locals_)
    pairs = list(dict.fromkeys(pair for l in locals_ for pair in l.edges))
    assert list(tables.column.items()) == [(p, i) for i, p in enumerate(pairs)]
    # (1, 5), named by two locals, has one column
    assert len(pairs) < sum(l.c_r for l in locals_)
    assert tables.edge.shape == (T, len(pairs), d)
    assert tables.edge.dtype == table.w.data.dtype
    for pair, col in tables.column.items():
        np.testing.assert_allclose(tables.edge[:, col],
                                   _edge_rows_per_pair(artifact, pair),
                                   rtol=1e-5, atol=1e-5)
    assert tables.vertex is table.w.data
    for local in locals_:
        assert not any(isinstance(getattr(local, f.name), np.ndarray)
                       for f in dataclasses.fields(local))


def test_hashed_encoder_deterministic_and_normalized():
    v1, v2, v3 = ngram_features([list("abcdef"), list("abcdef"), list("ghijkl")],
                                32, 0)
    np.testing.assert_array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-5)
    assert not np.allclose(v1, v3)


# ---------------------------------------------------------------------------
# batched n-gram features

def test_encode_many_rows_equal_one_sentence_bags():
    rng = np.random.default_rng(11)
    alphabet = list("abcdefgh") + ["<mask>", "萧炎", "的"]
    sentences = [[], ["a"], ["<mask>"], ["萧炎", "<mask>", "的"], []] + [
        [alphabet[k] for k in rng.integers(len(alphabet), size=int(n))]
        for n in rng.integers(2, 80, size=30)]
    for d_f, seed in ((3, 0), (64, 7)):
        rows = ngram_features(sentences, d_f, seed)
        assert rows.shape == (len(sentences), d_f) and rows.dtype == np.float64
        for row, tokens in zip(rows, sentences):
            assert np.array_equal(row, ngram_features([tokens], d_f, seed)[0]), tokens
            assert np.array_equal(row, _reference_bag(tokens, d_f, seed)), tokens
    assert ngram_features([], 4, 0).shape == (0, 4)


# ---------------------------------------------------------------------------
# phase 1 as one node: bitwise the graph of elementary ops

def _elementary_vertex_loss_total(examples, table, lambdas, eps_ls, features):
    """Sum of smoothed losses batched per chapter, built from elementary
    engine ops; `vertex_loss_total` must match it bit for bit, value and
    table gradient."""
    by_t = {}
    for idx, ex in enumerate(examples):
        by_t.setdefault(ex.t, []).append(idx)
    total = None
    feats = dk.Tensor(features)
    for t, idxs in sorted(by_t.items()):
        rows = feats[np.asarray(idxs)]
        targets = np.asarray([examples[i].entity_id for i in idxs])
        for lam, tt in ((lambdas[0], t - 1), (lambdas[1], t), (lambdas[2], t + 1)):
            if lam == 0.0 or not 1 <= tt <= len(table.w.data):
                continue
            logits = rows @ table.at(tt).T
            ce = dk.cross_entropy_label_smoothed(logits, targets, eps_ls)
            term = (lam * len(idxs)) * ce
            total = term if total is None else total + term
    return total


def _random_vertex_batch(rng, T, n_e, d_f, n, chapters=None):
    chapters = rng.integers(1, T + 1, size=n) if chapters is None else chapters
    examples = [VertexExample(t=int(t), entity_id=int(rng.integers(n_e)),
                              tokens=[], mask_pos=0) for t in chapters]
    features = rng.standard_normal((n, d_f))
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    return examples, features


@pytest.fixture(scope="module")
def desk_vertex_batch(desk_corpus):
    """Vertex examples of the desk corpus and their masked features, one
    float32 row per example."""
    novel, mentions, n_e, d_f = desk_corpus
    examples = make_vertex_examples(novel, mentions)
    features = _masked_features(examples, d_f).astype(np.float32)
    return examples, novel.num_chapters, n_e, d_f, features


def _vertex_cases(desk):
    """name -> (examples, T, n_e, d_f, features, lambdas, eps_ls)"""
    rng = np.random.default_rng(21)
    novel_ex, novel_f = _random_vertex_batch(rng, 16, 20, 64, 806)
    split_ex, split_f = _random_vertex_batch(rng, 4, 6, 16, 9,
                                             chapters=[1, 1, 1, 2, 3, 3, 4, 4, 4])
    single_ex, single_f = _random_vertex_batch(rng, 1, 5, 8, 7)
    lone_ex, lone_f = _random_vertex_batch(rng, 2, 5, 8, 1, chapters=[2])
    smooth = (0.5, 1.0, 0.3)
    desk_ex, T, n_e, d_f, desk_f = desk
    return {
        "desk": (desk_ex, T, n_e, d_f, desk_f, smooth, 0.1),
        "desk-float64-features": (desk_ex, T, n_e, d_f,
                                  desk_f.astype(np.float64), smooth, 0.1),
        "novel-shaped": (novel_ex, 16, 20, 64, novel_f, smooth, 0.1),
        "one-example-chapter": (split_ex, 4, 6, 16, split_f, smooth, 0.1),
        "T=1": (single_ex, 1, 5, 8, single_f, smooth, 0.1),
        "boundary-lone-example": (lone_ex, 2, 5, 8, lone_f, smooth, 0.1),
        "lambda-0-1-0": (novel_ex, 16, 20, 64, novel_f, (0.0, 1.0, 0.0), 0.1),
        "no-smoothing": (split_ex, 4, 6, 16, split_f, smooth, 0.0),
    }


@pytest.mark.parametrize("held_grad", [False, True])
@pytest.mark.parametrize("case", ["desk", "desk-float64-features",
                                  "novel-shaped", "one-example-chapter", "T=1",
                                  "boundary-lone-example", "lambda-0-1-0",
                                  "no-smoothing"])
def test_vertex_loss_total_is_bitwise_the_elementary_graph(desk_vertex_batch,
                                                           case, held_grad):
    examples, T, n_e, d_f, features, lambdas, eps = \
        _vertex_cases(desk_vertex_batch)[case]
    tables = [VertexEmbeddingTable(T, n_e, d_f, seed=3) for _ in range(2)]
    if held_grad:
        held = np.random.default_rng(4).standard_normal((T, n_e, d_f))
        for tb in tables:
            tb.w.grad = held.astype(np.float32)
    want = _elementary_vertex_loss_total(examples, tables[0], lambdas, eps,
                                         features)
    got = vertex_loss_total(examples, tables[1], lambdas, eps, features)
    assert got.data.dtype == want.data.dtype == np.float32
    assert np.array_equal(got.data, want.data)
    (0.7 * want).backward()
    (0.7 * got).backward()
    assert tables[1].w.grad.dtype == np.float32
    assert np.array_equal(tables[1].w.grad, tables[0].w.grad)


def test_vertex_loss_total_adam_steps_match_elementary_graph(desk_vertex_batch):
    examples, T, n_e, d_f, features = desk_vertex_batch
    runs = []
    for loss_fn in (_elementary_vertex_loss_total, vertex_loss_total):
        table = VertexEmbeddingTable(T, n_e, d_f, seed=0)
        opt = dk.Adam({"table.w": table.w})
        losses = []
        for _ in range(5):
            opt.zero_grad()
            loss = loss_fn(examples, table, (0.5, 1.0, 0.3), 0.1, features)
            losses.append(loss.item())
            loss.backward()
            opt.step(0.05)
        runs.append((losses, table.w.data))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_vertex_loss_total_without_terms_is_none():
    table = VertexEmbeddingTable(1, 3, 4)
    ex = [VertexExample(t=1, entity_id=0, tokens=[], mask_pos=0)]
    assert vertex_loss_total(ex, table, (0.5, 0.0, 0.3), 0.1, np.ones((1, 4))) is None
    assert vertex_loss_total([], table, (0.5, 1.0, 0.3), 0.1, np.ones((0, 4))) is None


# ---------------------------------------------------------------------------
# negatives from one adjacency pass: the same draws as the per-example scan

def _scan_negatives(examples, global_ekg, rng):
    """One negative per example, rescanning the chapter's edges each time."""
    out = []
    for ex in examples:
        g = global_ekg.graphs[ex.t - 1]
        i, j = ex.pair
        adj_i = {b if a == i else a for (a, b) in g.edges if i in (a, b)}
        candidates = sorted(g.vertices - {i, j} - adj_i)
        out.append(int(rng.choice(candidates)) if candidates else None)
    return out


def _novel_like_ekg(seed, T=16, n_e=20):
    """Chapters of 4-12 vertices with edges at densities up to one, so some
    first vertices are adjacent to every other vertex of their chapter."""
    rng = np.random.default_rng(seed)
    graphs = []
    for t in range(1, T + 1):
        vertices = sorted(rng.choice(n_e, size=int(rng.integers(4, 13)),
                                     replace=False).tolist())
        density = rng.uniform(0.2, 1.0)
        edges = {(a, b): [(0, 1)] * int(rng.integers(1, 4))
                 for ai, a in enumerate(vertices) for b in vertices[ai + 1:]
                 if rng.random() < density}
        graphs.append(TemporalKG(t=t, vertices=set(vertices), edges=edges))
    return GlobalEKG("n", graphs, entity_frequency=None)


def _examples_of(ekg):
    return [EdgeExample(t=g.t, pair=pair, tokens=[])
            for g in ekg.graphs for pair, spans in sorted(g.edges.items())
            for _ in spans]


def test_negatives_match_per_example_scan(desk_corpus):
    novel, mentions, _, _ = desk_corpus
    synth_ekg = build_global_ekg(novel, mentions)
    cases = [(synth_ekg, make_edge_examples(novel, synth_ekg))]
    cases += [(ekg, _examples_of(ekg)) for ekg in map(_novel_like_ekg, (1, 2))]
    unsatisfiable = 0
    for ekg, examples in cases:
        for seed in range(5):
            want = _scan_negatives(examples, ekg, np.random.default_rng(seed))
            kept = sample_negatives(examples, ekg, np.random.default_rng(seed))
            assert kept == examples and kept is not examples
            assert [ex.negative for ex in examples] == want
            unsatisfiable += want.count(None)
    assert unsatisfiable > 0
