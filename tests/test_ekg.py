import itertools
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ekgen import corpus as cp
from ekgen.corpus import Mention
from ekgen.ekg import GlobalEKG, TemporalKG, build_global_ekg, extract_local_ekg


def _novel(chapter_texts):
    chapters = [cp._make_chapter(t) for t in chapter_texts]
    return cp.Novel(id="n", title="", chapters=chapters)


def test_cooccurrence_in_one_paragraph_makes_edge():
    novel = _novel(["A x B\n\nC y"])
    mentions = [Mention(0, 1, (0, 1)), Mention(1, 1, (2, 3)), Mention(2, 1, (3, 4))]
    ekg = build_global_ekg(novel, mentions)
    g = ekg.graphs[0]
    assert g.vertices == {0, 1, 2}
    assert set(g.edges) == {(0, 1)}
    assert g.edges[(0, 1)] == [(0, 3)]


def test_same_chapter_different_paragraphs_no_edge():
    novel = _novel(["A x\n\nB y"])
    mentions = [Mention(0, 1, (0, 1)), Mention(1, 1, (2, 3))]
    ekg = build_global_ekg(novel, mentions)
    assert ekg.graphs[0].vertices == {0, 1}
    assert ekg.graphs[0].edges == {}


def test_chapter_without_mentions_is_empty_graph():
    novel = _novel(["a b", "c d"])
    ekg = build_global_ekg(novel, [Mention(0, 1, (0, 1))])
    assert ekg.graphs[1].vertices == set()
    assert ekg.graphs[1].edges == {}
    assert len(ekg.graphs) == 2


def test_entity_frequency_counts_all_mentions():
    novel = _novel(["A A B", "A c"])
    mentions = [Mention(0, 1, (0, 1)), Mention(0, 1, (1, 2)),
                Mention(1, 1, (2, 3)), Mention(0, 2, (0, 1))]
    ekg = build_global_ekg(novel, mentions)
    assert ekg.entity_frequency == Counter({0: 3, 1: 1})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_edge_count_matches_brute_force_recount(data):
    """Sum of per-edge evidence equals the number of distinct
    (paragraph, pair) co-occurrences, recounted from scratch."""
    n_chapters = data.draw(st.integers(1, 3))
    texts = []
    all_mentions = []
    for t in range(1, n_chapters + 1):
        n_paras = data.draw(st.integers(1, 4))
        texts.append("\n\n".join("w " * 5 for _ in range(n_paras)))
    novel = _novel(texts)
    for t, ch in enumerate(novel.chapters, 1):
        for (ps, pe) in ch.paragraphs:
            for eid in data.draw(st.lists(st.integers(0, 4), max_size=4)):
                pos = data.draw(st.integers(ps, pe - 1))
                all_mentions.append(Mention(eid, t, (pos, pos + 1)))
    ekg = build_global_ekg(novel, all_mentions)

    expected = 0
    for t, ch in enumerate(novel.chapters, 1):
        for (ps, pe) in ch.paragraphs:
            here = {m.entity_id for m in all_mentions
                    if m.chapter_index == t
                    and m.span[0] >= ps and m.span[1] <= pe}
            expected += len(list(itertools.combinations(sorted(here), 2)))
    got = sum(len(ev) for g in ekg.graphs for ev in g.edges.values())
    assert got == expected


# ---------------------------------------------------------------------------
# local extraction

def _chain_ekg(freqs):
    """Path graph 0-1-2-...-n in a single chapter."""
    n = len(freqs)
    edges = {(i, i + 1): [(0, 1)] for i in range(n - 1)}
    g = TemporalKG(t=1, vertices=set(range(n)), edges=edges)
    return GlobalEKG(novel_id="n", graphs=[g],
                     entity_frequency=Counter(dict(enumerate(freqs))))


def _passage(entity_ids):
    return cp.Passage(id="p", chapter_index=1, span=(0, 1),
                      entity_ids=set(entity_ids))


def test_bfs_fills_to_k_vertices():
    ekg = _chain_ekg([5, 4, 3, 2, 1, 1, 1])
    local = extract_local_ekg(ekg, _passage({0, 1}), K=5)
    assert len(local.vertex_ids) == 5
    assert local.vertex_ids == [0, 1, 2, 3, 4]
    assert set(local.edges) == {(0, 1), (1, 2), (2, 3), (3, 4)}


def test_bfs_prefers_high_frequency_neighbors():
    # star around 0 with neighbors 1..4; frequencies favor 3 then 2
    edges = {(0, j): [(0, 1)] for j in range(1, 5)}
    g = TemporalKG(t=1, vertices=set(range(5)), edges=edges)
    ekg = GlobalEKG("n", [g], Counter({0: 9, 1: 1, 2: 5, 3: 7, 4: 2}))
    local = extract_local_ekg(ekg, _passage({0}), K=3)
    assert local.vertex_ids == [0, 2, 3]


def test_over_k_keeps_most_frequent():
    ekg = _chain_ekg([1, 9, 2, 8, 3, 7, 4])
    local = extract_local_ekg(ekg, _passage(set(range(7))), K=5)
    assert local.vertex_ids == sorted(
        sorted(range(7), key=lambda e: (-ekg.entity_frequency[e], e))[:5])
    assert len(local.vertex_ids) == 5


def test_isolated_component_exhausts_frontier():
    g = TemporalKG(t=1, vertices={0, 1, 7, 8},
                   edges={(0, 1): [(0, 1)], (7, 8): [(0, 1)]})
    ekg = GlobalEKG("n", [g], Counter({0: 2, 1: 2, 7: 2, 8: 2}))
    local = extract_local_ekg(ekg, _passage({7, 8}), K=5)
    assert local.vertex_ids == [7, 8]
    assert local.edges == [(7, 8)]


def test_complete_graph_fallback_when_no_cooccurrence():
    g = TemporalKG(t=1, vertices={0, 1, 2}, edges={})
    ekg = GlobalEKG("n", [g], Counter({0: 1, 1: 1, 2: 1}))
    local = extract_local_ekg(ekg, _passage({0, 1, 2}), K=5)
    assert local.edges == [(0, 1), (0, 2), (1, 2)]


def test_extraction_deterministic_on_frequency_ties():
    ekg = _chain_ekg([3, 3, 3, 3, 3, 3])
    a = extract_local_ekg(ekg, _passage({2}), K=4)
    b = extract_local_ekg(ekg, _passage({2}), K=4)
    assert a.vertex_ids == b.vertex_ids
    assert a.edges == b.edges
    # ties broken by ascending entity id
    assert a.vertex_ids == [0, 1, 2, 3]


def test_local_edge_endpoints_are_selected_vertices():
    ekg = _chain_ekg([5, 4, 3, 2, 1])
    local = extract_local_ekg(ekg, _passage({0, 3}), K=3)
    for (a, b) in local.edges:
        assert a in local.vertex_ids and b in local.vertex_ids


def _rebuilding_local_ekg(global_ekg, passage, K):
    """`extract_local_ekg` as it was before the union adjacency and the
    co-occurring pairs were kept on the GlobalEKG: both rebuilt per call."""
    freq = global_ekg.entity_frequency
    order = lambda eid: (-freq.get(eid, 0), eid)
    seeds = sorted(passage.entity_ids, key=order)
    selected = list(seeds[:K])
    if len(seeds) < K:
        adj = {}
        for g in global_ekg.graphs:
            for (i, j) in g.edges:
                adj.setdefault(i, set()).add(j)
                adj.setdefault(j, set()).add(i)
        chosen, queue = set(selected), list(selected)
        while queue and len(selected) < K:
            for nb in sorted(adj.get(queue.pop(0), ()), key=order):
                if nb not in chosen:
                    chosen.add(nb)
                    selected.append(nb)
                    queue.append(nb)
                    if len(selected) >= K:
                        break
    vertex_ids = sorted(selected)
    pairs = {pair for g in global_ekg.graphs for pair in g.edges}
    edges = [(a, b) for ai, a in enumerate(vertex_ids)
             for b in vertex_ids[ai + 1:] if (a, b) in pairs]
    if not edges and len(vertex_ids) > 1:
        edges = list(itertools.combinations(vertex_ids, 2))
    return vertex_ids, edges


def test_local_ekgs_match_per_passage_rebuild(tmp_path):
    from ekgen import pipeline
    from ekgen.config import load_config
    cfg = load_config(seed=0)
    pipeline.run_synth(tmp_path, cfg)
    pipeline.run_ingest(tmp_path, cfg)
    c = pipeline.Workspace(tmp_path, cfg).corpus
    passages = c.passages
    ekg = build_global_ekg(c.novel, c.mentions)
    # a passage with fewer than K entities, whose fill runs the search
    passages.append(_passage({min(ekg.entity_frequency)}))
    chain = _chain_ekg([5, 4, 3, 2, 1, 1, 1])
    cases = [(ekg, p, K) for p in passages for K in (2, cfg.K)]
    cases += [(chain, _passage(ids), 5) for ids in ({0, 1}, {6}, set(range(7)))]
    assert any(len(p.entity_ids) < K for _, p, K in cases)
    for global_ekg, p, K in cases:
        local = extract_local_ekg(global_ekg, p, K)
        assert (local.vertex_ids, local.edges) == \
            _rebuilding_local_ekg(global_ekg, p, K)
    # built once per GlobalEKG, not once per passage
    assert ekg.union_adjacency is ekg.union_adjacency
    assert ekg.cooccurring_pairs is ekg.cooccurring_pairs
