"""Evolutionary knowledge graph: per-chapter co-occurrence graphs and the
passage-local sub-graph selection used by the generator."""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

from .corpus import Mention, Novel, Passage


@dataclass
class TemporalKG:
    t: int
    vertices: set[int]
    # canonical (i, j) with i < j -> list of evidence paragraph spans
    edges: dict[tuple[int, int], list[tuple[int, int]]]


@dataclass
class GlobalEKG:
    novel_id: str
    graphs: list[TemporalKG]
    entity_frequency: Counter

    # Both are computed on first use and kept: a GlobalEKG is not changed
    # after it is built.
    @cached_property
    def union_adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {}
        for g in self.graphs:
            for (i, j) in g.edges:
                adj.setdefault(i, set()).add(j)
                adj.setdefault(j, set()).add(i)
        return adj

    @cached_property
    def cooccurring_pairs(self) -> set[tuple[int, int]]:
        return {pair for g in self.graphs for pair in g.edges}


@dataclass
class LocalEKG:
    """Topology of the K-entity sub-graph around one passage. Its vertices
    and edges name rows of tables shared by every passage: entity ids and
    entity pairs (`embed.EmbeddingTables`)."""
    t: int
    vertex_ids: list[int]                 # sorted ascending
    edges: list[tuple[int, int]]          # (i, j) with i < j, sorted

    @property
    def c_r(self) -> int:
        return len(self.edges)


def build_global_ekg(novel: Novel, mentions: list[Mention]) -> GlobalEKG:
    """One temporal sub-graph per chapter; an edge joins two entities
    mentioned in the same paragraph."""
    by_chapter: dict[int, list[Mention]] = {}
    freq: Counter = Counter()
    for m in mentions:
        by_chapter.setdefault(m.chapter_index, []).append(m)
        freq[m.entity_id] += 1
    graphs = []
    for t, ch in enumerate(novel.chapters, 1):
        ms = by_chapter.get(t, [])
        vertices = {m.entity_id for m in ms}
        edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (ps, pe) in ch.paragraphs:
            here = sorted({m.entity_id for m in ms
                           if m.span[0] >= ps and m.span[1] <= pe})
            for a in range(len(here)):
                for b in range(a + 1, len(here)):
                    edges.setdefault((here[a], here[b]), []).append((ps, pe))
        graphs.append(TemporalKG(t=t, vertices=vertices, edges=edges))
    return GlobalEKG(novel_id=novel.id, graphs=graphs, entity_frequency=freq)


def extract_local_ekg(global_ekg: GlobalEKG, passage: Passage,
                      K: int = 5) -> LocalEKG:
    """Select K entities for the passage.

    Too few: breadth-first search over the union graph, visiting neighbors
    in (frequency desc, id asc) order, until K vertices or the frontier is
    exhausted. Too many: keep the K most frequent. Edges are all selected
    pairs co-occurring in any chapter; if none, fall back to the complete
    graph so the attention stack always has edges.
    """
    freq = global_ekg.entity_frequency
    order = lambda eid: (-freq.get(eid, 0), eid)
    seeds = sorted(passage.entity_ids, key=order)
    if len(seeds) >= K:
        selected = seeds[:K]
    else:
        selected = list(seeds)
        chosen = set(selected)
        adj = global_ekg.union_adjacency
        queue = deque(selected)
        while queue and len(selected) < K:
            cur = queue.popleft()
            for nb in sorted(adj.get(cur, ()), key=order):
                if nb not in chosen:
                    chosen.add(nb)
                    selected.append(nb)
                    queue.append(nb)
                    if len(selected) >= K:
                        break
    vertex_ids = sorted(selected)
    pairs = global_ekg.cooccurring_pairs
    edges = [(a, b) for ai, a in enumerate(vertex_ids)
             for b in vertex_ids[ai + 1:] if (a, b) in pairs]
    if not edges and len(vertex_ids) > 1:
        edges = [(a, b) for ai, a in enumerate(vertex_ids)
                 for b in vertex_ids[ai + 1:]]
    return LocalEKG(t=passage.chapter_index, vertex_ids=vertex_ids, edges=edges)
