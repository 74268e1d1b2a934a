"""Temporal vertex/edge embedding learning.

Vertex embeddings: a per-chapter table trained to predict masked entity
mentions, with a temporally smoothed loss coupling adjacent chapters.
Edge embeddings: a two-stage relation network trained with a margin-based
reconstruction (triplet) loss against whole-sentence features. Sentence
features are a frozen hashed n-gram projection, computed once before
training.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import diffkit as dk
from .config import PipelineConfig
from .corpus import Mention, Novel
from .ekg import GlobalEKG, LocalEKG

MASK_TOKEN = "<mask>"


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# sentence features

NGRAM_SIZES = (1, 2, 3)          # consecutive from 1: each extends the last


def ngram_features(sentences: list[list[str]], d_f: int, seed: int) -> np.ndarray:
    """Frozen, deterministic sentence features: one row per sentence, the
    signed counts of its hashed n-grams (`NGRAM_SIZES`) scaled to unit
    length (float64, (n, d_f)). An n-gram hashes as `crc32` of its tokens
    joined by `\\x01` plus a size and seed tag; the hash picks a slot
    (`h % d_f`) and a sign (bit 16). Each distinct n-gram is hashed once.
    The counts are whole numbers, so their sums and sums of squares are
    exact in any order, and every row equals the one its sentence gets
    alone."""
    tokens = list(itertools.chain.from_iterable(sentences))
    index = {tok: i for i, tok in enumerate(dict.fromkeys(tokens))}
    ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64,
                      count=len(tokens))
    lens = np.array([len(s) for s in sentences], dtype=np.int64)
    sent = np.repeat(np.arange(len(sentences)), lens)
    # tokens from each position to the end of its sentence
    room = np.repeat(np.cumsum(lens), lens) - np.arange(len(tokens))
    cells, signs = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    rank = ids
    for n in NGRAM_SIZES:
        start = np.flatnonzero(room >= n)
        # number the n-grams at `start` among the distinct ones, from the
        # numbers of the (n-1)-grams they extend
        key = rank[start] * len(index) + ids[start + n - 1] if n > 1 else ids
        distinct, which = np.unique(key, return_inverse=True)
        rank = np.zeros_like(ids)
        rank[start] = which
        at = np.zeros(len(distinct), dtype=np.int64)
        at[which] = start                 # a position of each distinct n-gram
        tag = f"\x02{n}\x02{seed}"
        h = np.array([zlib.crc32(("\x01".join(tokens[s:s + n]) + tag).encode())
                      for s in at.tolist()], dtype=np.int64)
        cells.append(sent[start] * d_f + (h % d_f)[which])
        signs.append(np.where((h >> 16) & 1, 1.0, -1.0)[which])
    vecs = np.bincount(np.concatenate(cells), weights=np.concatenate(signs),
                       minlength=len(sentences) * d_f
                       ).astype(np.float64, copy=False).reshape(-1, d_f)
    norms = np.sqrt((vecs * vecs).sum(axis=-1, keepdims=True))
    return np.divide(vecs, norms, out=vecs, where=norms > 0)


# ---------------------------------------------------------------------------
# trainable pieces

class VertexEmbeddingTable(dk.Module):
    """Per-chapter entity embeddings, shape (T, n_e, d_f)."""

    def __init__(self, T: int, n_e: int, d_f: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.w = dk.parameter(rng, T, n_e, d_f, scale=0.1)

    def at(self, t: int) -> dk.Tensor:
        """Embedding matrix of chapter t (1-based)."""
        if not 1 <= t <= len(self.w.data):
            raise ValueError(f"chapter {t} outside 1..{len(self.w.data)}")
        return self.w[t - 1]


class RelationNetwork(dk.Module):
    """vertex pair -> edge embedding -> reconstructed sentence feature."""
    slope = 0.2                  # of the leaky ReLU after each layer

    def __init__(self, d_f: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.layer1 = dk.Linear(rng, 2 * d_f, d_f)
        self.layer2 = dk.Linear(rng, 3 * d_f, d_f)

    def edge_embedding(self, v_i: dk.Tensor, v_j: dk.Tensor) -> dk.Tensor:
        return self.layer1(dk.concat([v_i, v_j], axis=-1)).leaky_relu(self.slope)

    def reconstruct(self, v_i: dk.Tensor, r: dk.Tensor, v_j: dk.Tensor) -> dk.Tensor:
        return self.layer2(dk.concat([v_i, r, v_j], axis=-1)).leaky_relu(self.slope)


# ---------------------------------------------------------------------------
# training examples

@dataclass
class VertexExample:
    t: int
    entity_id: int
    tokens: list[str]        # sentence with the mention span collapsed
    mask_pos: int            # to the MASK_TOKEN at this index


@dataclass
class EdgeExample:
    t: int
    pair: tuple[int, int]
    tokens: list[str]        # co-occurrence sentence
    negative: int | None = None


def _sentence_window(tokens: list[str], span: tuple[int, int],
                     window: int = 48) -> tuple[list[str], int]:
    """Collapse the mention span to one slot and cut a window around it."""
    s, e = span
    sent = tokens[:s] + [MASK_TOKEN] + tokens[e:]
    pos = s
    lo = max(0, pos - window // 2)
    hi = min(len(sent), lo + window)
    lo = max(0, hi - window)
    return sent[lo:hi], pos - lo


def make_vertex_examples(novel: Novel, mentions: list[Mention],
                         window: int = 48) -> list[VertexExample]:
    out = []
    for m in mentions:
        ch = novel.chapters[m.chapter_index - 1]
        para = next(((ps, pe) for (ps, pe) in ch.paragraphs
                     if m.span[0] >= ps and m.span[1] <= pe),
                    (0, len(ch.tokens)))
        rel_span = (m.span[0] - para[0], m.span[1] - para[0])
        sent, pos = _sentence_window(ch.tokens[para[0]:para[1]], rel_span, window)
        out.append(VertexExample(t=m.chapter_index, entity_id=m.entity_id,
                                 tokens=sent, mask_pos=pos))
    return out


def make_edge_examples(novel: Novel, global_ekg: GlobalEKG,
                       max_sentence: int = 64) -> list[EdgeExample]:
    out = []
    for g in global_ekg.graphs:
        ch = novel.chapters[g.t - 1]
        for (i, j), spans in sorted(g.edges.items()):
            for (ps, pe) in spans:
                out.append(EdgeExample(t=g.t, pair=(i, j),
                                       tokens=ch.tokens[ps:pe][:max_sentence]))
    return out


def sample_negatives(examples: list[EdgeExample], global_ekg: GlobalEKG,
                     rng: np.random.Generator) -> list[EdgeExample]:
    """Pick one negative entity per positive: in V(t), not in the pair, and
    not adjacent to the first vertex at t. Unsatisfiable examples get None.

    Each chapter's adjacency is built once, and the sorted candidates once
    per (chapter, pair). All picks are one `rng.integers` call with one bound
    per example; an empty pool draws from a range of one. numpy draws each
    bounded integer on its own and a range of one consumes nothing, so the
    picks are those of one `rng.choice` per non-empty pool, in order."""
    adjacency: list[dict[int, set[int]]] = []
    for g in global_ekg.graphs:
        adj: dict[int, set[int]] = {}
        for (a, b) in g.edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        adjacency.append(adj)
    candidates: dict[tuple[int, int, int], list[int]] = {}
    pools = []
    for ex in examples:
        i, j = ex.pair
        key = (ex.t, i, j)
        if key not in candidates:
            g = global_ekg.graphs[ex.t - 1]
            near = adjacency[ex.t - 1].get(i, set())
            candidates[key] = sorted(g.vertices - {i, j} - near)
        pools.append(candidates[key])
    picks = rng.integers(0, [max(len(pool), 1) for pool in pools])
    for ex, pool, k in zip(examples, pools, picks.tolist()):
        ex.negative = int(pool[k]) if pool else None
    return list(examples)


# ---------------------------------------------------------------------------
# losses

def vertex_loss_smoothed(example: VertexExample, table: VertexEmbeddingTable,
                         lambdas: tuple[float, float, float],
                         eps_ls: float, feature: np.ndarray) -> dk.Tensor:
    """Smoothed masked-entity loss for one example, whose masked-sentence
    feature is `feature`; adjacent-chapter terms are dropped at the sequence
    boundaries."""
    lam0, lam1, lam2 = lambdas
    f_v = dk.Tensor(feature)
    loss = None
    for lam, t in ((lam0, example.t - 1), (lam1, example.t), (lam2, example.t + 1)):
        if lam == 0.0 or not 1 <= t <= len(table.w.data):
            continue
        ce = dk.cross_entropy_label_smoothed(table.at(t) @ f_v,
                                             example.entity_id, eps_ls)
        term = lam * ce
        loss = term if loss is None else loss + term
    if loss is None:
        raise ValueError("all smoothing weights zero or out of range")
    return loss


def vertex_loss_total(examples: list[VertexExample], table: VertexEmbeddingTable,
                      lambdas: tuple[float, float, float], eps_ls: float,
                      features: np.ndarray) -> dk.Tensor | None:
    """Sum over all examples of λ times the label-smoothed cross entropy of
    each smoothing term that applies; None when none does. `features` holds
    each example's masked-sentence feature, one row per example, and
    `vertex_loss_smoothed` is the per-example reference. The rows scored
    against chapter tt's table fill row block tt of one zero-padded array,
    so all logits are one batched product with the table."""
    T, n_e, d_f = table.w.shape
    t, y = np.array([(ex.t, ex.entity_id) for ex in examples],
                    dtype=np.int64).reshape(-1, 2).T
    # (example, term) pairs: the term's 0-based chapter and its λ
    n = np.tile(np.arange(len(t)), 3)
    tt = np.concatenate([t - 2, t - 1, t])
    lam = np.repeat(lambdas, len(t))
    keep = np.flatnonzero((lam != 0.0) & (tt >= 0) & (tt < T))
    if not len(keep):
        return None
    keep = keep[np.argsort(tt[keep], kind="stable")]       # grouped by chapter
    n, tt, lam = n[keep], tt[keep], lam[keep]
    counts = np.bincount(tt, minlength=T)
    at = (tt, np.arange(len(tt)) - (np.cumsum(counts) - counts)[tt])   # block, row
    F = np.zeros((T, counts.max(), d_f), dtype=table.w.data.dtype)
    F[at] = features[n]
    # λ times each pair's smoothed target distribution over the entities
    q = np.zeros((T, counts.max(), n_e), dtype=F.dtype)
    q[at] = (lam * eps_ls / n_e)[:, None]
    q[(*at, y[n])] += lam * (1.0 - eps_ls)
    logp = dk.log_softmax(dk.Tensor(F) @ table.w.transpose(0, 2, 1))
    return -(logp * q).sum()


def edge_triplet_loss(examples: list[EdgeExample], table: VertexEmbeddingTable,
                      rn: RelationNetwork, features: np.ndarray,
                      margin: float) -> dk.Tensor | None:
    """Summed reconstruction loss with margin `margin` of every example that
    has a negative, against its sentence feature (the same row of
    `features`); None when no example has a negative.

    Rows are stacked as (example, positive then negative), so each layer of
    `rn` is one matrix product over all rows. The result equals the sum of
    the per-example graphs up to float32 round-off: the products and sums
    add in another order.
    """
    keep = [n for n, ex in enumerate(examples) if ex.negative is not None]
    if not keep:
        return None
    t = np.repeat([examples[n].t - 1 for n in keep], 2)
    i = np.repeat([examples[n].pair[0] for n in keep], 2)
    j = np.array([(examples[n].pair[1], examples[n].negative) for n in keep]).ravel()
    f_c = np.repeat(np.asarray(features)[keep], 2, axis=0)
    v_i, v_j = table.w[t, i], table.w[t, j]
    diff = rn.reconstruct(v_i, rn.edge_embedding(v_i, v_j), v_j) - f_c
    d = (diff * diff).sum(-1).sqrt()
    return ((d[0::2] - d[1::2]) + margin).relu().sum()


# ---------------------------------------------------------------------------
# training driver and artifacts

@dataclass
class EkgEmbeddings(dk.Module):
    """Trained artifact: the vertex table, of shape (T, n_e, d_f), and the
    relation network. Its file holds their arrays (`table.w`, `rn.*`) and
    nothing else."""
    table: VertexEmbeddingTable
    rn: RelationNetwork
    history: dict = field(default_factory=dict)

    def save(self, path):
        dk.save_arrays(path, self.state(), magic=dk.EMBED_MAGIC)

    @classmethod
    def load(cls, path) -> "EkgEmbeddings":
        """The artifact saved at `path`, its dims read from the table's
        shape; arrays missing or beside its own raise ValueError."""
        arrays, _ = dk.load_arrays(path, magic=dk.EMBED_MAGIC)
        T, n_e, d_f = arrays["table.w"].shape
        artifact = cls(VertexEmbeddingTable(T, n_e, d_f), RelationNetwork(d_f))
        artifact.load_state(arrays)
        return artifact


def train_ekg(novel: Novel, mentions: list[Mention], global_ekg: GlobalEKG,
              cfg: PipelineConfig, n_e: int) -> EkgEmbeddings:
    """Two-phase training: vertex table first (`cfg.phase1_steps` steps),
    then the relation network with the table frozen (`cfg.phase2_steps`).
    Sentence features are computed once up front."""
    table = VertexEmbeddingTable(novel.num_chapters, n_e, cfg.d_f, seed=cfg.seed)
    rn = RelationNetwork(cfg.d_f, seed=cfg.seed + 2)

    v_examples = make_vertex_examples(novel, mentions)
    features = ngram_features([ex.tokens for ex in v_examples], cfg.d_f,
                              cfg.seed)

    history: dict[str, list[float]] = {"phase1": [], "phase2": [],
                                       "skipped_negatives": []}

    # phase 1: vertex embeddings
    opt = dk.Adam({"table.w": table.w})
    for step in range(cfg.phase1_steps):
        opt.zero_grad()
        loss = vertex_loss_total(v_examples, table, cfg.lambdas,
                                 cfg.eps_ls, features)
        val = loss.item()
        if not np.isfinite(val):
            raise TrainingDiverged(f"phase 1 loss became {val} at step {step}")
        history["phase1"].append(val)
        loss.backward()
        opt.step(cfg.embed_lr)

    table_snapshot = table.w.data.copy()

    # phase 2: relation network; the table is frozen
    e_examples = make_edge_examples(novel, global_ekg)
    cls_features = ngram_features([ex.tokens for ex in e_examples],
                                  cfg.d_f, cfg.seed)
    table.w.requires_grad = False
    rn_opt = dk.Adam(rn.parameters())
    for step in range(cfg.phase2_steps if cfg.lambda_r > 0 else 0):
        rng = np.random.default_rng((cfg.seed, 7919, step))
        sample_negatives(e_examples, global_ekg, rng)
        rn_opt.zero_grad()
        history["skipped_negatives"].append(
            sum(ex.negative is None for ex in e_examples))
        total = edge_triplet_loss(e_examples, table, rn, cls_features,
                                  cfg.alpha)
        if total is None:
            break
        loss = cfg.lambda_r * total
        val = loss.item()
        if not np.isfinite(val):
            raise TrainingDiverged(f"phase 2 loss became {val} at step {step}")
        history["phase2"].append(val)
        loss.backward()
        rn_opt.step(cfg.rn_lr)
    table.w.requires_grad = True

    assert np.array_equal(table.w.data, table_snapshot), \
        "vertex table changed during phase 2"
    return EkgEmbeddings(table=table, rn=rn, history=history)


@dataclass
class EmbeddingTables:
    """The rows that local EKGs name: the (T, n_e, d_f) vertex table by
    entity id, and (T, pairs, d_f) edge rows by the column of a pair."""
    vertex: np.ndarray
    edge: np.ndarray
    column: dict[tuple[int, int], int]


def materialize_embeddings(artifact: EkgEmbeddings,
                           locals_: list[LocalEKG]) -> EmbeddingTables:
    """The vertex table, not a copy, and the edge rows of the pairs that
    `locals_` join, in order of first use, from one `rn.edge_embedding` call
    without a graph; with no pairs they are (T, 0, d_f)."""
    pairs = dict.fromkeys(pair for local in locals_ for pair in local.edges)
    w, ends = artifact.table.w, np.asarray(list(pairs), dtype=int).reshape(-1, 2)
    with dk.no_grad():
        edge = artifact.rn.edge_embedding(w[:, ends[:, 0]], w[:, ends[:, 1]])
    return EmbeddingTables(w.data, edge.data, {p: i for i, p in enumerate(pairs)})
