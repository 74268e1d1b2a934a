"""Temporal vertex/edge embedding learning.

Vertex embeddings: a per-chapter table trained to predict masked entity
mentions, with a temporally smoothed loss coupling adjacent chapters.
Edge embeddings: a two-stage relation network trained with a margin-based
reconstruction (triplet) loss against whole-sentence features. Sentence
features are a frozen hashed n-gram projection, computed once before
training.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from . import diffkit as dk
from .corpus import Mention, Novel
from .ekg import GlobalEKG, LocalEKG

MASK_TOKEN = "<mask>"


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# sentence features

class HashedNgramEncoder:
    """Frozen, deterministic sentence features from hashed character n-grams."""

    def __init__(self, d_f: int = 64, ngram_sizes: tuple[int, ...] = (1, 2, 3),
                 seed: int = 0):
        self.d_f = d_f
        self.ngram_sizes = tuple(ngram_sizes)
        self.seed = seed

    def _bag(self, tokens: list[str]) -> np.ndarray:
        vec = np.zeros(self.d_f)
        for n in self.ngram_sizes:
            for i in range(len(tokens) - n + 1):
                key = ("\x01".join(tokens[i:i + n]) + f"\x02{n}\x02{self.seed}").encode()
                h = zlib.crc32(key)
                vec[h % self.d_f] += 1.0 if (h >> 16) & 1 else -1.0
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    def encode_masked(self, tokens: list[str], mask_pos: int) -> dk.Tensor:
        masked = list(tokens)
        masked[mask_pos] = MASK_TOKEN
        # position-tagged mask n-gram keeps some locality information
        return dk.Tensor(self._bag(masked))

    def encode_cls(self, tokens: list[str]) -> dk.Tensor:
        return dk.Tensor(self._bag(tokens))

    def config(self) -> dict:
        return {"d_f": self.d_f, "ngram_sizes": list(self.ngram_sizes),
                "seed": self.seed}


# ---------------------------------------------------------------------------
# trainable pieces

class VertexEmbeddingTable(dk.Module):
    """Per-chapter entity embeddings, shape (T, n_e, d_f)."""

    def __init__(self, T: int, n_e: int, d_f: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.T = T
        self.n_e = n_e
        self.d_f = d_f
        self.w = dk.parameter(rng, T, n_e, d_f, scale=0.1)

    def at(self, t: int) -> dk.Tensor:
        """Embedding matrix of chapter t (1-based)."""
        if not 1 <= t <= self.T:
            raise ValueError(f"chapter {t} outside 1..{self.T}")
        return self.w[t - 1]


class RelationNetwork(dk.Module):
    """vertex pair -> edge embedding -> reconstructed sentence feature."""

    def __init__(self, d_f: int, margin: float = 0.0, slope: float = 0.2,
                 seed: int = 0):
        rng = np.random.default_rng(seed)
        self.d_f = d_f
        self.margin = margin
        self.slope = slope
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
    mask_pos: int


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
    not adjacent to the first vertex at t. Unsatisfiable examples get None."""
    kept = []
    for ex in examples:
        g = global_ekg.graphs[ex.t - 1]
        i, j = ex.pair
        adj_i = {b if a == i else a for (a, b) in g.edges if i in (a, b)}
        candidates = sorted(g.vertices - {i, j} - adj_i)
        ex.negative = (int(rng.choice(candidates)) if candidates else None)
        kept.append(ex)
    return kept


# ---------------------------------------------------------------------------
# losses

def vertex_probability(f_v, t: int, table: VertexEmbeddingTable) -> np.ndarray:
    """Distribution over entities for a masked-sentence feature at chapter t."""
    logits = table.at(t) @ dk.as_tensor(f_v)
    return dk.softmax(logits).numpy()


def vertex_loss_smoothed(example: VertexExample, table: VertexEmbeddingTable,
                         lambdas: tuple[float, float, float],
                         eps_ls: float, encoder) -> dk.Tensor:
    """Smoothed masked-entity loss for one example; adjacent-chapter terms
    are dropped at the sequence boundaries."""
    lam0, lam1, lam2 = lambdas
    f_v = encoder.encode_masked(example.tokens, example.mask_pos)
    loss = None
    for lam, t in ((lam0, example.t - 1), (lam1, example.t), (lam2, example.t + 1)):
        if lam == 0.0 or not 1 <= t <= table.T:
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
                      features: np.ndarray) -> dk.Tensor:
    """Sum of smoothed losses over all examples, batched per chapter.

    `features` holds the masked-sentence feature of each example, one row
    per example; `vertex_loss_smoothed` is the per-example reference.
    """
    by_t: dict[int, list[int]] = {}
    for idx, ex in enumerate(examples):
        by_t.setdefault(ex.t, []).append(idx)
    total = None
    feats = dk.Tensor(features)
    for t, idxs in sorted(by_t.items()):
        rows = feats[np.asarray(idxs)]
        targets = np.asarray([examples[i].entity_id for i in idxs])
        for lam, tt in ((lambdas[0], t - 1), (lambdas[1], t), (lambdas[2], t + 1)):
            if lam == 0.0 or not 1 <= tt <= table.T:
                continue
            logits = rows @ table.at(tt).T
            ce = dk.cross_entropy_label_smoothed(logits, targets, eps_ls)
            term = (lam * len(idxs)) * ce     # CE reduces by mean
            total = term if total is None else total + term
    return total


def edge_triplet_loss(example: EdgeExample, table: VertexEmbeddingTable,
                      rn: RelationNetwork, f_c: dk.Tensor) -> dk.Tensor | None:
    """Margin reconstruction loss for one positive/negative pair against the
    sentence feature `f_c`, or None when no negative was available."""
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
    gap = dk.l2_distance(f_pos, f_c) - dk.l2_distance(f_neg, f_c) + rn.margin
    return gap.relu()


# ---------------------------------------------------------------------------
# training driver and artifacts

@dataclass
class EmbedTrainConfig:
    d_f: int = 64
    lambdas: tuple[float, float, float] = (0.5, 1.0, 0.3)
    eps_ls: float = 0.1
    margin: float = 0.0
    lambda_r: float = 1.0
    phase1_steps: int = 150
    phase2_steps: int = 100
    lr: float = 0.05
    rn_lr: float = 0.01
    seed: int = 0


@dataclass
class EkgEmbeddings:
    """Trained artifact: vertex table, relation network, encoder spec."""
    T: int
    n_e: int
    d_f: int
    table: VertexEmbeddingTable
    rn: RelationNetwork
    encoder: HashedNgramEncoder
    history: dict = field(default_factory=dict)

    def save(self, path):
        arrays = {"table.w": self.table.w.data}
        for name, p in self.rn.parameters().items():
            arrays[f"rn.{name}"] = p.data
        extra = {"T": self.T, "n_e": self.n_e, "d_f": self.d_f,
                 "margin": self.rn.margin,
                 "encoder_config": self.encoder.config()}
        dk.save_arrays(path, arrays, magic=dk.EMBED_MAGIC, extra=extra)

    @classmethod
    def load(cls, path) -> "EkgEmbeddings":
        arrays, extra = dk.load_arrays(path, magic=dk.EMBED_MAGIC)
        T, n_e, d_f = extra["T"], extra["n_e"], extra["d_f"]
        table = VertexEmbeddingTable(T, n_e, d_f)
        table.w.data = arrays["table.w"].astype(table.w.data.dtype)
        rn = RelationNetwork(d_f, margin=extra.get("margin", 0.0))
        rn.load_state({k[3:]: v for k, v in arrays.items() if k.startswith("rn.")})
        cfg = extra["encoder_config"]
        encoder = HashedNgramEncoder(d_f=cfg["d_f"],
                                     ngram_sizes=tuple(cfg["ngram_sizes"]),
                                     seed=cfg["seed"])
        return cls(T=T, n_e=n_e, d_f=d_f, table=table, rn=rn, encoder=encoder)


def train_ekg(novel: Novel, mentions: list[Mention], global_ekg: GlobalEKG,
              config: EmbedTrainConfig, n_e: int) -> EkgEmbeddings:
    """Two-phase training: vertex table first, then the relation network
    with the table frozen. Sentence features are computed once up front."""
    T = novel.num_chapters
    table = VertexEmbeddingTable(T, n_e, config.d_f, seed=config.seed)
    encoder = HashedNgramEncoder(d_f=config.d_f, seed=config.seed)
    rn = RelationNetwork(config.d_f, margin=config.margin, seed=config.seed + 2)

    v_examples = make_vertex_examples(novel, mentions)
    features = np.stack([encoder.encode_masked(ex.tokens, ex.mask_pos).numpy()
                         for ex in v_examples])

    history: dict[str, list[float]] = {"phase1": [], "phase2": [],
                                       "skipped_negatives": []}

    # phase 1: vertex embeddings
    opt = dk.Adam({"table.w": table.w})
    for step in range(config.phase1_steps):
        opt.zero_grad()
        loss = vertex_loss_total(v_examples, table, config.lambdas,
                                 config.eps_ls, features)
        val = loss.item()
        if not np.isfinite(val):
            raise TrainingDiverged(f"phase 1 loss became {val} at step {step}")
        history["phase1"].append(val)
        loss.backward()
        opt.step(config.lr)

    table_snapshot = table.w.data.copy()

    # phase 2: relation network; the table is frozen
    e_examples = make_edge_examples(novel, global_ekg)
    cls_features = [encoder.encode_cls(ex.tokens) for ex in e_examples]
    table.w.requires_grad = False
    rn_opt = dk.Adam(rn.parameters())
    for step in range(config.phase2_steps if config.lambda_r > 0 else 0):
        rng = np.random.default_rng((config.seed, 7919, step))
        sample_negatives(e_examples, global_ekg, rng)
        rn_opt.zero_grad()
        total = None
        skipped = 0
        for ex, f_c in zip(e_examples, cls_features):
            if ex.negative is None:
                skipped += 1
                continue
            term = edge_triplet_loss(ex, table, rn, f_c)
            total = term if total is None else total + term
        history["skipped_negatives"].append(skipped)
        if total is None:
            break
        loss = config.lambda_r * total
        val = loss.item()
        if not np.isfinite(val):
            raise TrainingDiverged(f"phase 2 loss became {val} at step {step}")
        history["phase2"].append(val)
        loss.backward()
        rn_opt.step(config.rn_lr)
    table.w.requires_grad = True

    assert np.array_equal(table.w.data, table_snapshot), \
        "vertex table changed during phase 2"
    return EkgEmbeddings(T=T, n_e=n_e, d_f=config.d_f, table=table, rn=rn,
                         encoder=encoder, history=history)


def materialize_embeddings(artifact: EkgEmbeddings,
                           local: LocalEKG) -> LocalEKG:
    """Fill the local EKG with dense (T, c_e, d) and (T, c_r, d) sequences.

    Every (chapter, edge) pair goes through the relation network in one
    call; with no edges the result is (T, 0, d)."""
    W = artifact.table.w.data
    local.vertex_seq = W[:, np.asarray(local.vertex_ids), :].copy()
    pairs = np.asarray(local.edges, dtype=int).reshape(-1, 2)
    with dk.no_grad():
        r = artifact.rn.edge_embedding(dk.Tensor(W[:, pairs[:, 0]]),
                                       dk.Tensor(W[:, pairs[:, 1]]))
    local.edge_seq = r.numpy().astype(W.dtype, copy=False)
    return local
