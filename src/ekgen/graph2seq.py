"""Graph-to-sequence comment generator.

Local-EKG vertex/edge sequences run through a shared temporal Bi-LSTM;
an edge-aware graph attention stack aggregates them; the decoder
cross-attends over the graph encodings concatenated with the passage
encoder output. Three modes: EKG (no graph attention), GAT_V (vertex
attention only), GAT_VE (vertex + edge attention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffkit as dk
from .config import PipelineConfig
from .corpus import BOS, EOS, PAD
from .ekg import LocalEKG
from .embed import EmbeddingTables, TrainingDiverged

class GATLayer(dk.Module):
    """Single-head graph attention with edge-feature terms.

    Vertex i's logits cover itself, every neighbour j and (in GAT_VE mode)
    every incident edge; one joint softmax per vertex normalizes them. All
    vertices share one dense softmax over the columns [vertices | edges],
    masked by an identity block, the edge pairs' cells and an incidence block.
    """

    slope = 0.2                  # of the leaky ReLU on the logits

    def __init__(self, rng, d: int, edge_attention: bool = True):
        self.w = dk.Linear(rng, d, d, bias=False)
        self.a_g = dk.parameter(rng, 2 * d)
        # the vertex-edge logits' weights; a GAT_V layer has none
        self.a_h = dk.parameter(rng, 2 * d) if edge_attention else None
        # per vertex, post-softmax, in column order: the vertex itself and
        # its neighbours by position, then its incident edges by edge index
        self.last_coefficients: list[np.ndarray] = []

    def _logits(self, a: dk.Tensor, rows: dk.Tensor, cols: dk.Tensor) -> dk.Tensor:
        """leaky(a[:d] . rows_i + a[d:] . cols_j) for every pair (i, j)."""
        d = rows.shape[-1]
        src = (rows @ a[:d]).reshape(rows.shape[0], 1)
        dst = (cols @ a[d:]).reshape(1, cols.shape[0])
        return (src + dst).leaky_relu(self.slope)

    def __call__(self, vfeats: dk.Tensor, efeats: dk.Tensor | None,
                 edges: list[tuple[int, int]], use_edges: bool) -> dk.Tensor:
        c_e = vfeats.shape[0]
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        low, high = np.sort(pairs, axis=1).T
        first = np.zeros(len(pairs), dtype=bool)     # the first on its vertex pair
        first[np.unique(low * c_e + high, return_index=True)[1]] = True
        bad = ~first | (low == high) | (low < 0) | (high >= c_e)
        if bad.any():
            raise ValueError(f"edges {np.flatnonzero(bad).tolist()} are self-loops, "
                             f"repeat a vertex pair or leave vertices 0..{c_e - 1}")
        allowed = np.eye(c_e, c_e + len(pairs), dtype=bool)
        allowed[pairs, pairs[:, ::-1]] = True                     # neighbours
        allowed[pairs, c_e + np.arange(len(pairs))[:, None]] = True   # edges
        wv = self.w(vfeats)
        wr = self.w(efeats) if (use_edges and efeats is not None
                                and efeats.shape[0]) else None
        if wr is not None and self.a_h is None:
            raise ValueError("edge attention on a layer built without it")
        logits = self._logits(self.a_g, wv, wv)
        values = wv
        if wr is not None:
            logits = dk.concat([logits, self._logits(self.a_h, wv, wr)], axis=1)
            values = dk.concat([wv, wr])
        allowed = allowed[:, :logits.shape[1]]
        coefs = dk.softmax(logits + dk.Tensor(np.where(allowed, 0.0, -1e9)), axis=-1)
        self.last_coefficients = np.split(coefs.numpy()[allowed],
                                          np.cumsum(allowed.sum(1))[:-1])
        return coefs @ values


def gat_layer(vfeats, efeats, edges, layer: GATLayer, mode: str) -> dk.Tensor:
    return layer(vfeats, efeats, edges, use_edges=(mode == "GAT_VE"))


class Graph2SeqModel(dk.Module):
    def __init__(self, cfg: PipelineConfig, vocab_size: int):
        rng = np.random.default_rng(cfg.seed)
        self.config = cfg
        d = cfg.d_model
        self.tok_emb = dk.parameter(rng, vocab_size, d, scale=0.1)
        self.enc_layers = [dk.TransformerEncoderLayer(rng, d, cfg.n_heads, 2 * d)
                           for _ in range(cfg.encoder_layers)]
        self.dec_layers = [dk.TransformerDecoderLayer(rng, d, cfg.n_heads, 2 * d)
                           for _ in range(cfg.decoder_layers)]
        self.out_proj = dk.Linear(rng, d, vocab_size)
        # the two directions' concat is d_model wide, so one projection per
        # GAT layer applies to vertex and edge features alike
        self.lstm = dk.BiLSTM(rng, cfg.d_f, d // 2, cfg.bilstm_layers)
        # the last draws from rng; EKG has no GAT layers
        self.gat = [GATLayer(rng, d, edge_attention=cfg.mode == "GAT_VE")
                    for _ in range(cfg.gat_layers) if cfg.mode != "EKG"]
        self.pos = dk.sinusoidal_positions(max(cfg.max_passage, cfg.max_len) + 2, d)
        self.tables: EmbeddingTables | None = None   # set by the caller; not saved

    # -- encoding ------------------------------------------------------------

    def temporal_encode(self, *locals_: LocalEKG
                        ) -> tuple[dk.Tensor, dk.Tensor | None]:
        """The Bi-LSTM rows of the vertices of `locals_`, then of their
        edges, each stacked in the order of `locals_` and each row read at its
        local's chapter: one pass over their entities' columns of the vertex
        table and, in GAT_VE mode, the one mode that reads them, one over their
        pairs' columns of the edge table. Elsewhere, and when no local has an
        edge, the edge output is None. The two outputs are separate graphs."""
        tables = self.tables
        v = self._lstm_rows(tables.vertex, [(l.t, l.vertex_ids) for l in locals_])
        if self.config.mode != "GAT_VE":
            return v, None
        return v, self._lstm_rows(tables.edge, [
            (l.t, [tables.column[p] for p in l.edges]) for l in locals_ if l.edges])

    def _lstm_rows(self, table: np.ndarray, picks: list[tuple[int, list[int]]]
                   ) -> dk.Tensor | None:
        """For each (t, cols) of `picks`, the Bi-LSTM rows at chapter t of the
        columns `cols` of the (T, n, d_f) `table`, stacked: one Bi-LSTM pass
        over the distinct columns side by side, then one gather of the
        (time, column) pairs, which adds the gradients of a repeated pair."""
        if not picks:
            return None
        index: dict[int, int] = {}
        times, at = [], []
        for t, cols in picks:
            at += [index.setdefault(c, len(index)) for c in cols]
            times += [t - 1] * len(cols)
        return self.lstm(dk.Tensor(table[:, list(index)]))[
            np.array(times), np.array(at)]

    def graph_encode(self, *locals_: LocalEKG) -> dk.Tensor:
        """Vertex encodings of `locals_`, stacked in their order. Each GAT
        layer runs once over the disjoint union of their graphs, so its
        mask is block-diagonal and no vertex attends across locals."""
        vfeats, efeats = self.temporal_encode(*locals_)
        if not self.gat:
            return vfeats
        edges, base = [], 0
        for local in locals_:
            pos = {eid: base + i for i, eid in enumerate(local.vertex_ids)}
            edges += [(pos[a], pos[b]) for (a, b) in local.edges]
            base += len(pos)
        for layer in self.gat:
            vfeats = gat_layer(vfeats, efeats, edges, layer, self.config.mode)
        return vfeats

    def encode_passage(self, token_ids) -> dk.Tensor:
        """Encoder output over a passage's last `max_passage` token ids,
        (L, d); over the rows of a (B, L) batch of passages, (B, L, d)."""
        ids = np.asarray(token_ids, dtype=np.int64)[..., -self.config.max_passage:]
        if not ids.shape[-1]:
            raise ValueError("empty passage")
        d = self.config.d_model
        x = dk.embedding_lookup(self.tok_emb, ids) * np.sqrt(d)
        x = x + dk.Tensor(self.pos[:ids.shape[-1]])
        pad = ids == PAD
        # (..., heads, query, key) scores: one key mask row per passage
        mask = np.where(pad, -1e9, 0.0)[..., None, None, :] if pad.any() else None
        for layer in self.enc_layers:
            x = layer(x, mask)
        return x

    # -- decoding ------------------------------------------------------------

    def _decode(self, memory: dk.Tensor, prefix_ids) -> dk.Tensor:
        """Logits for every prefix position; causal self-attention. A (B, n)
        batch of prefixes reads a (B, M, d) batch of memories."""
        prefix_ids = np.asarray(prefix_ids, dtype=np.int64)
        n = prefix_ids.shape[-1]
        if n > self.config.max_len + 1:
            raise ValueError(f"prefix of {n} exceeds max length")
        d = self.config.d_model
        x = dk.embedding_lookup(self.tok_emb, prefix_ids) * np.sqrt(d)
        x = x + dk.Tensor(self.pos[:n])
        cmask = dk.causal_mask(n)
        for layer in self.dec_layers:
            x = layer(x, memory, cmask)
        return self.out_proj(x)

    def fuse_memory(self, passage_ids: list[int], local: LocalEKG) -> dk.Tensor:
        graph = self.graph_encode(local)
        return dk.concat([graph, self.encode_passage(passage_ids)], axis=0)

    def start_decode(self, memory: dk.Tensor) -> "DecodeState":
        """Empty decoder cache over `memory`, with every layer's
        cross-attention keys and values of the memory projected once and its
        self-attention query, key and value projections joined into one."""
        return DecodeState(
            layers=[layer.start(memory.numpy()) for layer in self.dec_layers],
            past=[None] * len(self.dec_layers))

    def fuse_and_decode_step(self, state: "DecodeState",
                             tokens: list[int]) -> np.ndarray:
        """Feed one token per hypothesis at the state's next position and
        return the next-token distributions, (len(tokens), vocab).

        Extends `state` by this position. The first position takes BOS only.
        Runs the forward kernels of the ops `_decode` runs on plain arrays,
        so it builds no graph.
        """
        if state.pos == 0 and any(t != BOS for t in tokens):
            raise ValueError("prefix must start with BOS")
        if state.pos > self.config.max_len:
            raise ValueError(f"prefix of {state.pos + 1} exceeds max length")
        d = self.config.d_model
        emb = self.tok_emb.data
        x = emb[np.asarray(tokens, dtype=np.int64)] * emb.dtype.type(np.sqrt(d))
        x = (x + self.pos[state.pos].astype(emb.dtype)).reshape(len(tokens), 1, d)
        for i, layer in enumerate(self.dec_layers):
            x, state.past[i] = layer.step(x, state.layers[i], state.past[i])
        state.pos += 1
        return dk.softmax_data(self.out_proj.apply(x), -1)[:, 0]

    def nll(self, examples: list["G2SExample"]) -> dk.Tensor:
        """Mean over `examples` of the teacher-forced label-smoothed NLL,
        each example's the mean over its target positions; one graph.

        The distinct locals go through one `graph_encode`. The examples of
        one shape (passage length after truncation, target length and
        vertex count) go through one `encode_passage`, one `_decode` and
        one cross-entropy, stacked on a leading axis without padding; an
        example of a shape of its own keeps its unstacked 2-D arrays.
        """
        if not examples:
            raise ValueError("no examples")
        cfg = self.config
        locals_ = list({id(ex.local): ex.local for ex in examples}.values())
        graph = self.graph_encode(*locals_)
        ends = np.cumsum([len(l.vertex_ids) for l in locals_])
        rows = {id(l): np.arange(end - len(l.vertex_ids), end)
                for l, end in zip(locals_, ends)}
        groups: dict[tuple[int, int, int], list] = {}
        for ex in examples:
            passage = ex.passage_ids[-cfg.max_passage:]
            target = ex.comment_ids[:cfg.max_len - 1] + [EOS]
            key = (len(passage), len(target), len(ex.local.vertex_ids))
            groups.setdefault(key, []).append(
                (passage, [BOS] + target[:-1], target, rows[id(ex.local)]))
        loss = None
        for group in groups.values():
            passage, dec_in, target, graph_rows = (
                np.asarray(col if len(group) > 1 else col[0])
                for col in zip(*group))
            memory = dk.concat([graph[graph_rows], self.encode_passage(passage)],
                               axis=-2)
            term = dk.cross_entropy_label_smoothed(
                self._decode(memory, dec_in), target, cfg.eps_ls
            ) * (len(group) / len(examples))
            loss = term if loss is None else loss + term
        return loss

    @dk.no_grad()
    def token_accuracy(self, passage_ids, local, comment_ids) -> float:
        target = comment_ids[:self.config.max_len - 1] + [EOS]
        dec_in = [BOS] + target[:-1]
        memory = self.fuse_memory(passage_ids, local)
        pred = self._decode(memory, dec_in).numpy().argmax(axis=-1)
        return float((pred == np.asarray(target)).mean())


@dataclass
class DecodeState:
    """Decoder cache of one memory, one row per live hypothesis.

    Per decoder layer: `TransformerDecoderLayer.start`'s arrays, which hold
    the memory's cross-attention keys and values shared by every row, and
    the self-attention (keys, values) arrays of the positions fed so far,
    (rows, pos, d_model) each.
    """
    layers: list[tuple[np.ndarray, ...]]
    past: list[tuple[np.ndarray, np.ndarray] | None]
    pos: int = 0

    def select(self, rows: np.ndarray | list[int]):
        """Keep cache row `rows[i]` as row i, e.g. each survivor's parent."""
        self.past = [(k[rows], v[rows]) for k, v in self.past]


@dataclass
class G2SExample:
    passage_ids: list[int]
    local: LocalEKG
    comment_ids: list[int]


def train_g2s(examples: list[G2SExample], model: Graph2SeqModel,
              cfg: PipelineConfig) -> dict:
    """Minimize teacher-forced NLL with Adam and the warmup/decay schedule,
    `cfg.g2s_steps` steps of `cfg.batch_size` examples.

    Returns the loss history; the model is updated in place.
    """
    if not examples:
        raise ValueError("no training examples")
    params = model.parameters()
    opt = dk.Adam(params)
    rng = np.random.default_rng(cfg.seed)
    order = []
    history: list[float] = []
    for step in range(1, cfg.g2s_steps + 1):
        if len(order) < cfg.batch_size:
            perm = rng.permutation(len(examples)).tolist()
            order.extend(perm)
        batch = [order.pop(0) for _ in range(min(cfg.batch_size, len(order)))]
        opt.zero_grad()
        loss = model.nll([examples[idx] for idx in batch])
        val = loss.item()
        if not np.isfinite(val):
            raise TrainingDiverged(f"NLL became {val} at step {step}")
        history.append(val)
        loss.backward()
        del loss                # free this step's graph before the next
        lr = dk.lr_schedule(step, model.config.d_model, cfg.warmup,
                            cfg.lr_scale)
        opt.step(lr)
    return {"loss": history}


@dataclass
class Hypothesis:
    tokens: list[int]            # starts with BOS
    logp: float

    def generated(self) -> list[int]:
        toks = self.tokens[1:]
        return toks[:-1] if toks and toks[-1] == EOS else toks

    def score(self, alpha: float) -> float:
        n = max(len(self.tokens) - 1, 1)
        return self.logp / n ** alpha


@dk.no_grad()
def beam_decode(passage_ids: list[int], local: LocalEKG, model: Graph2SeqModel,
                beam: int = 4, max_len: int = 50,
                length_alpha: float = 0.7) -> list[tuple[list[int], float]]:
    """Length-normalized beam search; returns (token ids, score) sorted by
    score descending. No hypothesis exceeds `max_len` generated tokens.

    Each step advances every live hypothesis in one cached decoder call.
    """
    memory = model.fuse_memory(passage_ids, local)
    state = model.start_decode(memory)
    seqs = [[BOS]]                   # tokens of each live hypothesis
    logps = np.zeros(1)              # and its log-probability
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        probs = model.fuse_and_decode_step(state, [s[-1] for s in seqs])
        logp = np.log(np.maximum(probs, 1e-30))
        top = np.argsort(-logp, axis=-1, kind="stable")[:, :beam]
        cand = logps[:, None] + np.take_along_axis(logp, top, axis=-1)
        # stable over the (row, rank) order, so ties keep it
        best = np.argsort(-cand, axis=None, kind="stable")[:beam]
        rows, toks, lps = best // top.shape[1], top.flat[best], cand.flat[best]
        done = toks == EOS
        finished += [Hypothesis(seqs[row] + [tok], lp) for row, tok, lp in zip(
            rows[done].tolist(), toks[done].tolist(), lps[done].tolist())]
        rows, logps = rows[~done], lps[~done]
        seqs = [seqs[row] + [tok]
                for row, tok in zip(rows.tolist(), toks[~done].tolist())]
        if not seqs:
            break
        state.select(rows)
    finished.extend(Hypothesis(s, lp) for s, lp in zip(seqs, logps.tolist()))
    finished.sort(key=lambda h: -h.score(length_alpha))
    return [(h.generated(), h.score(length_alpha)) for h in finished[:beam]]


@dk.no_grad()
def greedy_decode(passage_ids, local, model, max_len: int = 50):
    """Argmax decoding that re-runs the decoder over the whole prefix at
    every step, without the cache: the reference for the beam=1 case."""
    memory = model.fuse_memory(passage_ids, local)
    tokens = [BOS]
    for _ in range(max_len):
        probs = dk.softmax(model._decode(memory, tokens)[-1]).numpy()
        tok = int(probs.argmax())
        tokens.append(tok)
        if tok == EOS:
            break
    out = tokens[1:]
    return out[:-1] if out and out[-1] == EOS else out
