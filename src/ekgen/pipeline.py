"""Workspace-based pipeline stages: synth -> ingest -> build-ekg ->
train-ekg -> train-g2s -> generate -> evaluate.

Each stage reads its prerequisites from the workspace, writes its
artifacts into a stage subdirectory, and records config + output hashes
in the run manifest. Stages are pure functions of their inputs, so a
seeded run is reproducible byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import numpy as np

from . import corpus as cp
from . import diffkit as dk
from .config import PipelineConfig
from .ekg import GlobalEKG, LocalEKG, TemporalKG, build_global_ekg, extract_local_ekg
from .embed import EkgEmbeddings, EmbedTrainConfig, materialize_embeddings, train_ekg
from .graph2seq import (G2SConfig, G2SExample, G2STrainConfig, Graph2SeqModel,
                        beam_decode, train_g2s)
from .metrics import EvalPair, bleu_corpus, rouge_l
from .synth import SyntheticSpec, generate as synth_generate


class MissingArtifact(FileNotFoundError):
    pass


class WorkspaceLocked(RuntimeError):
    pass


class CorruptArtifact(ValueError):
    """A workspace artifact that exists but cannot be read, e.g. one torn by
    a crash mid-write."""


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise MissingArtifact(
            f"missing artifact {path}; run the '{stage}' stage first")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_artifact(path: Path, parse):
    """`parse` of the JSON in `path`; a file that is not the JSON `parse`
    expects raises `CorruptArtifact` naming it."""
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError, IndexError) as e:
        raise CorruptArtifact(f"{path}: unreadable artifact ({e!r}); "
                              "run the stage that writes it again") from e


def _lock_owner(lock: Path) -> int | None:
    """Pid recorded in an existing lock file, or None when it records none."""
    try:
        pid = int(lock.read_text(encoding="ascii").strip())
    except ValueError:
        return None
    return pid if pid > 0 else None


def _pid_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:           # exists, owned by another user
        pass
    return True


@contextlib.contextmanager
def workspace_lock(ws: Path):
    """Hold the workspace for one run: `.lock` records this process's pid.
    A lock whose pid no longer exists (its run was killed) is reclaimed; a
    live owner, or a lock file that records no pid, raises `WorkspaceLocked`.
    """
    ws.mkdir(parents=True, exist_ok=True)
    lock = ws / ".lock"
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            try:
                pid = _lock_owner(lock)
            except FileNotFoundError:
                continue                  # released meanwhile: try again
        if pid is None:
            raise WorkspaceLocked(
                f"workspace {ws} is locked: {lock} records no process id; "
                f"if no run is using the workspace, delete {lock}")
        if _pid_exists(pid):
            raise WorkspaceLocked(
                f"workspace {ws} is locked by running process {pid} ({lock})")
        # the owner died without releasing the lock; read again right before
        # removing it, so a lock just taken by another run is left alone
        with contextlib.suppress(FileNotFoundError):
            if _lock_owner(lock) == pid:
                lock.unlink()
    try:
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


def _record(ws: Path, stage: str, cfg: PipelineConfig, outputs: list[Path]):
    manifest_path = ws / "manifest.json"
    manifest = (json.loads(manifest_path.read_text())
                if manifest_path.exists() else {"stages": {}})
    manifest["stages"][stage] = {
        "seed": cfg.seed,
        "config": json.loads(cfg.to_json()),
        "outputs": {str(p.relative_to(ws)): _sha256(p) for p in sorted(outputs)},
    }
    _write_text(manifest_path, json.dumps(manifest, sort_keys=True, indent=1))


def _write_text(path: Path, text: str):
    """Write `text` to `path` as `dk.atomic_open` does: a crash mid-write
    leaves the previous file, not a torn one."""
    with dk.atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# corpus (de)serialization

def _save_corpus(path: Path, novel: cp.Novel, passages, mentions, vocab, n_e,
                 mode: str):
    payload = {
        "token_mode": mode,
        "n_e": n_e,
        "novel": {
            "id": novel.id, "title": novel.title,
            "chapters": [{"index": ch.index, "tokens": ch.tokens,
                          "paragraphs": [list(s) for s in ch.paragraphs],
                          "source_indices": ch.source_indices}
                         for ch in novel.chapters],
        },
        "passages": [{"id": p.id, "chapter": p.chapter_index,
                      "span": list(p.span),
                      "entity_ids": sorted(p.entity_ids),
                      "comments": [{"tokens": c.text, "upvotes": c.upvotes}
                                   for c in p.comments]}
                     for p in passages],
        "mentions": [[m.entity_id, m.chapter_index, m.span[0], m.span[1]]
                     for m in mentions],
        "vocab": vocab.id_to_token,
    }
    _write_text(path, json.dumps(payload, sort_keys=True))


def _load_corpus(path: Path):
    return _read_artifact(path, _parse_corpus)


def _parse_corpus(raw: dict):
    novel = cp.Novel(
        id=raw["novel"]["id"], title=raw["novel"]["title"],
        chapters=[cp.Chapter(index=c["index"], text="", tokens=c["tokens"],
                             paragraphs=[tuple(s) for s in c["paragraphs"]],
                             source_indices=c["source_indices"])
                  for c in raw["novel"]["chapters"]])
    passages = [cp.Passage(id=p["id"], chapter_index=p["chapter"],
                           span=tuple(p["span"]),
                           text=novel.chapters[p["chapter"] - 1]
                           .tokens[p["span"][0]:p["span"][1]],
                           entity_ids=set(p["entity_ids"]),
                           comments=[cp.Comment(text=c["tokens"],
                                                upvotes=c["upvotes"])
                                     for c in p["comments"]])
                for p in raw["passages"]]
    mentions = [cp.Mention(entity_id=m[0], chapter_index=m[1], span=(m[2], m[3]))
                for m in raw["mentions"]]
    vocab = cp.Vocabulary(token_to_id={t: i for i, t in enumerate(raw["vocab"])},
                          id_to_token=raw["vocab"])
    return novel, passages, mentions, vocab, raw["n_e"], raw["token_mode"]


def _save_ekg(path: Path, ekg: GlobalEKG):
    payload = {
        "novel_id": ekg.novel_id, "T": ekg.T,
        "frequency": {str(k): v for k, v in sorted(ekg.entity_frequency.items())},
        "graphs": [{"t": g.t, "vertices": sorted(g.vertices),
                    "edges": [{"pair": [i, j], "evidence": [list(s) for s in ev]}
                              for (i, j), ev in sorted(g.edges.items())]}
                   for g in ekg.graphs],
    }
    _write_text(path, json.dumps(payload, sort_keys=True))


def _load_ekg(path: Path) -> GlobalEKG:
    return _read_artifact(path, _parse_ekg)


def _parse_ekg(raw: dict) -> GlobalEKG:
    graphs = [TemporalKG(t=g["t"], vertices=set(g["vertices"]),
                         edges={tuple(e["pair"]): [tuple(s) for s in e["evidence"]]
                                for e in g["edges"]})
              for g in raw["graphs"]]
    freq = Counter({int(k): v for k, v in raw["frequency"].items()})
    return GlobalEKG(novel_id=raw["novel_id"], T=raw["T"], graphs=graphs,
                     entity_frequency=freq)


# ---------------------------------------------------------------------------
# stages

def run_synth(ws: Path, cfg: PipelineConfig) -> dict:
    spec = SyntheticSpec(chapters=cfg.synth_chapters, entities=cfg.synth_entities,
                         passages=cfg.synth_passages,
                         comments_per_passage=cfg.synth_comments, seed=cfg.seed)
    info = synth_generate(spec, ws / "data")
    _record(ws, "synth", cfg, [Path(info["novel"]), Path(info["lexicon"]),
                               Path(info["passages"])])
    return info


def run_ingest(ws: Path, cfg: PipelineConfig, novel_path=None, lexicon_path=None,
               passages_path=None) -> Path:
    data = ws / "data"
    novel_path = Path(novel_path) if novel_path else _require(data / "novel.json", "synth")
    lexicon_path = Path(lexicon_path) if lexicon_path else data / "lexicon.json"
    passages_path = Path(passages_path) if passages_path else data / "passages.jsonl"
    novel, lexicon, passages = cp.load_corpus(novel_path, lexicon_path,
                                              passages_path, cfg.token_mode)
    clustered = cp.cluster_chapters(novel, cfg.min_chapter_tokens, cfg.token_mode)
    passages = cp.remap_passages(passages, novel, clustered)
    mentions = cp.match_mentions(clustered, lexicon, cfg.token_mode)
    if not mentions:
        raise cp.CorpusParseError(f"{lexicon_path}: no entity name or alias "
                                  f"occurs in {novel_path}")
    cp.attach_entities(passages, mentions)
    passages = cp.merge_passages(passages, cfg.overlap_threshold)
    cp.refresh_passage_text(passages, clustered)
    cp.attach_entities(passages, mentions)
    passages = cp.filter_passages(passages)
    if not passages:
        raise cp.CorpusParseError(
            f"{lexicon_path}: no passage of {passages_path} mentions one of its "
            "entities and has at least 3 comments")
    streams = [ch.tokens for ch in clustered.chapters]
    streams += [c.text for p in passages for c in p.comments]
    vocab = cp.build_vocab(streams, cfg.min_freq)
    out_dir = ws / "corpus"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "corpus.json"
    _save_corpus(out, clustered, passages, mentions, vocab,
                 lexicon.num_entities, cfg.token_mode)
    _record(ws, "ingest", cfg, [out])
    return out


def report_stats(novel, passages, ekg: GlobalEKG | None = None) -> str:
    """Table-style dataset statistics."""
    n_passages = len(passages)
    n_comments = sum(len(p.comments) for p in passages)
    if n_passages:
        avg_entities = sum(len(p.entity_ids) for p in passages) / n_passages
        avg_comments = n_comments / n_passages
        if ekg is not None:
            pairs = ekg.cooccurring_pairs
            avg_relations = sum(
                sum(1 for ai, a in enumerate(sorted(p.entity_ids))
                    for b in sorted(p.entity_ids)[ai + 1:] if (a, b) in pairs)
                for p in passages) / n_passages
        else:
            avg_relations = 0.0
    else:
        avg_entities = avg_comments = avg_relations = 0.0
    lines = [
        ("# novels", 1 if novel else 0),
        ("# passages", n_passages),
        ("# comments", n_comments),
        ("Avg. # entities per passage", round(avg_entities, 2)),
        ("Avg. # relations per passage", round(avg_relations, 2)),
        ("Avg. # comments per passage", round(avg_comments, 2)),
    ]
    width = max(len(k) for k, _ in lines)
    return "\n".join(f"{k:<{width}} | {v}" for k, v in lines)


def run_stats(ws: Path, cfg: PipelineConfig) -> str:
    corpus_path = _require(ws / "corpus" / "corpus.json", "ingest")
    novel, passages, mentions, _, _, _ = _load_corpus(corpus_path)
    ekg = build_global_ekg(novel, mentions)
    text = report_stats(novel, passages, ekg)
    out = ws / "corpus" / "stats.txt"
    _write_text(out, text + "\n")
    _record(ws, "stats", cfg, [out])
    return text


def run_build_ekg(ws: Path, cfg: PipelineConfig) -> Path:
    corpus_path = _require(ws / "corpus" / "corpus.json", "ingest")
    novel, passages, mentions, _, _, _ = _load_corpus(corpus_path)
    ekg = build_global_ekg(novel, mentions)
    out_dir = ws / "ekg"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "global.json"
    _save_ekg(out, ekg)
    _record(ws, "build-ekg", cfg, [out])
    return out


def run_train_ekg(ws: Path, cfg: PipelineConfig) -> Path:
    corpus_path = _require(ws / "corpus" / "corpus.json", "ingest")
    ekg_path = _require(ws / "ekg" / "global.json", "build-ekg")
    novel, _, mentions, _, n_e, _ = _load_corpus(corpus_path)
    ekg = _load_ekg(ekg_path)
    train_cfg = EmbedTrainConfig(
        d_f=cfg.d_f, lambdas=cfg.lambdas, eps_ls=cfg.eps_ls, margin=cfg.alpha,
        lambda_r=cfg.lambda_r, phase1_steps=cfg.phase1_steps,
        phase2_steps=cfg.phase2_steps, lr=cfg.embed_lr, rn_lr=cfg.rn_lr,
        seed=cfg.seed)
    artifact = train_ekg(novel, mentions, ekg, train_cfg, n_e)
    out_dir = ws / "embed"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "ekg_embed.bin"
    artifact.save(out)
    hist = out_dir / "history.json"
    _write_text(hist, json.dumps(artifact.history, sort_keys=True))
    _record(ws, "train-ekg", cfg, [out, hist])
    return out


def _build_examples(novel, passages, ekg, artifact, vocab, cfg: PipelineConfig):
    locals_by_passage: dict[str, LocalEKG] = {}
    examples = []
    for p in passages:
        local = extract_local_ekg(ekg, p, cfg.K)
        materialize_embeddings(artifact, local)
        locals_by_passage[p.id] = local
        pids = vocab.encode(p.text)
        for c in p.comments:
            examples.append(G2SExample(passage_ids=pids, local=local,
                                       comment_ids=vocab.encode(c.text)))
    return examples, locals_by_passage


def _g2s_config(cfg: PipelineConfig, vocab_size: int) -> G2SConfig:
    return G2SConfig(vocab_size=vocab_size, d_f=cfg.d_f, d_model=cfg.d_model,
                     n_heads=cfg.n_heads, n_enc_layers=cfg.encoder_layers,
                     n_dec_layers=cfg.decoder_layers,
                     lstm_layers=cfg.bilstm_layers, gat_layers=cfg.gat_layers,
                     mode=cfg.mode, max_len=cfg.max_len,
                     max_passage=cfg.max_passage, eps_ls=cfg.eps_ls,
                     seed=cfg.seed)


def run_train_g2s(ws: Path, cfg: PipelineConfig) -> Path:
    corpus_path = _require(ws / "corpus" / "corpus.json", "ingest")
    ekg_path = _require(ws / "ekg" / "global.json", "build-ekg")
    embed_path = _require(ws / "embed" / "ekg_embed.bin", "train-ekg")
    novel, passages, mentions, vocab, n_e, _ = _load_corpus(corpus_path)
    ekg = _load_ekg(ekg_path)
    artifact = EkgEmbeddings.load(embed_path)
    examples, _ = _build_examples(novel, passages, ekg, artifact, vocab, cfg)
    model = Graph2SeqModel(_g2s_config(cfg, len(vocab)))
    history = train_g2s(examples, model,
                        G2STrainConfig(steps=cfg.g2s_steps,
                                       batch_size=cfg.batch_size,
                                       warmup=cfg.warmup,
                                       lr_scale=cfg.lr_scale, seed=cfg.seed))
    out_dir = ws / "g2s"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "model.bin"
    dk.save_arrays(out, model.state())
    sidecar = out_dir / "model.json"
    _write_text(sidecar, json.dumps({"mode": cfg.mode, "d_model": cfg.d_model,
                                     "vocab_hash": vocab.content_hash(),
                                     "config": json.loads(cfg.to_json())},
                                    sort_keys=True))
    hist = out_dir / "history.json"
    _write_text(hist, json.dumps(history, sort_keys=True))
    _record(ws, "train-g2s", cfg, [out, sidecar, hist])
    return out


# settings that fix a trained generator's parameters and what they mean
_MODEL_KEYS = ("mode", "d_model", "d_f", "n_heads", "encoder_layers",
               "decoder_layers", "bilstm_layers", "gat_layers")


def load_g2s_model(ws: Path, cfg: PipelineConfig, vocab) -> Graph2SeqModel:
    """The trained generator, after checking that its `model.json` sidecar
    records this run's model settings and vocabulary; a mismatch raises
    `CheckpointError`."""
    model_path = _require(ws / "g2s" / "model.bin", "train-g2s")
    sidecar_path = _require(ws / "g2s" / "model.json", "train-g2s")
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        trained = {k: sidecar["config"][k] for k in _MODEL_KEYS}
        trained["vocab_hash"] = sidecar["vocab_hash"]
    except (ValueError, KeyError, TypeError) as e:
        raise dk.CheckpointError(f"{sidecar_path}: unreadable sidecar: {e!r}") from e
    run = {k: getattr(cfg, k) for k in _MODEL_KEYS}
    run["vocab_hash"] = vocab.content_hash()
    differ = [f"{k} {trained[k]!r} (this run: {run[k]!r})"
              for k in trained if trained[k] != run[k]]
    if differ:
        raise dk.CheckpointError(
            f"{model_path} was trained with {', '.join(differ)}")
    model = Graph2SeqModel(_g2s_config(cfg, len(vocab)))
    arrays, _ = dk.load_arrays(model_path)
    model.load_state(arrays)
    return model


def teacher_forced_accuracy(ws: Path, cfg: PipelineConfig) -> float:
    """Mean teacher-forced token accuracy of the trained generator over one
    training example per passage, the one of its last comment."""
    novel, passages, mentions, vocab, n_e, _ = _load_corpus(
        _require(ws / "corpus" / "corpus.json", "ingest"))
    ekg = _load_ekg(_require(ws / "ekg" / "global.json", "build-ekg"))
    artifact = EkgEmbeddings.load(
        _require(ws / "embed" / "ekg_embed.bin", "train-ekg"))
    model = load_g2s_model(ws, cfg, vocab)
    examples, _ = _build_examples(novel, passages, ekg, artifact, vocab, cfg)
    per_passage = {id(ex.local): ex for ex in examples}
    return float(np.mean([model.token_accuracy(ex.passage_ids, ex.local,
                                               ex.comment_ids)
                          for ex in per_passage.values()]))


def run_generate(ws: Path, cfg: PipelineConfig, limit: int | None = None) -> Path:
    corpus_path = _require(ws / "corpus" / "corpus.json", "ingest")
    ekg_path = _require(ws / "ekg" / "global.json", "build-ekg")
    embed_path = _require(ws / "embed" / "ekg_embed.bin", "train-ekg")
    novel, passages, mentions, vocab, n_e, mode = _load_corpus(corpus_path)
    ekg = _load_ekg(ekg_path)
    artifact = EkgEmbeddings.load(embed_path)
    model = load_g2s_model(ws, cfg, vocab)
    sep = "" if mode == "char" else " "
    out_dir = ws / "generate"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "comments.jsonl"
    with dk.atomic_open(out, "w", encoding="utf-8") as fh:
        for p in passages[:limit]:
            local = extract_local_ekg(ekg, p, cfg.K)
            materialize_embeddings(artifact, local)
            beams = beam_decode(vocab.encode(p.text), local, model,
                                beam=cfg.beam, max_len=cfg.max_len)
            record = {"passage_id": p.id,
                      "comments": [{"text": sep.join(vocab.decode(toks)),
                                    "score": round(score, 6)}
                                   for toks, score in beams]}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _record(ws, "generate", cfg, [out])
    return out


def run_evaluate(ws: Path, cfg: PipelineConfig) -> dict:
    corpus_path = _require(ws / "corpus" / "corpus.json", "ingest")
    gen_path = _require(ws / "generate" / "comments.jsonl", "generate")
    novel, passages, mentions, vocab, n_e, mode = _load_corpus(corpus_path)
    by_id = {p.id: p for p in passages}
    pairs = []
    with open(gen_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
                pid = rec["passage_id"]
                # best-scoring non-empty beam; beams are sorted by score
                hyp = next((cp.tokenize(c["text"], mode)
                            for c in rec["comments"] if c["text"]), None)
            except (ValueError, KeyError, TypeError) as e:
                raise CorruptArtifact(f"{gen_path}:{lineno}: unreadable "
                                      f"record ({e!r})") from e
            if not isinstance(pid, str) or pid not in by_id:
                raise CorruptArtifact(f"{gen_path}:{lineno}: passage_id "
                                      f"{pid!r} is not in {corpus_path}")
            refs = [c.text for c in by_id[pid].comments[:5]]
            if hyp and refs:
                pairs.append(EvalPair(hypothesis=hyp, references=refs))
    if not pairs:
        raise RuntimeError("no non-empty hypotheses to evaluate")
    bleu = bleu_corpus(pairs)
    report = {"bleu": bleu.bleu, "precisions": bleu.precisions,
              "bp": bleu.brevity_penalty, "rouge_l": rouge_l(pairs)}
    out_dir = ws / "evaluate"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "report.json"
    _write_text(out, json.dumps(report, sort_keys=True))
    _record(ws, "evaluate", cfg, [out])
    return report


def run_full_pipeline(ws: Path, cfg: PipelineConfig, generate_limit=None) -> dict:
    run_synth(ws, cfg)
    run_ingest(ws, cfg)
    run_build_ekg(ws, cfg)
    run_train_ekg(ws, cfg)
    run_train_g2s(ws, cfg)
    run_generate(ws, cfg, limit=generate_limit)
    return run_evaluate(ws, cfg)
