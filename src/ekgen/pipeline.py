"""Workspace-based pipeline stages: synth -> ingest -> build-ekg ->
train-ekg -> train-g2s -> generate -> evaluate.

Each stage reads its prerequisites from the workspace, writes its
artifacts into a stage subdirectory, and records config + output hashes
in the run manifest. Stages are pure functions of their inputs, so a
seeded run is reproducible byte for byte under one BLAS setting, which the
manifest records with each stage.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import corpus as cp
from . import diffkit as dk
from .config import PipelineConfig
from .ekg import GlobalEKG, LocalEKG, build_global_ekg, extract_local_ekg
from .embed import EkgEmbeddings, EmbeddingTables, materialize_embeddings, train_ekg
from .graph2seq import G2SExample, Graph2SeqModel, beam_decode, train_g2s
from .metrics import EvalPair, bleu_corpus, rouge_l
from .synth import generate as synth_generate


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


def _reason(e: Exception) -> str:
    """`e` for an error line: its type and message. Unlike `repr`, which
    quotes a `UnicodeDecodeError`'s whole input, it names only the offset of
    the bad byte."""
    return f"{type(e).__name__}: {e}"


def _read_artifact(path: Path, parse):
    """`parse` of the JSON in `path`; a file that is not the JSON `parse`
    expects raises `CorruptArtifact` naming it."""
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError, IndexError) as e:
        raise CorruptArtifact(f"{path}: unreadable artifact ({_reason(e)}); "
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


def blas_record() -> dict:
    """The BLAS setting a stage ran under. Seeded artifacts repeat byte for
    byte only under one such setting: summation order in BLAS can follow the
    library, its version and its thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": {var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_count": os.cpu_count()}


def _record(ws: Path, stage: str, cfg: PipelineConfig, outputs: list[Path]):
    manifest_path = ws / "manifest.json"
    stages = (_read_artifact(manifest_path, lambda raw: {**raw["stages"]})
              if manifest_path.exists() else {})
    stages[stage] = {
        "seed": cfg.seed,
        "config": json.loads(cfg.to_json()),
        "outputs": {str(p.relative_to(ws)): _sha256(p) for p in sorted(outputs)},
        "blas": blas_record(),
    }
    _write_text(manifest_path, json.dumps({"stages": stages}, sort_keys=True, indent=1))


def _write_text(path: Path, text: str):
    """Write `text` to `path` as `dk.atomic_open` does: a crash mid-write
    leaves the previous file, not a torn one."""
    with dk.atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# artifact (de)serialization and the workspace reader

def _save_corpus(path: Path, novel: cp.Novel, passages, mentions, vocab, n_e):
    payload = {
        "n_e": n_e,
        "novel": {
            "id": novel.id, "title": novel.title,
            "chapters": [{"tokens": ch.tokens,
                          "paragraphs": [list(s) for s in ch.paragraphs]}
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


@dataclass
class Corpus:
    """The corpus as `ingest` keeps it: clustered chapters, kept passages."""
    novel: cp.Novel
    passages: list[cp.Passage]
    mentions: list[cp.Mention]
    vocab: cp.Vocabulary
    n_e: int

    def tokens(self, p: cp.Passage) -> list[str]:
        """The passage's tokens: its span of its chapter's tokens."""
        return self.novel.chapters[p.chapter_index - 1].tokens[slice(*p.span)]


def _check_entity_ids(ids: set, n_e: int):
    """Refuse entity ids that are not integers in [0, `n_e`): they index
    the embedding tables."""
    bad = sorted((i for i in ids if type(i) is not int or not 0 <= i < n_e), key=repr)
    if bad:
        raise ValueError(f"entity ids {bad} are not the corpus's 0..{n_e - 1}")


def _check_places(what: str, places, novel: cp.Novel):
    """Refuse the (chapter, span) of the k-th `what` when its chapter is not
    one of the novel's 1..T or its span not 0 <= start < end <= its tokens."""
    T = novel.num_chapters
    for k, (chapter, (start, end)) in enumerate(places):
        if type(chapter) is not int or not 1 <= chapter <= T:
            raise ValueError(f"{what} {k} chapter {chapter!r} is not the corpus's 1..{T}")
        n = len(novel.chapters[chapter - 1].tokens)
        if type(start) is not int or type(end) is not int or not 0 <= start < end <= n:
            raise ValueError(f"{what} {k} span [{start!r}, {end!r}] is not within "
                             f"chapter {chapter}'s {n} tokens")


def _check_paragraphs(novel: cp.Novel):
    """Refuse a chapter whose paragraphs are not integer spans, ascending
    and disjoint, within its tokens: the EKG draws its edges per paragraph."""
    for t, ch in enumerate(novel.chapters, 1):
        n, end = len(ch.tokens), 0
        for k, span in enumerate(ch.paragraphs):
            if (len(span) != 2 or any(type(i) is not int for i in span)
                    or not end <= span[0] < span[1] <= n):
                raise ValueError(f"chapter {t} paragraph {k} span {list(span)!r} "
                                 f"is not within tokens [{end}, {n}]")
            end = span[1]


def _parse_corpus(raw: dict) -> Corpus:
    novel = cp.Novel(
        id=raw["novel"]["id"], title=raw["novel"]["title"],
        chapters=[cp.Chapter(tokens=c["tokens"],
                             paragraphs=[tuple(s) for s in c["paragraphs"]])
                  for c in raw["novel"]["chapters"]])
    passages = [cp.Passage(id=p["id"], chapter_index=p["chapter"],
                           span=tuple(p["span"]),
                           entity_ids=set(p["entity_ids"]),
                           comments=[cp.Comment(text=c["tokens"],
                                                upvotes=c["upvotes"])
                                     for c in p["comments"]])
                for p in raw["passages"]]
    mentions = [cp.Mention(entity_id=m[0], chapter_index=m[1], span=(m[2], m[3]))
                for m in raw["mentions"]]
    _check_entity_ids({i for p in passages for i in p.entity_ids}
                      | {m.entity_id for m in mentions}, raw["n_e"])
    _check_places("passage", [(p.chapter_index, p.span) for p in passages], novel)
    _check_places("mention", [(m.chapter_index, m.span) for m in mentions], novel)
    _check_paragraphs(novel)
    vocab = cp.Vocabulary(token_to_id={t: i for i, t in enumerate(raw["vocab"])},
                          id_to_token=raw["vocab"])
    return Corpus(novel, passages, mentions, vocab, raw["n_e"])


def _save_ekg(path: Path, ekg: GlobalEKG):
    payload = {
        "novel_id": ekg.novel_id,
        "frequency": {str(k): v for k, v in sorted(ekg.entity_frequency.items())},
        "graphs": [{"t": g.t, "vertices": sorted(g.vertices),
                    "edges": [{"pair": [i, j], "evidence": [list(s) for s in ev]}
                              for (i, j), ev in sorted(g.edges.items())]}
                   for g in ekg.graphs],
    }
    _write_text(path, json.dumps(payload, sort_keys=True))


def _model_record(cfg: PipelineConfig, vocab: cp.Vocabulary) -> dict:
    """What a generator checkpoint records beside its arrays: the settings
    that its array names and shapes, which fix `d_model`, `d_f`, the layer
    counts and the vocabulary size, do not show."""
    return {"mode": cfg.mode, "n_heads": cfg.n_heads,
            "vocab_hash": vocab.content_hash()}


class Workspace:
    """The artifacts of one run directory, each read once, on first use. A
    missing one raises `MissingArtifact` naming the stage that writes it, an
    unreadable one `CorruptArtifact` or `CheckpointError` naming its file."""

    def __init__(self, root: Path, cfg: PipelineConfig):
        self.root, self.cfg = Path(root), cfg

    @cached_property
    def corpus(self) -> Corpus:
        path = _require(self.root / "corpus" / "corpus.json", "ingest")
        return _read_artifact(path, _parse_corpus)

    @cached_property
    def ekg(self) -> GlobalEKG:
        """The global EKG, built from the corpus, the one stored record of
        the novel's structure. `build-ekg` writes it to `ekg/global.json`
        for reading; no stage reads that file."""
        return build_global_ekg(self.corpus.novel, self.corpus.mentions)

    @cached_property
    def embeddings(self) -> EkgEmbeddings:
        """The trained embeddings; a vertex table whose shape is not (corpus
        chapters, corpus entities, this run's `d_f`) raises `CheckpointError`."""
        path = _require(self.root / "embed" / "ekg_embed.bin", "train-ekg")
        try:
            artifact = EkgEmbeddings.load(path)
        except (KeyError, TypeError, ValueError) as e:
            raise dk.CheckpointError(f"{path}: malformed checkpoint: {e!r}") from e
        want = (self.corpus.novel.num_chapters, self.corpus.n_e, self.cfg.d_f)
        if artifact.table.w.shape != want:
            raise dk.CheckpointError(
                f"{path} holds a vertex table of shape {artifact.table.w.shape}, "
                f"not (chapters, entities, d_f) = {want} of this corpus and run")
        return artifact

    @cached_property
    def model(self) -> Graph2SeqModel:
        """The trained generator, built from this run's config. A checkpoint
        that records another `_model_record`, or whose arrays do not fit
        this run's model, raises `CheckpointError` naming what differs."""
        path = _require(self.root / "g2s" / "model.bin", "train-g2s")
        arrays, trained = dk.load_arrays(path)
        vocab = self.corpus.vocab
        differ = [f"{k} {trained[k]!r} (this run: {v!r})" if k in trained
                  else f"no {k} recorded"
                  for k, v in _model_record(self.cfg, vocab).items()
                  if trained.get(k) != v]
        model = Graph2SeqModel(self.cfg, len(vocab))
        try:
            model.load_state(arrays)
        except ValueError as e:
            differ.append(str(e))
        if differ:
            raise dk.CheckpointError(
                f"{path} was trained as another model: {'; '.join(differ)}; "
                "run with the settings it was trained with, or run train-g2s "
                "again")
        model.tables = self.tables   # after the checks, which name model.bin first
        return model

    @cached_property
    def locals(self) -> dict[str, LocalEKG]:
        """Each passage's local EKG, by passage id."""
        return {p.id: extract_local_ekg(self.ekg, p, self.cfg.K)
                for p in self.corpus.passages}

    @cached_property
    def tables(self) -> EmbeddingTables:
        """The trained rows that the passages' local EKGs name."""
        return materialize_embeddings(self.embeddings, list(self.locals.values()))

    def examples(self) -> list[G2SExample]:
        """One training example per comment, sharing its passage's local EKG."""
        corpus, encode = self.corpus, self.corpus.vocab.encode
        examples = []
        for p in corpus.passages:
            local, pids = self.locals[p.id], encode(corpus.tokens(p))
            examples += [G2SExample(passage_ids=pids, local=local,
                                    comment_ids=encode(c.text))
                         for c in p.comments]
        return examples


# ---------------------------------------------------------------------------
# stages

def run_synth(ws: Path, cfg: PipelineConfig) -> dict:
    info = synth_generate(cfg.synth_spec(), ws / "data")
    _record(ws, "synth", cfg, [Path(info["novel"]), Path(info["lexicon"]),
                               Path(info["passages"])])
    return info


def run_ingest(ws: Path, cfg: PipelineConfig, novel_path=None, lexicon_path=None,
               passages_path=None) -> Path:
    data = ws / "data"
    novel_path = Path(novel_path) if novel_path else _require(data / "novel.json", "synth")
    lexicon_path = Path(lexicon_path) if lexicon_path else data / "lexicon.json"
    passages_path = Path(passages_path) if passages_path else data / "passages.jsonl"
    novel, lexicon, passages = cp.load_corpus(novel_path, lexicon_path, passages_path)
    clustered, passages = cp.cluster_chapters(novel, passages,
                                              cfg.min_chapter_tokens)
    mentions = cp.match_mentions(clustered, lexicon)
    if not mentions:
        raise cp.CorpusParseError(f"{lexicon_path}: no entity name or alias "
                                  f"occurs in {novel_path}")
    passages = cp.merge_passages(passages)
    cp.attach_entities(passages, mentions)
    passages = cp.filter_passages(passages)
    if not passages:
        raise cp.CorpusParseError(
            f"{lexicon_path}: no passage of {passages_path} mentions one of its "
            "entities and has at least 3 comments")
    streams = [ch.tokens for ch in clustered.chapters]
    streams += [c.text for p in passages for c in p.comments]
    vocab = cp.build_vocab(streams)
    out = ws / "corpus" / "corpus.json"
    _save_corpus(out, clustered, passages, mentions, vocab, lexicon.num_entities)
    _record(ws, "ingest", cfg, [out])
    return out


def report_stats(passages, ekg: GlobalEKG) -> str:
    """Table-style dataset statistics of one novel."""
    n_passages = len(passages)
    n_comments = sum(len(p.comments) for p in passages)
    if n_passages:
        avg_entities = sum(len(p.entity_ids) for p in passages) / n_passages
        avg_comments = n_comments / n_passages
        pairs = ekg.cooccurring_pairs
        avg_relations = sum(
            sum(1 for ai, a in enumerate(sorted(p.entity_ids))
                for b in sorted(p.entity_ids)[ai + 1:] if (a, b) in pairs)
            for p in passages) / n_passages
    else:
        avg_entities = avg_comments = avg_relations = 0.0
    lines = [
        ("# novels", 1),
        ("# passages", n_passages),
        ("# comments", n_comments),
        ("Avg. # entities per passage", round(avg_entities, 2)),
        ("Avg. # relations per passage", round(avg_relations, 2)),
        ("Avg. # comments per passage", round(avg_comments, 2)),
    ]
    width = max(len(k) for k, _ in lines)
    return "\n".join(f"{k:<{width}} | {v}" for k, v in lines)


def run_stats(ws: Path, cfg: PipelineConfig) -> str:
    w = Workspace(ws, cfg)
    text = report_stats(w.corpus.passages, w.ekg)
    out = ws / "corpus" / "stats.txt"
    _write_text(out, text + "\n")
    _record(ws, "stats", cfg, [out])
    return text


def run_build_ekg(ws: Path, cfg: PipelineConfig) -> Path:
    out = ws / "ekg" / "global.json"
    _save_ekg(out, Workspace(ws, cfg).ekg)
    _record(ws, "build-ekg", cfg, [out])
    return out


def run_train_ekg(ws: Path, cfg: PipelineConfig) -> Path:
    w = Workspace(ws, cfg)
    c = w.corpus
    artifact = train_ekg(c.novel, c.mentions, w.ekg, cfg, c.n_e)
    out = ws / "embed" / "ekg_embed.bin"
    artifact.save(out)
    hist = ws / "embed" / "history.json"
    _write_text(hist, json.dumps(artifact.history, sort_keys=True))
    _record(ws, "train-ekg", cfg, [out, hist])
    return out


def run_train_g2s(ws: Path, cfg: PipelineConfig) -> Path:
    w = Workspace(ws, cfg)
    examples, vocab = w.examples(), w.corpus.vocab
    model = Graph2SeqModel(cfg, len(vocab))
    model.tables = w.tables
    history = train_g2s(examples, model, cfg)
    out = ws / "g2s" / "model.bin"
    dk.save_arrays(out, model.state(), extra=_model_record(cfg, vocab))
    hist = ws / "g2s" / "history.json"
    _write_text(hist, json.dumps(history, sort_keys=True))
    _record(ws, "train-g2s", cfg, [out, hist])
    return out


def teacher_forced_accuracy(ws: Path, cfg: PipelineConfig) -> float:
    """Mean teacher-forced token accuracy of the trained generator over one
    training example per passage, the one of its last comment."""
    w = Workspace(ws, cfg)
    c, encode = w.corpus, w.corpus.vocab.encode
    return float(np.mean([w.model.token_accuracy(encode(c.tokens(p)), w.locals[p.id],
                                                 encode(p.comments[-1].text))
                          for p in c.passages]))


def run_generate(ws: Path, cfg: PipelineConfig, limit: int | None = None) -> Path:
    w = Workspace(ws, cfg)
    c, model = w.corpus, w.model
    lines = []
    for p in c.passages[:limit]:
        beams = beam_decode(c.vocab.encode(c.tokens(p)), w.locals[p.id], model,
                            beam=cfg.beam, max_len=cfg.max_len)
        record = {"passage_id": p.id,
                  "comments": [{"text": "".join(c.vocab.decode(toks)),
                                "score": round(score, 6)}
                               for toks, score in beams]}
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    out = ws / "generate" / "comments.jsonl"
    _write_text(out, "".join(lines))
    _record(ws, "generate", cfg, [out])
    return out


def run_evaluate(ws: Path, cfg: PipelineConfig) -> dict:
    corpus = Workspace(ws, cfg).corpus
    gen_path = _require(ws / "generate" / "comments.jsonl", "generate")
    by_id = {p.id: p for p in corpus.passages}
    pairs, lineno = [], 0
    with open(gen_path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line.decode("utf-8"))
                pid = rec["passage_id"]
                texts = [c["text"] for c in rec["comments"]]
                if not all(isinstance(t, str) for t in texts):
                    raise TypeError(f"comment texts {texts!r} are not all "
                                    "strings")
                # best-scoring non-empty beam; beams are sorted by score
                hyp = next((cp.tokenize(t) for t in texts if t), None)
            except (ValueError, KeyError, TypeError) as e:
                raise CorruptArtifact(f"{gen_path}:{lineno}: unreadable "
                                      f"record ({_reason(e)})") from e
            if not isinstance(pid, str) or pid not in by_id:
                raise CorruptArtifact(f"{gen_path}:{lineno}: passage_id "
                                      f"{pid!r} is not in the ingested corpus")
            refs = [c.text for c in by_id[pid].comments[:5]]
            if hyp and refs:
                pairs.append(EvalPair(hypothesis=hyp, references=refs))
    if not lineno:
        # generate writes one record per passage, and ingest keeps at least one
        raise CorruptArtifact(f"{gen_path}: holds no record; run the "
                              "'generate' stage again")
    if not pairs:
        raise RuntimeError("no non-empty hypotheses to evaluate")
    bleu = bleu_corpus(pairs)
    report = {"bleu": bleu.bleu, "precisions": bleu.precisions,
              "bp": bleu.brevity_penalty, "rouge_l": rouge_l(pairs)}
    out = ws / "evaluate" / "report.json"
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
