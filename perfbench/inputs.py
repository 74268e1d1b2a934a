"""Seeded input generators for the benchmark's workloads.

`desk` uses the program's own synthetic-corpus generator; `novel` and
`ingest` are written here. Each generator writes the three files
`run_ingest` reads (novel.json, lexicon.json, passages.jsonl) and nothing
else, so the program under test sees only ordinary corpus files. The same
seed always writes the same bytes.

Text is tokenized per character by the program. Entity names start with an
uppercase letter and filler is lowercase, so a name is only ever matched
where the generator placed it; names and aliases are prefix-free so the
leftmost-longest matcher cannot read one name inside another.

Lengths that set how much work a stage does (paragraphs and passages of a
novel chapter) are spread evenly over their range and shuffled, rather than
drawn independently. Every seed then gives the same multiset of lengths in
a different order with different text, so the seed changes what the
program reads, not how much of it.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

UPPER = "BCDFGHJKLMNPRSTVWZ"
LOWER = "aeiou" + "bcdfghklmnprstvwy"
SYLLABLES = [c + v for c in "bdfghklmnprstvwyz" for v in "aeiou"]
REACTIONS = ["so good", "cannot wait", "poor", "again", "why", "nice move",
             "love this", "too fast", "finally", "what a chapter", "haha",
             "this again", "plot twist", "great", "sad", "no way"]


@dataclass(frozen=True)
class NovelShape:
    """A serialized novel: many chapters, a drifting cast, long passages."""
    chapters: int = 16
    entities: int = 20
    alias_share: float = 0.3          # entities that also have one alias
    paragraphs_per_chapter: int = 20  # room for every passage of a chapter
    paragraph_tokens: tuple[int, int] = (30, 90)
    mentions_per_paragraph: tuple[int, int] = (1, 3)
    cast_per_chapter: int = 8
    passages_per_chapter: int = 5
    passage_tokens: tuple[int, int] = (60, 200)
    comments_per_passage: tuple[int, int] = (3, 7)
    comment_tokens: tuple[int, int] = (8, 50)


@dataclass(frozen=True)
class IngestShape:
    """Many short passages per chapter, a fixed share overlapping their
    predecessor above the 0.5 merge threshold, in chains. Text and comments
    follow the `synth` corpus (one-letter names, filler from `abcdefgh`,
    14-token templated comments), on which a briefly trained model decodes
    full-length beams, so the small model stages time the same work on
    every seed."""
    chapters: int = 3
    entities: int = 8
    passages_per_chapter: int = 150
    passage_tokens: tuple[int, int] = (20, 40)
    overlap_share: float = 0.3        # passages that overlap their predecessor
    comments_per_passage: tuple[int, int] = (2, 4)


def _names(rng: random.Random, n: int, n_alias: int) -> list[tuple[str, list[str]]]:
    """`n` entities with 2-3 character names; the first `n_alias` get one
    2-character alias. All strings are distinct and prefix-free."""
    taken: set[str] = set()

    def fresh(length: int) -> str:
        while True:
            s = rng.choice(UPPER) + "".join(rng.choice(LOWER)
                                            for _ in range(length - 1))
            if not any(s.startswith(t) or t.startswith(s) for t in taken):
                taken.add(s)
                return s

    names = [fresh(rng.choice((2, 3))) for _ in range(n)]
    aliases = [[fresh(2)] if i < n_alias else [] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    return [(names[i], aliases[i]) for i in order]


def _filler(rng: random.Random, n_tokens: int) -> list[str]:
    """Lowercase words totalling about `n_tokens` characters."""
    words, count = [], 0
    while count < n_tokens:
        w = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(1, 3)))
        words.append(w)
        count += len(w)
    return words


def _spread(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """`n` lengths evenly spaced over [lo, hi], in random order."""
    out = [lo + round(i * (hi - lo) / max(n - 1, 1)) for i in range(n)]
    rng.shuffle(out)
    return out


def _paragraph(rng, n_tokens: int, mentions: list[str]) -> str:
    """Filler with the mentions inserted; the first mention falls within the
    first three words, so every passage (which starts on a paragraph) names
    an entity and survives the filter."""
    words = _filler(rng, max(n_tokens - sum(map(len, mentions)), 1))
    for k, m in enumerate(mentions):
        words.insert(rng.randrange(min(3, len(words) + 1) if k == 0
                                   else len(words) + 1), m)
    return " ".join(words)


def _comment(rng, n_tokens: int, names: list[str]) -> str:
    """A reader reaction naming one or two of the passage's entities."""
    picked = rng.sample(names, min(len(names), rng.randint(1, 2)))
    parts = [rng.choice(REACTIONS)] + picked
    text = " ".join(parts)
    while sum(1 for c in text if not c.isspace()) < n_tokens:
        text += " " + rng.choice(REACTIONS + picked)
    out, count = [], 0
    for c in text:                     # cut to exactly n_tokens characters
        if not c.isspace():
            if count == n_tokens:
                break
            count += 1
        out.append(c)
    return "".join(out).strip()


def _write(out_dir: Path, novel_id: str, chapters: list[str],
           entities: list[tuple[str, list[str]]], passages: list[dict]) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"novel": out_dir / "novel.json", "lexicon": out_dir / "lexicon.json",
             "passages": out_dir / "passages.jsonl"}
    novel = {"id": novel_id, "title": novel_id,
             "chapters": [{"index": t + 1, "text": text}
                          for t, text in enumerate(chapters)]}
    lexicon = {"entities": [{"id": i, "name": n, "aliases": a, "kind": "person"}
                            for i, (n, a) in enumerate(entities)]}
    paths["novel"].write_text(json.dumps(novel, sort_keys=True), encoding="utf-8")
    paths["lexicon"].write_text(json.dumps(lexicon, sort_keys=True), encoding="utf-8")
    with open(paths["passages"], "w", encoding="utf-8") as fh:
        for p in passages:
            fh.write(json.dumps(p, sort_keys=True) + "\n")
    return paths


def _chapter_text(paragraphs: list[str]) -> tuple[str, list[tuple[int, int]]]:
    """Join paragraphs and return their character-token spans."""
    spans, cursor = [], 0
    for p in paragraphs:
        n = sum(1 for c in p if not c.isspace())
        spans.append((cursor, cursor + n))
        cursor += n
    return "\n\n".join(paragraphs), spans


def _mention(rng, entity: tuple[str, list[str]]) -> str:
    name, aliases = entity
    return rng.choice(aliases) if aliases and rng.random() < 0.3 else name


def write_novel(seed: int, out_dir: Path, shape: NovelShape = NovelShape()) -> dict:
    """A serialized novel whose cast drifts over the chapters."""
    rng = random.Random(seed)
    entities = _names(rng, shape.entities, round(shape.alias_share * shape.entities))
    weights = [1.0 / (i + 1) for i in range(shape.entities)]   # Zipf-like fame
    cast = rng.sample(range(shape.entities), shape.cast_per_chapter)
    chapters, passages, pid = [], [], 0
    for t in range(1, shape.chapters + 1):
        if t > 1:                         # one or two cast changes per chapter
            for _ in range(rng.randint(1, 2)):
                out = rng.randrange(len(cast))
                new = rng.choices(range(shape.entities), weights)[0]
                if new not in cast:
                    cast[out] = new
        paragraphs, present = [], []
        for n_tokens in _spread(rng, *shape.paragraph_tokens,
                                shape.paragraphs_per_chapter):
            k = rng.randint(*shape.mentions_per_paragraph)
            ids = rng.sample(cast, k)
            present.append(ids)
            paragraphs.append(_paragraph(rng, n_tokens,
                                         [_mention(rng, entities[i]) for i in ids]))
        text, spans = _chapter_text(paragraphs)
        chapters.append(text)
        # passages start on paragraph boundaries and never overlap
        p_idx = 0
        for length in _spread(rng, *shape.passage_tokens, shape.passages_per_chapter):
            if p_idx >= len(spans):
                break
            begin = spans[p_idx][0]
            end = min(begin + length, spans[-1][1])
            names = sorted({entities[i][0] for p, (a, b) in enumerate(spans)
                            if a < end and b > begin for i in present[p]})
            comments = [{"text": _comment(rng, rng.randint(*shape.comment_tokens), names),
                         "upvotes": rng.randint(0, 200)}
                        for _ in range(rng.randint(*shape.comments_per_passage))]
            pid += 1
            passages.append({"id": f"n{pid}", "chapter": t, "start": begin,
                             "end": end, "comments": comments})
            while p_idx < len(spans) and spans[p_idx][0] < end:
                p_idx += 1
    return _write(out_dir, f"novel-{seed}", chapters, entities, passages)


def write_ingest(seed: int, out_dir: Path, shape: IngestShape = IngestShape()) -> dict:
    """Many short passages; `overlap_share` of them start inside their
    predecessor so the pair overlaps above 0.5, which chains merges."""
    rng = random.Random(seed)
    names = [chr(ord("A") + i) for i in range(shape.entities)]
    entities = [(n, []) for n in names]
    lo, hi = shape.passage_tokens
    chapters, passages, pid = [], [], 0
    for t in range(1, shape.chapters + 1):
        marker = str((t - 1) % 10)
        # one paragraph per base passage slot, naming two entities
        pairs = [rng.sample(names, 2) for _ in range(shape.passages_per_chapter)]
        paragraphs = []
        for a, b in pairs:
            n = rng.randint(lo, hi) - 5
            fill = lambda k: "".join(rng.choice("abcdefgh") for _ in range(k))
            paragraphs.append(fill(n // 2) + a + fill(2) + b + marker + fill(n - n // 2))
        text, spans = _chapter_text(paragraphs)
        chapters.append(text)
        # exactly `overlap_share` of every block of ten passages overlap their
        # predecessor, so merge work varies little from seed to seed
        overlapping: set[int] = set()
        for start in range(1, shape.passages_per_chapter, 10):
            block = range(start, min(start + 10, shape.passages_per_chapter))
            overlapping.update(rng.sample(block, round(shape.overlap_share * len(block))))
        prev = None
        for s in range(shape.passages_per_chapter):
            if s in overlapping:
                # start in the first quarter of the predecessor, same length:
                # overlap is above 0.75 of the shorter span
                (a, b), pair = prev
                begin = a + rng.randint(0, (b - a) // 4)
                span = (begin, min(begin + (b - a), spans[-1][1]))
            else:
                span, pair = spans[s], pairs[s]
            prev = span, pair
            x, y = pair
            comments = [{"text": (x + y + marker) * 4 + "tuvwxyz"[k] + x,
                         "upvotes": rng.randint(0, 50)}
                        for k in range(rng.randint(*shape.comments_per_passage))]
            pid += 1
            passages.append({"id": f"i{pid}", "chapter": t, "start": span[0],
                             "end": span[1], "comments": comments})
    return _write(out_dir, f"ingest-{seed}", chapters, entities, passages)


def write_desk(seed: int, out_dir: Path) -> dict:
    """The desk preset's synthetic corpus, written by the program's own
    generator (`ekgen.synth`) from the workload seed."""
    from ekgen.config import load_config
    from ekgen.synth import SyntheticSpec, generate

    cfg = load_config(preset="desk")
    spec = SyntheticSpec(chapters=cfg.synth_chapters, entities=cfg.synth_entities,
                         passages=cfg.synth_passages,
                         comments_per_passage=cfg.synth_comments, seed=seed)
    info = generate(spec, out_dir)
    return {k: Path(info[k]) for k in ("novel", "lexicon", "passages")}


def shapes() -> dict:
    """Shape parameters of the generated workloads, for the result record."""
    return {"novel": asdict(NovelShape()), "ingest": asdict(IngestShape())}
