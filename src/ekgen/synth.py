"""Synthetic chapterized corpus with a lexicon and templated comments.

Entity names are single uppercase characters, filler is lowercase, and
chapter markers are digits, so the character tokenizer keeps them all
disjoint. Comments are deterministic functions of the passage's entities
and chapter, which makes the generator suitable for overfit checks.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from .diffkit import atomic_open

FILLER = "abcdefgh"
COMMENT_MARKERS = "tuvwxyz"


@dataclass
class SyntheticSpec:
    chapters: int = 3
    entities: int = 6
    passages: int = 60
    comments_per_passage: int = 5
    filler_tokens: int = 8
    seed: int = 0

    def __post_init__(self):
        # each message starts with the name of the field at fault
        if self.chapters < 1:
            raise ValueError("chapters must be >= 1")
        if self.entities < 2 or self.entities > 20:
            raise ValueError("entities must be in 2..20")
        if self.comments_per_passage < 3 or self.comments_per_passage > len(COMMENT_MARKERS):
            raise ValueError("comments_per_passage must be in 3..7")
        if self.passages < self.chapters:
            raise ValueError("passages must be at least one per chapter")


def entity_name(i: int) -> str:
    return chr(ord("A") + i)


def generate(spec: SyntheticSpec, out_dir) -> dict:
    """Write novel.json, lexicon.json and passages.jsonl, each through
    `atomic_open`; return the file paths plus the exact counts the files
    contain."""
    out_dir = Path(out_dir)
    rng = random.Random(spec.seed)
    names = [entity_name(i) for i in range(spec.entities)]
    # co-occurrence ring: distance-1 and distance-2 pairs only. At 4 or 5
    # entities that is every pair, so the ring is complete; from 6 on it is
    # sparse, and negative pairs for triplet training always exist
    n = spec.entities
    ring = sorted({tuple(sorted(((i, (i + d) % n)))) for i in range(n)
                   for d in (1, 2) if i != (i + d) % n})
    pair_cycle = itertools.cycle(ring)

    per_chapter = [spec.passages // spec.chapters] * spec.chapters
    for i in range(spec.passages % spec.chapters):
        per_chapter[i] += 1

    chapters = []
    passages = []
    n_comments = 0
    pid = 0
    for t in range(1, spec.chapters + 1):
        marker = str((t - 1) % 10)
        paragraphs = []
        cursor = 0
        for _ in range(per_chapter[t - 1]):
            i, j = next(pair_cycle)
            fill = lambda n: "".join(rng.choice(FILLER) for _ in range(n))
            para = (fill(spec.filler_tokens // 2) + names[i] + fill(2)
                    + names[j] + marker + fill(spec.filler_tokens // 2))
            start = cursor
            cursor += len(para)
            paragraphs.append(para)
            comments = []
            for k in range(spec.comments_per_passage):
                # highly regular body with one distinguishing marker near the
                # end: a generator can overfit all but one token per comment
                text = ((names[i] + names[j] + marker) * 4
                        + COMMENT_MARKERS[k] + names[i])
                comments.append({"text": text,
                                 "upvotes": 10 * (spec.comments_per_passage - k)})
            n_comments += len(comments)
            pid += 1
            passages.append({"id": f"p{pid}", "chapter": t, "start": start,
                             "end": cursor, "comments": comments})
        chapters.append({"index": t, "text": "\n\n".join(paragraphs)})

    novel = {"id": f"synth-{spec.seed}", "title": "synthetic novel",
             "chapters": chapters}
    lexicon = {"entities": [{"id": i, "name": names[i], "aliases": [],
                             "kind": "person"} for i in range(spec.entities)]}

    novel_path = out_dir / "novel.json"
    lexicon_path = out_dir / "lexicon.json"
    passages_path = out_dir / "passages.jsonl"
    for path, text in (
            (novel_path, json.dumps(novel, sort_keys=True)),
            (lexicon_path, json.dumps(lexicon, sort_keys=True)),
            (passages_path, "".join(json.dumps(p, sort_keys=True) + "\n"
                                    for p in passages))):
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return {"novel": str(novel_path), "lexicon": str(lexicon_path),
            "passages": str(passages_path),
            "counts": {"chapters": spec.chapters, "entities": spec.entities,
                       "passages": len(passages), "comments": n_comments}}
