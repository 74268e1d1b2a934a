import json
from collections import Counter

import pytest

from ekgen import corpus as cp
from ekgen.synth import SyntheticSpec, generate


def test_counts_match_spec(tmp_path):
    # 61 passages do not divide into 3 chapters: the first takes the extra one
    for passages, per_chapter in ((60, [20, 20, 20]), (61, [21, 20, 20])):
        spec = SyntheticSpec(chapters=3, entities=6, passages=passages,
                             comments_per_passage=5, seed=0)
        info = generate(spec, tmp_path / str(passages))
        assert info["counts"] == {"chapters": 3, "entities": 6,
                                  "passages": passages,
                                  "comments": 5 * passages}
        with open(info["passages"], encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        with open(info["novel"], encoding="utf-8") as fh:
            chapters = json.load(fh)["chapters"]
        with open(info["lexicon"], encoding="utf-8") as fh:
            entities = json.load(fh)["entities"]
        by_chapter = Counter(r["chapter"] for r in records)
        assert [by_chapter[t] for t in (1, 2, 3)] == per_chapter
        assert info["counts"] == {
            "chapters": len(chapters), "entities": len(entities),
            "passages": len(records),
            "comments": sum(len(r["comments"]) for r in records)}


def test_generated_corpus_passes_corpus_invariants(tmp_path):
    spec = SyntheticSpec(seed=1)
    info = generate(spec, tmp_path)
    novel, lexicon, passages = cp.load_corpus(info["novel"], info["lexicon"],
                                              info["passages"])
    assert novel.num_chapters == spec.chapters
    assert lexicon.num_entities == spec.entities
    mentions = cp.match_mentions(novel, lexicon)
    cp.attach_entities(passages, mentions)
    kept = cp.filter_passages(passages)
    assert kept, "filtering must retain passages"
    for p in kept:
        assert p.entity_ids
        assert len(p.comments) >= 3
        votes = [c.upvotes for c in p.comments]
        assert votes == sorted(votes, reverse=True)


def test_generation_is_byte_deterministic(tmp_path):
    a = generate(SyntheticSpec(seed=7), tmp_path / "a")
    b = generate(SyntheticSpec(seed=7), tmp_path / "b")
    for key in ("novel", "lexicon", "passages"):
        with open(a[key], "rb") as f1, open(b[key], "rb") as f2:
            assert f1.read() == f2.read()


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(entities=1)
    with pytest.raises(ValueError):
        SyntheticSpec(comments_per_passage=2)
    with pytest.raises(ValueError):
        SyntheticSpec(chapters=5, passages=3)
