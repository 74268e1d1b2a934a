import json

import pytest

from ekgen import corpus as cp


def write_corpus_files(tmp_path, chapters, entities, passages=()):
    """chapters: list of chapter text strings; entities: list of
    (id, name, aliases); passages: list of dicts."""
    novel = {"id": "n1", "title": "fixture",
             "chapters": [{"index": i + 1, "text": t}
                          for i, t in enumerate(chapters)]}
    lexicon = {"entities": [{"id": i, "name": n, "aliases": list(a),
                             "kind": "person"}
                            for (i, n, a) in entities]}
    np_ = tmp_path / "novel.json"
    lp = tmp_path / "lexicon.json"
    pp = tmp_path / "passages.jsonl"
    np_.write_text(json.dumps(novel), encoding="utf-8")
    lp.write_text(json.dumps(lexicon), encoding="utf-8")
    with open(pp, "w", encoding="utf-8") as fh:
        for p in passages:
            fh.write(json.dumps(p) + "\n")
    return np_, lp, pp


@pytest.fixture
def three_chapter_files(tmp_path):
    chapters = ["萧炎遇到了美杜莎。\n\n美杜莎离开了。",
                "萧炎大师与药老谈话。\n\n药老点头。",
                "美杜莎与药老相遇。"]
    entities = [(0, "萧炎", ["萧炎大师"]), (1, "美杜莎", []), (2, "药老", [])]
    passages = [
        {"chapter": 1, "start": 0, "end": 8,
         "comments": [{"text": "好看", "upvotes": 5},
                      {"text": "精彩", "upvotes": 3},
                      {"text": "一般", "upvotes": 1}]},
    ]
    return write_corpus_files(tmp_path, chapters, entities, passages)


def make_passage(pid, chapter, span, n_entities=1, comments=3, upvotes=None):
    ups = upvotes or [10 - i for i in range(comments)]
    return cp.Passage(
        id=pid, chapter_index=chapter, span=span,
        entity_ids=set(range(n_entities)),
        comments=[cp.Comment(text=["x"], upvotes=u) for u in ups[:comments]])
