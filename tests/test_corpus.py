import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekgen import corpus as cp
from conftest import make_passage, write_corpus_files


# ---------------------------------------------------------------------------
# loading and validation

def test_three_chapter_fixture_loads(three_chapter_files):
    novel, lexicon, passages = cp.load_corpus(*three_chapter_files)
    assert novel.num_chapters == 3
    assert lexicon.num_entities == 3
    assert len(passages) == 1
    assert passages[0].comments[0].upvotes == 5


def test_out_of_range_chapter_reference(tmp_path):
    files = write_corpus_files(
        tmp_path, ["abc", "def", "ghi"], [(0, "a", [])],
        [{"chapter": 9, "start": 0, "end": 2, "comments": []}])
    with pytest.raises(cp.ReferenceError_, match="chapter 9"):
        cp.load_corpus(*files)


def test_duplicate_alias_across_entities_rejected(tmp_path):
    files = write_corpus_files(
        tmp_path, ["阿诺出现"],
        [(0, "甲", ["阿诺"]), (1, "乙", ["阿诺"])], [])
    with pytest.raises(cp.ReferenceError_, match="阿诺"):
        cp.load_corpus(*files)


def test_span_outside_chapter_rejected(tmp_path):
    files = write_corpus_files(
        tmp_path, ["abcd"], [(0, "a", [])],
        [{"chapter": 1, "start": 0, "end": 99, "comments": []}])
    with pytest.raises(cp.ReferenceError_):
        cp.load_corpus(*files)


def test_malformed_json_carries_locus(tmp_path):
    bad = tmp_path / "novel.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(cp.CorpusParseError, match="novel.json"):
        cp.load_novel(bad)


@pytest.mark.parametrize("raw, message", [
    ({"id": "n", "chapters": [{"index": 1, "text": 5}]},
     "chapter 0: field 'text' must be str, got 5"),
    ({"id": "n", "chapters": [{"index": "1", "text": "abc"}]},
     "chapter 0: field 'index' must be int"),
    ({"id": "n"}, "missing field 'chapters'"),
    ({"chapters": [{"index": 1, "text": "abc"}]}, "missing field 'id'"),
    ({"id": "n", "chapters": ["abc"]}, "chapter 0: expected a JSON object"),
], ids=["text-number", "index-string", "no-chapters", "no-id",
        "chapter-not-object"])
def test_malformed_novel_names_field_and_type(tmp_path, raw, message):
    bad = tmp_path / "novel.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(cp.CorpusParseError, match="^" + re.escape(
            f"{bad}: {message}")):
        cp.load_novel(bad)


@pytest.mark.parametrize("raw, message", [
    ([], "expected a JSON object"),
    ({"entities": 5}, "field 'entities' must be list, got 5"),
    ({}, "missing field 'entities'"),
    ({"entities": [{"id": "x", "name": "a"}]},
     "entity 0: field 'id' must be int, got 'x'"),
    ({"entities": [{"id": True, "name": "a"}]},
     "entity 0: field 'id' must be int, got True"),
    ({"entities": [{"id": 0.9, "name": "a"}]},
     "entity 0: field 'id' must be int, got 0.9"),
    ({"entities": [{"id": 0, "name": 5}]},
     "entity 0: field 'name' must be str, got 5"),
    ({"entities": [{"id": 0}]}, "entity 0: missing field 'name'"),
    ({"entities": [{"id": 0, "name": "a", "aliases": "BC"}]},
     "entity 0: field 'aliases' must be list, got 'BC'"),
    ({"entities": [{"id": 0, "name": "a", "aliases": [5]}]},
     "entity 0: field 'aliases' must be a list of non-blank str, got [5]"),
    ({"entities": [{"id": 0, "name": "a", "aliases": [""]}]},
     "entity 0: field 'aliases' must be a list of non-blank str, got ['']"),
    ({"entities": [{"id": 0, "name": "a", "aliases": [" "]}]},
     "entity 0: field 'aliases' must be a list of non-blank str, got [' ']"),
    ({"entities": [{"id": 0, "name": ""}]}, "entity 0: field 'name' is blank"),
    ({"entities": [{"id": 0, "name": "a", "kind": 1}]},
     "entity 0: field 'kind' must be str, got 1"),
    ({"entities": ["a"]}, "entity 0: expected a JSON object"),
], ids=["array", "entities-number", "no-entities-field", "id-str", "id-bool",
        "id-float", "name-number", "no-name", "aliases-str",
        "alias-number", "alias-empty", "alias-blank", "name-empty",
        "kind-number", "entity-not-object"])
def test_malformed_lexicon_is_a_parse_error(tmp_path, raw, message):
    bad = tmp_path / "lexicon.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(cp.CorpusParseError, match="^" + re.escape(
            f"{bad}: {message}")):
        cp.load_lexicon(bad)


def test_non_dense_entity_ids_rejected(tmp_path):
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps({"entities": [
        {"id": 0, "name": "a", "aliases": []},
        {"id": 2, "name": "b", "aliases": []}]}), encoding="utf-8")
    with pytest.raises(cp.ReferenceError_, match="dense"):
        cp.load_lexicon(lex)


@pytest.mark.parametrize("indices", [[0, 1, 2], [10, 20, 30], [1, 1, 2],
                                     [1, 2, 4], [2, 3]])
def test_chapter_indices_other_than_one_to_n_rejected(tmp_path, indices):
    """Chapter indices are the ordinals 1..n: passages name chapters by
    them, and a chapter is its position in the novel."""
    files = write_corpus_files(tmp_path, ["aaaaaa", "bbbbbbbb", "cc"][:len(indices)],
                               [(0, "a", [])])
    raw = json.loads(files[0].read_text(encoding="utf-8"))
    for chapter, index in zip(raw["chapters"], indices):
        chapter["index"] = index
    files[0].write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(cp.ReferenceError_, match=re.escape(
            f"{files[0]}: chapter indices must be 1..{len(indices)} in any "
            f"order, got {sorted(indices)}")):
        cp.load_novel(files[0])


def test_chapter_indices_load_in_index_order(tmp_path):
    files = write_corpus_files(tmp_path, ["aa", "bbb", "c"], [(0, "a", [])])
    raw = json.loads(files[0].read_text(encoding="utf-8"))
    for chapter, index in zip(raw["chapters"], [3, 1, 2]):
        chapter["index"] = index
    files[0].write_text(json.dumps(raw), encoding="utf-8")
    novel = cp.load_novel(files[0])
    assert [ch.tokens for ch in novel.chapters] == [list("bbb"), ["c"], list("aa")]


def test_tokenize_char_drops_whitespace_keeps_cjk():
    assert cp.tokenize("萧炎 来了") == ["萧", "炎", "来", "了"]
    assert cp.tokenize(" a\tb\nc ") == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# chapter clustering

def _novel_of_sizes(sizes):
    """Chapters of `sizes` tokens, no two tokens alike."""
    chapters, used = [], 0
    for n in sizes:
        chapters.append(cp._make_chapter(
            "".join(chr(0x4E00 + used + k) for k in range(n))))
        used += n
    return cp.Novel(id="n", title="", chapters=chapters)


def _passage_tokens(novel, passages):
    return [novel.chapters[p.chapter_index - 1].tokens[slice(*p.span)]
            for p in passages]


def _cluster(novel, min_tokens):
    """`cluster_chapters` of `novel` and two passages of each of its
    chapters, the moved passages checked to keep their tokens."""
    passages = [cp.Passage(id=f"p{t}{k}", chapter_index=t, span=span)
                for t, ch in enumerate(novel.chapters, 1)
                for k, span in enumerate([(0, 1), (len(ch.tokens) // 2, len(ch.tokens))])]
    out, moved = cp.cluster_chapters(novel, passages, min_tokens)
    assert [p.id for p in moved] == [p.id for p in passages]
    assert _passage_tokens(out, moved) == _passage_tokens(novel, passages)
    return out, moved


def test_cluster_merges_short_tail_backward():
    out, moved = _cluster(_novel_of_sizes([500, 30, 500]), 100)
    assert [len(ch.tokens) for ch in out.chapters] == [500, 530]
    assert [p.chapter_index for p in moved] == [1, 1, 2, 2, 2, 2]
    assert moved[4].span == (30, 31)


def test_cluster_noop_when_all_long_enough():
    out, moved = _cluster(_novel_of_sizes([200, 150, 300]), 100)
    assert [len(ch.tokens) for ch in out.chapters] == [200, 150, 300]
    assert [p.chapter_index for p in moved] == [1, 1, 2, 2, 3, 3]


def test_cluster_collapses_all_short_chapters_to_one():
    out, moved = _cluster(_novel_of_sizes([10, 10, 10]), 100)
    assert out.num_chapters == 1
    assert len(out.chapters[0].tokens) == 30
    assert [p.span for p in moved] == [(0, 1), (5, 10), (10, 11), (15, 20),
                                       (20, 21), (25, 30)]


def test_cluster_preserves_token_and_mention_counts(tmp_path):
    chapters = ["A x y\n\nB z", "q A r", "B B s", "t u v"]
    files = write_corpus_files(tmp_path, chapters,
                               [(0, "A", []), (1, "B", [])], [])
    novel = cp.load_novel(files[0])
    lexicon = cp.load_lexicon(files[1])
    total_tokens = sum(len(ch.tokens) for ch in novel.chapters)
    n_mentions = len(cp.match_mentions(novel, lexicon))
    clustered, _ = cp.cluster_chapters(novel, [], 5)
    assert clustered.num_chapters < novel.num_chapters
    assert sum(len(ch.tokens) for ch in clustered.chapters) == total_tokens
    assert len(cp.match_mentions(clustered, lexicon)) == n_mentions


def _joined(novel):
    """The novel's tokens joined, and its paragraphs in joined coordinates."""
    tokens, paragraphs = [], []
    for ch in novel.chapters:
        paragraphs += [(s + len(tokens), e + len(tokens)) for s, e in ch.paragraphs]
        tokens += ch.tokens
    return tokens, paragraphs


@pytest.mark.parametrize("min_tokens", [1, 160, 1000])
def test_cluster_joins_tokens_and_shifts_paragraphs(min_tokens):
    # chapter 2 has no paragraph break and more than 100 tokens, so it is
    # cut into 100-token windows, and it keeps them inside its group
    novel = cp.Novel(id="n", title="", chapters=[
        cp._make_chapter("ab\n\ncde"),
        cp._make_chapter("f" * 150),
        cp._make_chapter("gh\n\n i")])
    assert novel.chapters[1].paragraphs == [(0, 100), (100, 150)]
    out, _ = _cluster(novel, min_tokens)
    assert _joined(out) == _joined(novel)
    if min_tokens == 1:
        assert out.chapters == novel.chapters
    if min_tokens == 1000:
        assert out.chapters[0].paragraphs == [(0, 2), (2, 5), (5, 105), (105, 155),
                                              (155, 157), (157, 158)]


def test_cluster_moves_passages_into_merged_chapters(tmp_path):
    files = write_corpus_files(
        tmp_path, ["aaa", "bbb", "ccc"], [(0, "a", [])],
        [{"chapter": 2, "start": 1, "end": 3,
          "comments": [{"text": "x", "upvotes": 1}]}])
    novel, _, passages = cp.load_corpus(*files)
    clustered, out = cp.cluster_chapters(novel, passages, 100)
    assert out[0].chapter_index == 1
    assert out[0].span == (4, 6)
    assert clustered.chapters[0].tokens[4:6] == ["b", "b"]
    assert out[0].comments == passages[0].comments


# ---------------------------------------------------------------------------
# mention matching

def test_match_simple_word_aliases(tmp_path):
    files = write_corpus_files(tmp_path, ["A met B"],
                               [(0, "A", []), (1, "B", [])], [])
    novel = cp.load_novel(files[0])
    lexicon = cp.load_lexicon(files[1])
    mentions = cp.match_mentions(novel, lexicon)
    assert [(m.entity_id, m.span) for m in mentions] == [(0, (0, 1)), (1, (4, 5))]


def test_match_prefers_longest_alias_at_same_locus(tmp_path):
    files = write_corpus_files(tmp_path, ["萧炎大师来了"],
                               [(0, "萧炎", ["萧炎大师"])], [])
    novel = cp.load_novel(files[0])
    lexicon = cp.load_lexicon(files[1])
    mentions = cp.match_mentions(novel, lexicon)
    assert len(mentions) == 1
    assert mentions[0].span == (0, 4)


def test_match_no_aliases_yields_empty(tmp_path):
    files = write_corpus_files(tmp_path, ["plain text"], [(0, "Z", [])], [])
    novel = cp.load_novel(files[0])
    lexicon = cp.load_lexicon(files[1])
    assert cp.match_mentions(novel, lexicon) == []


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abX", min_size=0, max_size=40))
def test_match_mentions_sorted_and_non_overlapping(text):
    novel = cp.Novel(id="n", title="", chapters=[cp._make_chapter(text or "z")])
    lexicon = cp.EntityLexicon([cp.LexiconEntry(0, "X", ["ab"], "person"),
                                cp.LexiconEntry(1, "b", [], "person")])
    mentions = cp.match_mentions(novel, lexicon)
    spans = [m.span for m in mentions]
    assert spans == sorted(spans)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2


# ---------------------------------------------------------------------------
# passage merging

def test_overlap_rate_uses_shorter_denominator():
    assert cp.overlap_rate((0, 100), (40, 120)) == pytest.approx(0.75)
    assert cp.overlap_rate((0, 50), (60, 100)) == 0.0


def test_merge_overlapping_pair():
    out = cp.merge_passages([make_passage("a", 1, (0, 100)),
                             make_passage("b", 1, (40, 120))])
    assert [p.span for p in out] == [(0, 120)]
    assert len(out[0].comments) == 6


def test_merge_disjoint_unchanged():
    out = cp.merge_passages([make_passage("a", 1, (0, 50)),
                             make_passage("b", 1, (60, 100))])
    assert [p.span for p in out] == [(0, 50), (60, 100)]


def test_merge_chain_rechecks_after_merge():
    out = cp.merge_passages([make_passage("a", 1, (0, 100)),
                             make_passage("b", 1, (40, 120)),
                             make_passage("c", 1, (110, 200))])
    assert [p.span for p in out] == [(0, 120), (110, 200)]


def test_merge_ignores_other_chapters():
    out = cp.merge_passages([make_passage("a", 1, (0, 100)),
                             make_passage("b", 2, (0, 100))])
    assert len(out) == 2


def _group_of(out, passage):
    """The output passage that holds `passage`'s first comment."""
    (group,) = [g for g in out if any(c is passage.comments[0] for c in g.comments)]
    return group


@pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 0.7, 0.9])
@settings(max_examples=200, deadline=None)
@given(raw=st.lists(st.tuples(st.integers(1, 2), st.integers(0, 150),
                              st.integers(1, 50)),
                    min_size=1, max_size=10))
def test_merge_postcondition_and_idempotence(threshold, raw):
    passages = [make_passage(f"p{i}", ch, (s, s + ln))
                for i, (ch, s, ln) in enumerate(raw)]
    once = cp.merge_passages(passages, threshold)
    # the inputs are left as they were
    assert [(p.chapter_index, p.span, len(p.comments)) for p in passages] == \
        [(ch, (s, s + ln), 3) for ch, s, ln in raw]
    keys = [(p.chapter_index, p.span) for p in once]
    assert keys == sorted(keys)
    for i, a in enumerate(once):
        for b in once[i + 1:]:
            if a.chapter_index == b.chapter_index:
                assert cp.overlap_rate(a.span, b.span) <= threshold
    # every input comment lands in exactly one output passage, and every
    # input span lies inside its group's span
    held = Counter(id(c) for p in once for c in p.comments)
    assert held == Counter(id(c) for p in passages for c in p.comments)
    for p in passages:
        group = _group_of(once, p)
        assert group.chapter_index == p.chapter_index
        assert group.span[0] <= p.span[0] and p.span[1] <= group.span[1]
    again = cp.merge_passages([make_passage(p.id, p.chapter_index, p.span)
                               for p in once], threshold)
    assert [(p.chapter_index, p.span) for p in again] == keys


def test_merge_nested_passage_joins_the_group_just_before_it():
    a = make_passage("a", 1, (0, 100), upvotes=[1, 2, 3])
    b = make_passage("b", 1, (50, 200), upvotes=[4, 5, 6])
    c = make_passage("c", 1, (60, 90), upvotes=[7, 8, 9])
    out = cp.merge_passages([c, b, a])
    assert [(p.id, p.span) for p in out] == [("a", (0, 100)), ("b", (50, 200))]
    assert [x.upvotes for x in out[0].comments] == [1, 2, 3]
    assert [x.upvotes for x in out[1].comments] == [4, 5, 6, 7, 8, 9]


@pytest.mark.parametrize("n", [1, 2, 50])
@pytest.mark.parametrize("length, groups", [(15, None), (30, 1)])
def test_merge_compares_each_passage_once(monkeypatch, n, length, groups):
    """Length 15 at stride 10 overlaps the next passage by 1/3 (no merge);
    length 30 by 2/3, so the whole chain becomes one passage."""
    calls = []
    real = cp.overlap_rate
    monkeypatch.setattr(cp, "overlap_rate",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    passages = [make_passage(f"p{i}", 1, (10 * i, 10 * i + length))
                for i in range(n)]
    out = cp.merge_passages(passages[::-1])
    assert len(out) == (groups or n)
    assert len(calls) == n - 1


# ---------------------------------------------------------------------------
# filtering

def test_filter_drops_entityless_passage():
    p = make_passage("a", 1, (0, 10), n_entities=0)
    assert cp.filter_passages([p]) == []


def test_filter_drops_under_three_comments():
    p = make_passage("a", 1, (0, 10), comments=2, upvotes=[5, 4])
    assert cp.filter_passages([p]) == []


def test_filter_drops_bottom_fifth_of_five_comments():
    p = make_passage("a", 1, (0, 10), comments=5, upvotes=[1, 9, 5, 7, 3])
    out = cp.filter_passages([p])
    assert [c.upvotes for c in out[0].comments] == [9, 7, 5, 3]


def test_filter_keeps_all_of_four_comments():
    p = make_passage("a", 1, (0, 10), comments=4, upvotes=[4, 3, 2, 1])
    out = cp.filter_passages([p])
    assert len(out[0].comments) == 4


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=0, max_size=12),
       st.integers(0, 3))
def test_filter_never_increases_comments_and_enforces_predicates(ups, n_ent):
    p = make_passage("a", 1, (0, 10), n_entities=n_ent,
                     comments=len(ups), upvotes=ups or [0])
    p.comments = [cp.Comment(text=["x"], upvotes=u) for u in ups]
    before = len(p.comments)
    out = cp.filter_passages([p])
    if out:
        assert n_ent >= 1 and before >= 3
        assert len(out[0].comments) == before - int(0.2 * before)
        votes = [c.upvotes for c in out[0].comments]
        assert votes == sorted(votes, reverse=True)
    else:
        assert n_ent == 0 or before < 3


# ---------------------------------------------------------------------------
# vocabulary

def test_vocab_contains_every_token():
    vocab = cp.build_vocab([["a", "b", "a"], ["c"]])
    for t in "abc":
        assert t in vocab.token_to_id
    assert len(vocab) == len(cp.SPECIALS) + 3


def test_vocab_rare_token_maps_to_unk():
    vocab = cp.build_vocab([["a"]])
    assert vocab.encode(["a", "b"]) == [vocab.token_to_id["a"], cp.UNK]


def test_vocab_id_assignment_deterministic():
    streams = [["z", "a", "a", "m", "z", "z"]]
    v1 = cp.build_vocab(streams)
    v2 = cp.build_vocab(streams)
    assert v1.id_to_token == v2.id_to_token
    # frequency desc then lexicographic: z(3), a(2), m(1)
    assert v1.id_to_token[len(cp.SPECIALS):] == ["z", "a", "m"]


def test_vocab_specials_distinct_and_dense():
    vocab = cp.build_vocab([["x"]])
    ids = [cp.PAD, cp.BOS, cp.EOS, cp.UNK, cp.MASK, cp.CLS]
    assert ids == list(range(6))
    assert vocab.decode([cp.BOS, vocab.token_to_id["x"], cp.EOS]) == ["x"]


def test_vocab_decode_drops_every_special_token():
    vocab = cp.build_vocab([["x"]])
    x = vocab.token_to_id["x"]
    specials = list(range(len(cp.SPECIALS)))
    assert vocab.decode(specials + [x] + specials) == ["x"]
    assert vocab.decode(np.array([cp.UNK, x, cp.MASK, cp.CLS])) == ["x"]
