"""Corpus ingestion: novels, entity lexicons, passages and comments.

Chapters and comments are tokenized character by character (CJK-safe),
whitespace dropped. Filtering and merging rules operate on token spans within
a chapter.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

PAD, BOS, EOS, UNK, MASK, CLS = 0, 1, 2, 3, 4, 5
SPECIALS = ["<pad>", "<bos>", "<eos>", "<unk>", "<mask>", "<cls>"]


class CorpusParseError(ValueError):
    """Malformed input file; message carries the file and line locus."""


class ReferenceError_(ValueError):
    """Dangling entity id, out-of-range chapter index, or duplicate alias."""


def tokenize(text: str) -> list[str]:
    """The characters of `text` that are not whitespace, one token each."""
    return [ch for ch in text if not ch.isspace()]


@dataclass
class Chapter:
    """Chapter t of a novel is `novel.chapters[t - 1]`."""
    tokens: list[str]
    paragraphs: list[tuple[int, int]]  # token spans of paragraphs


@dataclass
class Novel:
    id: str
    title: str
    chapters: list[Chapter]

    @property
    def num_chapters(self) -> int:
        return len(self.chapters)


@dataclass
class LexiconEntry:
    entity_id: int
    name: str
    aliases: list[str]
    kind: str


@dataclass
class EntityLexicon:
    entries: list[LexiconEntry]

    @property
    def num_entities(self) -> int:
        return len(self.entries)

    def alias_map(self) -> dict[tuple[str, ...], int]:
        out: dict[tuple[str, ...], int] = {}
        for e in self.entries:
            for alias in [e.name] + e.aliases:
                key = tuple(tokenize(alias))
                if key in out and out[key] != e.entity_id:
                    raise ReferenceError_(
                        f"alias {alias!r} maps to entities {out[key]} and {e.entity_id}")
                out[key] = e.entity_id
        return out


@dataclass
class Mention:
    entity_id: int
    chapter_index: int
    span: tuple[int, int]            # token [start, end)


@dataclass
class Comment:
    text: list[str]
    upvotes: int


@dataclass
class Passage:
    id: str
    chapter_index: int
    span: tuple[int, int]            # its tokens: chapter tokens[start:end]
    entity_ids: set[int] = field(default_factory=set)
    comments: list[Comment] = field(default_factory=list)


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK) for t in tokens]

    def decode(self, ids) -> list[str]:
        """Tokens of `ids`, without any of the special tokens."""
        return [self.id_to_token[i] for i in ids if i >= len(SPECIALS)]

    def content_hash(self) -> str:
        import hashlib
        return hashlib.sha256("\x00".join(self.id_to_token).encode()).hexdigest()[:16]


def _make_chapter(text: str, fallback_window: int = 100) -> Chapter:
    """Tokenize a chapter; blank lines separate its paragraphs."""
    tokens: list[str] = []
    spans: list[tuple[int, int]] = []
    for p in re.split(r"\n\s*\n", text):
        ptoks = tokenize(p)
        if ptoks:               # a blank paragraph has no tokens
            spans.append((len(tokens), len(tokens) + len(ptoks)))
            tokens.extend(ptoks)
    if len(spans) <= 1 and len(tokens) > fallback_window:
        # no separators in source: fall back to fixed token windows
        spans = [(s, min(s + fallback_window, len(tokens)))
                 for s in range(0, len(tokens), fallback_window)]
    return Chapter(tokens=tokens, paragraphs=spans)


def load_corpus(novel_path, lexicon_path,
                passages_path) -> tuple[Novel, EntityLexicon, list[Passage]]:
    """Load and cross-validate the three input files."""
    novel = load_novel(novel_path)
    lexicon = load_lexicon(lexicon_path)
    lexicon.alias_map()  # raises on duplicate aliases
    passages = load_passages(passages_path, novel)
    return novel, lexicon, passages


def _read_text(path: Path) -> str:
    """The UTF-8 text of the file at `path`, its line ends read as `open`
    reads them. A directory, or a byte that is not UTF-8, raises a
    `CorpusParseError` naming the file, and the line and offset of that
    byte."""
    try:
        data = path.read_bytes()
    except IsADirectoryError as e:
        raise CorpusParseError(f"{path}: is a directory, not a file") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise CorpusParseError(
            f"{path}:{line}: byte {e.start} is not UTF-8 ({e.reason})") from e
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_json(path: Path):
    """The JSON value in the file at `path`; see `_read_text`."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise CorpusParseError(f"{path}:{e.lineno}: {e.msg}") from e


def load_novel(path) -> Novel:
    path = Path(path)
    raw = _read_json(path)
    where = str(path)
    chapters = sorted(
        ((_field(c, "index", int, f"{where}: chapter {i}"),
          _field(c, "text", str, f"{where}: chapter {i}"))
         for i, c in enumerate(_field(raw, "chapters", list, where))),
        key=lambda c: c[0])
    if "id" not in raw:
        raise CorpusParseError(f"{where}: missing field 'id'")
    indices = [index for index, _ in chapters]
    if indices != list(range(1, len(indices) + 1)):
        raise ReferenceError_(f"{where}: chapter indices must be "
                              f"1..{len(indices)} in any order, got {indices}")
    built = [_make_chapter(text) for _, text in chapters]
    for t, ch in enumerate(built, 1):
        if not ch.tokens:
            raise CorpusParseError(f"{path}: chapter {t} is empty")
    return Novel(id=str(raw["id"]), title=raw.get("title", ""), chapters=built)


def load_lexicon(path) -> EntityLexicon:
    path = Path(path)
    raw = _read_json(path)
    entries = []
    for i, ent in enumerate(_field(raw, "entities", list, str(path))):
        where = f"{path}: entity {i}"
        entity_id = _field(ent, "id", int, where)
        name = _field(ent, "name", str, where)
        aliases = _field(ent, "aliases", list, where) if "aliases" in ent else []
        # a name without a token would match an empty span at every position
        if not name.strip():
            raise CorpusParseError(f"{where}: field 'name' is blank")
        if not all(isinstance(a, str) and a.strip() for a in aliases):
            raise CorpusParseError(f"{where}: field 'aliases' must be a list "
                                   f"of non-blank str, got {aliases!r}")
        kind = _field(ent, "kind", str, where) if "kind" in ent else "person"
        entries.append(LexiconEntry(entity_id, name, aliases, kind))
    entries.sort(key=lambda e: e.entity_id)
    ids = [e.entity_id for e in entries]
    if ids != list(range(len(ids))):
        raise ReferenceError_(f"{path}: entity ids must be dense 0..n-1, got {ids}")
    return EntityLexicon(entries)


def _field(raw: dict, key: str, kind: type, where: str):
    """`raw[key]` when `raw` is a JSON object and `raw[key]` a JSON value
    of `kind`; otherwise a `CorpusParseError` at `where` (bools do not count
    as integers)."""
    if not isinstance(raw, dict):
        raise CorpusParseError(f"{where}: expected a JSON object")
    if key not in raw:
        raise CorpusParseError(f"{where}: missing field {key!r}")
    value = raw[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise CorpusParseError(
            f"{where}: field {key!r} must be {kind.__name__}, got {value!r}")
    return value


def load_passages(path, novel: Novel) -> list[Passage]:
    """One passage per non-blank line; its `id`, a string, defaults to
    `p<line>`, and no two passages share one."""
    path = Path(path)
    passages, line_of = [], {}         # passage id -> its line
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusParseError(f"{where}: {e.msg}") from e
        ch_idx = _field(raw, "chapter", int, where)
        if not 1 <= ch_idx <= novel.num_chapters:
            raise ReferenceError_(
                f"{where}: chapter {ch_idx} out of range 1..{novel.num_chapters}")
        n_tokens = len(novel.chapters[ch_idx - 1].tokens)
        start, end = _field(raw, "start", int, where), _field(raw, "end", int, where)
        if not (0 <= start < end <= n_tokens):
            raise ReferenceError_(
                f"{where}: span [{start},{end}) outside chapter "
                f"{ch_idx} of {n_tokens} tokens")
        raw_comments = raw.get("comments", [])
        if not (isinstance(raw_comments, list)
                and all(isinstance(c, dict) for c in raw_comments)):
            raise CorpusParseError(f"{where}: 'comments' must be a list of objects")
        comments = [Comment(text=tokenize(_field(c, "text", str, where)),
                            upvotes=_field(c, "upvotes", int, where))
                    for c in raw_comments]
        for c in comments:
            if not c.text:
                raise CorpusParseError(f"{where}: empty comment text")
            if c.upvotes < 0:
                raise CorpusParseError(f"{where}: negative upvotes")
        pid = _field(raw, "id", str, where) if "id" in raw else f"p{lineno}"
        if pid in line_of:
            raise CorpusParseError(f"{where}: passage id {pid!r} is already "
                                   f"that of line {line_of[pid]}")
        line_of[pid] = lineno
        passages.append(Passage(id=pid, chapter_index=ch_idx,
                                span=(start, end), comments=comments))
    return passages


def cluster_chapters(novel: Novel, passages: list[Passage],
                     min_chapter_tokens: int) -> tuple[Novel, list[Passage]]:
    """Greedy left-to-right merge of short chapters, and the passages moved
    into the merged chapters.

    Consecutive chapters are merged until each group reaches the minimum
    token count; a short trailing group is absorbed backward into the
    previous one. A group's tokens are its chapters' tokens joined, and its
    paragraphs and passages are theirs, shifted to the joined coordinates.
    """
    groups: list[list[tuple[int, Chapter]]] = []   # of (t, chapter t)
    current: list[tuple[int, Chapter]] = []
    count = 0
    for t, ch in enumerate(novel.chapters, 1):
        current.append((t, ch))
        count += len(ch.tokens)
        if count >= min_chapter_tokens:
            groups.append(current)
            current, count = [], 0
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    merged = []
    place = {}         # original chapter -> (merged chapter, token offset)
    for g, grp in enumerate(groups, 1):
        tokens, paragraphs = [], []
        for t, ch in grp:
            place[t] = (g, len(tokens))
            paragraphs += [(s + len(tokens), e + len(tokens)) for s, e in ch.paragraphs]
            tokens += ch.tokens
        merged.append(Chapter(tokens=tokens, paragraphs=paragraphs))
    moved = []
    for p in passages:
        g, offset = place[p.chapter_index]
        moved.append(replace(p, chapter_index=g,
                             span=(p.span[0] + offset, p.span[1] + offset)))
    return Novel(id=novel.id, title=novel.title, chapters=merged), moved


def match_mentions(novel: Novel, lexicon: EntityLexicon) -> list[Mention]:
    """Leftmost-longest non-overlapping alias matches per chapter."""
    amap = lexicon.alias_map()
    if not amap:
        return []
    by_len = sorted({len(k) for k in amap}, reverse=True)
    mentions = []
    for t, ch in enumerate(novel.chapters, 1):
        toks = ch.tokens
        i = 0
        n = len(toks)
        while i < n:
            hit = None
            for L in by_len:
                if i + L <= n:
                    key = tuple(toks[i:i + L])
                    if key in amap:
                        hit = (amap[key], L)
                        break
            if hit:
                eid, L = hit
                mentions.append(Mention(entity_id=eid, chapter_index=t,
                                        span=(i, i + L)))
                i += L
            else:
                i += 1
    return mentions


def attach_entities(passages: list[Passage], mentions: list[Mention]) -> list[Passage]:
    """Fill passage.entity_ids from mentions overlapping the passage span."""
    by_chapter: dict[int, list[Mention]] = {}
    for m in mentions:
        by_chapter.setdefault(m.chapter_index, []).append(m)
    for p in passages:
        s, e = p.span
        p.entity_ids = {m.entity_id for m in by_chapter.get(p.chapter_index, [])
                        if m.span[0] < e and m.span[1] > s}
    return passages


def overlap_rate(a: tuple[int, int], b: tuple[int, int]) -> float:
    inter = max(0, min(a[1], b[1]) - max(a[0], b[0]))
    shorter = min(a[1] - a[0], b[1] - b[0])
    return inter / shorter if shorter else 0.0


def merge_passages(passages: list[Passage],
                   overlap_threshold: float = 0.5) -> list[Passage]:
    """Merge same-chapter passages whose span overlap exceeds the threshold.

    One sweep in (chapter, span) order: a passage joins the group just
    before it (same chapter, overlap with the group's span above the
    threshold) or starts a new one. A group keeps its first passage's id,
    spans the union and holds its passages' comments in order and their
    entities. A refused passage ends after the group (a nested one overlaps
    it by 1.0) and later ones start no earlier, so no two groups overlap
    above the threshold and merging again changes nothing. A passage that
    overlaps an earlier group too joins the one just before it: at 0.5,
    (60, 90) goes with (50, 200), not with (0, 100) as at the transitive
    fixed point.
    """
    out: list[Passage] = []
    for p in sorted(passages, key=lambda p: (p.chapter_index, p.span)):
        last = out[-1] if out else None
        if (last is not None and last.chapter_index == p.chapter_index
                and overlap_rate(last.span, p.span) > overlap_threshold):
            last.span = (last.span[0], max(last.span[1], p.span[1]))
            last.entity_ids |= p.entity_ids
            last.comments += p.comments
        else:
            out.append(replace(p, entity_ids=set(p.entity_ids),
                               comments=list(p.comments)))
    return out


def filter_passages(passages: list[Passage]) -> list[Passage]:
    """Keep passages with >=1 entity and >=3 comments; drop the bottom 20%
    of each passage's comments by upvotes (floor rounding)."""
    kept = []
    for p in passages:
        if not p.entity_ids or len(p.comments) < 3:
            continue
        ranked = sorted(p.comments, key=lambda c: -c.upvotes)
        n_drop = int(0.2 * len(ranked))
        p.comments = ranked[:len(ranked) - n_drop] if n_drop else ranked
        kept.append(p)
    return kept


def build_vocab(token_streams) -> Vocabulary:
    """Frequency-then-lexicographic id assignment after the special tokens."""
    freq = Counter()
    for stream in token_streams:
        freq.update(stream)
    id_to_token = SPECIALS + sorted(freq, key=lambda t: (-freq[t], t))
    return Vocabulary(token_to_id={t: i for i, t in enumerate(id_to_token)},
                      id_to_token=id_to_token)
