import json
import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from ekgen import cli, pipeline
from ekgen import diffkit as dk
from ekgen.config import load_config
from ekgen.corpus import Comment, Passage
from ekgen.ekg import GlobalEKG, TemporalKG, build_global_ekg
from ekgen.embed import TrainingDiverged


SMALL = ["synth_passages=6", "synth_entities=4", "synth_chapters=2",
         "synth_comments=3", "min_chapter_tokens=10", "d_f=8", "d_model=8",
         "n_heads=2", "encoder_layers=1", "decoder_layers=1",
         "bilstm_layers=1", "gat_layers=1", "phase1_steps=5", "phase2_steps=2",
         "g2s_steps=30", "batch_size=4", "max_passage=32", "beam=2",
         "max_len=10"]


def _cfg(seed=0):
    return load_config(overrides=SMALL, seed=seed)


def test_missing_artifact_names_prerequisite_stage(tmp_path):
    with pytest.raises(pipeline.MissingArtifact, match="'ingest'"):
        pipeline.run_train_g2s(tmp_path, _cfg())


def test_full_small_pipeline_produces_all_artifacts(tmp_path):
    ws = tmp_path / "ws"
    cfg = _cfg()
    report = pipeline.run_full_pipeline(ws, cfg, generate_limit=2)
    assert set(report) == {"bleu", "precisions", "bp", "rouge_l"}
    for rel in ["data/novel.json", "corpus/corpus.json", "ekg/global.json",
                "embed/ekg_embed.bin", "g2s/model.bin",
                "generate/comments.jsonl",
                "evaluate/report.json", "manifest.json"]:
        assert (ws / rel).exists(), rel
    manifest = json.loads((ws / "manifest.json").read_text())
    assert set(manifest["stages"]) >= {"synth", "ingest", "build-ekg",
                                       "train-ekg", "train-g2s", "generate",
                                       "evaluate"}
    with open(ws / "generate" / "comments.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 2
    for rec in records:
        assert len(rec["comments"]) >= 1


def test_manifest_records_blas_setting(tmp_path, monkeypatch):
    """Each stage records the BLAS library, its thread variables and the
    core count, the setting its bytes repeat under."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    ws = tmp_path / "ws"
    pipeline.run_synth(ws, _cfg())
    pipeline.run_ingest(ws, _cfg())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    want = {"name": blas["name"], "version": blas["version"],
            "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                        "MKL_NUM_THREADS": "3"},
            "cpu_count": os.cpu_count()}
    stages = json.loads((ws / "manifest.json").read_text())["stages"]
    assert set(stages) == {"synth", "ingest"}
    for entry in stages.values():
        assert entry["blas"] == want


def test_corpus_roundtrip_through_workspace(tmp_path):
    ws = tmp_path / "ws"
    cfg = _cfg()
    pipeline.run_synth(ws, cfg)
    pipeline.run_ingest(ws, cfg)
    c = pipeline.Workspace(ws, cfg).corpus
    assert c.token_mode == "char"
    assert c.n_e == 4
    assert c.passages and c.mentions
    assert all(len(p.comments) >= 3 for p in c.passages)
    # saved vocabulary decodes passage text back to the original tokens
    tokens = c.tokens(c.passages[0])
    assert c.vocab.decode(c.vocab.encode(tokens)) == tokens


def test_workspace_lock_blocks_second_writer(tmp_path):
    ws = tmp_path / "ws"
    with pipeline.workspace_lock(ws):
        with pytest.raises(RuntimeError, match="locked"):
            with pipeline.workspace_lock(ws):
                pass
    # released afterwards
    with pipeline.workspace_lock(ws):
        pass


def test_report_stats_single_passage():
    p = Passage(id="p", chapter_index=1, span=(0, 5), entity_ids={0, 1},
                comments=[Comment(["x"], 1)] * 3)
    text = pipeline.report_stats([p], GlobalEKG("n", [], Counter()))
    assert "# passages" in text
    assert "| 2.0" in text   # avg entities
    assert "| 3.0" in text   # avg comments


def test_report_stats_empty_corpus_no_division_error():
    text = pipeline.report_stats([], GlobalEKG("n", [], Counter()))
    assert "# passages" in text
    assert "| 0" in text


def test_cli_prerequisite_error_exit_code(tmp_path):
    code = cli.main(["train-g2s", "--workspace", str(tmp_path / "ws")])
    assert code == 3


def test_cli_config_error_exit_code(tmp_path):
    code = cli.main(["synth", "--workspace", str(tmp_path / "ws"),
                     "--set", "bogus=1"])
    assert code == 2


@pytest.mark.parametrize("config_text, override", [
    (None, None),                       # --config names a missing file
    ('{"K": 5', None),                  # torn JSON
    ('[5]', None),                      # not an object of keys
    ('{"K": "5"}', None),               # a string where an integer goes
    ('{"lambda0": true}', None),        # a boolean where a number goes
    (None, "K=5.7"),                    # not rounded to 5
    (None, "lambda0=true"),             # not read as 1.0
    (None, "lambda0=NaN"),              # validate() alone lets NaN through
    (None, "synth_entities=30"),        # out of range
    (None, "synth_comments=2"),
    (None, "synth_chapters=0"),
    (None, "seed=-1"),                  # numpy's generators refuse it later
], ids=["missing-file", "torn-json", "not-an-object", "string-for-int",
        "bool-for-float", "set-float-for-int", "set-bool-for-float",
        "set-nan", "set-synth-entities", "set-synth-comments",
        "set-synth-chapters", "set-negative-seed"])
def test_cli_config_error_is_one_line_exit_2(tmp_path, capsys, config_text,
                                             override):
    args = ["stats", "--workspace", str(tmp_path / "ws")]
    if override is None:
        path = tmp_path / "cfg.json"
        if config_text is not None:
            path.write_text(config_text)
        args += ["--config", str(path)]
    else:
        args += ["--set", override]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "ws").exists()


def test_cli_locked_workspace_exit_code(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / ".lock").touch()
    code = cli.main(["synth", "--workspace", str(ws)])
    assert code == 4


def test_cli_stage_failure_exit_code(tmp_path, monkeypatch):
    def diverge(ws, cfg):
        raise TrainingDiverged("NLL became nan at step 1")
    monkeypatch.setattr(pipeline, "run_train_g2s", diverge)
    code = cli.main(["train-g2s", "--workspace", str(tmp_path / "ws")])
    assert code == 1


@pytest.mark.parametrize("stage, setting, message, artifact", [
    ("train-ekg", "embed_lr=1e38", "phase 1 loss became inf at step 1", "embed"),
    ("train-ekg", "rn_lr=1e30", "phase 2 loss became nan at step 1", "embed"),
    ("train-g2s", "lr_scale=1e30", "NLL became nan at step 2", "g2s"),
])
def test_cli_diverging_training_exit_code(tmp_path, capsys, stage, setting,
                                          message, artifact):
    """A learning rate that makes the loss nan: the stage exits 1 with one
    error line, and writes no artifact. Six entities leave phase 2
    negatives (with four, every example lacks one)."""
    ws = tmp_path / "ws"
    args = _small_args() + ["--set", "synth_entities=6", "--set", setting]
    stages = ["synth", "ingest", "build-ekg", "train-ekg", "train-g2s"]
    for prior in stages[:stages.index(stage)]:
        assert cli.main([prior, "--workspace", str(ws)] + args) == 0
    capsys.readouterr()
    assert cli.main([stage, "--workspace", str(ws)] + args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws / artifact).exists()


def test_cli_synth_and_stats(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    args = []
    for item in SMALL:
        args += ["--set", item]
    assert cli.main(["synth", "--workspace", ws] + args) == 0
    assert cli.main(["ingest", "--workspace", ws] + args) == 0
    assert cli.main(["stats", "--workspace", ws] + args) == 0
    out = capsys.readouterr().out
    assert "# passages" in out
    assert "Avg. # comments per passage" in out


def test_stats_relation_average_counts_cooccurring_pairs(tmp_path):
    ws = tmp_path / "ws"
    cfg = _cfg()
    pipeline.run_synth(ws, cfg)
    pipeline.run_ingest(ws, cfg)
    c = pipeline.Workspace(ws, cfg).corpus
    ekg = build_global_ekg(c.novel, c.mentions)
    text = pipeline.report_stats(c.passages, ekg)
    line = next(l for l in text.splitlines() if "relations" in l)
    value = float(line.split("|")[1])
    assert value >= 0.0


def _small_args():
    return [a for item in SMALL for a in ("--set", item)]


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_malformed_novel_exit_code(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    assert cli.main(["synth", "--workspace", ws] + _small_args()) == 0
    bad = tmp_path / "novel.json"
    bad.write_text('{"id": "n", "chapters": [')
    capsys.readouterr()
    code = cli.main(["ingest", "--workspace", ws, "--novel", str(bad)]
                    + _small_args())
    assert code == 3
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("name, corrupt", [
    ("novel.json", lambda raw: raw["chapters"][0].pop("text")),
    ("novel.json", lambda raw: raw["chapters"][0].__setitem__("text", "")),
    ("lexicon.json", '{"entities": ['),
    ("lexicon.json", lambda raw: raw["entities"][0].pop("name")),
    ("lexicon.json", lambda raw: raw["entities"][0].__setitem__("aliases", [""])),
    ("lexicon.json", lambda raw: raw.__setitem__("entities", [])),
    ("novel.json", lambda raw: raw["chapters"][0].__setitem__("text", 5)),
    ("novel.json", lambda raw: raw.pop("chapters")),
    ("lexicon.json", "[]"),
    ("lexicon.json", '{"entities": 5}'),
    ("lexicon.json", lambda raw: raw["entities"][0].__setitem__("id", "x")),
    ("lexicon.json", lambda raw: raw["entities"][0].__setitem__("id", 0.9)),
    ("lexicon.json", lambda raw: raw["entities"][0].__setitem__("name", 5)),
    ("lexicon.json",
     lambda raw: raw["entities"][0].__setitem__("aliases", [5])),
    ("lexicon.json",
     lambda raw: raw["entities"][0].__setitem__("aliases", "BC")),
    ("lexicon.json", lambda raw: raw["entities"][0].__setitem__("name", " ")),
    ("novel.json", b'{"id": "n",\n "title": "\xff", "chapters": []}'),
    ("lexicon.json", b'{"entities": [{"id": 0, "name": "\xe4\xb8"}]}'),
    ("novel.json", IsADirectoryError),
    ("lexicon.json", IsADirectoryError),
    ("passages.jsonl", IsADirectoryError),
    ("novel.json", lambda raw: [c.__setitem__("index", c["index"] - 1)
                                for c in raw["chapters"]]),
], ids=["chapter-no-text", "chapter-empty", "lexicon-not-json",
        "entity-no-name", "alias-empty", "no-entities", "chapter-text-number",
        "novel-no-chapters", "lexicon-array", "entities-number", "id-str",
        "id-float", "name-number", "alias-number", "aliases-str",
        "name-blank", "novel-not-utf8", "lexicon-not-utf8", "novel-dir",
        "lexicon-dir", "passages-dir", "chapter-indices-from-0"])
def test_cli_malformed_novel_or_lexicon_exit_code(tmp_path, capsys, name,
                                                  corrupt):
    """A synth input file changed by `corrupt`, replaced by it when it is
    text or bytes, or replaced by a directory: ingest exits 3 with one error
    line naming the file."""
    ws = tmp_path / "ws"
    assert cli.main(["synth", "--workspace", str(ws)] + _small_args()) == 0
    path = ws / "data" / name
    if corrupt is IsADirectoryError:
        path.unlink()
        path.mkdir()
    elif isinstance(corrupt, bytes):
        path.write_bytes(corrupt)
    elif isinstance(corrupt, str):
        path.write_text(corrupt, encoding="utf-8")
    else:
        raw = json.loads(path.read_text(encoding="utf-8"))
        corrupt(raw)
        path.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["ingest", "--workspace", str(ws)] + _small_args()) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1, err


def test_cli_dangling_entity_reference_exit_code(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert cli.main(["synth", "--workspace", str(ws)] + _small_args()) == 0
    lexicon = ws / "data" / "lexicon.json"
    raw = json.loads(lexicon.read_text())
    raw["entities"][0]["id"] = 99            # ids are no longer 0..n-1
    lexicon.write_text(json.dumps(raw))
    capsys.readouterr()
    code = cli.main(["ingest", "--workspace", str(ws)] + _small_args())
    assert code == 3
    _assert_one_line_error(capsys)


def test_cli_truncated_checkpoint_exit_code(tmp_path, capsys):
    ws = tmp_path / "ws"
    for stage in ("synth", "ingest", "build-ekg", "train-ekg"):
        assert cli.main([stage, "--workspace", str(ws)] + _small_args()) == 0
    artifact = ws / "embed" / "ekg_embed.bin"
    artifact.write_bytes(artifact.read_bytes()[:-5])
    capsys.readouterr()
    code = cli.main(["train-g2s", "--workspace", str(ws)] + _small_args())
    assert code == 3
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("name", ["foo", "rnx.bar"])
def test_cli_refuses_embeddings_with_another_array(tmp_path, capsys, name):
    """An embedding file that holds an array beside the vertex table's and
    the relation network's exits 3 with one line naming the file and it."""
    ws = tmp_path / "ws"
    for stage in ("synth", "ingest", "build-ekg", "train-ekg"):
        assert cli.main([stage, "--workspace", str(ws)] + _small_args()) == 0
    path = ws / "embed" / "ekg_embed.bin"
    arrays, _ = dk.load_arrays(path, magic=dk.EMBED_MAGIC)
    dk.save_arrays(path, {**arrays, name: np.zeros(2)}, magic=dk.EMBED_MAGIC)
    capsys.readouterr()
    assert cli.main(["train-g2s", "--workspace", str(ws)] + _small_args()) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1, err
    assert repr(name) in err, err


@pytest.mark.parametrize("change, stages", [
    (["d_f=4"], ()),
    (["synth_chapters=3"], ("synth", "ingest", "build-ekg")),
    (["synth_chapters=1"], ("synth", "ingest", "build-ekg")),
], ids=["other-d_f", "more-chapters", "fewer-chapters"])
def test_cli_refuses_embeddings_of_another_shape(tmp_path, capsys, change,
                                                 stages):
    """Embeddings trained for another d_f, or before the corpus was ingested
    again into another number of chapters, exit 3 naming their file."""
    ws = tmp_path / "ws"
    for stage in ("synth", "ingest", "build-ekg", "train-ekg"):
        assert cli.main([stage, "--workspace", str(ws)] + _small_args()) == 0
    args = _small_args() + [a for item in change for a in ("--set", item)]
    for stage in stages:
        assert cli.main([stage, "--workspace", str(ws)] + args) == 0
    capsys.readouterr()
    assert cli.main(["train-g2s", "--workspace", str(ws)] + args) == 3
    err = capsys.readouterr().err
    path = ws / "embed" / "ekg_embed.bin"
    assert err.startswith(f"error: {path} holds a vertex table of shape ")
    assert err.count("\n") == 1, err
    assert not (ws / "g2s").exists()


def _drop(key):
    return lambda raw: raw.pop(key)


def _set(key, value):
    return lambda raw: raw.__setitem__(key, value)


def _set_in_comment(key, value):
    return lambda raw: raw["comments"][0].__setitem__(key, value)


@pytest.mark.parametrize("corrupt", [
    _drop("chapter"), _drop("start"), _drop("end"),
    _set("chapter", "one"), _set("start", 1.5), _set("end", None),
    _set("comments", "not a list"),
    _set_in_comment("upvotes", "many"), _set_in_comment("text", 7),
    lambda raw: raw["comments"][0].pop("text"),
    lambda raw: raw["comments"][0].pop("upvotes"),
    _set_in_comment("text", " "), _set_in_comment("upvotes", -1),
    _set("id", 0), _set("id", "p1"),          # line 1's id
    '{"chapter": 1,', "[1, 2]", b'{"chapter": 1, "id": "\xff"}',
], ids=["no-chapter", "no-start", "no-end", "chapter-str", "start-float",
        "end-null", "comments-str", "upvotes-str", "text-int", "no-text",
        "no-upvotes", "text-blank", "upvotes-negative", "id-int",
        "id-duplicate", "not-json", "json-array", "not-utf8"])
def test_cli_malformed_passage_field_exit_code(tmp_path, capsys, corrupt):
    """Line 2 of passages.jsonl changed by `corrupt`, or replaced by it when
    it is text or bytes."""
    ws = tmp_path / "ws"
    assert cli.main(["synth", "--workspace", str(ws)] + _small_args()) == 0
    path = ws / "data" / "passages.jsonl"
    lines = path.read_bytes().splitlines()
    if isinstance(corrupt, bytes):
        lines[1] = corrupt
    elif isinstance(corrupt, str):
        lines[1] = corrupt.encode()
    else:
        raw = json.loads(lines[1])
        corrupt(raw)
        lines[1] = json.dumps(raw).encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()
    code = cli.main(["ingest", "--workspace", str(ws)] + _small_args())
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ") and err.count("\n") == 1, err


@pytest.fixture
def trained_ws(tmp_path):
    """A GAT_VE workspace trained through train-g2s at the smallest size."""
    ws = tmp_path / "ws"
    args = _small_args() + ["--set", "g2s_steps=1"]
    for stage in ("synth", "ingest", "build-ekg", "train-ekg", "train-g2s"):
        assert cli.main([stage, "--workspace", str(ws)] + args) == 0
    return ws, args


@pytest.mark.parametrize("override", ["mode=EKG", "mode=GAT_V", "d_model=16",
                                      "gat_layers=2", "n_heads=4",
                                      "encoder_layers=2", "decoder_layers=2",
                                      "bilstm_layers=2", "d_f=16"])
def test_cli_generate_refuses_other_model_settings(trained_ws, capsys, override):
    ws, args = trained_ws
    capsys.readouterr()
    code = cli.main(["generate", "--workspace", str(ws)] + args
                    + ["--set", override])
    assert code == 3
    err = capsys.readouterr().err
    path = ws / "g2s" / "model.bin"
    assert err.startswith(f"error: {path} was trained as another model: ") \
        and err.count("\n") == 1, err
    assert not (ws / "generate").exists()
    assert cli.main(["generate", "--workspace", str(ws)] + args) == 0


def test_cli_generate_refuses_ekg_model_with_gat_arrays(trained_ws, capsys):
    """An EKG generator checkpoint that holds GAT arrays, as EKG models did
    while they built graph attention that they never ran, exits 3 naming
    them."""
    ws, args = trained_ws
    ekg = args + ["--set", "mode=EKG"]
    path = ws / "g2s" / "model.bin"
    gat = {k: v for k, v in dk.load_arrays(path)[0].items() if k.startswith("gat.")}
    assert gat and cli.main(["train-g2s", "--workspace", str(ws)] + ekg) == 0
    arrays, extra = dk.load_arrays(path)
    assert not [k for k in arrays if k.startswith("gat.")]
    dk.save_arrays(path, {**arrays, **gat}, extra=extra)
    capsys.readouterr()
    assert cli.main(["generate", "--workspace", str(ws)] + ekg) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} was trained as another model: ") \
        and err.count("\n") == 1, err
    assert "'gat.0.a_g'" in err, err


def test_cli_generate_takes_length_limits_from_the_run(trained_ws):
    ws, args = trained_ws
    limits = ["--set", "max_len=20", "--set", "max_passage=16"]
    assert cli.main(["generate", "--workspace", str(ws)] + args + limits) == 0


def test_failed_manifest_replace_keeps_previous_manifest(tmp_path, monkeypatch):
    ws = tmp_path / "ws"
    cfg = _cfg()
    pipeline.run_synth(ws, cfg)
    before = (ws / "manifest.json").read_bytes()

    def fail(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(pipeline.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        pipeline.run_ingest(ws, cfg)
    assert (ws / "manifest.json").read_bytes() == before
    assert set(json.loads(before)["stages"]) == {"synth"}


# ---------------------------------------------------------------------------
# torn artifacts, the workspace lock and the per-stage report

@pytest.fixture
def generated_ws(trained_ws):
    ws, args = trained_ws
    assert cli.main(["generate", "--workspace", str(ws)] + args) == 0
    return ws, args


ARTIFACT_READERS = [("corpus/corpus.json", "stats"),
                    ("ekg/global.json", "train-ekg"),
                    ("generate/comments.jsonl", "evaluate"),
                    ("manifest.json", "stats")]

# (artifact, stage that reads it, where the bad value goes, the value):
# entity ids, chapters and spans of passages and mentions, spans of
# paragraphs, and, in the EKG that no stage reads back, entity ids of edges
# and the chapter `t` of a graph (None deletes the graph)
BAD_VALUES = (
    [("ekg/global.json", "train-g2s", "edge", i) for i in (99, -1, 1.5)]
    + [("corpus/corpus.json", "train-g2s", "passage", 99)]
    + [("corpus/corpus.json", stage, where, -1)
       for stage in ("train-ekg", "train-g2s")
       for where in ("passage", "mention")]
    + [("ekg/global.json", "train-ekg", "chapter", t) for t in (99, 0, None)]
    + [("corpus/corpus.json", "train-g2s", "passage-chapter", t) for t in (99, 0, -1)]
    + [("corpus/corpus.json", "train-ekg", "mention-chapter", t) for t in (99, 0)]
    + [("corpus/corpus.json", "train-g2s", "passage-span", "-past-end"),
       ("corpus/corpus.json", "train-ekg", "mention-span", "-past-end")]
    + [("corpus/corpus.json", stage, "paragraph", damage)
       for stage in ("build-ekg", "train-ekg")
       for damage in ("-past-end", "-reversed")])


def _bad_value_id(where, value):
    if where == "chapter":
        return "chapter-deleted" if value is None else f"chapter{value}"
    if isinstance(value, str) or "-" in where:
        return f"{where}{value}"
    return ("" if where == "edge" else f"{where}-") + f"entity{value}"


# what each stage that is handed a damaged `ekg/global.json` writes
STAGE_OUTPUTS = {"train-ekg": ["embed/ekg_embed.bin", "embed/history.json"],
                 "train-g2s": ["g2s/model.bin", "g2s/history.json"]}


@pytest.mark.parametrize("artifact, stage, damage", [
    pytest.param(artifact, stage, damage, id=f"{artifact}-{stage}"
                 + ("" if damage == "torn" else "-not-utf8"))
    for damage in ("torn", "not-utf8") for artifact, stage in ARTIFACT_READERS
] + [pytest.param(artifact, stage, (where, value),
                  id=f"{artifact}-{stage}-{_bad_value_id(where, value)}")
     for artifact, stage, where, value in BAD_VALUES])
def test_cli_torn_artifact_exit_code(generated_ws, capsys, artifact, stage,
                                     damage):
    """A crash halfway through writing the last line, a byte that is not
    UTF-8 halfway along it, an entity id in a passage or a mention that is
    not an integer in the corpus's [0, n_e), a passage or mention whose
    chapter is not one of 1..T or whose span leaves its chapter's tokens, or
    a paragraph past its chapter's end or reversed: the stage exits 3 with
    one error line that names the file and, for the byte, its position, but
    quotes none of the file. `ekg/global.json` is written for reading only:
    torn, not UTF-8, with a bad entity id in an edge or with graphs whose
    chapters are not 1..T, the stage exits 0 and writes the same bytes."""
    ws, args = generated_ws
    path = ws / artifact
    written = [(ws / rel).read_bytes() for rel in STAGE_OUTPUTS.get(stage, [])]
    data = path.read_bytes().rstrip(b"\n")
    start = data.rfind(b"\n") + 1                 # of the last line
    half = (len(data) + start) // 2
    if damage == "torn":
        path.write_bytes(data[:half])
    elif damage == "not-utf8":
        path.write_bytes(data[:half] + b"\xff" + data[half + 1:] + b"\n")
    else:
        where, value = damage
        raw = json.loads(data)
        if where == "edge":
            graph = next(g for g in raw["graphs"] if g["edges"])
            graph["edges"][0]["pair"][1] = value
        elif where == "chapter" and value is None:
            del raw["graphs"][1]
        elif where == "chapter":
            raw["graphs"][1]["t"] = value
        elif where == "passage":
            raw["passages"][0]["entity_ids"].append(value)
        elif where == "mention":
            raw["mentions"][0][0] = value
        elif where == "passage-chapter":
            raw["passages"][0]["chapter"] = value
        elif where == "mention-chapter":
            raw["mentions"][0][1] = value
        elif where == "passage-span":       # a span past its chapter's end
            passage = raw["passages"][0]
            n = len(raw["novel"]["chapters"][passage["chapter"] - 1]["tokens"])
            passage["span"] = [n, n + 5]
        elif where == "mention-span":
            mention = raw["mentions"][0]
            n = len(raw["novel"]["chapters"][mention[1] - 1]["tokens"])
            mention[2:] = [n, n + 3]
        elif value == "-past-end":
            chapter = raw["novel"]["chapters"][0]
            n = len(chapter["tokens"])
            chapter["paragraphs"][0] = [n, n + 5]
        else:
            chapter = raw["novel"]["chapters"][-1]
            chapter["paragraphs"][0].reverse()
        path.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    if artifact == "ekg/global.json":
        assert cli.main([stage, "--workspace", str(ws)] + args) == 0
        assert [(ws / rel).read_bytes() for rel in STAGE_OUTPUTS[stage]] == written
        return
    assert cli.main([stage, "--workspace", str(ws)] + args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1, err
    assert len(err) < len(f"error: {path}") + 200, err
    if isinstance(damage, tuple) and damage[0] == "paragraph":
        assert " paragraph 0 span [" in err, err
        assert "is not within tokens [0, " in err, err
    elif isinstance(damage, tuple) and damage[0].endswith("-chapter"):
        assert f"chapter {damage[1]} is not the corpus's 1..2" in err, err
    elif isinstance(damage, tuple) and damage[0].endswith("-span"):
        assert f"{damage[0][:-5]} 0 span [" in err, err
        assert "is not within chapter" in err, err
    elif isinstance(damage, tuple):
        assert f"entity ids [{damage[1]}] are not the corpus's 0..3" in err, err
    elif damage == "not-utf8":
        # lines of a .jsonl file are read one at a time
        at = half - start if artifact.endswith(".jsonl") else half
        assert f"byte 0xff in position {at}:" in err, err


def test_cli_stages_after_build_ekg_do_not_read_global_json(generated_ws):
    """train-ekg, train-g2s and generate derive the global EKG from the
    corpus: with `ekg/global.json` intact, overwritten with garbage or
    deleted, each exits 0 and writes the same bytes."""
    ws, args = generated_ws
    global_json = ws / "ekg" / "global.json"
    intact = global_json.read_bytes()
    outputs = ["embed/ekg_embed.bin", "embed/history.json", "g2s/model.bin",
               "g2s/history.json", "generate/comments.jsonl"]
    written = []
    for damage in ("intact", "garbage", "deleted"):
        global_json.write_bytes(b"\xff{not json" if damage == "garbage" else intact)
        if damage == "deleted":
            global_json.unlink()
        for stage in ("train-ekg", "train-g2s", "generate"):
            assert cli.main([stage, "--workspace", str(ws)] + args) == 0, (damage, stage)
        written.append([(ws / rel).read_bytes() for rel in outputs])
    assert written[1] == written[0] and written[2] == written[0]


def test_workspace_ekg_is_what_build_ekg_writes(generated_ws):
    """`Workspace.ekg`, built from the corpus, holds the graphs and entity
    frequencies that `ekg/global.json` records, one graph per chapter."""
    ws, _ = generated_ws
    w = pipeline.Workspace(ws, _cfg())
    raw = json.loads((ws / "ekg" / "global.json").read_text(encoding="utf-8"))
    recorded = [TemporalKG(t=g["t"], vertices=set(g["vertices"]),
                           edges={tuple(e["pair"]): [tuple(s) for s in e["evidence"]]
                                  for e in g["edges"]})
                for g in raw["graphs"]]
    assert w.ekg.graphs == recorded
    assert [g.t for g in recorded] == list(range(1, w.corpus.novel.num_chapters + 1))
    assert w.ekg.entity_frequency == {int(k): v for k, v in raw["frequency"].items()}
    assert w.ekg.novel_id == raw["novel_id"]


def test_cli_evaluate_unknown_passage_exit_code(generated_ws, capsys):
    ws, args = generated_ws
    path = ws / "generate" / "comments.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[-1])
    rec["passage_id"] = "no-such-passage"
    lines[-1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["evaluate", "--workspace", str(ws)] + args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{len(lines)}: ") \
        and "no-such-passage" in err and err.count("\n") == 1, err


def test_cli_evaluate_without_non_empty_hypothesis_exit_code(generated_ws,
                                                            capsys):
    ws, args = generated_ws
    path = ws / "generate" / "comments.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        for comment in rec["comments"]:
            comment["text"] = ""
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert cli.main(["evaluate", "--workspace", str(ws)] + args) == 1
    assert capsys.readouterr().err == \
        "error: no non-empty hypotheses to evaluate\n"
    assert not (ws / "evaluate").exists()


@pytest.mark.parametrize("text", [[1], {"a": "b"}], ids=["list", "dict"])
def test_cli_evaluate_refuses_non_string_comment_text(generated_ws, capsys,
                                                      text):
    ws, args = generated_ws
    path = ws / "generate" / "comments.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[0])
    rec["comments"][0]["text"] = text
    lines[0] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["evaluate", "--workspace", str(ws)] + args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:1: ") and err.count("\n") == 1, err


def test_workspace_lock_records_owner_pid(tmp_path):
    ws = tmp_path / "ws"
    with pipeline.workspace_lock(ws):
        assert (ws / ".lock").read_text().strip() == str(os.getpid())
    assert not (ws / ".lock").exists()


def test_cli_reclaims_lock_of_exited_run(tmp_path, capsys):
    ws = tmp_path / "ws"
    ws.mkdir()
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()                      # exited and reaped: its pid is free
    (ws / ".lock").write_text(f"{proc.pid}\n")
    assert cli.main(["synth", "--workspace", str(ws)] + _small_args()) == 0
    assert not (ws / ".lock").exists()


def test_cli_live_lock_owner_exit_code(tmp_path, capsys):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / ".lock").write_text(f"{os.getpid()}\n")
    assert cli.main(["synth", "--workspace", str(ws)]) == 4
    err = capsys.readouterr().err
    assert f"running process {os.getpid()}" in err and err.count("\n") == 1
    assert (ws / ".lock").exists()


def test_cli_lock_without_pid_says_how_to_clear(tmp_path, capsys):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / ".lock").write_text("")
    assert cli.main(["synth", "--workspace", str(ws)]) == 4
    err = capsys.readouterr().err
    assert f"delete {ws / '.lock'}" in err and err.count("\n") == 1, err
    assert (ws / ".lock").exists()


def test_cli_stage_reports_wall_time_and_peak_rss(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert cli.main(["synth", "--workspace", str(ws)] + _small_args()) == 0
    out, err = capsys.readouterr()
    assert re.fullmatch(r"synth: \d+\.\d\d s, peak RSS \d+\.\d MB\n", err), err
    assert "RSS" not in out
    for path in ws.rglob("*"):
        if path.is_file():
            assert "RSS" not in path.read_text(encoding="utf-8"), path


# ---------------------------------------------------------------------------
# corpora that leave nothing to train on, and atomic artifact writes

def test_cli_ingest_refuses_lexicon_that_matches_nothing(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert cli.main(["synth", "--workspace", str(ws)] + _small_args()) == 0
    lexicon = ws / "data" / "lexicon.json"
    raw = json.loads(lexicon.read_text())
    for entity in raw["entities"]:
        entity["name"] = "QAXZ" + entity["name"]     # occurs nowhere
    lexicon.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["ingest", "--workspace", str(ws)] + _small_args()) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {lexicon}: ") and err.count("\n") == 1, err
    assert not (ws / "corpus" / "corpus.json").exists()


def test_cli_ingest_refuses_corpus_without_usable_passage(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert cli.main(["synth", "--workspace", str(ws)] + _small_args()) == 0
    passages = ws / "data" / "passages.jsonl"
    records = [json.loads(line) for line in passages.read_text().splitlines()]
    for rec in records:
        rec["comments"] = rec["comments"][:2]         # the filter needs 3
    passages.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert cli.main(["ingest", "--workspace", str(ws)] + _small_args()) == 3
    err = capsys.readouterr().err
    lexicon = ws / "data" / "lexicon.json"
    assert err.startswith(f"error: {lexicon}: ") and err.count("\n") == 1, err


class _TornFile:
    """A file whose first write stores half of its data and then fails, as
    a full disk or a crash would leave it."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:max(len(data) // 2, 1)])
        self._fh.flush()
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_write_failing_midway_keeps_previous_artifacts(tmp_path, monkeypatch):
    """Each stage run again with its n-th file write failing midway: every
    file in the workspace keeps its previous bytes, and no file is added."""
    import builtins
    import io
    ws = tmp_path / "ws"
    cfg = load_config(overrides=SMALL + ["g2s_steps=1"], seed=0)
    pipeline.run_full_pipeline(ws, cfg, generate_limit=1)
    pipeline.run_stats(ws, cfg)
    stages = {
        "synth": lambda: pipeline.run_synth(ws, cfg),
        "ingest": lambda: pipeline.run_ingest(ws, cfg),
        "stats": lambda: pipeline.run_stats(ws, cfg),
        "build-ekg": lambda: pipeline.run_build_ekg(ws, cfg),
        "train-ekg": lambda: pipeline.run_train_ekg(ws, cfg),
        "train-g2s": lambda: pipeline.run_train_g2s(ws, cfg),
        "generate": lambda: pipeline.run_generate(ws, cfg, limit=1),
        "evaluate": lambda: pipeline.run_evaluate(ws, cfg),
    }
    snapshot = lambda: {p: p.read_bytes() for p in ws.rglob("*") if p.is_file()}
    before = snapshot()
    real_open = io.open
    torn = []
    for stage, run in stages.items():
        n = 0
        while True:
            opened = [0]

            def failing_open(file, mode="r", *args, **kwargs):
                fh = real_open(file, mode, *args, **kwargs)
                if set(mode) & set("wax"):
                    opened[0] += 1
                    if opened[0] == n + 1:
                        torn.append((stage, os.path.basename(file)))
                        return _TornFile(fh)
                return fh
            with monkeypatch.context() as m:
                m.setattr(builtins, "open", failing_open)
                m.setattr(io, "open", failing_open)
                try:
                    run()
                except OSError as e:
                    assert str(e) == "disk full", e
                else:
                    break                 # the stage writes n files
            assert snapshot() == before, (stage, n)
            n += 1
    names = {(stage, name.removesuffix(".tmp")) for stage, name in torn}
    assert names == {
        ("synth", "novel.json"), ("synth", "lexicon.json"),
        ("synth", "passages.jsonl"), ("synth", "manifest.json"),
        ("ingest", "corpus.json"), ("ingest", "manifest.json"),
        ("stats", "stats.txt"), ("stats", "manifest.json"),
        ("build-ekg", "global.json"), ("build-ekg", "manifest.json"),
        ("train-ekg", "ekg_embed.bin"), ("train-ekg", "history.json"),
        ("train-ekg", "manifest.json"),
        ("train-g2s", "model.bin"), ("train-g2s", "history.json"),
        ("train-g2s", "manifest.json"),
        ("generate", "comments.jsonl"), ("generate", "manifest.json"),
        ("evaluate", "report.json"), ("evaluate", "manifest.json")}
