"""Torn and malformed workspace artifacts: the stage that reads one either
succeeds or exits 3 with one `error:` line naming the file, never a
traceback."""

import json
import shutil
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ekgen import cli
from ekgen import diffkit as dk

from test_pipeline_cli import SMALL

ARGS = [a for item in SMALL + ["g2s_steps=1"] for a in ("--set", item)]

# artifact -> a stage that reads it
READER = {
    "corpus/corpus.json": "stats",
    "embed/ekg_embed.bin": "generate",
    "g2s/model.bin": "generate",
    "generate/comments.jsonl": "evaluate",
    "manifest.json": "evaluate",
}
CHECKPOINTS = {"embed/ekg_embed.bin": dk.EMBED_MAGIC, "g2s/model.bin": dk.MAGIC}


def _entry(edit):
    """Apply `edit` to the array entry the drawn index picks; any index
    reaches an entry, so every array of either checkpoint can be edited."""
    def apply(manifest, k):
        edit(manifest["params"][k % len(manifest["params"])])
    return apply


def _whole(edit):
    return lambda manifest, k: edit(manifest)


def _extra(edit):
    return lambda manifest, k: edit(manifest["extra"])


# edits of a checkpoint's JSON manifest, each given a drawn entry index
EDITS = [
    _whole(lambda m: m.clear()),
    _whole(lambda m: m.pop("params")),
    _whole(lambda m: m.__setitem__("params", {"x": 1})),
    _whole(lambda m: m.__setitem__("extra", [])),
    _whole(lambda m: m.pop("extra")),
    # the dims the embedding file once kept beside its arrays
    _extra(lambda e: e.update(T=9, n_e=9, d_f=9)),
    _extra(lambda e: e.__setitem__("T", "3")),
    # the settings a generator checkpoint records beside its arrays
    _extra(lambda e: e.pop("mode", None)),
    _extra(lambda e: e.__setitem__("n_heads", str(e.get("n_heads")))),
    _extra(lambda e: e.__setitem__("vocab_hash", 7)),
    _entry(lambda e: e.pop("name")),
    _entry(lambda e: e.pop("shape")),
    _entry(lambda e: e.pop("offset")),
    _entry(lambda e: e.__setitem__("shape", e["shape"] + [2])),
    _entry(lambda e: e.__setitem__("shape", e["shape"][1:])),
    _entry(lambda e: e.__setitem__("shape", e["shape"][::-1])),
    _entry(lambda e: e.__setitem__("shape", "x")),
    _entry(lambda e: e.__setitem__("shape", [-1])),
    _entry(lambda e: e.__setitem__("offset", -4)),
    _entry(lambda e: e.__setitem__("offset", str(e["offset"]))),
    _entry(lambda e: e.__setitem__("offset", 1 << 40)),
]
ENTRY = st.integers(0, 1 << 10)


def _edit_manifest(raw: bytes, magic: bytes, edit, k: int) -> bytes:
    start = len(magic) + 4
    (n,) = struct.unpack_from("<I", raw, len(magic))
    manifest = json.loads(raw[start:start + n])
    edit(manifest, k)
    body = json.dumps(manifest).encode("utf-8")
    return magic + struct.pack("<I", len(body)) + body + raw[start + n:]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A workspace trained, generated and evaluated at the smallest size."""
    ws = tmp_path_factory.mktemp("pristine") / "ws"
    for stage in ("synth", "ingest", "build-ekg", "train-ekg", "train-g2s",
                  "generate", "evaluate"):
        assert cli.main([stage, "--workspace", str(ws)] + ARGS) == 0
    return ws


def _run(ws, stage, path, capsys):
    capsys.readouterr()
    code = cli.main([stage, "--workspace", str(ws)] + ARGS)
    err = capsys.readouterr().err
    if code != 0:
        assert code == 3, err
        assert err.startswith(f"error: {path}") and err.count("\n") == 1, err


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncated_artifact_succeeds_or_exits_3_naming_it(
        pristine, tmp_path_factory, capsys, data):
    rel = data.draw(st.sampled_from(sorted(READER)), label="artifact")
    ws = tmp_path_factory.mktemp("torn") / "ws"
    shutil.copytree(pristine, ws)
    path = ws / rel
    raw = path.read_bytes()
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw)), label="kept")])
    _run(ws, READER[rel], path, capsys)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_checkpoint_succeeds_or_exits_3_naming_it(
        pristine, tmp_path_factory, capsys, data):
    rel = data.draw(st.sampled_from(sorted(CHECKPOINTS)), label="checkpoint")
    edit = data.draw(st.sampled_from(EDITS), label="edit")
    k = data.draw(ENTRY, label="entry")
    ws = tmp_path_factory.mktemp("malformed") / "ws"
    shutil.copytree(pristine, ws)
    path = ws / rel
    path.write_bytes(_edit_manifest(path.read_bytes(), CHECKPOINTS[rel], edit, k))
    _run(ws, READER[rel], path, capsys)


@settings(max_examples=100, deadline=None)
@given(rel=st.sampled_from(sorted(CHECKPOINTS)), edit=st.sampled_from(EDITS),
       k=ENTRY)
def test_load_arrays_loads_or_raises_checkpoint_error(pristine, tmp_path_factory,
                                                      rel, edit, k):
    """`dk.load_arrays` itself, not only the stage that calls it, raises a
    malformed manifest as `CheckpointError` naming the file."""
    path = tmp_path_factory.mktemp("ck") / "ck.bin"
    raw = (pristine / rel).read_bytes()
    path.write_bytes(_edit_manifest(raw, CHECKPOINTS[rel], edit, k))
    try:
        dk.load_arrays(path, magic=CHECKPOINTS[rel])
    except dk.CheckpointError as e:
        assert str(e).startswith(f"{path}: "), e


def _reverse_non_square(manifest):
    entry = next(e for e in manifest["params"]
                 if len(e["shape"]) == 2 and e["shape"][0] != e["shape"][1])
    entry["shape"].reverse()


@pytest.mark.parametrize("edit, message", [
    (_extra(lambda e: e.__setitem__("vocab_hash", "0" * 16)), "vocab_hash"),
    (_extra(lambda e: e.pop("mode")), "no mode recorded"),
    (_whole(lambda m: m.__setitem__("extra", [])), "not a JSON object"),
    (_whole(lambda m: m.__setitem__("extra", {})),
     "no mode recorded; no n_heads recorded; no vocab_hash recorded"),
    (_whole(_reverse_non_square), "has shape"),
], ids=["other-vocabulary", "no-mode", "extra-not-object", "nothing-recorded",
        "reversed-shape"])
def test_cli_generate_refuses_other_or_unreadable_model_record(
        pristine, tmp_path, capsys, edit, message):
    """A generator checkpoint that records other settings, none, or arrays of
    other shapes exits 3 with one line naming it."""
    ws = tmp_path / "ws"
    shutil.copytree(pristine, ws)
    path = ws / "g2s" / "model.bin"
    path.write_bytes(_edit_manifest(path.read_bytes(), dk.MAGIC, edit, 0))
    capsys.readouterr()
    assert cli.main(["generate", "--workspace", str(ws)] + ARGS) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and message in err \
        and err.count("\n") == 1, err
