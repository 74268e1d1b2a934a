"""Smoke runs of the benchmark harness: it wraps and calls the model's
entry points by name (`nll`, `temporal_encode`, `graph_encode`,
`encode_passage`, `fuse_memory`, `gat_layer`, `_decode`) and the
embedding trainer's (`train_ekg`, `vertex_loss_total`, `edge_triplet_loss`,
`materialize_embeddings`, which runs once per stage over all the passages'
local EKGs), so a change to their call shapes shows here rather than only
when the benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_and_check(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True, proc.stderr[-2000:]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_perfbench_desk_runs_and_checks_its_outputs(trace):
    _run_and_check("desk", trace)


def test_perfbench_novel_runs_and_checks_its_outputs():
    """The T = 16 workload, traced: its per-layer table and the repeat
    checks of the traced counts."""
    _run_and_check("novel", "1")
