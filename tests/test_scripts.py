"""Smoke runs of the experiment scripts at the smallest size."""

import json
import subprocess
import sys
from pathlib import Path

from ekgen.config import MODES

from test_pipeline_cli import SMALL

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, workspace: Path) -> list[str]:
    cmd = [sys.executable, str(ROOT / "scripts" / script),
           "--workspace", str(workspace)]
    for item in SMALL:
        cmd += ["--set", item]
    return subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=600).stdout.splitlines()


def test_run_desk_experiment_reports_the_full_pipeline(tmp_path):
    ws = tmp_path / "ws"
    out = _run("run_desk_experiment.py", ws)
    assert out[0].startswith("# novels") and "# passages" in out[1], out
    for prefix in ("embedding phase 1: loss ", "generator: loss ", "passage "):
        assert any(line.startswith(prefix) for line in out), (prefix, out)
    report = json.loads((ws / "evaluate" / "report.json").read_text())
    assert f"BLEU {report['bleu']:.2f}  (precisions " in "\n".join(out)
    assert f"ROUGE-L {report['rouge_l']:.4f}" in out


def test_run_ablation_reports_each_mode(tmp_path):
    out = _run("run_ablation.py", tmp_path)
    bleu = {}
    for mode, line in zip(MODES, out):
        report = json.loads((tmp_path / mode.lower() / "evaluate"
                             / "report.json").read_text())
        assert line == (f"{mode:7s} BLEU {report['bleu']:6.2f}  "
                        f"ROUGE-L {report['rouge_l']:.4f}")
        bleu[mode] = report["bleu"]
    assert out[len(MODES):] == [f"best BLEU: {max(bleu, key=bleu.get)}"]
