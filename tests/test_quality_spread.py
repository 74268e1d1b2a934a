import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ekgen import pipeline
from ekgen.config import load_config

ROOT = Path(__file__).resolve().parent.parent

# the small run of criterion 11
TINY = ["synth_passages=12", "synth_entities=4", "phase1_steps=20",
        "phase2_steps=5", "g2s_steps=30", "d_f=16", "d_model=16", "n_heads=2",
        "encoder_layers=1", "decoder_layers=1", "bilstm_layers=1",
        "gat_layers=1", "beam=2", "max_len=12"]
FIELDS = ("accuracy", "bleu", "rouge_l", "g2s_loss")


def test_quality_spread_reports_each_seed_and_the_spread(tmp_path):
    cmd = [sys.executable, str(ROOT / "scripts" / "quality_spread.py"),
           "--seeds", "2", "--workspace", str(tmp_path)]
    for item in TINY:
        cmd += ["--set", item]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=600).stdout.splitlines()
    assert len(out) == 5
    for line, label in zip(out, ("seed 0", "seed 1", "median", "IQR")):
        assert line.split("accuracy")[0].strip() == label, line
        for name in ("accuracy", "BLEU", "ROUGE-L", "g2s loss"):
            assert f" {name} " in line, line

    summary = json.loads(out[-1])
    assert set(summary) == {"seeds", "median", "iqr"}
    assert [row["seed"] for row in summary["seeds"]] == [0, 1]
    for row in summary["seeds"]:
        assert set(row) == {"seed", *FIELDS}
        ws = tmp_path / f"seed_{row['seed']}"
        cfg = load_config(overrides=TINY, seed=row["seed"])
        assert row["accuracy"] == pipeline.teacher_forced_accuracy(ws, cfg)
        assert 0.0 <= row["accuracy"] <= 1.0
        report = json.loads((ws / "evaluate" / "report.json").read_text())
        assert (row["bleu"], row["rouge_l"]) == (report["bleu"],
                                                 report["rouge_l"])
        history = json.loads((ws / "g2s" / "history.json").read_text())
        assert row["g2s_loss"] == history["loss"][-1] > 0
    for name in FIELDS:
        low, high = sorted(row[name] for row in summary["seeds"])
        assert summary["median"][name] == pytest.approx((low + high) / 2)
        assert summary["iqr"][name] == pytest.approx((high - low) / 2)
    assert np.isfinite([v for part in ("median", "iqr")
                        for v in summary[part].values()]).all()
