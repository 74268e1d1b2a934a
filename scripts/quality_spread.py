#!/usr/bin/env python3
"""Model quality over program seeds, as a median and interquartile range.

Runs the full desk-preset pipeline once per seed 0..N-1, each in its own
workspace `<workspace>/seed_<n>`. For each seed it prints criterion 7's
teacher-forced accuracy (one example per passage), the BLEU and ROUGE-L of
the generated comments and the final train-g2s loss; then the median and
IQR of each over the seeds. The last line of stdout holds the same numbers
as JSON. A seed takes about 30 s on 2 cores.

Usage:
    python3 scripts/quality_spread.py [--seeds N] [--workspace DIR]
                                      [--set KEY=VALUE ...]
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ekgen import pipeline
from ekgen.config import load_config

FIELDS = ("accuracy", "bleu", "rouge_l", "g2s_loss")


def run_seed(ws: Path, cfg) -> dict:
    """Quality numbers of one fresh full pipeline run in `ws`."""
    if ws.exists():
        shutil.rmtree(ws)
    with pipeline.workspace_lock(ws):
        report = pipeline.run_full_pipeline(ws, cfg)
        accuracy = pipeline.teacher_forced_accuracy(ws, cfg)
    loss = json.loads((ws / "g2s" / "history.json").read_text())["loss"][-1]
    return {"seed": cfg.seed, "accuracy": accuracy, "bleu": report["bleu"],
            "rouge_l": report["rouge_l"], "g2s_loss": loss}


def _line(label: str, values: dict) -> str:
    return (f"{label:>8}  accuracy {values['accuracy']:.4f}  "
            f"BLEU {values['bleu']:6.2f}  ROUGE-L {values['rouge_l']:.4f}  "
            f"g2s loss {values['g2s_loss']:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10,
                    help="run seeds 0..N-1 (default 10)")
    ap.add_argument("--workspace", default="workspace/spread")
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")

    root = Path(args.workspace)
    rows = []
    for seed in range(args.seeds):
        cfg = load_config(preset="desk", overrides=args.overrides, seed=seed)
        rows.append(run_seed(root / f"seed_{seed}", cfg))
        print(_line(f"seed {seed}", rows[-1]), flush=True)
    quartiles = {name: np.percentile([r[name] for r in rows], [25, 50, 75])
                 for name in FIELDS}
    median = {name: float(q[1]) for name, q in quartiles.items()}
    iqr = {name: float(q[2] - q[0]) for name, q in quartiles.items()}
    print(_line("median", median))
    print(_line("IQR", iqr))
    print(json.dumps({"seeds": rows, "median": median, "iqr": iqr},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
