#!/usr/bin/env python3
"""End-to-end desk-scale experiment on the synthetic corpus.

Runs every pipeline stage in a fresh workspace, then prints corpus
statistics, training-loss summaries, a few generated comments, and the
BLEU / ROUGE-L evaluation. Finishes in a few minutes on a laptop CPU.

Usage:
    python3 scripts/run_desk_experiment.py [--workspace DIR] [--seed N]
                                           [--set KEY=VALUE ...]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ekgen import pipeline
from ekgen.config import load_config


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workspace", default="workspace/desk")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE")
    ap.add_argument("--show", type=int, default=3,
                    help="number of generated samples to print")
    args = ap.parse_args()

    ws = Path(args.workspace)
    cfg = load_config(overrides=args.overrides, seed=args.seed)

    start = time.monotonic()
    with pipeline.workspace_lock(ws):
        report = pipeline.run_full_pipeline(ws, cfg)
    w = pipeline.Workspace(ws, cfg)
    print(pipeline.report_stats(w.corpus.passages, w.ekg))

    hist = json.loads((ws / "embed" / "history.json").read_text())
    p1 = hist["phase1"]
    print(f"embedding phase 1: loss {p1[0]:.4f} -> {p1[-1]:.4f} "
          f"over {len(p1)} steps")
    if hist.get("phase2"):
        p2 = hist["phase2"]
        print(f"embedding phase 2: loss {p2[0]:.4f} -> {p2[-1]:.4f} "
              f"over {len(p2)} steps")
    g2s = json.loads((ws / "g2s" / "history.json").read_text())["loss"]
    print(f"generator: loss {g2s[0]:.4f} -> {g2s[-1]:.4f} "
          f"over {len(g2s)} steps")

    with open(ws / "generate" / "comments.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for rec in records[: args.show]:
        top = rec["comments"][0]["text"] if rec["comments"] else "<empty>"
        print(f"passage {rec['passage_id']}: {top!r}")

    print(f"BLEU {report['bleu']:.2f}  (precisions "
          f"{'/'.join(f'{p:.1f}' for p in report['precisions'])}, "
          f"BP {report['bp']:.3f})")
    print(f"ROUGE-L {report['rouge_l']:.4f}")
    print(f"total wall time {time.monotonic() - start:.0f}s; "
          f"artifacts in {ws}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
