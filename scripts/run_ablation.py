#!/usr/bin/env python3
"""Graph-encoder ablation: train and evaluate the generator under each of
the three graph modes on one shared corpus and embedding artifact.

EKG     temporal vertex features only (no graph attention)
GAT_V   graph attention over vertices, edge features ignored
GAT_VE  graph attention over vertices and edge features jointly

Usage:
    python3 scripts/run_ablation.py [--workspace DIR] [--seed N]
                                    [--set KEY=VALUE ...]
"""

import argparse
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ekgen import pipeline
from ekgen.config import MODES, load_config


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workspace", default="workspace/ablation")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE")
    args = ap.parse_args()

    root = Path(args.workspace)
    base = root / "base"
    cfg = load_config(overrides=args.overrides, seed=args.seed)
    with pipeline.workspace_lock(base):
        pipeline.run_synth(base, cfg)
        pipeline.run_ingest(base, cfg)
        pipeline.run_build_ekg(base, cfg)
        pipeline.run_train_ekg(base, cfg)

    results = {}
    for mode in MODES:
        ws = root / mode.lower()
        if ws.exists():
            shutil.rmtree(ws)
        ws.mkdir(parents=True)
        for sub in ("data", "corpus", "ekg", "embed"):
            shutil.copytree(base / sub, ws / sub)
        shutil.copy(base / "manifest.json", ws / "manifest.json")
        mode_cfg = load_config(overrides=args.overrides + [f"mode={mode}"],
                               seed=args.seed)
        with pipeline.workspace_lock(ws):
            pipeline.run_train_g2s(ws, mode_cfg)
            pipeline.run_generate(ws, mode_cfg)
            results[mode] = pipeline.run_evaluate(ws, mode_cfg)
        r = results[mode]
        print(f"{mode:7s} BLEU {r['bleu']:6.2f}  ROUGE-L {r['rouge_l']:.4f}")

    best = max(results, key=lambda m: results[m]["bleu"])
    print(f"best BLEU: {best}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
