"""Command-line entry point orchestrating the pipeline stages."""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

from . import pipeline
from .config import PRESETS, ConfigError, load_config
from .corpus import CorpusParseError, ReferenceError_
from .diffkit import CheckpointError
from .gradsuite import run_gradient_suite


def _evaluate(ws: Path, cfg, args) -> str:
    report = pipeline.run_evaluate(ws, cfg)
    return f"BLEU {report['bleu']:.2f}  ROUGE-L {report['rouge_l']:.4f}"


# stage name -> function that runs the stage and returns the line to print
STAGES = {
    "synth": lambda ws, cfg, args:
        f"wrote synthetic corpus: {pipeline.run_synth(ws, cfg)['counts']}",
    "ingest": lambda ws, cfg, args: "ingested corpus -> {}".format(
        pipeline.run_ingest(ws, cfg, args.novel, args.lexicon, args.passages)),
    "stats": lambda ws, cfg, args: pipeline.run_stats(ws, cfg),
    "build-ekg": lambda ws, cfg, args:
        f"built global EKG -> {pipeline.run_build_ekg(ws, cfg)}",
    "train-ekg": lambda ws, cfg, args:
        f"trained EKG embeddings -> {pipeline.run_train_ekg(ws, cfg)}",
    "train-g2s": lambda ws, cfg, args:
        f"trained generator -> {pipeline.run_train_g2s(ws, cfg)}",
    "generate": lambda ws, cfg, args:
        f"generated comments -> {pipeline.run_generate(ws, cfg)}",
    "evaluate": _evaluate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekgen",
        description="Evolutionary-knowledge-graph comment generation pipeline")
    parser.add_argument("subcommand", choices=[*STAGES, "grad-check"])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--workspace", default="workspace",
                        help="run directory (default: ./workspace)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    parser.add_argument("--novel", help="novel JSON (ingest)")
    parser.add_argument("--lexicon", help="lexicon JSON (ingest)")
    parser.add_argument("--passages", help="passages JSONL (ingest)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, preset=args.preset,
                          overrides=args.overrides, seed=args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    if args.subcommand == "grad-check":
        results = run_gradient_suite(cfg.seed)
        worst = 0.0
        failed = 0
        for r in results:
            status = "ok" if r.passed else "FAIL"
            print(f"[{status}] {r.name}: rel_err={r.rel_err:.3e} "
                  f"(tol {r.tolerance:.0e})")
            worst = max(worst, r.rel_err)
            failed += 0 if r.passed else 1
        print(f"{len(results) - failed}/{len(results)} checks passed "
              f"(worst rel_err {worst:.3e})")
        return 0 if failed == 0 else 1

    ws = Path(args.workspace)
    start = time.perf_counter()
    try:
        with pipeline.workspace_lock(ws):
            print(STAGES[args.subcommand](ws, cfg, args))
    except (FileNotFoundError, CorpusParseError, ReferenceError_,
            CheckpointError, pipeline.CorruptArtifact) as e:
        # a missing or unreadable input or artifact
        print(f"error: {e}", file=sys.stderr)
        return 3
    except pipeline.WorkspaceLocked as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"{args.subcommand}: {time.perf_counter() - start:.2f} s, "
          f"peak RSS {_peak_rss_mb():.1f} MB", file=sys.stderr)
    return 0


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far (`ru_maxrss` is in
    kilobytes on Linux and in bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


if __name__ == "__main__":
    raise SystemExit(main())
