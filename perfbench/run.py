#!/usr/bin/env python3
"""ekgen benchmark: staged pipeline runs on seeded workloads, measured from
outside the program.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk|novel|ingest --seed N \\
        --seconds S --trace 0|1 [--full]

Each run builds its inputs from the seed, warms up with one untimed
repetition of the workload's pipeline, then repeats the pipeline in fresh
workspaces until `--seconds` have passed (at least three times) and reports
medians. Every repetition must produce the same artifacts byte for byte.
With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` repetitions alternate between traced
and untraced and the object holds the per-layer metrics. `--full` runs the
workload once at the preset's full size (the desk run of record) and
reports the end-to-end metrics plus BLEU. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small, and threads add run-to-run noise.
# Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs                         # noqa: E402
from spans import Tracer, graph_nodes  # noqa: E402


@dataclass(frozen=True)
class Workload:
    # writes the three corpus files `run_ingest` reads, from the workload seed
    write_inputs: Callable
    # key=value settings on top of the desk preset (dropped by --full)
    overrides: tuple[str, ...]
    generate_limit: int


# Why each workload exists is recorded in BENCHMARK.json and README.md. The
# step counts keep one repetition to a few seconds, so that a run holds
# several repetitions and ten runs finish before the machine's speed drifts.
WORKLOADS = {
    "desk": Workload(inputs.write_desk,
                     ("g2s_steps=3", "phase1_steps=20", "phase2_steps=6"), 2),
    "novel": Workload(inputs.write_novel,
                      ("g2s_steps=2", "phase1_steps=10", "phase2_steps=3"), 2),
    "ingest": Workload(inputs.write_ingest,
                       ("g2s_steps=1", "phase1_steps=10", "phase2_steps=3"), 2),
}

# The program's own seed (model initialisation, batch order) is that of the
# run of record on every workload; `--seed` varies the inputs. A model a few
# steps old stops its beams early or runs them to `max_len` depending on its
# initialisation, which moved decode time 2x from seed to seed.
MODEL_SEED = 0

STAGES = ["ingest", "stats", "build-ekg", "train-ekg", "train-g2s",
          "generate", "evaluate"]
# spans that set the area of the spans inside them
AREAS = frozenset({"train_ekg", "train_g2s", "beam_decode"})
MIN_REPS = 3


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Ops:
    """Operations attempted and failed, plus failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)
            log(f"check failed: {what}")


# ---------------------------------------------------------------------------
# wrappers


def install(tracer: Tracer, full: bool, capture: dict):
    """Always: the main loops and input parsing, which the end-to-end
    metrics need. With `full`: every per-layer boundary."""
    from ekgen import corpus as cp
    from ekgen import diffkit as dk
    from ekgen import embed, pipeline
    from ekgen.graph2seq import Graph2SeqModel

    def after_train_ekg(span, args, kwargs, artifact):
        _novel, mentions, gekg = args[:3]
        n_edge = sum(len(ev) for g in gekg.graphs for ev in g.edges.values())
        h = artifact.history
        skipped = sum(h["skipped_negatives"])
        span[4] = {"examples": len(mentions) * len(h["phase1"])
                   + n_edge * len(h["phase2"]),
                   "loss": h["phase1"][-1] / len(mentions),
                   "skipped_share": skipped / max(n_edge * len(h["skipped_negatives"]), 1)}

    def after_train_g2s(span, args, kwargs, history):
        examples, model, train_cfg = args
        loss = history["loss"]
        span[4] = {"batch": min(train_cfg.batch_size, len(examples)),
                   "loss": sum(loss) / len(loss)}
        capture["model"] = model
        capture["example"] = examples[0]

    def after_beam(span, args, kwargs, beams):
        span[4] = {"beams": [(len(toks), score) for toks, score in beams],
                   "beam": kwargs["beam"], "max_len": kwargs["max_len"]}

    def after_len(index=None):
        def hook(span, args, kwargs, result):
            span[4] = len(result if index is None else result[index])
        return hook

    tracer.wrap(pipeline, "train_ekg", "train_ekg", after_train_ekg)
    tracer.wrap(pipeline, "train_g2s", "train_g2s", after_train_g2s)
    tracer.wrap(pipeline, "beam_decode", "beam_decode", after_beam)
    tracer.wrap(cp, "load_corpus", "corpus.load", after_len(2))
    tracer.wrap(dk.Adam, "step", "dk.adam_step")
    if not full:
        return

    tracer.wrap(cp, "match_mentions", "corpus.match_mentions", after_len())
    tracer.wrap(cp, "merge_passages", "corpus.merge", after_len())
    tracer.wrap(cp, "filter_passages", "corpus.filter", after_len())
    tracer.wrap(cp, "build_vocab", "corpus.vocab")
    tracer.wrap(pipeline, "build_global_ekg", "ekg.build")

    def after_local(span, args, kwargs, local):
        span[4] = local.c_r

    tracer.wrap(pipeline, "extract_local_ekg", "ekg.extract_local", after_local)
    tracer.wrap(pipeline, "materialize_embeddings", "embed.materialize")
    tracer.wrap(embed, "vertex_loss_total", "embed.phase1_fwd")
    tracer.wrap(embed, "edge_triplet_loss", "embed.phase2_fwd")
    tracer.wrap(pipeline, "bleu_corpus", "metrics.bleu")
    tracer.wrap(pipeline, "rouge_l", "metrics.rouge_l")

    # graph2seq: keep the latest sub-encoder outputs so the nll hook can
    # split the example's autodiff graph by layer
    last: dict = {}

    def keep(key):
        def hook(span, args, kwargs, result):
            last[key] = result
        return hook

    def after_nll(span, args, kwargs, loss):
        everything = graph_nodes(loss)
        bilstm = graph_nodes(*last["temporal"])
        graph = graph_nodes(last["graph"])
        passage = graph_nodes(last["passage"])
        span[4] = {"bilstm": len(bilstm), "gat": len(graph - bilstm),
                   "passage_enc": len(passage),
                   "decoder_loss": len(everything - graph - passage),
                   "total": len(everything)}

    def after_step(span, args, kwargs, probs):
        span[4] = len(args[2])          # prefix length fed to the decoder

    def after_backward(span, args, kwargs, result):
        span[4] = len(graph_nodes(args[0]))

    tracer.wrap(Graph2SeqModel, "temporal_encode", "g2s.temporal_encode", keep("temporal"))
    tracer.wrap(Graph2SeqModel, "graph_encode", "g2s.graph_encode", keep("graph"))
    tracer.wrap(Graph2SeqModel, "encode_passage", "g2s.encode_passage", keep("passage"))
    tracer.wrap(Graph2SeqModel, "fuse_memory", "g2s.fuse_memory")
    tracer.wrap(Graph2SeqModel, "nll", "g2s.nll", after_nll)
    tracer.wrap(Graph2SeqModel, "fuse_and_decode_step", "g2s.decode_step", after_step)
    tracer.wrap(dk.Tensor, "backward", "dk.backward", after_backward)


# ---------------------------------------------------------------------------
# one repetition of the pipeline


def run_pipeline(ws: Path, cfg, input_paths, tracer: Tracer, ops: Ops,
                 limit: int | None) -> dict:
    from ekgen import pipeline

    calls = {
        "ingest": lambda: pipeline.run_ingest(ws, cfg, *input_paths),
        "stats": lambda: pipeline.run_stats(ws, cfg),
        "build-ekg": lambda: pipeline.run_build_ekg(ws, cfg),
        "train-ekg": lambda: pipeline.run_train_ekg(ws, cfg),
        "train-g2s": lambda: pipeline.run_train_g2s(ws, cfg),
        "generate": lambda: pipeline.run_generate(ws, cfg, limit=limit),
        "evaluate": lambda: pipeline.run_evaluate(ws, cfg),
    }
    report = None
    with pipeline.workspace_lock(ws):
        for name in STAGES:
            # each stage starts on a collected heap, as in its own
            # `ekgen <stage>` process, so no stage pays for an earlier
            # stage's garbage
            gc.collect()
            ops.attempted += 1
            with tracer.span("stage." + name):
                try:
                    result = calls[name]()
                except Exception:
                    ops.failed += 1
                    log(f"stage {name} failed:\n{traceback.format_exc()}")
                    continue
            if name == "evaluate":
                report = result
    return {"report": report, "stages": STAGES}


def check_outputs(ws: Path, view, ops: Ops) -> bytes:
    """Output checks of one repetition; returns the manifest bytes."""
    manifest_bytes = (ws / "manifest.json").read_bytes()
    manifest = json.loads(manifest_bytes)
    for stage, entry in manifest["stages"].items():
        for rel, digest in entry["outputs"].items():
            ops.check(sha256(ws / rel) == digest, f"{stage}: hash of {rel}")
    decodes = view.select("beam_decode")
    for _, span in decodes:
        info = span[4]
        ops.attempted += 1
        if not any(n for n, _ in info["beams"]):
            ops.failed += 1                 # no non-empty beam
        scores = [s for _, s in info["beams"]]
        ops.check(len(scores) <= info["beam"], "beam count")
        ops.check(all(n <= info["max_len"] for n, _ in info["beams"]),
                  "decoded length within max_len")
        ops.check(scores == sorted(scores, reverse=True), "beams sorted by score")
    lines = (ws / "generate" / "comments.jsonl").read_text().splitlines()
    ops.check(len(lines) == len(decodes), "one generate record per decode")
    return manifest_bytes


def step_times(view) -> list[float]:
    """Wall time of each g2s training step: from the start of `train_g2s` or
    the end of the previous optimizer step to the end of this one, less
    tracer overhead."""
    (_, run), = view.select("train_g2s")
    out, prev = [], run[1]
    for _, s in view.select("dk.adam_step", "train_g2s"):
        out.append(s[2] - prev - view.overhead_within(prev, s[2]))
        prev = s[2]
    return out


def rep_metrics(view, ran: dict) -> dict:
    """End-to-end figures of one repetition. Keys starting with `_` hold
    per-unit samples that are pooled over repetitions."""
    stage_s = {n: view.total("stage." + n) for n in ran["stages"]}
    loops = {"train-ekg": view.total("train_ekg"),
             "train-g2s": view.total("train_g2s"),
             "generate": view.total("beam_decode")}
    (_, load), = view.select("corpus.load")
    (_, ekg), = view.select("train_ekg")
    (_, g2s), = view.select("train_g2s")
    decodes = view.select("beam_decode")
    report = ran["report"]
    return {
        "pipeline_s": sum(stage_s.values()),
        "setup_s": (load[2] - load[1])
                   + sum(stage_s[k] - loops[k] for k in loops),
        "ingest_passages_per_s": load[4] / stage_s["ingest"],
        "train_ekg_examples_per_s": ekg[4]["examples"] / loops["train-ekg"],
        "_batch": g2s[4]["batch"],
        "_steps": step_times(view),
        "generate_passages_per_s": len(decodes) / loops["generate"],
        "g2s_mean_loss": g2s[4]["loss"],
        "embed_final_loss": ekg[4]["loss"],
        "rouge_l": report.get("rouge_l", 0.0),
        "bleu": report.get("bleu", 0.0),
    }


# ---------------------------------------------------------------------------
# per-layer figures of one traced repetition


def layer_metrics(view) -> dict:
    m: dict[str, float] = {}
    for n in STAGES:
        m[f"pipeline.{n.replace('-', '_')}_s"] = view.total("stage." + n)
    for key in ("load", "match_mentions", "merge", "filter", "vocab"):
        m[f"corpus.{key}_s"] = view.total("corpus." + key)
    first = lambda name: view.select(name)[0][1][4]
    m["corpus.passages_in"] = first("corpus.load")
    m["corpus.passages_after_merge"] = first("corpus.merge")
    m["corpus.passages_kept"] = first("corpus.filter")
    m["corpus.mentions"] = first("corpus.match_mentions")

    m["ekg.build_s"] = view.total("ekg.build")
    locals_ = view.select("ekg.extract_local")
    m["ekg.extract_local_s"] = view.total("ekg.extract_local")
    m["ekg.extract_local_calls"] = len(locals_)
    m["ekg.local_edges_mean"] = fmean(s[4] for _, s in locals_)

    m["embed.phase1_fwd_s"] = view.total("embed.phase1_fwd", "train_ekg")
    m["embed.phase2_fwd_s"] = view.total("embed.phase2_fwd", "train_ekg")
    m["embed.backward_s"] = view.total("dk.backward", "train_ekg")
    m["embed.materialize_s"] = view.total("embed.materialize")
    m["embed.skipped_negatives_share"] = first("train_ekg")["skipped_share"]

    g = "train_g2s"
    m["graph2seq.bilstm_fwd_s"] = view.total("g2s.temporal_encode", g)
    m["graph2seq.gat_fwd_s"] = view.total("g2s.graph_encode", g, self_time=True)
    m["graph2seq.passage_enc_fwd_s"] = view.total("g2s.encode_passage", g)
    m["graph2seq.decoder_loss_fwd_s"] = view.total("g2s.nll", g, self_time=True)
    m["graph2seq.backward_s"] = view.total("dk.backward", g)
    m["graph2seq.adam_s"] = view.total("dk.adam_step", g)

    nll = [s[4] for _, s in view.select("g2s.nll", g)]
    for key in ("bilstm", "gat", "passage_enc", "decoder_loss", "total"):
        m[f"graph2seq.nodes.{key}"] = fmean(x[key] for x in nll)

    d = "beam_decode"
    steps = view.select("g2s.decode_step", d)
    m["graph2seq.fuse_memory_s"] = view.total("g2s.fuse_memory", d)
    m["graph2seq.decode_step_s"] = view.total("g2s.decode_step", d)
    m["graph2seq.decode_step_calls"] = len(steps)
    m["graph2seq.decode_tokens_out"] = sum(
        n for _, s in view.select("beam_decode") for n, _ in s[4]["beams"])
    m["graph2seq.decode_recompute_ratio"] = fmean(s[4] for _, s in steps)

    backward = view.select("dk.backward", g)
    nodes = sum(s[4] for _, s in backward)
    m["diffkit.nodes_per_step"] = nodes / len(backward)
    m["diffkit.backward_us_per_node"] = 1e6 * m["graph2seq.backward_s"] / nodes
    m["metrics.bleu_s"] = view.total("metrics.bleu")
    m["metrics.rouge_l_s"] = view.total("metrics.rouge_l")
    return m


COUNTS = ("corpus.passages_in", "corpus.passages_after_merge",
          "corpus.passages_kept", "corpus.mentions", "ekg.extract_local_calls",
          "ekg.local_edges_mean", "graph2seq.decode_step_calls",
          "graph2seq.decode_tokens_out", "graph2seq.decode_recompute_ratio",
          "diffkit.nodes_per_step", "embed.skipped_negatives_share") + tuple(
    f"graph2seq.nodes.{k}" for k in ("bilstm", "gat", "passage_enc",
                                     "decoder_loss", "total"))


def layer_table(model, example, repeats: int = 5) -> dict:
    """Forward and backward time and node count of each model layer on one
    fixed example, each layer fed leaf tensors so only its own nodes count."""
    import numpy as np
    from ekgen import diffkit as dk
    from ekgen.corpus import BOS, EOS
    from ekgen.graph2seq import gat_layer

    ids, local, comment = example.passage_ids, example.local, example.comment_ids
    target = comment[:model.config.max_len - 1] + [EOS]
    dec_in = [BOS] + target[:-1]
    v, e = model.temporal_encode(local)
    pos = {eid: i for i, eid in enumerate(local.vertex_ids)}
    edges = [(pos[a], pos[b]) for a, b in local.edges]
    memory = model.fuse_memory(ids, local).data
    logits = model._decode(dk.Tensor(memory), dec_in).data

    def leaf(t):
        return None if t is None else dk.Tensor(t.data if isinstance(t, dk.Tensor) else t,
                                                requires_grad=True)

    def gat(mode):
        def run():
            x, ef = leaf(v), leaf(e)
            for layer in model.gat:
                x = gat_layer(x, ef, edges, layer, mode)
            return [x]
        return run

    layers = {
        "bilstm": lambda: [t for t in model.temporal_encode(local) if t is not None],
        "gat_v": gat("GAT_V"),
        "gat_ve": gat("GAT_VE"),
        "passage_enc": lambda: [model.encode_passage(ids)],
        "decoder": lambda: [model._decode(leaf(memory), dec_in)],
        "loss": lambda: [dk.cross_entropy_label_smoothed(
            leaf(logits), np.asarray(target), model.config.eps_ls)],
    }
    out = {}
    for name, fn in layers.items():
        fwd, bwd = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            outs = fn()
            t1 = time.perf_counter()
            for o in outs:
                o.backward(np.ones_like(o.data))
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        out[f"graph2seq.layer.{name}.fwd_us"] = 1e6 * median(fwd)
        out[f"graph2seq.layer.{name}.bwd_us"] = 1e6 * median(bwd)
        out[f"graph2seq.layer.{name}.nodes"] = len(graph_nodes(*outs))
        model.zero_grad()
    return out


# ---------------------------------------------------------------------------
# the run


def percentile_tail(xs: list[float]) -> tuple[float, float]:
    """Highest of p90/p75/p50 with at least ten samples beyond it, else the
    maximum (reported as percentile 100)."""
    xs = sorted(xs)
    for pct in (90, 75, 50):
        if len(xs) * (100 - pct) / 100 >= 10:
            return xs[min(len(xs) - 1, int(len(xs) * pct / 100))], float(pct)
    return xs[-1], 100.0


def environment(import_s: float) -> dict:
    import numpy as np
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "src_lines": src_lines, "import_s": import_s}


# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "train_g2s_examples_per_s": "1/s", "generate_passages_per_s": "1/s",
    "g2s_mean_loss": "nats", "embed_final_loss": "nats",
}


def end_to_end(plain: list[dict], import_s: float, full: bool) -> dict:
    m = {k: median(r[k] for r in plain) for k in END_TO_END if k in plain[0]}
    # one sample per training step: the median over many short samples
    # shrugs off the machine's fast and slow spells
    m["train_g2s_examples_per_s"] = plain[0]["_batch"] / median(
        [s for r in plain for s in r["_steps"]])
    m["setup_s"] = import_s + median(r["setup_s"] for r in plain)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = dict(END_TO_END)
    if full:
        for k in ("bleu", "rouge_l"):
            m[k], units[k] = plain[0][k], "score"
    return {k: {"value": m[k], "unit": units[k]} for k in units}


def per_layer(traced: list[tuple[dict, dict]], plain: list[dict], capture: dict,
              ops: Ops) -> dict:
    layers = [lm for _, lm in traced]
    m: dict[str, float] = {}
    for key in layers[0]:
        values = [lm[key] for lm in layers]
        if key in COUNTS:
            ops.check(len(set(values)) == 1, f"{key} repeats in every traced repetition")
            m[key] = values[0]
        else:
            m[key] = median(values)
    steps = [s for rm, _ in traced for s in rm["_steps"]]
    m["graph2seq.step_p50_s"] = median(steps)
    m["graph2seq.step_tail_s"], m["graph2seq.step_tail_pct"] = percentile_tail(steps)
    m["graph2seq.step_samples"] = len(steps)
    m.update(layer_table(capture["model"], capture["example"]))
    # stage rates from the untraced repetitions (their regions are short, so
    # they spread too much between runs to be end-to-end metrics)
    m["corpus.ingest_passages_per_s"] = median(r["ingest_passages_per_s"] for r in plain)
    m["embed.examples_per_s"] = median(r["train_ekg_examples_per_s"] for r in plain)
    m["quality.bleu"] = traced[0][0]["bleu"]
    m["quality.rouge_l"] = traced[0][0]["rouge_l"]
    traced_s = median(rm["pipeline_s"] for rm, _ in traced)
    plain_s = median(r["pipeline_s"] for r in plain)
    m["trace.overhead_s"] = traced_s - plain_s
    m["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in m.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or name.endswith("_us_per_node"):
        return "us"
    if name.startswith("quality."):
        return "score"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true",
                    help="one repetition at the preset's full size")
    args = ap.parse_args(argv)
    if args.full and args.trace:
        ap.error("--full runs untraced")

    if not (ROOT / "src" / "ekgen" / "pipeline.py").is_file():
        log(f"ekgen sources not found under {ROOT / 'src'}")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from ekgen.config import load_config
    from ekgen import pipeline  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - t0

    wl = WORKLOADS[args.workload]
    cfg = load_config(preset="desk", seed=MODEL_SEED,
                      overrides=[] if args.full else list(wl.overrides))
    limit = None if args.full else wl.generate_limit
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    ops = Ops()
    tracer = Tracer()
    capture: dict = {}
    manifests: list[bytes] = []
    plain: list[dict] = []
    traced: list[tuple[dict, dict]] = []

    def rep(n: int, full_trace: bool) -> tuple[dict, dict | None]:
        ws = work / f"ws{n}"
        install(tracer, full_trace, capture)
        start = len(tracer.spans)
        try:
            ran = run_pipeline(ws, cfg, input_paths, tracer, ops, limit)
        finally:
            tracer.uninstall()
        if ops.failed:
            raise RuntimeError(f"{ops.failed} operation(s) failed")
        view = tracer.view(start, AREAS)
        manifests.append(check_outputs(ws, view, ops))
        ops.check(manifests[-1] == manifests[0],
                  "artifacts identical in every repetition")
        shutil.rmtree(ws)
        figures = rep_metrics(view, ran)
        log(f"repetition {n}{' traced' if full_trace else ''}: " + " ".join(
            f"{k}={v:.4g}" for k, v in figures.items() if k[0] != "_"))
        return figures, (layer_metrics(view) if full_trace else None)

    try:
        paths = wl.write_inputs(args.seed, work / "inputs")
        input_paths = (paths["novel"], paths["lexicon"], paths["passages"])
        if args.full:
            plain.append(rep(0, False)[0])
        else:
            rep(0, False)                           # warm-up, not reported
            begin = time.perf_counter()
            n = 1
            while (time.perf_counter() - begin < args.seconds
                   or len(plain) < (1 if args.trace else MIN_REPS)
                   or (args.trace and not traced)):
                if args.trace and n % 2:
                    traced.append(rep(n, True))
                else:
                    plain.append(rep(n, False)[0])
                n += 1
        if args.trace:
            metrics = per_layer(traced, plain, capture, ops)
        else:
            metrics = end_to_end(plain, import_s, args.full)
    except Exception:
        log(traceback.format_exc())
        print(json.dumps({"correct": False, "attempted": max(ops.attempted, 1),
                          "failed": ops.failed, "metrics": {}}))
        return 1
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()             # unless another run still uses it

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "repetitions": len(plain) + len(traced),
                      "env": environment(import_s),
                      "shape": inputs.shapes().get(args.workload, {}),
                      "overrides": [] if args.full else list(wl.overrides)}))
    print(json.dumps({"correct": not ops.problems and ops.failed == 0,
                      "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
