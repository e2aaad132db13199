#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of thomplink.

    python3 perfbench/run.py --workload thm2 --seed 1 --seconds 30 --trace 0

Imports thomplink from ``src/`` next to this directory, builds the seeded
corpus of one workload (see ``workloads.py``) and runs as many whole passes
over it as fit in ``--seconds``, checking every verdict.  Items are run one
at a time in this single process.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several set-ups, each importing thomplink afresh, building the corpus and
running one warm-up item), ``wall_s`` (median time of a pass over the whole
corpus) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer table of the median traced pass, plus the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with the seed, the environment,
the failure ratio, latency percentiles and, when traced, the spans of the
chosen pass, is written to ``perfbench/out/``.  ``--tiny`` shrinks every
corpus for the self-test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import LAYERS, SIZE_NAMES, NoTrace, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 9

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Layer self times are left out of the result line where some workload never
# calls the layer, since a time that is always 0 says nothing; the full
# table, with every layer, is in the trace file.
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in ("pairs", "strand.reduce", "strand.code")},
    **{name: "count" for name in SIZE_NAMES},
    "item.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


def setup(name: str, seed: int, tiny: bool):
    """Import thomplink afresh, build the corpus and run one warm-up item."""
    start = perf_counter()
    for module in [m for m in sys.modules if m.split(".")[0] in ("thomplink", "workloads")]:
        del sys.modules[module]
    workloads = importlib.import_module("workloads")
    corpus, item = workloads.WORKLOADS[name]
    entries = corpus(seed, tiny)
    try:
        item(NoTrace(), entries[0], {})
    except Exception:  # the measured passes count and report the failure
        pass
    return perf_counter() - start, entries, item


def run_pass(entries, item, t):
    """One pass over the corpus: wall time, item latencies and failures."""
    latencies = []
    failures = []
    state: dict = {}
    gc.collect()
    start = perf_counter()
    for index, entry in enumerate(entries):
        t.begin_item(index)
        began = perf_counter()
        try:
            ok = item(t, entry, state)
            error = None
        except Exception as exc:  # a raising item is a failed item
            ok = False
            error = f"{type(exc).__name__}: {exc}"[:200]
        latencies.append(perf_counter() - began)
        t.end_item(not ok)
        if not ok:
            failures.append({"item": index, "error": error})
    return perf_counter() - start, latencies, failures


def percentile(sorted_values: list[float], q: float):
    """Nearest-rank percentile, or None unless ten samples lie beyond it."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    if len(sorted_values) - rank < 10:
        return None
    return sorted_values[int(rank) - 1]


def environment() -> dict:
    import thomplink

    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "thomplink").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    # Without kernel_name() there is no compiled kernel to choose from.
    kernel = thomplink.kernel_name() if hasattr(thomplink, "kernel_name") else "python"
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "kernel": kernel,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(args) -> tuple[dict, dict]:
    """Run the workload; returns the result line and the fuller record."""
    setups = []
    for _ in range(SETUPS):
        seconds, entries, item = setup(args.workload, args.seed, args.tiny)
        setups.append(seconds)
    tracer = Tracer() if args.trace else None
    passes = []
    began = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_no = len(passes)
        wall, latencies, failures = run_pass(entries, item, tracer if traced else NoTrace())
        passes.append({"traced": traced, "wall_s": wall, "latencies": latencies, "failures": failures})
        # Start no pass that would end after --seconds; a traced run needs two.
        typical = statistics.median(p["wall_s"] for p in passes)
        if perf_counter() - began + typical > args.seconds and (tracer is None or len(passes) >= 2):
            break

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    latencies = sorted(x for p in plain for x in p["latencies"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "environment": environment(),
        "corpus_items": len(entries),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "setup_s_samples": setups,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "latency_samples": len(latencies),
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        traced = sorted((p["wall_s"], i) for i, p in enumerate(passes) if p["traced"])
        wall, chosen = traced[(len(traced) - 1) // 2]
        table = tracer.table(chosen)
        metrics = {name: table[name] for name in PER_LAYER if name in table}
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead"] = wall / statistics.median(walls)
        units = PER_LAYER
        record["layer_table"] = {"pass": chosen, **table, "trace.wall_s": wall}
        record["trace_overhead"] = metrics["trace.overhead"]
        record["spans"] = [
            [sid, name, start - began, end - began, parent, item_id, pass_no, error]
            for sid, name, start, end, parent, item_id, pass_no, error in tracer.spans
            if pass_no == chosen
        ]
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    # Item latencies and the failure ratio go in the record only: items of
    # one corpus differ in size by orders of magnitude, so the median item
    # is one particular item, too unsteady over a few passes to gate on.
    extra = {"fail_ratio": {"value": failed / attempted, "unit": "ratio"}}
    for q in (50, 90, 99):
        value = percentile(latencies, q)
        if value is not None:
            extra[f"item_p{q}_ms"] = {"value": value * 1000, "unit": "ms"}
    record["metrics"] = {**line["metrics"], **extra}
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("thm2", "thm1", "conjugacy", "census"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every corpus (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "thomplink" / "__init__.py").is_file():
        print(f"error: no thomplink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    line, record = measure(args)

    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    path = OUT / f"{args.workload}-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(record) + "\n")
    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  passes {record['passes']}  "
          f"items {record['attempted']}  failed {record['failed']}  -> {path.relative_to(ROOT)}")
    print(f"python {env['python']}  cpus {env['cpu_count']}  kernel {env['kernel']}  "
          f"commit {env['commit']}")
    print(f"item latencies from {record['latency_samples']} samples")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
