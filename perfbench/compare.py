#!/usr/bin/env python3
"""Compare result records of two commits, metric by metric.

    python3 perfbench/compare.py BASE.json [BASE.json ...] vs NEW.json [NEW.json ...]

Each side is one or more records written by ``run.py`` to ``perfbench/out/``
for one workload, usually one per seed.  For every metric the table gives
each side's median and quartiles and the ratio of the medians.  Records of
different workloads, or of different bracket kernels, are refused with exit
status 2: their numbers do not measure the same code path.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if "vs" not in argv or argv.index("vs") in (0, len(argv) - 1):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    cut = argv.index("vs")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    kernels = {r["environment"]["kernel"] for r in base + new}
    workloads = {r["workload"] for r in base + new}
    if len(kernels) > 1 or len(workloads) > 1:
        print(f"refusing to compare: kernels {sorted(kernels)}, workloads {sorted(workloads)}",
              file=sys.stderr)
        return 2
    print(f"workload {workloads.pop()}  kernel {kernels.pop()}  runs {len(base)} vs {len(new)}")
    for name in base[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not b:
            continue
        ratio = f"x{statistics.median(b) / statistics.median(a):.3f}" if statistics.median(a) else "-"
        unit = base[0]["metrics"][name]["unit"]
        print(f"{name:32s} {summary(a):>36s}  {summary(b):>36s}  {ratio} {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
