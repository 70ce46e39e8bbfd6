"""Compare two run files written by run.py (JSON lines, one record per run).

For each workload, trace mode and metric it prints both sides' median and
quartiles over their runs and the ratio of the medians (after / before).
An end-to-end metric is marked "unresolved" when either side's spread (the
interquartile distance over the median) exceeds the bound BENCHMARK.json
fixes for it, "worse" when the after median is worse than the before median
by more than the bound, and "ok" otherwise.  Per-layer metrics have no
bound and get no mark.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def _load(path: Path) -> dict:
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["metrics"].items():
            runs[(rec["workload"], rec["trace"])][name].append(m["value"])
    return runs


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def _spread(q: tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def main(spec: dict, before: Path, after: Path) -> int:
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = _load(before), _load(after)
    print(f"before: {before}\nafter:  {after}")
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        print(f"\n{workload} (trace {trace}; runs: {len(next(iter(a[key].values())))} before, "
              f"{len(next(iter(b[key].values())))} after)")
        print(f"  {'metric':40s} {'before q1/med/q3':>32s} {'after q1/med/q3':>32s} "
              f"{'ratio':>7s}  mark")
        for name in sorted(set(a[key]) & set(b[key])):
            qa, qb = _quartiles(a[key][name]), _quartiles(b[key][name])
            ratio = f"{qb[1] / qa[1]:7.3f}" if qa[1] else "    n/a"
            m = meta.get(name, {})
            mark = ""
            if "bound" in m:
                bound = m["bound"]
                worse = qb[1] < qa[1] * (1 - bound) if m["better"] == "higher" \
                    else qb[1] > qa[1] * (1 + bound)
                if max(_spread(qa), _spread(qb)) > bound:
                    mark = "unresolved"
                else:
                    mark = "worse" if worse else "ok"
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"  {name:40s} {fa:>32s} {fb:>32s} {ratio}  {mark}")
    only = sorted(set(a) ^ set(b))
    if only:
        print(f"\nin one file only: {only}")
    return 0
