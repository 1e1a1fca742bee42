"""Compare two sets of benchmark records: one row per workload and metric.

A record is the JSON object that run.py prints after ``record``; other
lines are skipped, so the stdout of several runs, appended to one file,
is a record file.  Each row gives both medians with their run
counts, the ratio new/base next to its base, the spreads (quartile
distance over median) of both sides, and a verdict against the bound in
BENCHMARK.json:

- ``unresolved``: a side's spread is wider than the bound (or it has a
  single run), unless every new run reads better than every base run;
- ``REGRESSED``: the new median is worse than the base by more than the bound;
- ``improved``: the new median is better by more than either side's spread;
- ``within bound`` otherwise.  Per-layer metrics and the raw figures a
  record carries beside its metrics have no bound and get no verdict.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path


def load(path) -> list[dict]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        text = line.removeprefix("record ").strip()
        if not text.startswith("{"):
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and {"workload", "seed", "metrics"} <= record.keys():
            records.append(record)
    return records


def relative_spread(values: list[float]) -> float:
    if len(values) < 2:
        return math.inf
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else math.inf


def verdict(base: list[float], new: list[float], better: str, bound) -> str:
    if bound is None:
        return ""
    sign = 1 if better == "lower" else -1  # sign * value: lower reads better
    base_median, new_median = statistics.median(base), statistics.median(new)
    if max(relative_spread(base), relative_spread(new)) > bound:
        if max(sign * x for x in new) < min(sign * x for x in base):
            return "better in every run"
        return "unresolved"
    worse_by = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    if worse_by > bound:
        return "REGRESSED"
    if -worse_by > max(relative_spread(base), relative_spread(new)):
        return "improved"
    return "within bound"


def main(base_path, new_path, spec_path) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(base_path), load(new_path)
    for record in base + new:  # raw figures the records carry beside the metrics
        for name, unit in record.get("units", {}).items():
            metrics.setdefault(name, {"unit": unit, "better": "lower"})
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    if not workloads:
        print("no workload has records on both sides")
        return 1
    print(f"{'workload':11s} {'metric':30s} {'base median':>14s} {'new median':>14s} "
          f"{'new/base':>9s}  {'spread b/n':>13s}  verdict")
    for workload in workloads:
        for name, m in metrics.items():
            sides = [
                [r["metrics"][name] for r in records
                 if r["workload"] == workload and name in r["metrics"]
                 and name not in r.get("absent", ())]
                for records in (base, new)
            ]
            if not all(sides):
                if any(name in r.get("absent", ()) for r in base + new if r["workload"] == workload):
                    print(f"{workload:11s} {name:30s} absent")
                continue
            b, n = sides
            b_med, n_med = statistics.median(b), statistics.median(n)
            ratio = f"{n_med / b_med:9.4f}" if b_med else f"{'-':>9s}"
            print(f"{workload:11s} {name:30s} {b_med:11.5g} [{len(b):2d}] {n_med:11.5g} [{len(n):2d}] "
                  f"{ratio} of {b_med:.5g} {m['unit']}  "
                  f"{relative_spread(b):6.3f}/{relative_spread(n):6.3f}  "
                  f"{verdict(b, n, m['better'], m.get('bound'))}")
    for b in base:
        for n in new:
            if (b["workload"], b["seed"], b.get("trace")) != (n["workload"], n["seed"], n.get("trace")):
                continue
            for label, value in b.get("digests", {}).items():
                if n.get("digests", {}).get(label, value) != value:
                    print(f"{b['workload']} seed {b['seed']}: output of {label!r} differs")
    return 0
