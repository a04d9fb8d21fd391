"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are record files written by ``perfbench/run.py``
(``.perfbench-out/records.jsonl``) or directories holding such files.
Records are grouped by workload and by run kind (timed or traced).  For
every metric the table gives each side's median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the ratio NEW/OLD of
the medians with its base, and a flag:

- ``WORSE`` / ``better`` — the medians differ by more than the metric's
  bound from ``BENCHMARK.json``, in the metric's bad / good direction;
- ``unresolved`` — one side's quartile spread, as a share of its median,
  is wider than the bound, so the two sets cannot be told apart;
- blank — within the bound.

Per-layer metrics have no bound; they are listed with their ratios only.
Exit status is 1 when any end-to-end metric reads ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: Path) -> list[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def group(records) -> dict:
    """``{(workload, kind): {metric: [values]}}``."""
    grouped: dict = defaultdict(lambda: defaultdict(list))
    for record in records:
        detail = record["detail"]
        kind = "traced" if detail.get("trace") else "timed"
        for name, metric in record["result"]["metrics"].items():
            grouped[(detail["workload"], kind)][name].append(float(metric["value"]))
    return grouped


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, middle, middle
    first, _, third = statistics.quantiles(values, n=4)
    return middle, first, third


def cell(values: list[float]) -> str:
    middle, first, third = summary(values)
    return f"{middle:.5g} [{first:.5g}, {third:.5g}]"


def spread(values: list[float]) -> float:
    middle, first, third = summary(values)
    return (third - first) / abs(middle) if middle else float("inf")


def flag(metric: dict | None, old: list[float], new: list[float]) -> str:
    if metric is None or "bound" not in metric:
        return ""
    bound = metric["bound"]
    if spread(old) > bound or spread(new) > bound:
        return "unresolved"
    old_median, new_median = summary(old)[0], summary(new)[0]
    change = (new_median - old_median) / abs(old_median)
    worse = change > bound if metric["better"] == "lower" else change < -bound
    better = change < -bound if metric["better"] == "lower" else change > bound
    return "WORSE" if worse else "better" if better else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads(args.benchmark.read_text()) if args.benchmark.is_file() else {}
    metrics = {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    old, new = group(load_records(args.old)), group(load_records(args.new))

    regressions = 0
    for key in sorted(set(old) & set(new)):
        workload, kind = key
        print(f"\n{workload} ({kind}; {len(next(iter(old[key].values())))} old run(s), "
              f"{len(next(iter(new[key].values())))} new run(s))")
        print(f"  {'metric':30} {'old median [q1, q3]':36} {'new median [q1, q3]':36} "
              f"{'new/old':>8}  flag")
        for name in sorted(set(old[key]) & set(new[key])):
            before, after = old[key][name], new[key][name]
            ratio = summary(after)[0] / summary(before)[0] if summary(before)[0] else float("nan")
            mark = flag(metrics.get(name), before, after)
            regressions += mark == "WORSE"
            print(f"  {name:30} {cell(before):36} {cell(after):36} {ratio:>7.3f}x  {mark}")
        print("  (ratio base: the old median of each metric)")
    missing = sorted(set(old) ^ set(new))
    if missing:
        print(f"\nonly on one side: {missing}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
