"""Compare two result sets written by ``run.py --results``, or summarize one.

Usage (from the repository root):

    python3 perfbench/compare.py parent.jsonl            # spread of one set
    python3 perfbench/compare.py parent.jsonl change.jsonl

For every workload and end-to-end metric it prints each side's median and
quartiles over its runs, and the spread (quartile distance over the median).
With two sets, a change within the metric's bound from BENCHMARK.json reads
"within bound"; where either side's spread exceeds the bound the metric reads
"unresolved", unless every run of the second set is better than every run of
the first. Metrics a run prints that BENCHMARK.json does not bound, and the
per-layer metrics of traced runs, are listed without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy")


def load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def values(records: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    return [
        r["all_metrics"][metric]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["all_metrics"]
    ]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def spread(xs: list[float]) -> float:
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base: list[float], new: list[float], bound: float, higher_is_better: bool) -> str:
    sign = 1.0 if higher_is_better else -1.0
    b, n = quartiles(base)[1], quartiles(new)[1]
    change = sign * (n - b) / abs(b)  # positive means better
    if max(spread(base), spread(new)) > bound:
        if min(sign * x for x in new) > max(sign * x for x in base):
            return "better in every run"
        return "unresolved (spread above bound)"
    if change < -bound:
        return "WORSE than bound"
    if change > bound:
        return "better than bound"
    return "within bound"


def describe(xs: list[float]) -> str:
    q1, q2, q3 = quartiles(xs)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(xs)}"


def machines(records: list[dict]) -> set[tuple]:
    return {tuple(r.get("machine", {}).get(k) for k in MACHINE_KEYS) for r in records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = load(args.base)
    new = load(args.new) if args.new else None

    for label, records in (("base", base), ("new", new or [])):
        for machine in sorted(machines(records), key=str):
            print(f"{label} machine: " + ", ".join(f"{k}={v}" for k, v in zip(MACHINE_KEYS, machine)))
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        if records:
            print(f"{label}: {len(records)} runs, {failed} of {attempted} CLI calls failed")
    if new is not None and machines(base) != machines(new):
        print("warning: the two sets ran on different machines or versions; do not compare them")

    workloads = sorted({r["workload"] for r in base + (new or [])})
    for wl in workloads:
        rows = []
        for m in declared["end_to_end"]:
            xs = values(base, wl, 0, m["name"])
            if not xs:
                continue
            head = f"  {m['name']} ({m['unit']}, {m['better']} is better, bound {m['bound']:.0%})"
            if new is None:
                s = spread(xs)
                state = "steady" if s <= m["bound"] / 3 else "within bound" if s <= m["bound"] else "TOO NOISY"
                rows.append(f"{head}: {describe(xs)} spread {s:.1%} {state}")
                continue
            ys = values(new, wl, 0, m["name"])
            if not ys:
                rows.append(f"{head}: missing in the new set")
                continue
            rows.append(f"{head}\n    base {describe(xs)}\n    new  {describe(ys)}\n    "
                        f"{verdict(xs, ys, m['bound'], m['better'] == 'higher')}")
        declared_names = {m["name"] for m in declared["end_to_end"]}
        extra = sorted({k for r in base if r["workload"] == wl and r["trace"] == 0 for k in r["all_metrics"]})
        for name in extra:
            if name in declared_names:
                continue
            xs, ys = values(base, wl, 0, name), values(new or [], wl, 0, name)
            if new is None:
                s = spread(xs)
                rows.append(f"  {name} (no bound): {describe(xs)} spread " + (f"{s:.1%}" if s < float("inf") else "n/a"))
            elif ys:
                rows.append(f"  {name} (no bound)\n    base {describe(xs)}\n    new  {describe(ys)}")
        if rows:
            print(f"\n== {wl}: end-to-end (untraced runs)")
            print("\n".join(rows))
        rows = []
        for m in declared["per_layer"]:
            xs = values(base, wl, 1, m["name"])
            ys = values(new, wl, 1, m["name"]) if new is not None else []
            if xs and new is None:
                rows.append(f"  {m['name']} ({m['unit']}): {describe(xs)}")
            elif xs and ys:
                b, n = quartiles(xs)[1], quartiles(ys)[1]
                ratio = f"x{n / b:.3f}" if b else "base is 0"
                rows.append(f"  {m['name']} ({m['unit']}): {b:.6g} -> {n:.6g} {ratio}")
        if rows:
            print(f"\n== {wl}: per layer (traced runs, medians; no bound)")
            print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
