"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/verdict.py PARENT.jsonl CHANGE.jsonl

Each file holds the last output line of ``perfbench/run.py`` for one
workload, one line per run, with the same seeds in both files.  Metrics,
directions and bounds come from ``BENCHMARK.json``.  Per metric the
verdict is:

* ``changed`` -- a ``sim_*`` metric differs at all.  Simulated quantities
  are deterministic for a seed, so a change that only speeds up the
  simulator must leave them equal.
* ``better`` -- every change invocation reads better than every parent one.
* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median, the wider of the two sides) exceeds the bound, so a regression
  of that size could not be seen.
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound.
* ``pass`` -- none of the above.

Exit status: 1 if any metric is ``regression`` or ``changed``, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING = ("regression", "changed")


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    exact: bool = False,
) -> str:
    """One metric's verdict (see the module docstring)."""
    if exact:
        return "changed" if sorted(parent) != sorted(change) else "pass"
    sign = 1.0 if better == "higher" else -1.0
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "better"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    base = statistics.median(parent)
    worse = sign * (base - statistics.median(change)) / abs(base)
    return "regression" if worse > bound else "pass"


def compare(
    parent: List[dict], change: List[dict], metrics: List[dict]
) -> Dict[str, str]:
    """Verdict per end-to-end metric for two lists of run.py results."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        out[name] = verdict(
            [r["metrics"][name]["value"] for r in parent],
            [r["metrics"][name]["value"] for r in change],
            metric["better"],
            metric["bound"],
            exact=name.startswith("sim_"),
        )
    return out


def load_results(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_results(argv[1]), load_results(argv[2])
    verdicts = compare(parent, change, metrics)
    for metric in metrics:
        name = metric["name"]
        p = statistics.median(r["metrics"][name]["value"] for r in parent)
        c = statistics.median(r["metrics"][name]["value"] for r in change)
        print(f"{name:22} {p:14.6g} -> {c:14.6g} {metric['unit']:6} "
              f"bound {metric['bound']:.0%}  {verdicts[name]}")
    failed_runs = sum(r["failed"] for r in change) - sum(r["failed"] for r in parent)
    if failed_runs > 0:
        print(f"change has {failed_runs} more failed runs than parent")
        return 1
    return 1 if any(v in FAILING for v in verdicts.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
