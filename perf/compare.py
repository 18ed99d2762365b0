"""Judge a change against its parent from benchmark runs of both.

    python3 perf/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --out FILE`` appends, one per workload
run.  Runs are paired in file order within each workload, so alternate the
two commits while collecting (parent, change, change, parent, ...).  The
change is judged on the median of its per-pair ratios to the parent, which
cancels host drift that hits both runs of a pair.  A pair is *won* or
*lost* when the change reads better or worse (ties count for neither).
For every workload and end-to-end metric the verdict is, in this order:

* ``regression`` - the median pair is worse by more than the metric's
  bound in ``BENCHMARK.json``; or, with at least 10 pairs, the change
  loses at least 90% of them and the median pair is worse by more than
  the parent's spread (a resolved slowdown, whatever its size);
* ``gain`` - at least 10 pairs, the change wins at least 90% of them, and
  the median pair is better by more than the parent's spread;
* ``unresolved`` - either side's spread is wider than the bound, unless
  every change run beats every parent run;
* ``flat`` - otherwise.

A spread is the distance between the quartiles as a share of the median.
Per-layer metrics of traced runs get the same verdicts with no bound; they
explain a result and never fail the comparison.  Runs of the same workload
and seed must have equal payload digests on both sides.  The exit code is
1 on an end-to-end regression or a digest mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import iqr_frac, median  # noqa: E402

MIN_PAIRS = 10
WIN_FRACTION = 0.9


def load_runs(path: Path) -> List[Dict[str, object]]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """Apply the decision rule to one metric's paired samples."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    # Per pair: how much worse the change reads, as a share of the parent.
    worse = median([sign * (a - b) / abs(a) if a else 0.0 for a, b in pairs])
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    resolved = len(pairs) >= MIN_PAIRS
    noise = iqr_frac(parent)
    all_better = min(sign * b for b in change) > max(sign * a for a in parent)
    spread = max(noise, iqr_frac(change))
    if worse > bound or (resolved and losses >= WIN_FRACTION * len(pairs) and worse > noise):
        result = "regression"
    elif resolved and wins >= WIN_FRACTION * len(pairs) and -worse > noise:
        result = "gain"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "flat"
    return {
        "verdict": result,
        "parent": median(parent),
        "change": median(change),
        "worse_frac": worse,
        "spread": spread,
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
    }


def digest_problems(parent: List[Dict], change: List[Dict]) -> List[str]:
    seen: Dict[tuple, str] = {}
    for run in parent:
        seen[(run["workload"], run["seed"])] = run["digest"]
    return [
        f"{run['workload']} seed {run['seed']}: digest differs"
        for run in change
        if seen.get((run["workload"], run["seed"]), run["digest"]) != run["digest"]
    ]


def by_workload(runs: List[Dict], trace: int) -> Dict[str, List[Dict]]:
    grouped: Dict[str, List[Dict]] = defaultdict(list)
    for run in runs:
        if run["trace"] == trace:
            grouped[run["workload"]].append(run)
    return grouped


def values(runs: List[Dict], metric: str) -> List[float]:
    return [float(run["metrics"][metric]["value"]) for run in runs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load_runs(args.parent), load_runs(args.change)
    problems = digest_problems(parent, change)

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        a_runs, b_runs = by_workload(parent, trace), by_workload(change, trace)
        workloads = sorted(set(a_runs) & set(b_runs))
        if not workloads:
            continue
        print(f"\n{'workload':13s} {section:30s} {'parent':>11s} {'change':>11s} "
              f"{'worse':>7s} {'spread':>7s} {'won/lost/n':>10s}  verdict")
        for workload in workloads:
            for spec in bench[section]:
                name = spec["name"]
                a, b = values(a_runs[workload], name), values(b_runs[workload], name)
                if not any(a + b):
                    continue  # a layer this workload never exercises
                row = verdict(a, b, spec["better"], spec.get("bound", math.inf))
                print(
                    f"{workload:13s} {name:30s} {row['parent']:11.5g} {row['change']:11.5g} "
                    f"{row['worse_frac']:+7.1%} {row['spread']:7.1%} "
                    f"{row['wins']:>3d}/{row['losses']:>2d}/{row['pairs']:<3d}  {row['verdict']}"
                )
                if trace == 0 and row["verdict"] == "regression":
                    problems.append(f"{workload} {name} regressed by {row['worse_frac']:.1%}")

    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
