"""Time the ``figures`` grids and the elastic half of ``control`` on older trees.

    python3 perf/history/backfill.py \\
        --tree 92684cb=/path/a/src --tree 86b5248=/path/b/src --tree 0cb93a7=/path/c/src

Each ``--tree`` names a commit and the ``src`` directory of a checkout of it
(``git archive <commit> src | tar -x -C <dir>`` makes one).  Every round
measures every tree once, in a fresh interpreter, alternating the order
between rounds so host drift hits every commit alike.  A measurement sets
up the benchmark's own workloads (warm-up: the first case of each grid) and
runs two timed passes of each.

Only grids that exist at every commit are timed: the ``figures`` workload,
and the elastic-vs-static and model-vs-threshold grids of ``control`` (the
fault and tenant grids are newer).  The JSON document written to standard
output records every pass, so the trail can be re-read.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))

from stats import summary  # noqa: E402
from workloads import Control, Figures  # noqa: E402

ROUNDS = 5
PASSES = 2


class ControlElastic(Control):
    """The ``control`` grids that predate fault injection and tenants."""

    name = "control_elastic"
    specs = Control.specs[:2]


def measure(src: str) -> dict:
    """One fresh-interpreter measurement of a tree (run as ``--child``)."""
    sys.path.insert(0, src)
    import repro.sweep.store as store

    if not hasattr(store, "VOLATILE_KEYS"):  # trees older than campaigns
        store.VOLATILE_KEYS = frozenset({"elapsed"})
    out = {}
    for cls in (Figures, ControlElastic):
        workload = cls(0, Path(tempfile.gettempdir()))  # serial workloads write no files
        workload.load()
        workload.expand()
        workload.warm()
        passes = [workload.run_pass().summary() for _ in range(PASSES)]
        out[cls.name] = {
            "cases": passes[0]["cases"],
            "walls": [p["wall"] for p in passes],
            "events": sorted({p["events"] for p in passes}),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], help="COMMIT=SRC_DIR")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child)))
        return 0

    trees = [tuple(spec.split("=", 1)) for spec in args.tree]
    walls = {commit: {} for commit, _src in trees}
    events = {commit: {} for commit, _src in trees}
    for round_ in range(ROUNDS):
        order = trees if round_ % 2 == 0 else list(reversed(trees))
        for commit, src in order:
            result = json.loads(
                subprocess.run(
                    [sys.executable, __file__, "--child", src],
                    check=True,
                    capture_output=True,
                    text=True,
                ).stdout
            )
            for name, entry in result.items():
                walls[commit].setdefault(name, []).extend(entry["walls"])
                events[commit].setdefault(name, set()).update(entry["events"])
    document = {
        "measured": time.strftime("%Y-%m-%d"),
        "host": f"{platform.machine()} {platform.system()}, Python {platform.python_version()}",
        "method": f"{ROUNDS} alternating rounds x {PASSES} passes per tree, serial in-process",
        "commits": [
            {
                "commit": commit,
                **{
                    name: {"wall_s": summary(values), "events": sorted(events[commit][name])}
                    for name, values in walls[commit].items()
                },
            }
            for commit, _src in trees
        ],
    }
    print(json.dumps(document, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
