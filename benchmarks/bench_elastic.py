"""Elastic vs static core splits on the bursty-analytics pipeline.

Regenerates the elastic layer's headline comparison: a CFD simulation coupled
to an analysis whose cost spikes periodically (in-situ rendering /
checkpoint-analysis pattern).  For every static core grant the sweep runs the
fixed split and the same split with the elastic controller enabled.  What to
look for in the output:

* among the static splits there is an interior optimum — grants that serve
  the bursts starve the simulation between them, and vice versa;
* every elastic run at least matches its static twin, and the best elastic
  run beats the *best* static grant (the optimal split is time-varying);
* the rebalance counts show the controller shifting cores towards the
  analysis during bursts and back afterwards.
"""

from __future__ import annotations

from conftest import bench_steps, bench_workers

from repro.bench import format_table
from repro.bench.experiments import elastic_vs_static_spec
from repro.sweep import run_labelled


def run_elastic(steps: int):
    return run_labelled(elastic_vs_static_spec(steps=steps), workers=bench_workers())


def test_elastic_vs_static_bursty_analytics(benchmark, report):
    steps = bench_steps(24)
    results = benchmark.pedantic(run_elastic, args=(steps,), rounds=1, iterations=1)

    rows = []
    for label, result in sorted(results.items(), key=lambda kv: kv[1].end_to_end_time):
        rows.append(
            [
                label,
                result.end_to_end_time,
                len(result.rebalances),
                "FAILED" if result.failed else "",
            ]
        )
    report(
        format_table(
            ["scenario", "end-to-end (s)", "rebalances", "status"],
            rows,
            title=(
                f"Elastic vs static core splits ({steps} steps): bursty CFD "
                "analytics on Bridges"
            ),
        )
    )

    best_static = min(
        r.end_to_end_time for label, r in results.items() if label.startswith("static/")
    )
    best_elastic = min(
        r.end_to_end_time for label, r in results.items() if label.startswith("elastic/")
    )
    assert best_elastic < best_static
