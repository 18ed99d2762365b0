"""Model-driven vs threshold elastic policies on the bursty-analytics grid.

Regenerates the headline comparison of the model-driven layer: the same
bursty CFD pipeline and static core grants as ``bench_elastic.py``, but the
contest is now between the two *elastic* decision layers — the PR 3
threshold (bang-bang) :class:`~repro.elastic.ElasticPolicy` and the
predictive :class:`~repro.elastic.ModelDrivenPolicy`, which calibrates the
:class:`~repro.perfmodel.pipeline.PipelinePerfModel` online and approaches
its optimal split through a PID smoother with a hysteresis dead band.  What
to look for in the output:

* the model-driven runs match or beat every threshold makespan on the grid;
* they do it with a fraction of the rebalance events — the dead band and
  the damped approach remove the threshold controller's oscillation around
  balance (compare the event counts, grant by grant);
* the model runs' makespans barely depend on the starting grant: the
  controller converges to the model's split from any initial condition.
"""

from __future__ import annotations

from conftest import bench_steps, bench_workers

from repro.bench import format_table
from repro.bench.experiments import model_vs_threshold_spec
from repro.sweep import run_labelled


def run_model_vs_threshold(steps: int):
    """Run the threshold-vs-model grid through the sweep engine."""
    return run_labelled(model_vs_threshold_spec(steps=steps), workers=bench_workers())


def test_model_vs_threshold_bursty_analytics(benchmark, report):
    steps = bench_steps(24)
    results = benchmark.pedantic(
        run_model_vs_threshold, args=(steps,), rounds=1, iterations=1
    )

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
                f"Model-driven vs threshold elastic policies ({steps} steps): "
                "bursty CFD analytics on Bridges"
            ),
        )
    )

    threshold = {k: v for k, v in results.items() if k.startswith("threshold/")}
    model = {k: v for k, v in results.items() if k.startswith("model/")}
    best_threshold = min(r.end_to_end_time for r in threshold.values())
    best_model = min(r.end_to_end_time for r in model.values())
    assert best_model <= best_threshold
    assert sum(len(r.rebalances) for r in model.values()) < sum(
        len(r.rebalances) for r in threshold.values()
    )
