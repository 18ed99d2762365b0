"""Fault injection under checkpoint/restart: the two fault-tolerance figures.

Regenerates the fault layer's evaluation on the bursty-analytics pipeline.
Every scenario replays the *same* seeded :class:`~repro.faults.plan.FaultPlan`
(two simulation-node crashes plus straggler / link-degradation /
transport-restart windows), so the checkpoint-interval and static-vs-elastic
comparisons differ only in how the pipeline absorbs identical faults.  The
two figures:

* **time-to-recover vs checkpoint interval** — a crashed rank recomputes the
  steps lost since its last checkpoint, so the per-crash recovery time
  (``recover.time - inject.time`` on the fault timeline) grows with the
  interval; frequent checkpoints pin it near the plan's fixed respawn cost;
* **elastic vs static makespan under faults** — the elastic controller
  reroutes cores around degraded nodes and refills crashed assist ranks, so
  every elastic run beats its static twin on the same fault schedule.
"""

from __future__ import annotations

from conftest import bench_steps, bench_workers

from repro.bench import format_table
from repro.bench.experiments import fault_recovery_spec
from repro.sweep import run_labelled


def run_faults(steps: int):
    return run_labelled(fault_recovery_spec(steps=steps), workers=bench_workers())


def crash_recovery_times(result):
    """Per-crash recovery durations from one run's fault timeline.

    Crash inject/recover events pair up by (node, rank); the injector emits
    them in time order, so matching each recover to the oldest open inject
    of the same victim is exact.
    """
    open_crashes = {}
    durations = []
    for event in result.faults:
        if event.kind != "node_crash":
            continue
        victim = (event.detail.get("node"), event.detail.get("rank"))
        if event.action == "inject":
            open_crashes.setdefault(victim, []).append(event.time)
        else:
            durations.append(event.time - open_crashes[victim].pop(0))
    return durations


def test_time_to_recover_vs_checkpoint_interval(benchmark, report):
    steps = bench_steps(24)
    results = benchmark.pedantic(run_faults, args=(steps,), rounds=1, iterations=1)

    recovery = {}
    rows = []
    for label in sorted(results, key=lambda lab: int(lab.rsplit("-", 1)[1])):
        if not label.startswith("static/"):
            continue
        interval = int(label.rsplit("-", 1)[1])
        durations = crash_recovery_times(results[label])
        mean = sum(durations) / len(durations)
        recovery[interval] = mean
        rows.append([interval, len(durations), round(mean, 3), round(max(durations), 3)])
    report(
        format_table(
            ["checkpoint interval (steps)", "crashes", "mean recover (s)", "max recover (s)"],
            rows,
            title=(
                f"Time to recover vs checkpoint interval ({steps} steps): "
                "identical seeded crash schedule"
            ),
        )
    )

    # Losing at most `interval` steps per crash makes recovery time
    # non-decreasing in the interval, and strictly worse at the largest
    # interval than at per-step checkpointing.
    intervals = sorted(recovery)
    for small, large in zip(intervals, intervals[1:]):
        assert recovery[small] <= recovery[large]
    assert recovery[intervals[0]] < recovery[intervals[-1]]
    for results_of in results.values():
        assert not results_of.failed


def test_elastic_vs_static_under_faults(benchmark, report):
    steps = bench_steps(24)
    results = benchmark.pedantic(run_faults, args=(steps,), rounds=1, iterations=1)

    rows = []
    for label, result in sorted(results.items(), key=lambda kv: kv[1].end_to_end_time):
        rows.append(
            [
                label,
                result.end_to_end_time,
                len(result.faults),
                len(result.rebalances),
                "FAILED" if result.failed else "",
            ]
        )
    report(
        format_table(
            ["scenario", "end-to-end (s)", "fault events", "rebalances", "status"],
            rows,
            title=(
                f"Elastic vs static under faults ({steps} steps): same seeded "
                "fault plan for every scenario"
            ),
        )
    )

    # Every scenario sees the identical fault schedule, so the timelines
    # must agree in length; the elastic controller's rerouting then beats
    # the static split crash for crash.
    timeline_lengths = {len(r.faults) for r in results.values()}
    assert len(timeline_lengths) == 1
    best_static = min(
        r.end_to_end_time for label, r in results.items() if label.startswith("static/")
    )
    best_elastic = min(
        r.end_to_end_time for label, r in results.items() if label.startswith("elastic/")
    )
    assert best_elastic < best_static
