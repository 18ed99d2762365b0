"""Figures 3 and 11: overlap of stages in the non-integrated vs integrated design.

Uses the analytical pipeline model to regenerate the schedule of Figure 11:
with four stages (Compute, Output, Input, Analysis) over ``n`` data blocks,
the non-integrated design takes ``n * sum(stage times)`` while the integrated
(pipelined) design takes ``sum(stage times) + (n - 1) * max(stage times)``.

The second benchmark makes the same point with the *simulated* runtime rather
than the closed-form model: a three-stage sim → analysis → viz
:class:`~repro.workflow.pipeline.PipelineSpec` is executed end-to-end through
the discrete-event cluster simulator, and the measured makespan is compared
against the non-integrated upper bound (stages running back to back).
"""

from __future__ import annotations

from repro.bench import format_table
from repro.bench.experiments import pipeline_chain
from repro.perfmodel import pipeline_makespan, pipeline_schedule, sequential_makespan
from repro.workflow import run_pipeline

STAGES = ("compute", "output", "input", "analysis")
STAGE_TIMES = (1.0, 0.6, 0.4, 0.8)


def run_pipeline_model(num_blocks: int):
    schedule = pipeline_schedule(num_blocks, STAGE_TIMES, STAGES)
    return {
        "sequential": sequential_makespan(num_blocks, STAGE_TIMES),
        "pipelined": pipeline_makespan(num_blocks, STAGE_TIMES),
        "schedule": schedule,
    }


def test_figure11_pipeline_overlap(benchmark, report):
    num_blocks = 64
    out = benchmark.pedantic(run_pipeline_model, args=(num_blocks,), rounds=1, iterations=1)

    rows = [
        ["non-integrated (upper)", out["sequential"], 1.0],
        [
            "integrated / pipelined (lower)",
            out["pipelined"],
            out["sequential"] / out["pipelined"],
        ],
    ]
    report(
        format_table(
            ["design", f"makespan for {num_blocks} blocks (s)", "speedup"],
            rows,
            title="Figure 11: non-integrated vs integrated design "
            f"(per-block stage times {dict(zip(STAGES, STAGE_TIMES))})",
        )
    )

    # The integrated design approaches one-slowest-stage-per-block.
    assert out["pipelined"] < out["sequential"]
    assert abs(out["pipelined"] - (sum(STAGE_TIMES) + (num_blocks - 1) * max(STAGE_TIMES))) < 1e-9
    # Several blocks are in flight at once (Figure 11's caption): block 0's
    # analysis is still running when block 2's compute starts.
    schedule = out["schedule"]
    assert schedule[2]["compute"][0] < schedule[0]["analysis"][1]


def test_figure11_simulated_pipeline_overlap(benchmark, report):
    """The simulated (not just analytic) three-stage chain overlaps its stages."""
    pipeline = pipeline_chain(total_cores=384, steps=6, trace=False)

    result = benchmark.pedantic(run_pipeline, args=(pipeline,), rounds=1, iterations=1)
    assert not result.failed

    per_stage = {
        name: b.simulation + b.analysis for name, b in result.stage_breakdowns.items()
    }
    sequential_bound = sum(per_stage.values())
    rows = [
        [name, busy, 100.0 * busy / result.end_to_end_time]
        for name, busy in per_stage.items()
    ]
    rows.append(["non-integrated (sum of stages)", sequential_bound, ""])
    rows.append(["integrated / simulated makespan", result.end_to_end_time, ""])
    report(
        format_table(
            ["stage", "busy time (s)", "% of makespan"],
            rows,
            title="Figure 11 (simulated): sim -> analysis -> viz chain through "
            f"{' + '.join(sorted(set(result.coupling_transports.values())))}",
        )
    )

    # Pipelining: the measured end-to-end time beats running the three stage
    # kernels back to back, yet cannot beat the slowest stage alone.
    assert result.end_to_end_time < sequential_bound
    assert result.end_to_end_time >= max(per_stage.values())
    # Every coupling moved real data through its own transport channel.
    for name, stats in result.coupling_stats.items():
        moved = stats.get("bytes_network", 0.0) + stats.get("bytes_file", 0.0)
        assert moved > 0, name
