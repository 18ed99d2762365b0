"""Figure 12: performance-model validation in the No-Preserve mode.

Three synthetic applications — O(n), O(n log n), O(n^{3/2}) — coupled to a
standard-variance analysis through Zipper on Bridges (1,568 simulation cores +
784 analysis cores represented), with 1 MB and 8 MB blocks.  The paper's
claims to check: as the producer's time complexity increases, the dominant
stage switches from data transfer to simulation, and the measured end-to-end
time always stays close to ``max(T_comp, T_transfer, T_analysis)`` — the
analytical model of Section 4.4.
"""

from __future__ import annotations

from conftest import (
    bench_data_mib,
    bench_workers,
    model_error,
    model_estimate,
    pipeline_model_error,
)

from repro.bench import format_table
from repro.bench.experiments import figure12_spec
from repro.sweep import run_labelled

MiB = 1024 * 1024


def run_figure12(data_per_rank: int):
    spec = figure12_spec(data_per_rank=data_per_rank)
    results = run_labelled(spec, workers=bench_workers())
    return {case.label: (case.config, results[case.label]) for case in spec.cases()}


def test_figure12_no_preserve_breakdown(benchmark, report):
    data_per_rank = bench_data_mib() * MiB
    results = benchmark.pedantic(run_figure12, args=(data_per_rank,), rounds=1, iterations=1)

    rows = []
    errors = {}
    for label, (cfg, result) in results.items():
        errors[label] = model_error(cfg, result)
        rows.append(
            [
                label,
                result.breakdown.simulation,
                result.breakdown.transfer,
                result.breakdown.analysis,
                result.end_to_end_time,
                model_estimate(cfg, result).time_to_solution(),
                errors[label],
                result.breakdown.dominant(),
            ]
        )
    report(
        format_table(
            ["config", "sim (s)", "transfer (s)", "analysis (s)", "end-to-end (s)", "model (s)", "model rel. error", "dominant"],
            rows,
            title=f"Figure 12 (No Preserve, {data_per_rank // MiB} MiB/rank): time breakdown per stage",
        )
    )

    # The Section 4.4 model predicts the measured end-to-end time.
    worst = max(errors, key=lambda label: abs(errors[label]))
    assert abs(errors[worst]) <= 0.15, (worst, errors[worst])
    # The a-priori PipelinePerfModel fit, gated at today's worst error.
    fit = pipeline_model_error(results.values())
    report(f"Figure 12 PipelinePerfModel worst relative error: {fit:.3f}")
    assert fit <= 0.43, fit
    # Dominant-stage switch: O(n) is transfer-bound, O(n^1.5) is simulation-bound.
    by_label = {label: res for label, (cfg, res) in results.items()}
    assert by_label["O(n)/1MB"].breakdown.dominant() == "transfer"
    assert by_label["O(n^1.5)/1MB"].breakdown.dominant() == "simulation"
    # The end-to-end time stays close to the largest stage (within 35%).
    for label, (cfg, result) in results.items():
        largest = max(
            result.breakdown.simulation + result.breakdown.stall,
            result.breakdown.transfer,
            result.breakdown.analysis,
        )
        assert result.end_to_end_time <= largest * 1.35 + 1.0
