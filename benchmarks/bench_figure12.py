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

from conftest import bench_data_mib, bench_workers

from repro.bench import format_table
from repro.bench.experiments import figure12_spec
from repro.perfmodel import PerformanceModel, StageTimes
from repro.sweep import run_labelled

MiB = 1024 * 1024


def run_figure12(data_per_rank: int):
    spec = figure12_spec(data_per_rank=data_per_rank)
    results = run_labelled(spec, workers=bench_workers())
    return {case.label: (case.config, results[case.label]) for case in spec.cases()}


def _model_estimate(cfg, result):
    """Analytical estimate fed with the per-block stage times measured in the run."""
    workload = cfg.workload
    blocks = workload.steps
    stage = StageTimes(
        compute=result.breakdown.simulation / blocks,
        transfer=result.breakdown.transfer / blocks,
        analysis=result.breakdown.analysis / max(1, blocks * cfg.sim_ranks // max(1, cfg.analysis_ranks)),
        store=result.breakdown.store / blocks,
    )
    model = PerformanceModel(
        P=cfg.sim_ranks,
        Q=cfg.analysis_ranks,
        total_data=workload.output_bytes_per_step * blocks * cfg.sim_ranks,
        block_size=cfg.effective_block_bytes,
        stage=StageTimes(
            compute=stage.compute * cfg.sim_ranks,
            transfer=stage.transfer * cfg.sim_ranks,
            analysis=stage.analysis * cfg.analysis_ranks,
            store=stage.store * cfg.sim_ranks,
        ),
        preserve=cfg.preserve,
    )
    return model


def test_figure12_no_preserve_breakdown(benchmark, report):
    data_per_rank = bench_data_mib() * MiB
    results = benchmark.pedantic(run_figure12, args=(data_per_rank,), rounds=1, iterations=1)

    rows = []
    for label, (cfg, result) in results.items():
        model = _model_estimate(cfg, result)
        rows.append(
            [
                label,
                result.breakdown.simulation,
                result.breakdown.transfer,
                result.breakdown.analysis,
                result.end_to_end_time,
                model.time_to_solution(),
                result.breakdown.dominant(),
            ]
        )
    report(
        format_table(
            ["config", "sim (s)", "transfer (s)", "analysis (s)", "end-to-end (s)", "model max-stage (s)", "dominant"],
            rows,
            title=f"Figure 12 (No Preserve, {data_per_rank // MiB} MiB/rank): time breakdown per stage",
        )
    )

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
