"""Ablation benches for the design choices called out in DESIGN.md.

These go beyond the paper's own figures and quantify each Zipper design
decision in isolation:

* fine-grain block size (1–16 MB) — the granularity/overhead trade-off;
* the work-stealing high-water mark — when the file path starts helping;
* artificial per-step interlocking — what Zipper would lose if it kept the
  baselines' barrier-per-step structure (this approximates "Zipper minus its
  asynchrony").
"""

from __future__ import annotations

from conftest import bench_data_mib, bench_workers

from repro.apps.costs import MiB, cfd_workload, synthetic_workload
from repro.bench import format_table
from repro.cluster.presets import bridges
from repro.sweep import ParamGrid, run_labelled
from repro.workflow import WorkflowConfig, run_pipeline

BLOCK_SIZES = (1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB)
WATERMARKS = (4, 16, 32, 48, 63)


def run_blocksize_sweep(data_per_rank: int):
    grid = ParamGrid(
        WorkflowConfig(
            workload=cfd_workload(steps=15),
            cluster=bridges(),
            transport="zipper",
            total_cores=384,
            representative_sim_ranks=8,
            steps=15,
        ),
        axes=[("block_bytes", BLOCK_SIZES)],
        label=lambda p: f"block={p['block_bytes'] // MiB}MB",
    )
    results = run_labelled(grid, workers=bench_workers())
    return {block // MiB: results[f"block={block // MiB}MB"] for block in BLOCK_SIZES}


def test_ablation_block_size(benchmark, report):
    results = benchmark.pedantic(run_blocksize_sweep, args=(bench_data_mib() * MiB,), rounds=1, iterations=1)
    rows = [
        [f"{mb} MB", r.end_to_end_time, r.breakdown.transfer, r.breakdown.stall]
        for mb, r in results.items()
    ]
    report(
        format_table(
            ["block size", "end-to-end (s)", "transfer (s)", "stall (s)"],
            rows,
            title="Ablation: Zipper fine-grain block size (CFD, Bridges, 384 cores)",
        )
    )
    # All block sizes in the paper's 1-8 MB range stay within 25% of each other.
    times = [r.end_to_end_time for mb, r in results.items() if mb <= 8]
    assert max(times) <= min(times) * 1.25


def run_watermark_sweep(data_per_rank: int):
    grid = ParamGrid(
        WorkflowConfig(
            workload=synthetic_workload("O(n)", 1 * MiB, data_per_rank=data_per_rank),
            cluster=bridges(),
            transport="zipper",
            total_cores=588,
            representative_sim_ranks=8,
            producer_buffer_blocks=64,
        ),
        axes=[("high_water_mark", WATERMARKS)],
        label="hwm={high_water_mark}",
    )
    results = run_labelled(grid, workers=bench_workers())
    return {hwm: results[f"hwm={hwm}"] for hwm in WATERMARKS}


def test_ablation_high_water_mark(benchmark, report):
    results = benchmark.pedantic(run_watermark_sweep, args=(bench_data_mib() * MiB,), rounds=1, iterations=1)
    rows = [
        [hwm, r.end_to_end_time, 100 * r.steal_fraction, r.breakdown.stall]
        for hwm, r in results.items()
    ]
    report(
        format_table(
            ["high-water mark (blocks of 64)", "end-to-end (s)", "stolen (%)", "stall (s)"],
            rows,
            title="Ablation: work-stealing threshold for the transfer-bound O(n) producer",
        )
    )
    # A lower threshold steals more aggressively.
    assert results[4].steal_fraction >= results[63].steal_fraction


def run_interlock_comparison(steps: int = 15):
    """Zipper as designed vs Zipper forced into per-step lockstep (via DIMES-like window)."""
    base = WorkflowConfig(
        workload=cfd_workload(steps=steps),
        cluster=bridges(),
        transport="zipper",
        total_cores=384,
        representative_sim_ranks=8,
        steps=steps,
    )
    zipper = run_pipeline(base.to_pipeline())
    interlocked = run_pipeline(
        base.replace(transport="adios+dimes", label="interlocked").to_pipeline()
    )
    return zipper, interlocked


def test_ablation_interlock(benchmark, report):
    zipper, interlocked = benchmark.pedantic(run_interlock_comparison, rounds=1, iterations=1)
    report(
        format_table(
            ["variant", "end-to-end (s)", "stall (s)"],
            [
                ["zipper (no interlock)", zipper.end_to_end_time, zipper.breakdown.stall],
                ["per-step interlock (ADIOS/DIMES-style)", interlocked.end_to_end_time, interlocked.breakdown.stall],
            ],
            title="Ablation: removing per-step interlocks",
        )
    )
    assert zipper.end_to_end_time <= interlocked.end_to_end_time
