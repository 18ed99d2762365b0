"""Figure 14: effect of the concurrent message+file transfer optimisation.

Weak-scaling runs of the three synthetic applications on Bridges (84 to 2,352
cores represented), comparing the message-passing-only Zipper configuration
against the concurrent (work-stealing) configuration.  The paper's findings to
look for:

* for the fast O(n) producer the wall-clock (simulation + stall) drops by
  double-digit percentages because the writer thread steals ~half the blocks;
* for O(n log n) the optimisation only helps at larger scales, where the
  network becomes congested and the producer buffer actually fills;
* for the compute-bound O(n^{3/2}) producer there is nothing to steal, so the
  concurrent method falls back to message-passing-only (never worse).
"""

from __future__ import annotations

from conftest import bench_data_mib, bench_workers, pipeline_model_error

from repro.bench import format_table
from repro.bench.experiments import figure14_spec
from repro.sweep import run_labelled

MiB = 1024 * 1024

#: Trimmed core-count list so the default bench stays fast; set
#: REPRO_BENCH_DATA_MIB / edit here for the full sweep.
CORE_COUNTS = (84, 336, 2352)


def run_figure14(spec):
    return run_labelled(spec, workers=bench_workers())


def test_figure14_concurrent_transfer(benchmark, report):
    data_per_rank = bench_data_mib() * MiB
    spec = figure14_spec(data_per_rank=data_per_rank, core_counts=CORE_COUNTS)
    results = benchmark.pedantic(run_figure14, args=(spec,), rounds=1, iterations=1)

    rows = []
    for label, result in results.items():
        bd = result.breakdown
        rows.append(
            [
                label,
                bd.simulation,
                bd.stall,
                bd.simulation + bd.stall,
                bd.transfer,
                100.0 * result.steal_fraction,
            ]
        )
    report(
        format_table(
            ["config", "sim (s)", "stall (s)", "comp thread (s)", "sender thread (s)", "stolen (%)"],
            rows,
            title=f"Figure 14: message-passing-only vs concurrent transfer ({data_per_rank // MiB} MiB/rank)",
        )
    )

    def wallclock(label):
        bd = results[label].breakdown
        return bd.simulation + bd.stall

    for cores in CORE_COUNTS:
        # O(n): concurrent never slower, and strictly better once stalls exist.
        mpi_only = wallclock(f"O(n)/{cores}/mpi-only")
        concurrent = wallclock(f"O(n)/{cores}/concurrent")
        assert concurrent <= mpi_only * 1.02
        assert results[f"O(n)/{cores}/concurrent"].steal_fraction > 0.05
        # O(n^1.5): nothing to steal, the two methods coincide.
        assert results[f"O(n^1.5)/{cores}/concurrent"].steal_fraction < 0.05
        assert abs(
            wallclock(f"O(n^1.5)/{cores}/concurrent") - wallclock(f"O(n^1.5)/{cores}/mpi-only")
        ) <= 0.25 * wallclock(f"O(n^1.5)/{cores}/mpi-only") + 0.5
    # The a-priori PipelinePerfModel fit, gated at today's worst error.
    fit = pipeline_model_error((case.config, results[case.label]) for case in spec.cases())
    report(f"Figure 14 PipelinePerfModel worst relative error: {fit:.3f}")
    assert fit <= 0.43, fit
