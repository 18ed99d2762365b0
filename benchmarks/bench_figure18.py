"""Figure 18: LAMMPS weak-scaling on Stampede2 (204 to 13,056 cores).

End-to-end time of the Lennard-Jones melt + MSD workflow under MPI-IO,
Flexpath, Decaf and Zipper.  The paper's findings to check:

* Zipper again tracks the simulation-only lower bound;
* Decaf runs at all scales (the LAMMPS element counts stay below the 32-bit
  limit) but degrades past 1,632 cores, ending up ~2.2x slower than Zipper at
  13,056 cores — the paper's headline result;
* Flexpath is several times slower than Zipper throughout.
"""

from __future__ import annotations

from conftest import bench_steps, bench_workers, pipeline_model_error

from repro.bench import format_table
from repro.bench.experiments import SCALABILITY_CORE_COUNTS, figure18_spec
from repro.sweep import run_labelled


def run_figure18(spec):
    return run_labelled(spec, workers=bench_workers())


def test_figure18_lammps_weak_scaling(benchmark, report):
    steps = bench_steps()
    spec = figure18_spec(steps=steps)
    results = benchmark.pedantic(run_figure18, args=(spec,), rounds=1, iterations=1)

    transports = ("mpiio", "flexpath", "decaf", "zipper", "none")
    rows = []
    for cores in SCALABILITY_CORE_COUNTS:
        row = [cores]
        for transport in transports:
            result = results[f"lammps/{cores}/{transport}"]
            row.append("FAIL" if result.failed else round(result.end_to_end_time, 1))
        zipper = results[f"lammps/{cores}/zipper"].end_to_end_time
        decaf = results[f"lammps/{cores}/decaf"]
        row.append(round(decaf.end_to_end_time / zipper, 2) if not decaf.failed else "-")
        rows.append(row)
    report(
        format_table(
            ["cores"] + [t if t != "none" else "simulation-only" for t in transports] + ["decaf/zipper"],
            rows,
            title=f"Figure 18: LAMMPS weak scaling on Stampede2 ({steps} steps)",
        )
    )

    for cores in SCALABILITY_CORE_COUNTS:
        zipper = results[f"lammps/{cores}/zipper"]
        decaf = results[f"lammps/{cores}/decaf"]
        sim_only = results[f"lammps/{cores}/none"]
        assert not decaf.failed  # LAMMPS stays under the integer limit
        assert zipper.end_to_end_time <= sim_only.end_to_end_time * 1.25
        assert zipper.end_to_end_time < decaf.end_to_end_time
        assert zipper.end_to_end_time < results[f"lammps/{cores}/flexpath"].end_to_end_time
    # Decaf's gap to Zipper widens with scale (the paper reports up to 2.2x).
    small_gap = (
        results["lammps/204/decaf"].end_to_end_time
        / results["lammps/204/zipper"].end_to_end_time
    )
    large_gap = (
        results["lammps/13056/decaf"].end_to_end_time
        / results["lammps/13056/zipper"].end_to_end_time
    )
    assert large_gap > small_gap
    assert large_gap > 1.5
    # The a-priori PipelinePerfModel fit, gated at today's worst error.
    fit = pipeline_model_error((case.config, results[case.label]) for case in spec.cases())
    report(f"Figure 18 PipelinePerfModel worst relative error: {fit:.3f}")
    assert fit <= 0.03, fit
