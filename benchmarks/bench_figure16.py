"""Figure 16: CFD weak-scaling on Stampede2 (204 to 13,056 cores).

End-to-end time of the CFD workflow under MPI-IO, Flexpath, Decaf and Zipper,
compared to the simulation-only lower bound.  The paper's findings to check:

* Zipper stays almost equal to the simulation-only time at every scale;
* MPI-IO does not scale;
* Flexpath is far slower than everything else (socket path, many ranks/node);
* Decaf is the fastest baseline but crashes with an integer overflow at
  6,528+ cores for this workload (the bench records the failure, as the paper
  does, rather than a time).
"""

from __future__ import annotations

from conftest import bench_steps, bench_workers, pipeline_model_error

from repro.bench import format_table
from repro.bench.experiments import SCALABILITY_CORE_COUNTS, figure16_spec
from repro.sweep import run_labelled


def run_figure16(spec):
    return run_labelled(spec, workers=bench_workers())


def test_figure16_cfd_weak_scaling(benchmark, report):
    steps = bench_steps()
    spec = figure16_spec(steps=steps)
    results = benchmark.pedantic(run_figure16, args=(spec,), rounds=1, iterations=1)

    transports = ("mpiio", "flexpath", "decaf", "zipper", "none")
    rows = []
    for cores in SCALABILITY_CORE_COUNTS:
        row = [cores]
        for transport in transports:
            result = results[f"cfd/{cores}/{transport}"]
            row.append("FAIL" if result.failed else round(result.end_to_end_time, 1))
        rows.append(row)
    report(
        format_table(
            ["cores"] + [t if t != "none" else "simulation-only" for t in transports],
            rows,
            title=f"Figure 16: CFD weak scaling on Stampede2 ({steps} steps)",
        )
    )

    for cores in SCALABILITY_CORE_COUNTS:
        zipper = results[f"cfd/{cores}/zipper"]
        sim_only = results[f"cfd/{cores}/none"]
        # Zipper stays close to the simulation-only lower bound at every scale.
        assert zipper.end_to_end_time <= sim_only.end_to_end_time * 1.45
        # Zipper beats every baseline that completed.
        for transport in ("mpiio", "flexpath", "decaf"):
            baseline = results[f"cfd/{cores}/{transport}"]
            if not baseline.failed:
                assert zipper.end_to_end_time < baseline.end_to_end_time
    # Decaf hits its integer overflow at 6,528 and 13,056 cores (CFD counts).
    assert results["cfd/6528/decaf"].failed
    assert results["cfd/13056/decaf"].failed
    assert not results["cfd/3264/decaf"].failed
    # MPI-IO scales worse than Decaf/Zipper.
    assert (
        results["cfd/3264/mpiio"].end_to_end_time
        > results["cfd/3264/decaf"].end_to_end_time
    )
    # The a-priori PipelinePerfModel fit, gated at today's worst error.
    fit = pipeline_model_error((case.config, results[case.label]) for case in spec.cases())
    report(f"Figure 16 PipelinePerfModel worst relative error: {fit:.3f}")
    assert fit <= 0.28, fit
