"""Figure 2 / Tables 1-2: CFD workflow end-to-end time under seven I/O transports.

Regenerates the Bridges experiment of Section 3: a lattice-Boltzmann CFD
simulation (256 simulation ranks, 128 analysis ranks, 16 MiB per rank per
step) coupled to the 4th-moment turbulence analysis through each of the seven
transport methods, compared against the simulation-only and analysis-only
reference bars.  The paper's headline observations to look for in the output:

* MPI-IO is the slowest and most variable method;
* native DataSpaces/DIMES beat their ADIOS-driven counterparts (by ~1.3x/1.5x
  in the paper);
* Decaf is the fastest baseline, followed by Flexpath;
* every baseline stays well above the simulation-only lower bound.
"""

from __future__ import annotations

from conftest import bench_steps, bench_workers

from repro.bench import format_table
from repro.bench.experiments import figure2_spec
from repro.sweep import run_labelled


def run_figure2(steps: int):
    return run_labelled(figure2_spec(steps=steps), workers=bench_workers())


def test_figure2_cfd_transport_comparison(benchmark, report):
    steps = bench_steps()
    results = benchmark.pedantic(run_figure2, args=(steps,), rounds=1, iterations=1)

    sim_only = results["none"].end_to_end_time
    rows = []
    for transport, result in sorted(results.items(), key=lambda kv: kv[1].end_to_end_time):
        rows.append(
            [
                transport,
                result.end_to_end_time,
                result.end_to_end_time / max(sim_only, 1e-9),
                result.breakdown.stall,
                "FAILED" if result.failed else "",
            ]
        )
    report(
        format_table(
            ["transport", "end-to-end (s)", "vs sim-only", "stall (s)", "status"],
            rows,
            title=(
                f"Figure 2 (scaled to {steps} steps): CFD workflow on Bridges, "
                "256 sim + 128 analysis ranks represented"
            ),
        )
    )

    # Shape assertions matching the paper's qualitative findings.
    assert results["zipper"].end_to_end_time <= min(
        results[t].end_to_end_time for t in results if t not in ("zipper", "none")
    )
    assert results["mpiio"].end_to_end_time == max(
        r.end_to_end_time for t, r in results.items() if t != "none"
    )
    assert results["decaf"].end_to_end_time < results["mpiio"].end_to_end_time
