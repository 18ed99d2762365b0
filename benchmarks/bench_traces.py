"""Trace figures 4, 5, 6, 17 and 19: where each transport loses time.

The paper uses TAU / Intel Trace Analyzer snapshots to expose each baseline's
inefficiency.  These benches regenerate the same comparisons from the
simulator's tracer:

* Figure 4 — native DIMES: a lengthy lock period during data insertion.
* Figure 5 — Flexpath: the simulation's ``MPI_Sendrecv`` time inflates once
  the event-channel traffic shares the fabric.
* Figure 6 — Decaf: the ``PUT``/``MPI_Waitall`` stalls the simulation and
  inflates ``MPI_Sendrecv``.
* Figure 17 — Zipper vs Decaf on 204 cores: Zipper fits ~3 CFD steps into the
  window where Decaf fits ~2.
* Figure 19 — Zipper vs Decaf on 13,056 cores (LAMMPS): Zipper fits roughly
  twice as many steps into the window.
"""

from __future__ import annotations

from repro.bench import format_table
from repro.bench.experiments import trace_config
from repro.trace import Timeline, compare_traces, render_ascii, summarize_categories
from repro.workflow import run_pipeline


def _traced_run(transport: str, workload: str = "cfd", cores: int = 204, steps: int = 10):
    config = trace_config(transport, workload, total_cores=cores, steps=steps)
    return run_pipeline(config.to_pipeline())


def run_baseline_traces():
    return {
        "none": _traced_run("none"),
        "dimes": _traced_run("dimes"),
        "flexpath": _traced_run("flexpath"),
        "decaf": _traced_run("decaf"),
        "zipper": _traced_run("zipper"),
    }


def test_figures_4_5_6_baseline_traces(benchmark, report):
    results = benchmark.pedantic(run_baseline_traces, rounds=1, iterations=1)

    rows = []
    for name, result in results.items():
        cats = summarize_categories(result.tracer, rank=0)
        rows.append(
            [
                name,
                round(cats.get("sendrecv", 0.0), 3),
                round(cats.get("lock", 0.0) + cats.get("stall", 0.0), 3),
                round(cats.get("waitall", 0.0), 3),
                round(cats.get("put", 0.0), 3),
                round(result.end_to_end_time, 2),
            ]
        )
    report(
        format_table(
            ["transport", "MPI_Sendrecv (s)", "lock+stall (s)", "MPI_Waitall (s)", "PUT (s)", "end-to-end (s)"],
            rows,
            title="Figures 4/5/6: per-rank (rank 0) category times from the traces",
        )
    )

    sendrecv_alone = summarize_categories(results["none"].tracer, rank=0).get("sendrecv", 0.0)
    sendrecv_flexpath = summarize_categories(results["flexpath"].tracer, rank=0).get("sendrecv", 0.0)
    sendrecv_decaf = summarize_categories(results["decaf"].tracer, rank=0).get("sendrecv", 0.0)
    # Figure 5/6: staging traffic inflates the simulation's MPI_Sendrecv time.
    assert sendrecv_flexpath >= sendrecv_alone
    assert sendrecv_decaf >= sendrecv_alone
    # Figure 6: Decaf's PUT is dominated by MPI_Waitall stalls.
    assert summarize_categories(results["decaf"].tracer, rank=0).get("waitall", 0.0) > 0
    # Figure 4: DIMES shows lock/stall periods that Zipper does not have.
    dimes_lock = summarize_categories(results["dimes"].tracer, rank=0).get("lock", 0.0)
    zipper_lock = summarize_categories(results["zipper"].tracer, rank=0).get("lock", 0.0)
    assert dimes_lock >= zipper_lock


def run_trace_comparisons():
    out = {}
    out["fig17"] = (
        _traced_run("zipper", "cfd", 204, steps=10),
        _traced_run("decaf", "cfd", 204, steps=10),
    )
    out["fig19"] = (
        _traced_run("zipper", "lammps", 13056, steps=8),
        _traced_run("decaf", "lammps", 13056, steps=8),
    )
    return out


def test_figures_17_19_zipper_vs_decaf_traces(benchmark, report):
    out = benchmark.pedantic(run_trace_comparisons, rounds=1, iterations=1)

    lines = []
    for name, window in (("fig17", 1.3), ("fig19", 9.1)):
        zipper, decaf = out[name]
        cmp = compare_traces(zipper.tracer, decaf.tracer, window=window, rank=0)
        lines.append(
            [
                name,
                round(cmp["steps_a"], 2),
                round(cmp["steps_b"], 2),
                round(cmp["ratio"], 2),
            ]
        )
    report(
        format_table(
            ["figure", "zipper steps in window", "decaf steps in window", "zipper/decaf"],
            lines,
            title="Figures 17 and 19: steps completed within the paper's snapshot windows",
        )
    )
    report("Figure 17 timeline (Zipper, rank 0):")
    report(render_ascii(Timeline(out["fig17"][0].tracer), width=96, ranks=[0]))
    report("Figure 17 timeline (Decaf, rank 0):")
    report(render_ascii(Timeline(out["fig17"][1].tracer), width=96, ranks=[0]))

    for name in ("fig17", "fig19"):
        zipper, decaf = out[name]
        cmp = compare_traces(zipper.tracer, decaf.tracer, window=9.1, rank=0)
        # Zipper completes more steps than Decaf in the same wall-clock window.
        assert cmp["ratio"] > 1.1
