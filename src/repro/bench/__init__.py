"""Experiment descriptors and report formatting for the paper's figures.

The modules here define, for every table and figure of the paper, the exact
workflow configurations to run and the rows/series to print, so the scripts in
``benchmarks/`` stay thin.  The scenario grids are declared as
:class:`~repro.sweep.spec.SweepSpec` objects (``figureN_spec``) and executed
through :mod:`repro.sweep` (``run_labelled(figure2_spec())``; ``spec.cases()``
lists the labelled cases).  All experiments run on the
representative-rank simulator; the scale knobs (``steps``,
``representative_sim_ranks``, ``data_per_rank``) default to values small
enough for a laptop while keeping the per-rank workload and the full-job
parameters faithful to the paper.

The repository benchmark, ``perf/run.py`` (see ``perf/README.md``), times
these same grids; it takes its cases from :mod:`repro.bench.experiments`.
"""

from repro.bench.report import format_table, format_series, breakdown_row
from repro.bench.experiments import (
    FIGURE2_TRANSPORTS,
    figure2_spec,
    figure12_spec,
    figure13_spec,
    figure14_spec,
    figure16_spec,
    figure18_spec,
    trace_config,
    SCALABILITY_CORE_COUNTS,
    SCALABILITY_TRANSPORTS,
    SYNTHETIC_SCALING_CORES,
)

__all__ = [
    "format_table",
    "format_series",
    "breakdown_row",
    "FIGURE2_TRANSPORTS",
    "figure2_spec",
    "figure12_spec",
    "figure13_spec",
    "figure14_spec",
    "figure16_spec",
    "figure18_spec",
    "trace_config",
    "SCALABILITY_CORE_COUNTS",
    "SCALABILITY_TRANSPORTS",
    "SYNTHETIC_SCALING_CORES",
]
