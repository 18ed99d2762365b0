"""Command-line sweep driver: ``python -m repro.sweep``.

Runs a (possibly downsized) figure sweep through the parallel runner and
prints one summary row per scenario.  Used by CI as a smoke test of the
multiprocessing path and by hand for quick scaling studies, e.g.::

    PYTHONPATH=src python -m repro.sweep figure2 --steps 4 --sim-ranks 4 --workers 2
    PYTHONPATH=src python -m repro.sweep figure16 --steps 3 --cores 204,408 \
        --workers 4 --store results/figure16.jsonl

``python -m repro.sweep campaign ...`` dispatches to the distributed
campaign driver (coordinator + workers, see :mod:`repro.campaign.cli`).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.sweep.runner import SweepRecord, SweepRunner, run_config
from repro.sweep.spec import SweepSpec

__all__ = ["main", "build_spec", "FIGURES"]

MiB = 1024 * 1024

#: Figure sweeps addressable from the command line ("pipelines" runs the
#: multi-stage chain/fan-out scenario families through the pipeline API;
#: "elastic" runs the bursty-analytics elastic-vs-static comparison,
#: "elastic-model" the threshold-vs-model-driven policy comparison,
#: "faults" the checkpoint-interval × static/elastic fault-recovery grid, and
#: "tenants" the multi-tenant policy × arrival-pattern contention grid).
FIGURES = (
    "figure2",
    "figure12",
    "figure13",
    "figure14",
    "figure16",
    "figure18",
    "pipelines",
    "elastic",
    "elastic-model",
    "faults",
    "tenants",
)


def build_spec(args: argparse.Namespace) -> SweepSpec:
    """Instantiate the requested figure spec with the CLI's downsizing knobs."""
    from repro.bench import experiments

    try:
        cores = tuple(int(c) for c in args.cores.split(",")) if args.cores else None
    except ValueError:
        raise SystemExit(
            f"error: --cores expects comma-separated integers, got {args.cores!r}"
        ) from None
    if args.figure == "figure2":
        return experiments.figure2_spec(
            steps=args.steps, representative_sim_ranks=args.sim_ranks
        )
    if args.figure == "pipelines":
        return experiments.pipeline_shapes_spec(
            steps=args.steps,
            core_counts=cores or (384, 768),
            representative_sim_ranks=args.sim_ranks,
        )
    if args.figure == "tenants":
        if cores and len(cores) > 1:
            raise SystemExit(
                "error: the tenants figure shares one facility capacity; pass a "
                f"single --cores value, got {args.cores!r}"
            )
        return experiments.tenant_contention_spec(
            steps=args.steps, capacity_cores=cores[0] if cores else 384
        )
    if args.figure in ("elastic", "elastic-model", "faults"):
        if cores and len(cores) > 1:
            raise SystemExit(
                "error: the elastic figures sweep static grants within one "
                f"total_cores value; pass a single --cores value, got {args.cores!r}"
            )
        factory = {
            "elastic": experiments.elastic_vs_static_spec,
            "elastic-model": experiments.model_vs_threshold_spec,
            "faults": experiments.fault_recovery_spec,
        }[args.figure]
        return factory(
            steps=args.steps,
            total_cores=cores[0] if cores else 384,
            representative_sim_ranks=args.sim_ranks,
        )
    if args.figure in ("figure12", "figure13"):
        factory = (
            experiments.figure12_spec
            if args.figure == "figure12"
            else experiments.figure13_spec
        )
        return factory(data_per_rank=args.data_mib * MiB, steps_cap=args.steps_cap)
    kwargs = {"core_counts": cores} if cores else {}
    if args.figure == "figure14":
        return experiments.figure14_spec(data_per_rank=args.data_mib * MiB, **kwargs)
    factory = (
        experiments.figure16_spec
        if args.figure == "figure16"
        else experiments.figure18_spec
    )
    return factory(steps=args.steps, **kwargs)


def _parser() -> argparse.ArgumentParser:
    from repro.campaign.protocol import add_descriptor_arguments

    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Run one of the paper's figure sweeps through the parallel sweep engine.",
    )
    parser.add_argument("figure", choices=FIGURES, help="which figure's scenario grid to run")
    parser.add_argument("--workers", type=int, default=0, help="worker processes (0 = serial)")
    add_descriptor_arguments(parser)
    parser.add_argument("--store", default="", help="JSONL result store path (enables resume)")
    parser.add_argument("--trace", action="store_true", help="keep tracing enabled (slower)")
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "cProfile one scenario of the chosen figure (the first case) and "
            "print the top-20 cumulative entries instead of running the sweep"
        ),
    )
    return parser


def profile_one(spec: SweepSpec) -> int:
    """Profile the first scenario of ``spec`` and print the hot-path table.

    Future hot-path work should start here: the table shows where one
    representative scenario of the family actually spends its time, which is
    what the fast-path optimisations in ``docs/performance.md`` were guided
    by.
    """
    import cProfile
    import pstats

    cases = spec.cases()
    if not cases:
        print("error: the selected figure expands to zero scenarios", file=sys.stderr)
        return 1
    case = cases[0]
    print(f"profiling scenario {case.label!r} of {spec.name} ...")

    run_config(case.config)  # warm imports and caches outside the profile
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_config(case.config)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(20)
    events = result.stats.get("events_processed", 0.0)
    print(f"scenario events_processed={events:.0f}  end_to_end={result.end_to_end_time:.3f}s")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.sweep``; returns the exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "campaign":
        from repro.campaign.cli import main as campaign_main

        return campaign_main(argv[1:])
    args = _parser().parse_args(argv)
    spec = build_spec(args)
    if args.profile:
        return profile_one(spec)

    def progress(record: SweepRecord, done: int, total: int) -> None:
        """Print one progress row as each scenario finishes."""
        status = "skip" if record.skipped else ("ERROR" if not record.ok else "ok")
        print(f"[{done}/{total}] {record.label:<32s} {status} ({record.elapsed:.2f}s)", flush=True)

    runner = SweepRunner(
        workers=args.workers,
        store=args.store or None,
        trace=True if args.trace else False,
        progress=progress,
    )
    start = time.perf_counter()
    records = runner.run(spec)
    wall = time.perf_counter() - start

    from repro.bench.report import format_table

    rows = []
    for record in records:
        if record.result is not None:
            summary = record.result
            end_to_end = summary.end_to_end_time
            failed = summary.failed
        else:
            end_to_end = float(record.summary.get("end_to_end_time", float("nan")))
            failed = bool(record.summary.get("failed", not record.ok))
        rows.append(
            [
                record.label,
                "skipped" if record.skipped else ("error" if not record.ok else "run"),
                round(end_to_end, 2),
                "FAILED" if failed else "",
            ]
        )
    print()
    print(
        format_table(
            ["label", "status", "end-to-end (s)", ""],
            rows,
            title=f"{spec.name}: {len(records)} scenarios, workers={args.workers}, wall={wall:.1f}s",
        )
    )
    errored = [r for r in records if not r.ok]
    if errored:
        print(f"\n{len(errored)} scenario(s) crashed:", file=sys.stderr)
        for record in errored:
            print(f"--- {record.label}\n{record.error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
