"""Shared helpers for the per-figure benches.

Every ``bench_*`` module regenerates one table or figure of the paper: it runs
the corresponding workflow configurations on the cluster simulator (or the
threaded runtime), prints the same rows/series the paper reports, asserts the
paper's trend, and records the wall-clock of the regeneration itself through
``pytest-benchmark``.  ``--benchmark-disable`` keeps only the assertions.  The
repository benchmark that times the simulator is ``perf/run.py`` (see
``perf/README.md``).

Scale note: the benches default to fewer time steps / less data per rank than
the paper so the whole suite finishes in a few minutes on a laptop.  Set the
environment variable ``REPRO_BENCH_STEPS`` (and ``REPRO_BENCH_DATA_MIB``) to
larger values for a closer-to-paper run, and ``REPRO_BENCH_WORKERS`` to fan
the scenario grids out over that many worker processes.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.perfmodel import PerformanceModel, PipelinePerfModel, StageTimes

MiB = 1024 * 1024


def bench_steps(default: int = 20) -> int:
    """Number of workflow time steps used by the benches."""
    return int(os.environ.get("REPRO_BENCH_STEPS", default))


def bench_data_mib(default: int = 128) -> int:
    """Per-rank synthetic data volume (MiB) used by the benches."""
    return int(os.environ.get("REPRO_BENCH_DATA_MIB", default))


def bench_workers(default: int = 0) -> int:
    """Sweep-engine worker processes (0 = serial in-process)."""
    return int(os.environ.get("REPRO_BENCH_WORKERS", default))


def model_estimate(cfg, result) -> PerformanceModel:
    """The Section 4.4 model fed with the per-block stage times measured in the run.

    ``result.breakdown`` holds per-rank stage times, so each is divided by
    the blocks one rank handles (``nb / P`` on the simulation side, ``nb / Q``
    for analysis), which the model multiplies back.
    """
    workload = cfg.workload
    total_data = workload.output_bytes_per_step * workload.steps * cfg.sim_ranks
    blocks = math.ceil(total_data / cfg.effective_block_bytes)
    per_sim_rank = blocks / cfg.sim_ranks
    breakdown = result.breakdown
    return PerformanceModel(
        P=cfg.sim_ranks,
        Q=cfg.analysis_ranks,
        total_data=total_data,
        block_size=cfg.effective_block_bytes,
        stage=StageTimes(
            compute=breakdown.simulation / per_sim_rank,
            transfer=breakdown.transfer / per_sim_rank,
            analysis=breakdown.analysis / (blocks / cfg.analysis_ranks),
            store=breakdown.store / per_sim_rank,
        ),
        preserve=cfg.preserve,
    )


def model_error(cfg, result) -> float:
    """Relative error of :func:`model_estimate` against the measured end-to-end time."""
    measured = result.end_to_end_time
    return (model_estimate(cfg, result).time_to_solution() - measured) / measured


def pipeline_model_error(configured) -> float:
    """Worst relative error of the a-priori ``PipelinePerfModel`` over Zipper runs.

    ``configured`` yields ``(config, result)`` pairs.  For every Zipper case
    that did not fail, the model's bottleneck step time times the source's
    step count is compared with the measured end-to-end time.  The model
    supplies the model-driven controller's priors before any epoch is seen.
    """
    worst = 0.0
    for cfg, result in configured:
        if cfg.transport != "zipper" or result.failed:
            continue
        pipeline = cfg.to_pipeline()
        (source,) = pipeline.sources
        step_time = PipelinePerfModel(pipeline).predicted_step_time()
        predicted = pipeline.stage_steps(source.name) * step_time
        measured = result.end_to_end_time
        worst = max(worst, abs(predicted - measured) / measured)
    return worst


@pytest.fixture(scope="session")
def report():
    """Print a block of text after the benchmark run (kept simple on purpose)."""

    def _print(text: str) -> None:
        print()
        print(text)

    return _print
