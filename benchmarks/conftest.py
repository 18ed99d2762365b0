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

import os

import pytest

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


@pytest.fixture(scope="session")
def report():
    """Print a block of text after the benchmark run (kept simple on purpose)."""

    def _print(text: str) -> None:
        print()
        print(text)

    return _print
