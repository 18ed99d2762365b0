"""Integration tests: scaled-down versions of the paper's headline experiments.

These are the same experiments the ``benchmarks/`` harness regenerates, run at
very small step counts so they fit in the unit-test budget.  They pin down the
qualitative findings the reproduction must preserve.
"""

from __future__ import annotations

import pytest

from repro.apps.costs import MiB, cfd_workload, lammps_workload, synthetic_workload
from repro.bench.experiments import (
    FIGURE2_TRANSPORTS,
    figure2_spec,
    figure12_spec,
    figure14_spec,
    trace_config,
)
from repro.cluster.presets import stampede2
from repro.trace import compare_traces, summarize_categories
from repro.workflow import WorkflowConfig, run_pipeline


class TestBenchDescriptors:
    def test_figure2_covers_all_seven_methods(self):
        labels = [case.label for case in figure2_spec(steps=3).cases()]
        for method in FIGURE2_TRANSPORTS:
            assert method in labels
        assert "zipper" in labels and "none" in labels

    def test_figure12_covers_both_block_sizes_and_all_complexities(self):
        labels = [case.label for case in figure12_spec(data_per_rank=16 * MiB).cases()]
        assert len(labels) == 6
        assert any("8MB" in lbl for lbl in labels) and any("O(n^1.5)" in lbl for lbl in labels)

    def test_figure14_pairs_mpi_only_with_concurrent(self):
        spec = figure14_spec(data_per_rank=16 * MiB, core_counts=(84,))
        labels = [case.label for case in spec.cases()]
        assert sum("mpi-only" in lbl for lbl in labels) == 3
        assert sum("concurrent" in lbl for lbl in labels) == 3

    def test_trace_config_enables_tracing(self):
        cfg = trace_config("decaf", "cfd", 204, steps=4)
        assert cfg.trace and cfg.transport == "decaf"


class TestFigure2Shape:
    """Figure 2: end-to-end times of the seven transports on the Bridges CFD workflow."""

    @pytest.fixture(scope="class")
    def results(self):
        spec = figure2_spec(steps=4, representative_sim_ranks=4)
        return {case.label: run_pipeline(case.config.to_pipeline()) for case in spec.cases()}

    def test_every_method_completes(self, results):
        assert all(not r.failed for r in results.values())

    def test_simulation_only_is_the_floor(self, results):
        floor = results["none"].end_to_end_time
        assert all(r.end_to_end_time >= floor * 0.99 for t, r in results.items() if t != "none")

    def test_mpiio_is_slowest_and_decaf_beats_it(self, results):
        others = {t: r.end_to_end_time for t, r in results.items() if t != "none"}
        assert max(others, key=others.get) == "mpiio"
        assert others["decaf"] < others["mpiio"]

    def test_zipper_outperforms_every_baseline(self, results):
        zipper = results["zipper"].end_to_end_time
        for method in FIGURE2_TRANSPORTS:
            assert zipper <= results[method].end_to_end_time


class TestFigure14Shape:
    """Figure 14: the concurrent transfer optimisation helps the transfer-bound producer."""

    def _run(self, complexity, concurrent):
        workload = synthetic_workload(complexity, 1 * MiB, data_per_rank=24 * MiB)
        cfg = WorkflowConfig(
            workload=workload,
            cluster=stampede2(),
            transport="zipper",
            total_cores=588,
            representative_sim_ranks=4,
            representative_analysis_ranks=2,
            producer_buffer_blocks=8,
            high_water_mark=6,
            concurrent_transfer=concurrent,
        )
        return run_pipeline(cfg.to_pipeline())

    def test_transfer_bound_producer_benefits(self):
        mpi_only = self._run("O(n)", False)
        concurrent = self._run("O(n)", True)
        assert concurrent.steal_fraction > 0.05
        wallclock_mpi = mpi_only.breakdown.simulation + mpi_only.breakdown.stall
        wallclock_conc = concurrent.breakdown.simulation + concurrent.breakdown.stall
        assert wallclock_conc <= wallclock_mpi * 1.02

    def test_compute_bound_producer_falls_back(self):
        concurrent = self._run("O(n^1.5)", True)
        assert concurrent.steal_fraction < 0.05
        assert concurrent.breakdown.stall == pytest.approx(0.0, abs=1e-6)


class TestScalabilityShape:
    """Figures 16/18: Zipper tracks simulation-only; Decaf fails/degrades at scale."""

    def _run(self, workload, transport, cores):
        cfg = WorkflowConfig(
            workload=workload,
            cluster=stampede2(),
            transport=transport,
            total_cores=cores,
            representative_sim_ranks=4,
            steps=4,
        )
        return run_pipeline(cfg.to_pipeline())

    def test_zipper_tracks_simulation_only_across_scales(self):
        for cores in (204, 3264, 13056):
            zipper = self._run(cfd_workload(steps=4), "zipper", cores)
            sim_only = self._run(cfd_workload(steps=4), "none", cores)
            assert zipper.end_to_end_time <= sim_only.end_to_end_time * 1.5

    def test_decaf_integer_overflow_only_at_large_cfd_scale(self):
        ok = self._run(cfd_workload(steps=4), "decaf", 3264)
        crash = self._run(cfd_workload(steps=4), "decaf", 13056)
        assert not ok.failed and crash.failed

    def test_headline_lammps_gap_at_13056_cores(self):
        zipper = self._run(lammps_workload(steps=4), "zipper", 13056)
        decaf = self._run(lammps_workload(steps=4), "decaf", 13056)
        assert not decaf.failed
        assert decaf.end_to_end_time / zipper.end_to_end_time > 1.3


class TestTraceShape:
    """Figures 5/6/17: interference and step counts visible in the traces."""

    def test_decaf_inflates_sendrecv_and_stalls(self):
        alone = run_pipeline(trace_config("none", "cfd", 204, steps=5).to_pipeline())
        decaf = run_pipeline(trace_config("decaf", "cfd", 204, steps=5).to_pipeline())
        sendrecv_alone = summarize_categories(alone.tracer, rank=0).get("sendrecv", 0.0)
        sendrecv_decaf = summarize_categories(decaf.tracer, rank=0).get("sendrecv", 0.0)
        assert sendrecv_decaf >= sendrecv_alone * 0.99
        assert summarize_categories(decaf.tracer, rank=0).get("waitall", 0.0) > 0

    def test_zipper_fits_more_steps_than_decaf_in_the_same_window(self):
        zipper = run_pipeline(trace_config("zipper", "cfd", 204, steps=6).to_pipeline())
        decaf = run_pipeline(trace_config("decaf", "cfd", 204, steps=6).to_pipeline())
        cmp = compare_traces(zipper.tracer, decaf.tracer, window=2.0, rank=0)
        assert cmp["ratio"] >= 1.0
