"""Tests for the workflow configuration, context, runner and result types."""

from __future__ import annotations

import pytest

from repro.apps.costs import MiB, cfd_workload, synthetic_workload
from repro.perfmodel import PerformanceModel, StageTimes
from repro.workflow import (
    PipelineRunner,
    WorkflowConfig,
    pipeline_simulation_only_time,
    run_pipeline,
)
from repro.workflow.result import StageBreakdown


def coupling_context(config):
    """The single coupling's context of a two-application config's pipeline."""
    return PipelineRunner(config.to_pipeline()).ctx.couplings[0]


class TestWorkflowConfig:
    def test_rank_derivation_matches_paper_ratio(self, bridges_spec):
        cfg = WorkflowConfig(
            workload=cfd_workload(steps=5),
            cluster=bridges_spec,
            total_cores=384,
            sim_core_fraction=256 / 384,
            representative_sim_ranks=8,
        )
        assert cfg.total_sim_ranks == 256
        assert cfg.total_analysis_ranks == 128
        assert cfg.sim_ranks == 8
        assert cfg.analysis_ranks == 4  # same 2:1 ratio as the full job

    def test_small_jobs_are_not_overrepresented(self, bridges_spec):
        cfg = WorkflowConfig(
            workload=cfd_workload(steps=5),
            cluster=bridges_spec,
            total_cores=12,
            representative_sim_ranks=64,
        )
        assert cfg.sim_ranks <= cfg.total_sim_ranks

    def test_effective_block_never_exceeds_step_output(self, bridges_spec):
        cfg = WorkflowConfig(
            workload=cfd_workload(steps=5),
            cluster=bridges_spec,
            block_bytes=64 * MiB,
        )
        assert cfg.effective_block_bytes == 16 * MiB

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_cores": 1},
            {"sim_core_fraction": 0.0},
            {"representative_sim_ranks": 0},
            {"ranks_per_modelled_node": 0},
            {"ranks_per_modelled_node": 1000},
            {"block_bytes": 0},
            {"high_water_mark": 1000},
            {"steps": 0},
            {"staging_ranks_per_8_sim": -1},
        ],
    )
    def test_validation(self, bridges_spec, kwargs):
        base = dict(workload=cfd_workload(steps=5), cluster=bridges_spec)
        base.update(kwargs)
        with pytest.raises(ValueError):
            WorkflowConfig(**base)


class TestWorkflowContext:
    def test_placement_and_mapping(self, small_cfd_config):
        ctx = coupling_context(small_cfd_config)
        assert ctx.sim_ranks == 8 and ctx.analysis_ranks == 4
        # Sim and analysis ranks live on disjoint nodes.
        sim_nodes = {ctx.sim_node(r) for r in range(ctx.sim_ranks)}
        analysis_nodes = {ctx.analysis_node(a) for a in range(ctx.analysis_ranks)}
        assert sim_nodes.isdisjoint(analysis_nodes)
        # Every producer maps to exactly one consumer; consumers partition producers.
        all_producers = [r for a in range(ctx.analysis_ranks) for r in ctx.producers_of(a)]
        assert sorted(all_producers) == list(range(ctx.sim_ranks))
        for rank in range(ctx.sim_ranks):
            assert rank in ctx.producers_of(ctx.consumer_of(rank))

    def test_blocks_per_step(self, small_cfd_config):
        ctx = coupling_context(small_cfd_config)
        assert ctx.blocks_per_step() == 16  # 16 MiB / 1 MiB
        assert ctx.consumer_step_bytes(0) == 2 * 16 * MiB

    def test_staging_nodes_allocated_when_needed(self, small_cfd_config):
        ctx = coupling_context(small_cfd_config.replace(transport="dataspaces"))
        assert ctx.staging_ranks >= 1
        assert ctx.staging_node(0) >= ctx.sim_nodes + ctx.analysis_nodes

    def test_rank_scale_factor(self, small_cfd_config):
        ctx = coupling_context(small_cfd_config)
        assert ctx.rank_scale_factor == pytest.approx(256 / 8)


class TestRunnerResults:
    def test_simulation_only_lower_bound(self, small_cfd_config):
        result = run_pipeline(small_cfd_config.replace(transport="none").to_pipeline())
        expected = pipeline_simulation_only_time(small_cfd_config.to_pipeline())
        assert result.end_to_end_time == pytest.approx(expected, rel=0.05)
        assert result.breakdown.simulation == pytest.approx(expected, rel=0.05)

    def test_zipper_run_is_reproducible(self, small_cfd_config):
        a = run_pipeline(small_cfd_config.to_pipeline())
        b = run_pipeline(small_cfd_config.to_pipeline())
        assert a.end_to_end_time == pytest.approx(b.end_to_end_time, rel=1e-12)
        assert a.stats["blocks_produced"] == b.stats["blocks_produced"]

    def test_trace_collection_toggle(self, small_cfd_config):
        with_trace = run_pipeline(small_cfd_config.replace(trace=True).to_pipeline())
        without = run_pipeline(small_cfd_config.replace(trace=False).to_pipeline())
        assert with_trace.tracer is not None and len(with_trace.tracer) > 0
        assert without.tracer is None
        assert "step" in with_trace.tracer.categories()

    def test_zipper_matches_analytical_model(self, small_synthetic_config):
        """The measured end-to-end time stays close to max(Tcomp, Ttransfer, Tanalysis)."""
        result = run_pipeline(small_synthetic_config.to_pipeline())
        largest_stage = max(
            result.breakdown.simulation + result.breakdown.stall,
            result.breakdown.transfer,
            result.breakdown.analysis,
        )
        assert result.end_to_end_time <= largest_stage * 1.4 + 0.5
        assert result.end_to_end_time >= largest_stage * 0.8

    def test_preserve_mode_persists_and_slows(self, small_synthetic_config):
        no_preserve = run_pipeline(small_synthetic_config.to_pipeline())
        preserve = run_pipeline(small_synthetic_config.replace(preserve=True).to_pipeline())
        assert preserve.stats.get("blocks_preserved", 0) + preserve.stats.get(
            "blocks_stolen", 0
        ) >= preserve.stats.get("blocks_produced")
        assert preserve.end_to_end_time >= no_preserve.end_to_end_time * 0.999
        assert preserve.breakdown.store > 0

    def test_concurrent_transfer_reduces_stall_for_transfer_bound_workload(
        self, small_synthetic_config
    ):
        concurrent = run_pipeline(small_synthetic_config.to_pipeline())
        mpi_only = run_pipeline(
            small_synthetic_config.replace(concurrent_transfer=False).to_pipeline()
        )
        assert concurrent.steal_fraction > 0
        assert mpi_only.steal_fraction == 0
        assert (
            concurrent.breakdown.simulation + concurrent.breakdown.stall
            <= mpi_only.breakdown.simulation + mpi_only.breakdown.stall + 1e-6
        )
        assert concurrent.xmit_wait <= mpi_only.xmit_wait * 1.05

    def test_result_xmit_wait_is_the_scaled_port_total(self, small_synthetic_config):
        runner = PipelineRunner(
            small_synthetic_config.replace(concurrent_transfer=False).to_pipeline()
        )
        result = runner.run()
        total = runner.ctx.cluster.network.xmit_wait_total()
        assert total > 0
        assert result.xmit_wait == total * runner.ctx.rank_scale_factor

    def test_weak_scaling_congestion_grows(self, bridges_spec):
        workload = synthetic_workload("O(n)", 1 * MiB, data_per_rank=32 * MiB)

        def run_at(cores):
            return run_pipeline(
                WorkflowConfig(
                    workload=workload,
                    cluster=bridges_spec,
                    transport="zipper",
                    total_cores=cores,
                    representative_sim_ranks=4,
                    representative_analysis_ranks=2,
                ).to_pipeline()
            )

        small, large = run_at(84), run_at(2352)
        assert large.xmit_wait > small.xmit_wait

    def test_result_helpers(self):
        breakdown = StageBreakdown(simulation=2.0, transfer=1.0, analysis=0.5, store=0.0, stall=0.1)
        assert breakdown.dominant() == "simulation"
        assert breakdown.as_dict()["stall"] == 0.1

    def test_speedup_and_summary(self, small_cfd_config):
        zipper = run_pipeline(small_cfd_config.to_pipeline())
        decaf = run_pipeline(small_cfd_config.replace(transport="decaf").to_pipeline())
        assert zipper.speedup_over(decaf) > 1.0
        assert "zipper" in zipper.summary()

    def test_perf_model_cross_check(self):
        """The standalone model reproduces the paper's qualitative Figure 12 claim."""
        model = PerformanceModel(
            P=1568,
            Q=784,
            total_data=3136 * 1024**3,
            block_size=1 * MiB,
            stage=StageTimes(compute=0.001, transfer=0.0186, analysis=0.006),
        )
        assert model.dominant_stage() == "transfer"
        assert model.time_to_solution() == pytest.approx(0.0186 * 2048, rel=1e-6)
