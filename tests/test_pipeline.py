"""Tests for the declarative Stage/Coupling pipeline API."""

from __future__ import annotations

import pytest

from repro.apps.costs import MiB, cfd_workload, lammps_workload, synthetic_workload
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import ParamGrid
from repro.workflow import (
    CouplingSpec,
    PipelineRunner,
    PipelineSpec,
    StageSpec,
    run_pipeline,
)


def _stage(name, workload, ranks=4, total=64, **kw):
    return StageSpec(
        name, workload, representative_ranks=ranks, total_ranks=total, **kw
    )


@pytest.fixture
def cfd():
    return cfd_workload(steps=4)


@pytest.fixture
def chain_pipeline(cfd, bridges_spec):
    """sim -> analysis -> viz with a different transport on each coupling."""
    return PipelineSpec(
        stages=(
            _stage("simulation", cfd, ranks=8, total=256, role="producer"),
            _stage("analysis", cfd, ranks=4, total=96, output_fraction=0.25),
            _stage("viz", cfd, ranks=2, total=32, role="visualization"),
        ),
        couplings=(
            CouplingSpec("simulation", "analysis", transport="zipper"),
            CouplingSpec("analysis", "viz", transport="dimes"),
        ),
        cluster=bridges_spec,
        total_cores=384,
        steps=4,
        trace=False,
    )


@pytest.fixture
def fanout_pipeline(cfd, bridges_spec):
    """One simulation feeding two concurrent analyses over separate couplings."""
    return PipelineSpec(
        stages=(
            _stage("simulation", cfd, ranks=8, total=256),
            _stage("statistics", cfd, ranks=4, total=64),
            _stage("msd", lammps_workload(steps=4), ranks=2, total=64),
        ),
        couplings=(
            CouplingSpec("simulation", "statistics", transport="zipper"),
            CouplingSpec("simulation", "msd", transport="flexpath"),
        ),
        cluster=bridges_spec,
        total_cores=384,
        steps=4,
        trace=False,
    )


class TestValidation:
    def test_cycle_is_rejected(self, cfd, bridges_spec):
        with pytest.raises(ValueError, match="cycle"):
            PipelineSpec(
                stages=(
                    _stage("a", cfd),
                    _stage("b", cfd),
                    _stage("c", cfd),
                ),
                couplings=(
                    CouplingSpec("a", "b"),
                    CouplingSpec("b", "c"),
                    CouplingSpec("c", "a"),
                ),
                cluster=bridges_spec,
            )

    def test_dangling_endpoint_is_rejected(self, cfd, bridges_spec):
        with pytest.raises(ValueError, match="dangling"):
            PipelineSpec(
                stages=(_stage("a", cfd),),
                couplings=(CouplingSpec("a", "ghost"),),
                cluster=bridges_spec,
            )

    def test_zero_rank_stage_is_rejected(self, cfd):
        with pytest.raises(ValueError, match="zero representative ranks"):
            StageSpec("a", cfd, representative_ranks=0, total_ranks=64)

    @pytest.mark.parametrize("field", ["output_fraction", "granted_cores"])
    def test_nan_stage_values_are_rejected(self, cfd, field):
        # NaN fails every comparison, so each check must reject it.
        with pytest.raises(ValueError, match=field):
            StageSpec("a", cfd, total_ranks=64, **{field: float("nan")})

    def test_self_coupling_is_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            CouplingSpec("a", "a")

    def test_duplicate_coupling_is_rejected(self, cfd, bridges_spec):
        with pytest.raises(ValueError, match="duplicate coupling"):
            PipelineSpec(
                stages=(_stage("a", cfd), _stage("b", cfd)),
                couplings=(CouplingSpec("a", "b"), CouplingSpec("a", "b")),
                cluster=bridges_spec,
            )

    def test_duplicate_stage_names_are_rejected(self, cfd, bridges_spec):
        with pytest.raises(ValueError, match="duplicate stage names"):
            PipelineSpec(
                stages=(_stage("a", cfd), _stage("a", cfd)),
                couplings=(),
                cluster=bridges_spec,
            )

    def test_core_share_must_resolve(self, cfd, bridges_spec):
        with pytest.raises(ValueError, match="core_share"):
            PipelineSpec(
                stages=(StageSpec("a", cfd, core_share=0.0),),
                couplings=(),
                cluster=bridges_spec,
            )

    def test_fan_in_steps_must_agree(self, bridges_spec):
        w3 = cfd_workload(steps=3)
        w5 = cfd_workload(steps=5)
        with pytest.raises(ValueError, match="disagree on step"):
            PipelineSpec(
                stages=(
                    _stage("a", w3),
                    _stage("b", w5),
                    _stage("c", w3),
                ),
                couplings=(CouplingSpec("a", "c"), CouplingSpec("b", "c")),
                cluster=bridges_spec,
            )

    def test_forwarding_stage_cannot_outnumber_its_producers(self, cfd, bridges_spec):
        with pytest.raises(ValueError, match="models more ranks"):
            PipelineSpec(
                stages=(
                    _stage("a", cfd, ranks=2),
                    _stage("b", cfd, ranks=4),
                    _stage("c", cfd, ranks=2),
                ),
                couplings=(CouplingSpec("a", "b"), CouplingSpec("b", "c")),
                cluster=bridges_spec,
            )

    @pytest.mark.parametrize("where", ["source", "sink"])
    def test_output_fraction_only_applies_to_forwarding_stages(
        self, cfd, bridges_spec, where
    ):
        fraction = {"a": 0.1} if where == "source" else {"b": 0.1}
        with pytest.raises(ValueError, match="output_fraction does not apply"):
            PipelineSpec(
                stages=(
                    _stage("a", cfd, output_fraction=fraction.get("a", 1.0)),
                    _stage("b", cfd, output_fraction=fraction.get("b", 1.0)),
                ),
                couplings=(CouplingSpec("a", "b"),),
                cluster=bridges_spec,
            )

    def test_coupling_high_water_mark_validated_at_construction(self, cfd, bridges_spec):
        with pytest.raises(ValueError, match="high_water_mark"):
            PipelineSpec(
                stages=(_stage("a", cfd), _stage("b", cfd)),
                couplings=(
                    CouplingSpec("a", "b", producer_buffer_blocks=10, high_water_mark=100),
                ),
                cluster=bridges_spec,
            )

    def test_unknown_transport_override_is_rejected(self, cfd, bridges_spec):
        pipeline = PipelineSpec(
            stages=(_stage("a", cfd), _stage("b", cfd)),
            couplings=(CouplingSpec("a", "b"),),
            cluster=bridges_spec,
        )
        with pytest.raises(ValueError, match="unknown couplings"):
            PipelineRunner(pipeline, transports={"a->ghost": object()})

    @pytest.mark.parametrize("name", ["none", "null", "simulation-only"])
    def test_no_coupling_transport_cannot_feed_a_forwarding_stage(
        self, cfd, bridges_spec, name
    ):
        with pytest.raises(ValueError, match="no-coupling transport"):
            PipelineSpec(
                stages=(
                    _stage("a", cfd, ranks=4),
                    _stage("b", cfd, ranks=2),
                    _stage("c", cfd, ranks=2),
                ),
                couplings=(
                    CouplingSpec("a", "b", transport=name),
                    CouplingSpec("b", "c"),
                ),
                cluster=bridges_spec,
            )

    def test_unknown_transport_rejected_at_spec_construction(self, cfd, bridges_spec):
        with pytest.raises(ValueError, match="unknown transport"):
            PipelineSpec(
                stages=(_stage("a", cfd), _stage("b", cfd)),
                couplings=(CouplingSpec("a", "b", transport="carrier-pigeon"),),
                cluster=bridges_spec,
            )


class TestLoweringEquivalence:
    def test_lowered_pipeline_shape(self, small_cfd_config):
        pipeline = small_cfd_config.to_pipeline()
        assert [s.name for s in pipeline.stages] == ["simulation", "analysis"]
        assert len(pipeline.couplings) == 1
        coupling = pipeline.couplings[0]
        assert coupling.name == "simulation->analysis"
        assert coupling.transport == small_cfd_config.transport
        assert pipeline.modelled_ranks("simulation") == small_cfd_config.sim_ranks
        assert pipeline.resolved_total_ranks("analysis") == (
            small_cfd_config.total_analysis_ranks
        )


class TestChainExecution:
    def test_chain_runs_end_to_end(self, chain_pipeline):
        result = run_pipeline(chain_pipeline)
        assert not result.failed
        assert result.end_to_end_time > 0
        # Every stage did real work.
        assert result.stage_breakdowns["simulation"].simulation > 0
        assert result.stage_breakdowns["analysis"].analysis > 0
        assert result.stage_breakdowns["viz"].analysis > 0
        # Each coupling used its own transport and moved data.
        assert result.coupling_transports == {
            "simulation->analysis": "zipper",
            "analysis->viz": "dimes",
        }
        for name in ("simulation->analysis", "analysis->viz"):
            stats = result.coupling_stats[name]
            moved = stats.get("bytes_network", 0.0) + stats.get("bytes_file", 0.0)
            assert moved > 0, name
        # The analysis reduces the stream, so the second coupling carries less.
        first = result.coupling_stats["simulation->analysis"]
        second = result.coupling_stats["analysis->viz"]
        assert second.get("bytes_network", 0.0) < first.get("bytes_network", 0.0)

    def test_chain_is_reproducible(self, chain_pipeline):
        a = run_pipeline(chain_pipeline)
        b = run_pipeline(chain_pipeline)
        assert a.end_to_end_time == pytest.approx(b.end_to_end_time, rel=1e-12)

    def test_every_viz_rank_receives_data(self, chain_pipeline):
        result = run_pipeline(chain_pipeline)
        for rank, stats in result.stage_rank_stats["viz"].items():
            assert stats.get("analysis_time", 0.0) > 0, rank

    def test_chain_overlaps_stages(self, chain_pipeline):
        """Pipelining: the makespan beats running the stages back to back."""
        result = run_pipeline(chain_pipeline)
        busy = {
            name: b.simulation + b.analysis
            for name, b in result.stage_breakdowns.items()
        }
        assert result.end_to_end_time < sum(busy.values())
        assert result.end_to_end_time >= max(busy.values())

    def test_chain_trace_rows_cover_all_stages(self, chain_pipeline):
        result = run_pipeline(chain_pipeline.replace(trace=True))
        assert result.tracer is not None
        total_ranks = 8 + 4 + 2
        assert set(result.tracer.ranks()) <= set(range(total_ranks))
        assert max(result.tracer.ranks()) >= 12  # viz rows are traced too

    def test_transport_spans_carry_their_coupling_tag(self, cfd, bridges_spec):
        # MPI-IO records io_write/io_read spans through the coupling context,
        # so its spans must be attributable to their coupling.
        pipeline = PipelineSpec(
            stages=(_stage("simulation", cfd, ranks=4), _stage("analysis", cfd, ranks=2)),
            couplings=(CouplingSpec("simulation", "analysis", transport="mpiio"),),
            cluster=bridges_spec,
            total_cores=384,
            steps=4,
            trace=True,
        )
        result = run_pipeline(pipeline)
        tagged = {
            span.meta["coupling"]
            for span in result.tracer.spans
            if "coupling" in span.meta
        }
        assert tagged == {"simulation->analysis"}

    def test_transport_override_by_coupling_name(self, chain_pipeline):
        from repro.transports import ZipperTransport

        override = ZipperTransport()
        runner = PipelineRunner(
            chain_pipeline, transports={"simulation->analysis": override}
        )
        assert runner.transports["simulation->analysis"] is override
        result = runner.run()
        assert not result.failed


class TestFanOutExecution:
    def test_fanout_runs_both_branches(self, fanout_pipeline):
        result = run_pipeline(fanout_pipeline)
        assert not result.failed
        assert result.stage_breakdowns["statistics"].analysis > 0
        assert result.stage_breakdowns["msd"].analysis > 0
        # Both couplings carried the full simulation output independently.
        zipper_bytes = result.coupling_stats["simulation->statistics"].get(
            "bytes_network", 0.0
        ) + result.coupling_stats["simulation->statistics"].get("bytes_file", 0.0)
        flexpath_bytes = result.coupling_stats["simulation->msd"].get(
            "bytes_network", 0.0
        )
        assert zipper_bytes > 0 and flexpath_bytes > 0
        # Rank-identity keys are namespaced per coupling in the aggregate
        # stats of multi-coupling runs (summing them would be meaningless).
        assert not any(k.startswith("consumer_") for k in result.stats)
        assert any(
            k.startswith("simulation->statistics/consumer_") for k in result.stats
        )

    def test_fan_in_xmit_scale_factor_covers_both_sources(self, cfd, bridges_spec):
        pipeline = PipelineSpec(
            stages=(
                _stage("big", cfd, ranks=8, total=256),
                _stage("small", cfd, ranks=8, total=32),
                _stage("analysis", cfd, ranks=4),
            ),
            couplings=(
                CouplingSpec("big", "analysis"),
                CouplingSpec("small", "analysis", transport="dimes"),
            ),
            cluster=bridges_spec,
            total_cores=384,
            steps=4,
            trace=False,
        )
        runner = PipelineRunner(pipeline)
        # Modelled-rank-weighted over both sources, not just the first one.
        assert runner.ctx.rank_scale_factor == pytest.approx((256 + 32) / (8 + 8))
        # Per-coupling factors stay source-specific for the transports.
        assert runner.ctx.coupling("big->analysis").rank_scale_factor == 32.0
        assert runner.ctx.coupling("small->analysis").rank_scale_factor == 4.0

    def test_mismatched_deliveries_hook_fails_loudly(self, chain_pipeline):
        from repro.transports import ZipperTransport

        class MisreportingZipper(ZipperTransport):
            def consumer_deliveries_per_step(self, ctx, arank):
                return 1  # lies: zipper delivers per block, not per step

        with pytest.raises(RuntimeError, match="consumer_deliveries_per_step"):
            PipelineRunner(
                chain_pipeline,
                transports={"simulation->analysis": MisreportingZipper()},
            ).run()

    def test_under_delivery_fails_loudly(self, chain_pipeline):
        from repro.transports import ZipperTransport

        class OverreportingZipper(ZipperTransport):
            def consumer_deliveries_per_step(self, ctx, arank):
                # Claims one more delivery per step than consumer_run makes,
                # so the forwarding stage can never complete a step.
                return super().consumer_deliveries_per_step(ctx, arank) + 1

        with pytest.raises(RuntimeError, match="only forwarded"):
            PipelineRunner(
                chain_pipeline,
                transports={"simulation->analysis": OverreportingZipper()},
            ).run()

    def test_out_of_order_completion_forwards_in_step_order(self, bridges_spec):
        """Work stealing delivers blocks across steps out of order; the
        forwarding stage must still re-emit steps in order for downstream
        transports with in-order producer contracts (MPI-IO, DIMES)."""
        workload = synthetic_workload("O(n)", 1 * MiB, data_per_rank=16 * MiB)
        for downstream in ("mpiio", "dimes"):
            pipeline = PipelineSpec(
                stages=(
                    _stage("simulation", workload, ranks=4, total=64),
                    _stage("analysis", workload, ranks=2, total=32,
                           output_fraction=0.5),
                    _stage("viz", workload, ranks=2, total=16),
                ),
                couplings=(
                    # A tiny buffer with work stealing from block zero forces
                    # heavy file-path reordering on the first coupling.
                    CouplingSpec("simulation", "analysis", transport="zipper",
                                 producer_buffer_blocks=2, high_water_mark=0),
                    CouplingSpec("analysis", "viz", transport=downstream),
                ),
                cluster=bridges_spec,
                total_cores=384,
                trace=False,
            )
            result = run_pipeline(pipeline)
            assert not result.failed, downstream
            assert result.end_to_end_time > 0
            for rank, stats in result.stage_rank_stats["viz"].items():
                assert stats.get("analysis_time", 0.0) > 0, (downstream, rank)

    def test_decaf_overflow_check_uses_coupling_bytes(self, cfd, bridges_spec):
        """A reduced mid-pipeline stream must not trip Decaf's overflow fault
        sized for the raw (16x larger) workload output."""
        pipeline = PipelineSpec(
            stages=(
                _stage("simulation", cfd, ranks=4, total=4352),
                _stage("analysis", cfd, ranks=4, total=4352,
                       output_fraction=1.0 / 16.0),
                _stage("viz", cfd, ranks=2, total=64),
            ),
            couplings=(
                CouplingSpec("simulation", "analysis", transport="zipper"),
                CouplingSpec("analysis", "viz", transport="decaf"),
            ),
            cluster=bridges_spec,
            total_cores=13056,
            steps=2,
            trace=False,
        )
        result = run_pipeline(pipeline)
        assert not result.failed, result.failure_reason

    def test_fan_in_with_collective_transports(self, cfd, bridges_spec):
        """Two mpiio couplings into one stage: each coupling barriers on its
        own private communicator, so the concurrent per-coupling consumer
        processes cannot corrupt each other's collective sync."""
        pipeline = PipelineSpec(
            stages=(
                _stage("a", cfd, ranks=4),
                _stage("b", cfd, ranks=4),
                _stage("analysis", cfd, ranks=2),
            ),
            couplings=(
                CouplingSpec("a", "analysis", transport="mpiio"),
                CouplingSpec("b", "analysis", transport="mpiio"),
            ),
            cluster=bridges_spec,
            total_cores=384,
            steps=4,
            trace=False,
        )
        runner = PipelineRunner(pipeline)
        first, second = runner.ctx.couplings
        assert first.analysis_comm is not second.analysis_comm
        result = runner.run()
        assert not result.failed
        for name in ("a->analysis", "b->analysis"):
            assert result.coupling_stats[name].get("bytes_file", 0.0) > 0, name
        for stats in result.stage_rank_stats["analysis"].values():
            assert stats.get("analysis_time", 0.0) > 0

    def test_fan_in_merges_two_sources(self, cfd, bridges_spec):
        merged = PipelineSpec(
            stages=(
                _stage("md", lammps_workload(steps=4).replace(steps=4), ranks=4),
                _stage("cfd", cfd, ranks=4),
                _stage("analysis", cfd, ranks=2),
            ),
            couplings=(
                CouplingSpec("md", "analysis", transport="zipper"),
                CouplingSpec("cfd", "analysis", transport="dimes"),
            ),
            cluster=bridges_spec,
            total_cores=384,
            steps=4,
            trace=False,
        )
        result = run_pipeline(merged)
        assert not result.failed
        for stats in result.stage_rank_stats["analysis"].values():
            assert stats.get("analysis_time", 0.0) > 0
        assert result.coupling_stats["md->analysis"].get("blocks_produced", 0) > 0


class TestExtrasRegression:
    """``WorkflowConfig.extras`` must reach the transport constructor."""

    def test_extras_configure_the_transport(self, small_cfd_config):
        runner = PipelineRunner(
            small_cfd_config.replace(
                transport="mpiio", extras={"poll_interval": 0.01}
            ).to_pipeline()
        )
        assert runner.transports["simulation->analysis"].poll_interval == 0.01

    def test_extras_change_behaviour(self, small_cfd_config):
        base = small_cfd_config.replace(transport="mpiio", trace=False)
        default = run_pipeline(base.to_pipeline())
        # A harsher N-to-1 shared-file penalty, set through extras only,
        # makes the file system serve more bytes per step.
        via_extras = run_pipeline(
            base.replace(extras={"shared_file_penalty": 0.05}).to_pipeline()
        )
        assert not default.failed and not via_extras.failed
        assert via_extras.end_to_end_time > default.end_to_end_time

    def test_unknown_extras_raise(self, small_cfd_config):
        with pytest.raises(TypeError):
            PipelineRunner(small_cfd_config.replace(extras={"bogus_option": 1}).to_pipeline())


class TestPipelineSweeps:
    def _grid(self, chain_pipeline):
        return ParamGrid(
            chain_pipeline,
            axes=[("total_cores", (384, 768))],
            label="chain/{total_cores}",
        )

    def test_paramgrid_accepts_pipeline_specs(self, chain_pipeline):
        cases = list(self._grid(chain_pipeline))
        assert [c.label for c in cases] == ["chain/384", "chain/768"]
        assert all(isinstance(c.config, PipelineSpec) for c in cases)

    def test_sweep_runner_executes_pipelines(self, chain_pipeline):
        results = SweepRunner(workers=0).run_labelled(self._grid(chain_pipeline))
        assert set(results) == {"chain/384", "chain/768"}
        for result in results.values():
            assert not result.failed
            assert result.stage_breakdowns["viz"].analysis > 0

    def test_sweep_runner_parallel_and_resume(self, chain_pipeline, tmp_path):
        store = tmp_path / "pipelines.jsonl"
        grid = self._grid(chain_pipeline)
        first = SweepRunner(workers=2, store=str(store)).run(grid)
        assert all(r.ok and not r.skipped for r in first)
        second = SweepRunner(workers=2, store=str(store)).run(grid)
        assert all(r.skipped for r in second)

    def test_bench_shapes_spec(self):
        from repro.bench.experiments import pipeline_shapes_spec

        spec = pipeline_shapes_spec(steps=3, core_counts=(384,))
        labels = [case.label for case in spec.cases()]
        assert labels == ["chain/384", "fanout/384"]
        results = SweepRunner(workers=0).run_labelled(spec)
        assert all(not r.failed for r in results.values())


class TestRegistryHelpers:
    def test_canonical_name_is_exported(self):
        from repro.transports import canonical_name
        from repro.transports.registry import __all__ as registry_all

        assert "canonical_name" in registry_all
        assert canonical_name("ADIOS/DIMES") == "adios+dimes"

    def test_available_transports_with_aliases(self):
        from repro.transports import available_transports

        plain = available_transports()
        with_aliases = available_transports(include_aliases=True)
        assert set(plain) <= set(with_aliases)
        assert "mpi-io" in with_aliases and "mpi-io" not in plain
        assert "simulation-only" in with_aliases
