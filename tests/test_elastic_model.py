"""Tests for the model-driven elastic layer (policy, controller, rank counts)."""

from __future__ import annotations

import json

import pytest

from repro.bench.experiments import (
    elastic_burst_pipeline,
    model_driven_default_policy,
    model_vs_threshold_spec,
)
from repro.elastic import (
    ElasticController,
    ElasticPolicy,
    ModelDrivenController,
    ModelDrivenPolicy,
    RebalanceEvent,
)
from repro.simcore import PIDSmoother
from repro.sweep.runner import SweepRunner
from repro.sweep.store import result_payload
from repro.workflow.runner import PipelineRunner, run_pipeline

GRANTS = (128, 160, 192, 224, 256)


def bursty(grant=256, steps=12, elastic=None, elastic_ranks=False):
    """The bursty-analytics pipeline, optionally with rank-elastic stages."""
    pipeline = elastic_burst_pipeline(sim_cores=grant, steps=steps).replace(
        elastic=elastic
    )
    if elastic_ranks:
        pipeline = pipeline.replace(
            stages=tuple(s.replace(elastic_ranks=True) for s in pipeline.stages)
        )
    return pipeline


# -- policy -------------------------------------------------------------------
class TestModelDrivenPolicy:
    def test_defaults_validate(self):
        policy = ModelDrivenPolicy()
        assert policy.smoothing > 0 and policy.deadband_fraction >= 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"smoothing": 0.0},
            {"smoothing": 1.5},
            {"proportional_gain": -0.1},
            {"integral_gain": -0.1},
            {"derivative_gain": -0.1},
            {"deadband_fraction": -0.5},
            {"max_assist_ranks": -1},
            {"min_progress_steps": -1.0},
            # NaN fails every comparison, so each check must reject it.
            {"proportional_gain": float("nan")},
            {"integral_gain": float("nan")},
            {"derivative_gain": float("nan")},
            {"deadband_fraction": float("nan")},
            {"min_progress_steps": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelDrivenPolicy(**kwargs)

    def test_never_policy_has_infinite_deadband(self):
        assert ModelDrivenPolicy.never().deadband_fraction == float("inf")

    def test_build_controller_dispatches_on_policy_type(self):
        threshold_runner = PipelineRunner(bursty(elastic=ElasticPolicy()))
        assert type(threshold_runner.elastic_controller) is ElasticController
        model_runner = PipelineRunner(bursty(elastic=ModelDrivenPolicy()))
        assert type(model_runner.elastic_controller) is ModelDrivenController
        assert model_runner.elastic_controller.runner is model_runner


# -- the acceptance invariants -------------------------------------------------
class TestNeverTriggeringModelPolicy:
    def test_bit_identical_to_static(self):
        static = run_pipeline(bursty())
        never = run_pipeline(bursty(elastic=ModelDrivenPolicy.never(epoch_seconds=0.25)))
        assert never.rebalances == []
        assert result_payload(never) == result_payload(static)

    def test_bit_identical_with_rank_elastic_stages(self):
        static = run_pipeline(bursty(elastic_ranks=True))
        never = run_pipeline(
            bursty(elastic=ModelDrivenPolicy.never(epoch_seconds=0.25), elastic_ranks=True)
        )
        assert never.rebalances == []
        assert never.stage_assist_ranks == {}
        assert result_payload(never) == result_payload(static)


class TestModelBeatsThreshold:
    @pytest.fixture(scope="class")
    def grid_results(self):
        spec = model_vs_threshold_spec(steps=24)
        return SweepRunner(workers=0).run_labelled(spec)

    def test_grid_shape(self, grid_results):
        threshold = [k for k in grid_results if k.startswith("threshold/")]
        model = [k for k in grid_results if k.startswith("model/")]
        assert len(threshold) == len(model) == len(GRANTS)

    def test_best_model_run_at_least_matches_best_threshold(self, grid_results):
        best_threshold = min(
            (r for k, r in grid_results.items() if k.startswith("threshold/")),
            key=lambda r: r.end_to_end_time,
        )
        best_model = min(
            (r for k, r in grid_results.items() if k.startswith("model/")),
            key=lambda r: r.end_to_end_time,
        )
        assert best_model.end_to_end_time <= best_threshold.end_to_end_time
        # ... with strictly fewer rebalance events.
        assert len(best_model.rebalances) < len(best_threshold.rebalances)

    def test_model_dominates_every_grant(self, grid_results):
        for grant in GRANTS:
            threshold = grid_results[f"threshold/{grant}"]
            model = grid_results[f"model/{grant}"]
            assert model.end_to_end_time <= threshold.end_to_end_time, grant
            assert len(model.rebalances) < len(threshold.rebalances), grant

    def test_model_halves_total_rebalance_traffic(self, grid_results):
        threshold_events = sum(
            len(r.rebalances) for k, r in grid_results.items() if k.startswith("threshold/")
        )
        model_events = sum(
            len(r.rebalances) for k, r in grid_results.items() if k.startswith("model/")
        )
        assert model_events < threshold_events / 2

    def test_model_runs_actually_adapted(self, grid_results):
        for grant in GRANTS:
            assert grid_results[f"model/{grant}"].rebalances


class TestModelCoreConservation:
    def test_resizes_conserve_total_cores(self):
        runner = PipelineRunner(bursty(grant=192, elastic=model_driven_default_policy()))
        result = runner.run()
        controller = runner.elastic_controller
        resizes = [e for e in result.rebalances if e.kind == "stage_resize"]
        assert resizes, "the bursty scenario must trigger model-driven resizes"
        allocations = dict(controller.baseline)
        total = sum(allocations.values())
        for event in resizes:
            allocations[event.donor] -= event.amount
            allocations[event.receiver] += event.amount
            assert event.amount > 0
            assert sum(allocations.values()) == pytest.approx(total, rel=1e-12)
        assert allocations == pytest.approx(controller.allocations)

    def test_floors_respected_throughout(self):
        policy = model_driven_default_policy().replace(min_stage_fraction=0.25)
        runner = PipelineRunner(bursty(grant=192, elastic=policy))
        result = runner.run()
        controller = runner.elastic_controller
        allocations = dict(controller.baseline)
        for event in result.rebalances:
            if event.kind != "stage_resize":
                continue
            allocations[event.donor] -= event.amount
            allocations[event.receiver] += event.amount
            for name, value in allocations.items():
                assert value >= 0.25 * controller.baseline[name] - 1e-9


# -- edge cases ----------------------------------------------------------------
class TestEdgeCases:
    def test_all_stages_non_resizable_never_resize(self):
        pipeline = bursty(elastic=model_driven_default_policy())
        stages = tuple(s.replace(resizable=False) for s in pipeline.stages)
        runner = PipelineRunner(pipeline.replace(stages=stages))
        result = runner.run()
        assert [e for e in result.rebalances if e.kind == "stage_resize"] == []
        assert runner.elastic_controller.allocations == runner.elastic_controller.baseline

    def test_zero_length_epoch_reports_zero_health(self):
        runner = PipelineRunner(bursty(elastic=model_driven_default_policy()))
        monitor = runner.elastic_controller.monitor
        health = monitor.advance(runner.ctx.env.now)
        assert health.duration == 0.0
        for stage in health.stages.values():
            assert stage.busy_fraction == 0.0
            assert stage.stall_fraction == 0.0
            assert stage.work_fraction == 0.0
            assert stage.progress_steps == 0.0

    def test_zero_length_epoch_takes_no_decision(self):
        runner = PipelineRunner(bursty(elastic=model_driven_default_policy()))
        controller = runner.elastic_controller
        controller._on_epoch(runner.ctx.env.now)
        assert controller.epoch == 1
        assert controller.timeline == []
        assert controller.allocations == controller.baseline
        assert controller.model.epochs_observed == 0


class TestPIDDamping:
    def test_pid_amplitude_shrinks_while_bang_bang_oscillates(self):
        """The documented PR 3 fix: a fixed-step (bang-bang) loop keeps an
        oscillation amplitude of one full step around the target forever,
        while the PID-smoothed loop's amplitude shrinks epoch over epoch."""
        target, start, step = 200.0, 100.0, 80.0

        bang_bang_amplitudes = []
        holding = start
        for _ in range(12):
            holding += step if holding < target else -step
            bang_bang_amplitudes.append(abs(target - holding))
        # Once near balance the bang-bang loop never settles: it cycles
        # through the same overshoot amplitudes forever.
        tail = bang_bang_amplitudes[2:]
        assert min(tail) > 0
        assert tail[0:2] * (len(tail) // 2) == tail
        assert tail[-1] >= min(tail)

        pid = PIDSmoother(kp=0.6)
        holding = start
        pid_amplitudes = []
        for _ in range(12):
            holding += pid.update(target - holding, dt=1.0)
            pid_amplitudes.append(abs(target - holding))
        assert all(
            later < earlier
            for earlier, later in zip(pid_amplitudes, pid_amplitudes[1:])
        )
        assert pid_amplitudes[-1] < 0.1

    def test_integral_limit_clamps_windup(self):
        pid = PIDSmoother(kp=0.0, ki=1.0, integral_limit=5.0)
        for _ in range(100):
            out = pid.update(10.0, dt=1.0)
        assert out == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "kwargs", [{"kp": -1.0}, {"ki": -0.1}, {"kd": -0.1}, {"integral_limit": 0.0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PIDSmoother(**kwargs)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            PIDSmoother().update(1.0, dt=0.0)


# -- elastic rank counts --------------------------------------------------------
class TestRankLifecycleHooks:
    def test_spawn_and_retire_track_census_and_hosting(self):
        runner = PipelineRunner(bursty(elastic_ranks=True))
        base = runner.placement.stage_node_base["analysis"]
        nodes = [
            runner.cluster.node(base + offset)
            for offset in range(runner.placement.stage_nodes["analysis"])
        ]
        hosted_before = sum(n.hosted_ranks for n in nodes)
        assert runner.stage_assists("analysis") == 0
        assert runner.spawn_rank("analysis") == 1
        assert runner.spawn_rank("analysis") == 2
        assert sum(n.hosted_ranks for n in nodes) == hosted_before + 2
        assert runner.retire_rank("analysis") == 1
        assert runner.set_assist_ranks("analysis", 3) == 3
        assert runner.stage_assists("analysis") == 3

    def test_retire_without_spawn_rejected(self):
        runner = PipelineRunner(bursty(elastic_ranks=True))
        with pytest.raises(ValueError):
            runner.retire_rank("analysis")

    def test_spawn_for_unknown_stage_rejected(self):
        runner = PipelineRunner(bursty(elastic_ranks=True))
        with pytest.raises(KeyError):
            runner.spawn_rank("nope")

    def test_node_release_validation(self):
        runner = PipelineRunner(bursty())
        node = runner.cluster.node(0)
        node.hosted_ranks = 0
        with pytest.raises(ValueError):
            node.release_rank()

    def test_assists_speed_up_their_stage(self):
        """Spawned ranks are real capacity: a run that gets assists for free
        finishes faster than the identical static run."""
        static = run_pipeline(bursty(elastic_ranks=True))
        runner = PipelineRunner(bursty(elastic_ranks=True))
        runner.set_assist_ranks("simulation", 4)
        runner.set_assist_ranks("analysis", 2)
        assisted = runner.run()
        assert assisted.end_to_end_time < static.end_to_end_time
        assert assisted.stage_assist_ranks == {"simulation": 4, "analysis": 2}
        assert assisted.stats["simulation/assist_busy_time"] > 0
        assert assisted.stats["analysis/assist_busy_time"] > 0


class TestRankElasticRuns:
    @pytest.fixture(scope="class")
    def rank_elastic_result(self):
        runner = PipelineRunner(
            bursty(grant=192, steps=24, elastic=model_driven_default_policy(),
                   elastic_ranks=True)
        )
        return runner, runner.run()

    def test_rank_events_appear_on_the_timeline(self, rank_elastic_result):
        _, result = rank_elastic_result
        kinds = {e.kind for e in result.rebalances}
        assert "rank_spawn" in kinds
        assert "rank_retire" in kinds
        for event in result.rebalances:
            if event.kind in ("rank_spawn", "rank_retire"):
                assert event.amount >= 1
                assert "assist_ranks" in event.detail

    def test_census_and_stats_are_reported(self, rank_elastic_result):
        _, result = rank_elastic_result
        assert result.stage_assist_ranks
        assert any(key.endswith("/assist_busy_time") for key in result.stats)

    def test_assist_cap_respected(self, rank_elastic_result):
        runner, result = rank_elastic_result
        cap = runner.elastic_controller.policy.max_assist_ranks
        for event in result.rebalances:
            if event.kind in ("rank_spawn", "rank_retire"):
                assert event.detail["assist_ranks"] <= cap

    def test_timeline_roundtrips_through_store_payload(self, rank_elastic_result):
        _, result = rank_elastic_result
        payload = result_payload(result)
        assert "stage_assist_ranks" in payload
        restored = json.loads(json.dumps(payload, sort_keys=True))
        events = [RebalanceEvent.from_dict(e) for e in restored["rebalances"]]
        assert events == result.rebalances
        assert restored["stage_assist_ranks"] == {
            name: count for name, count in result.stage_assist_ranks.items()
        }
