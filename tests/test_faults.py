"""The fault-injection subsystem: plan vocabulary, injector wiring, recovery model.

The headline contracts — ``FaultPlan.none()`` bit-identity across every
transport and coalesce-mode identity under an active plan — live in
``tests/test_fastpath.py`` next to the other engine-identity suites; the
property-based invariants live in ``tests/test_invariants.py``.  This module
covers the unit layer underneath: spec/plan validation, seeded-plan
determinism, injector construction, the checkpoint/recovery cost model, and
the degraded-node bookkeeping the elastic layer keys off.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import (
    elastic_burst_pipeline,
    elastic_default_policy,
    fault_recovery_spec,
)
from repro.cluster.machine import Cluster
from repro.cluster.presets import bridges
from repro.faults import KINDS, WINDOWED_KINDS, FaultEvent, FaultPlan, FaultSpec
from repro.workflow.pipeline import PipelineSpec
from repro.workflow.runner import (
    PipelineRunner,
    pipeline_simulation_only_time,
    run_pipeline,
)


def bursty(**overrides) -> PipelineSpec:
    return elastic_burst_pipeline(sim_cores=192, steps=12).replace(**overrides)


def seeded_plan(pipeline: PipelineSpec, **kwargs) -> FaultPlan:
    defaults = dict(
        horizon=pipeline_simulation_only_time(pipeline),
        couplings=(pipeline.couplings[0].name,),
    )
    defaults.update(kwargs)
    return FaultPlan.seeded("test-faults", ("simulation",), **defaults)


class TestFaultSpecValidation:
    def test_known_kinds_only(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="gamma_ray", time=1.0, target="simulation")

    def test_windowed_kinds_need_a_duration(self):
        for kind in WINDOWED_KINDS:
            severity = 4.0 if kind == "straggler" else 0.5
            with pytest.raises(ValueError, match="positive duration"):
                FaultSpec(kind=kind, time=1.0, target="x", severity=severity)
            # NaN fails every comparison, so each check must reject it.
            with pytest.raises(ValueError, match="positive duration"):
                FaultSpec(
                    kind=kind, time=1.0, target="x", duration=float("nan"), severity=severity
                )

    def test_crash_duration_is_computed_not_specified(self):
        with pytest.raises(ValueError, match="duration must stay 0"):
            FaultSpec(kind="node_crash", time=1.0, target="x", duration=2.0)

    def test_straggler_severity_is_a_slowdown(self):
        with pytest.raises(ValueError, match="slowdown factor"):
            FaultSpec(kind="straggler", time=1.0, target="x", duration=1.0, severity=0.5)
        with pytest.raises(ValueError, match="slowdown factor"):
            FaultSpec(
                kind="straggler", time=1.0, target="x", duration=1.0, severity=float("nan")
            )

    def test_bandwidth_severity_stays_in_unit_interval(self):
        for kind in ("link_degrade", "transport_restart"):
            with pytest.raises(ValueError, match="bandwidth scale"):
                FaultSpec(kind=kind, time=1.0, target="x", duration=1.0, severity=1.5)

    def test_negative_time_and_rank_rejected(self):
        with pytest.raises(ValueError, match="time"):
            FaultSpec(kind="node_crash", time=-1.0, target="x")
        with pytest.raises(ValueError, match="time"):
            FaultSpec(kind="node_crash", time=float("nan"), target="x")
        with pytest.raises(ValueError, match="rank"):
            FaultSpec(kind="node_crash", time=1.0, target="x", rank=-1)


class TestFaultPlan:
    def test_none_plan_is_empty(self):
        plan = FaultPlan.none()
        assert plan.empty
        assert plan.specs == ()

    def test_specs_coerced_to_tuple(self):
        spec = FaultSpec(kind="node_crash", time=1.0, target="x")
        plan = FaultPlan(specs=[spec])
        assert isinstance(plan.specs, tuple)

    def test_negative_recovery_cost_rejected(self):
        with pytest.raises(ValueError, match="recovery_seconds"):
            FaultPlan(recovery_seconds=-0.1)
        with pytest.raises(ValueError, match="recovery_seconds"):
            FaultPlan(recovery_seconds=float("nan"))

    def test_seeded_is_deterministic_per_label_and_seed(self):
        kwargs = dict(horizon=10.0, couplings=("a->b",))
        one = FaultPlan.seeded("det", ("sim",), **kwargs)
        two = FaultPlan.seeded("det", ("sim",), **kwargs)
        assert one == two
        assert FaultPlan.seeded("det", ("sim",), seed=2, **kwargs) != one
        assert FaultPlan.seeded("other", ("sim",), **kwargs) != one

    def test_seeded_draws_every_requested_kind_inside_the_horizon(self):
        plan = FaultPlan.seeded(
            "counts", ("sim",), horizon=10.0, couplings=("a->b",),
            crashes=2, stragglers=3, degradations=1, restarts=2,
        )
        by_kind = {kind: 0 for kind in KINDS}
        for spec in plan.specs:
            by_kind[spec.kind] += 1
            assert 0.0 <= spec.time <= 10.0
        assert by_kind == {
            "node_crash": 2, "straggler": 3, "link_degrade": 1, "transport_restart": 2,
        }
        assert list(plan.specs) == sorted(plan.specs, key=lambda s: s.time)

    def test_seeded_validates_its_inputs(self):
        with pytest.raises(ValueError, match="horizon"):
            FaultPlan.seeded("bad", ("sim",), horizon=0.0)
        with pytest.raises(ValueError, match="at least one stage"):
            FaultPlan.seeded("bad", (), horizon=1.0)
        with pytest.raises(ValueError, match="no couplings"):
            FaultPlan.seeded("bad", ("sim",), horizon=1.0, restarts=1)


class TestFaultEventRoundTrip:
    def test_as_dict_from_dict_is_exact(self):
        event = FaultEvent(
            time=1.25, kind="node_crash", action="inject", target="simulation",
            detail={"node": 3.0, "rank": 1.0, "downtime": 0.75},
        )
        assert FaultEvent.from_dict(event.as_dict()) == event


class TestInjectorWiring:
    def test_no_plan_and_none_plan_create_no_injector(self):
        assert PipelineRunner(bursty()).fault_injector is None
        assert PipelineRunner(bursty(faults=FaultPlan.none())).fault_injector is None

    def test_active_plan_creates_an_injector(self):
        pipeline = bursty()
        runner = PipelineRunner(pipeline.replace(faults=seeded_plan(pipeline)))
        assert runner.fault_injector is not None

    def test_unknown_stage_target_fails_at_construction(self):
        plan = FaultPlan(specs=(FaultSpec(kind="node_crash", time=1.0, target="nope"),))
        with pytest.raises(ValueError, match="unknown stage"):
            PipelineRunner(bursty(faults=plan))

    def test_unknown_coupling_target_fails_at_construction(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="transport_restart", time=1.0, target="a->b",
                    duration=1.0, severity=0.5,
                ),
            )
        )
        with pytest.raises(ValueError, match="unknown coupling"):
            PipelineRunner(bursty(faults=plan))

    def test_seeded_run_reproduces_the_exact_timeline(self):
        pipeline = bursty()
        pipeline = pipeline.replace(faults=seeded_plan(pipeline))
        first = run_pipeline(pipeline)
        second = run_pipeline(pipeline)
        assert first.faults, "the plan must actually fire"
        assert first.faults == second.faults
        assert first.end_to_end_time == second.end_to_end_time

    def test_windowed_faults_recover_in_pairs(self):
        pipeline = bursty()
        pipeline = pipeline.replace(faults=seeded_plan(pipeline))
        result = run_pipeline(pipeline)
        for kind in KINDS:
            injects = [e for e in result.faults if e.kind == kind and e.action == "inject"]
            recovers = [e for e in result.faults if e.kind == kind and e.action == "recover"]
            assert len(injects) == len(recovers) == 1


class TestCheckpointRecoveryModel:
    def downtimes(self, interval):
        base = elastic_burst_pipeline(sim_cores=192, steps=12)
        stages = tuple(
            s.replace(checkpoint_interval=interval) if s.name == "simulation" else s
            for s in base.stages
        )
        plan = seeded_plan(base, stragglers=0, degradations=0, restarts=0)
        result = run_pipeline(base.replace(stages=stages, faults=plan))
        return [
            e.detail["downtime"]
            for e in result.faults
            if e.kind == "node_crash" and e.action == "inject"
        ]

    def test_checkpoint_interval_validation(self):
        base = elastic_burst_pipeline(sim_cores=192, steps=12)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            base.stages[0].replace(checkpoint_interval=0)

    def test_downtime_grows_with_the_checkpoint_interval(self):
        by_interval = {i: max(self.downtimes(i)) for i in (1, 4, None)}
        assert by_interval[1] <= by_interval[4] <= by_interval[None]
        assert by_interval[1] < by_interval[None]

    def test_downtime_floor_is_the_plan_recovery_cost(self):
        assert min(self.downtimes(1)) >= 0.25


class TestDegradedNodeBookkeeping:
    def test_fault_scale_composes_into_the_node_rate(self):
        node = Cluster(bridges(), num_nodes=1).node(0)
        node.set_rate_factor("elastic", 2.0)
        node.set_rate_factor("fault", 0.25)
        assert node.rate_factor("fault") == 0.25
        assert node._rate == pytest.approx(node.spec.core_speed * 2.0 * 0.25)
        node.set_rate_factor("fault", 1.0)
        assert node._rate == pytest.approx(node.spec.core_speed * 2.0)

    def test_elastic_run_reroutes_around_the_same_plan(self):
        """With the identical fault schedule, elastic control beats static."""
        spec = fault_recovery_spec(steps=12, checkpoint_intervals=(4,))
        cases = {case.label: case.config for case in spec.cases()}
        static = run_pipeline(cases["static/ckpt-4"])
        elastic = run_pipeline(cases["elastic/ckpt-4"])
        assert static.faults and len(static.faults) == len(elastic.faults)
        assert elastic.end_to_end_time < static.end_to_end_time

    def test_monitor_reports_the_degraded_fraction(self):
        pipeline = bursty(elastic=elastic_default_policy())
        plan = seeded_plan(pipeline, crashes=0, degradations=0, restarts=0)
        runner = PipelineRunner(pipeline.replace(faults=plan))
        result = runner.run()
        straggles = [e for e in result.faults if e.kind == "straggler"]
        assert len(straggles) == 2  # inject + recover
        # After the run the window has closed again.
        assert not any(
            runner.cluster.node(i).degraded for i in range(len(runner.cluster.nodes))
        )
