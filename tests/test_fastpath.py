"""The engine fast path: sleep timeouts, event crediting, compute coalescing.

The acceptance invariant of the fast path is *bit-identity*: for fixed seeds,
a run with ``PipelineSpec.coalesce=True`` (the default) must produce exactly
the same persisted payload — every time, breakdown and counter, including
``events_processed`` — as the per-event slow path (``coalesce=False``), which
itself reproduces the pre-fast-path engine event for event.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.apps.costs import MiB, synthetic_workload
from repro.bench.experiments import (
    elastic_burst_pipeline,
    elastic_default_policy,
    figure2_spec,
    model_driven_default_policy,
    pipeline_chain,
    pipeline_fanout,
)
from repro.cluster.machine import Cluster
from repro.cluster.node import ComputeNode
from repro.cluster.presets import bridges
from repro.elastic import ModelDrivenPolicy
from repro.faults import FaultPlan, FaultSpec
from repro.simcore import AllOf, Environment, SimulationError, Timeout
from repro.tenants import JobSpec, TenantScheduler, TenantSpec
from repro.workflow import CouplingSpec, PipelineSpec, StageSpec
from repro.workflow.runner import run_pipeline
from repro.sweep.store import result_payload


#: ``(label, config)`` pairs of a small Figure 2 grid (every transport).
FIGURE2_CASES = [
    (case.label, case.config) for case in figure2_spec(steps=4, representative_sim_ranks=4).cases()
]


def payload_pair(pipeline):
    """Persisted payloads of the same pipeline with the fast path on and off."""
    fast = run_pipeline(pipeline.replace(coalesce=True))
    slow = run_pipeline(pipeline.replace(coalesce=False))
    return result_payload(fast), result_payload(slow)


# -- engine primitives --------------------------------------------------------
class TestSleep:
    def test_sleep_advances_like_timeout(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.sleep(1.5)
            log.append(env.now)
            yield env.sleep(0.5)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [1.5, 2.0]

    def test_three_sleeps_are_three_distinct_timeouts(self):
        env = Environment()
        seen = []

        def proc(env):
            for _ in range(3):
                event = env.sleep(1.0)
                seen.append(event)
                yield event

        env.process(proc(env))
        env.run()
        assert len({id(event) for event in seen}) == 3
        assert all(type(event) is Timeout for event in seen)
        assert all(event.processed and event.value is None for event in seen)

    def test_sleep_rejects_negative_delay(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.sleep(-0.1)

    def test_sleep_until_rejects_the_past(self):
        env = Environment(initial_time=2.0)
        with pytest.raises(SimulationError):
            env.sleep_until(1.0)

    def test_sleep_until_jumps_to_absolute_time(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.sleep_until(3.25)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [3.25]
        assert type(env.sleep_until(env.now)) is Timeout


# A sleep is a plain Timeout its holder may keep: each program below holds
# one past later steps and must observe exactly what the same program
# written with ``env.timeout`` observes.  ``make(delay)`` builds the event.
def _held_in_a_list(env, make, log):
    held = [make(1.0)]
    yield held[0]
    yield make(2.0)
    log.append((env.now, held[0].processed, held[0].value))
    yield held[0]
    log.append(env.now)


def _held_in_an_attribute(env, make, log):
    holder = SimpleNamespace(event=make(1.0))
    yield holder.event
    yield make(2.0)
    log.append((env.now, holder.event.processed, holder.event.value))
    yield holder.event
    log.append(env.now)


def _captured_by_a_closure(env, make, log):
    event = make(1.0)

    def peek():
        return env.now, event.processed, event.value

    yield event
    yield make(2.0)
    log.append(peek())


def _put_in_an_all_of(env, make, log):
    children = [make(1.0), make(3.0)]
    result = yield AllOf(env, children)
    log.append((env.now, [(children.index(ev), value) for ev, value in result.items()]))
    log.append([(child.processed, child.value) for child in children])


def _stash(event, holder):
    holder.stashed = event
    return event


def _passed_to_a_storing_helper(env, make, log):
    holder = SimpleNamespace(stashed=None)
    yield _stash(make(1.0), holder)
    yield make(2.0)
    log.append((env.now, holder.stashed.processed, holder.stashed.value))


def _yielded_again_after_later_steps(env, make, log):
    event = make(1.0)
    yield event
    yield make(2.0)
    yield make(1.0)
    log.append(env.now)
    value = yield event  # processed long ago: resumes at once
    log.append((env.now, value, event.processed))


def _churn(env, make):
    """Sleep again just after the held event fires, then for a long time."""
    yield make(1.5)
    yield make(10.0)


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize("kind", ["sleep", "sleep_until"])
@pytest.mark.parametrize(
    "program",
    [
        _held_in_a_list,
        _held_in_an_attribute,
        _captured_by_a_closure,
        _put_in_an_all_of,
        _passed_to_a_storing_helper,
        _yielded_again_after_later_steps,
    ],
    ids=lambda program: program.__name__.strip("_"),
)
def test_a_held_sleep_observes_what_a_held_timeout_does(program, kind, sanitize):
    def observe(make_for):
        env = Environment(sanitize=sanitize)
        make = make_for(env)
        log = []
        env.process(program(env, make, log))
        env.process(_churn(env, make))
        env.run()
        return log, env.now, env.events_processed

    if kind == "sleep":
        sleeps = observe(lambda env: env.sleep)
    else:
        sleeps = observe(lambda env: lambda delay: env.sleep_until(env.now + delay))
    timeouts = observe(lambda env: env.timeout)
    assert sleeps == timeouts
    assert sleeps[0], "the program logged nothing"


class TestEventAccounting:
    def test_credit_events_counts_without_processing(self):
        env = Environment()
        env.credit_events(5)
        assert env.events_processed == 5

    def test_complete_requires_triggered_callback_free_event(self):
        env = Environment()
        pending = env.event()
        with pytest.raises(SimulationError):
            env.complete(pending)
        waited = env.event()
        waited.succeed()
        waited.add_callback(lambda e: None)
        with pytest.raises(SimulationError):
            env.complete(waited)

    def test_release_is_counted_like_a_queued_event(self):
        # One request grant + one timeout + one release = 3 events, exactly
        # as when the release took a queue trip.
        from repro.simcore import Resource, Timeout

        env = Environment()
        res = Resource(env, capacity=1)

        def proc(env):
            req = res.request()
            yield req
            yield Timeout(env, 1.0)
            res.release(req)

        env.process(proc(env))
        env.run()
        # init + request + timeout + release + process-completion
        assert env.events_processed == 5


class TestComputeFastPath:
    def make_node(self, claims=0):
        cluster = Cluster(bridges(), num_nodes=1)
        node = cluster.node(0)
        if claims:
            node.claim_compute_slots(claims)
        return cluster.env, node

    def test_unclaimed_node_keeps_slow_path(self):
        env, node = self.make_node(claims=0)
        assert not node.uncontended

    def test_claims_beyond_cores_disable_fast_path(self):
        env, node = self.make_node(claims=1)
        assert node.uncontended
        node.claim_compute_slots(node.spec.cores)
        assert not node.uncontended
        node.release_compute_slots(node.spec.cores)
        assert node.uncontended

    def test_fast_and_slow_compute_agree_on_time_and_events(self):
        def run(claims):
            env, node = self.make_node(claims=claims)

            def proc(env):
                for _ in range(4):
                    yield from node.compute(0.25)

            env.process(proc(env))
            env.run()
            return env.now, env.events_processed

        assert run(claims=1) == run(claims=0)

    def test_compute_batch_matches_percall_sequence(self):
        chunks = (0.45, 0.35, 0.20)

        def run(batched):
            env, node = self.make_node(claims=1)

            def proc(env):
                if batched:
                    elapsed = yield from node.compute_batch(chunks, steps=3)
                    assert len(elapsed) == 3
                else:
                    for _ in range(3):
                        for chunk in chunks:
                            yield from node.compute(chunk)

            env.process(proc(env))
            env.run()
            return env.now, env.events_processed

        assert run(batched=True) == run(batched=False)

    def test_fast_path_holds_a_visible_core_slot(self):
        """A fast-path compute occupies a slot, so contenders queue behind it.

        Regression: when an elastic assist spawn pushes a node's claims past
        its core count while a fast-path compute is mid-flight, later
        slow-path computes must observe the true occupancy and queue —
        finishing at the same time as with the fast path disabled.
        """
        from dataclasses import replace as dc_replace

        from repro.simcore import Timeout

        def run(fast):
            cluster = Cluster(bridges(), num_nodes=1)
            node = cluster.node(0)
            # A one-core node makes the contention observable.
            node.spec = dc_replace(node.spec, cores=1)
            node.cores._capacity = 1
            if fast:
                node.claim_compute_slots(1)
            env = cluster.env
            finishes = {}

            def proc_a(env):
                yield from node.compute(10.0 * node.spec.core_speed)
                finishes["a"] = env.now

            def spawn_then_b(env):
                yield Timeout(env, 5.0)
                node.claim_compute_slots(1)  # claims now exceed the core count
                yield from node.compute(10.0 * node.spec.core_speed)
                finishes["b"] = env.now

            env.process(proc_a(env))
            env.process(spawn_then_b(env))
            env.run()
            return finishes

        fast = run(fast=True)
        slow = run(fast=False)
        assert fast == slow
        assert slow["b"] == pytest.approx(20.0)  # queued behind A, not overlapped

    def test_compute_batch_declines_on_unclaimed_node(self):
        env, node = self.make_node(claims=0)

        def proc(env):
            result = yield from node.compute_batch((1.0,))
            assert result is None

        env.process(proc(env))
        env.run()
        assert env.now == 0.0


# -- whole-run bit-identity ---------------------------------------------------
class TestCoalescingBitIdentity:
    @pytest.mark.parametrize(
        "label,config",
        FIGURE2_CASES,
        ids=lambda val: val if isinstance(val, str) else "",
    )
    def test_all_transports(self, label, config):
        """Fast path on vs off across every transport of Figure 2 (+ zipper/none)."""
        fast, slow = payload_pair(config.to_pipeline())
        assert fast == slow

    @pytest.mark.parametrize(
        "label,config",
        FIGURE2_CASES,
        ids=lambda val: val if isinstance(val, str) else "",
    )
    def test_empty_fault_plan_is_inert(self, label, config):
        """``FaultPlan.none()`` never perturbs a run, on either engine path.

        The no-fault plan creates no injector at all, so results *and*
        ``events_processed`` must equal the plain pipeline's exactly —
        across every transport, with coalescing both on and off.
        """
        from repro.faults import FaultPlan

        pipeline = config.to_pipeline()
        baseline = payload_pair(pipeline)
        with_plan = payload_pair(pipeline.replace(faults=FaultPlan.none()))
        assert with_plan == baseline

    @pytest.mark.parametrize("shape", [pipeline_chain, pipeline_fanout])
    def test_multi_stage_pipelines(self, shape):
        fast, slow = payload_pair(shape(total_cores=384, steps=6))
        assert fast == slow

    def test_jittered_run(self):
        """Per-call jitter draws survive the fast path (batching auto-disables)."""
        pipeline = pipeline_chain(total_cores=384, steps=4).replace(
            deterministic=False, seed=123
        )
        fast, slow = payload_pair(pipeline)
        assert fast == slow

    def test_traced_run_disables_coalescing_but_not_results(self):
        pipeline = pipeline_chain(total_cores=384, steps=4, trace=True)
        fast, slow = payload_pair(pipeline)
        assert fast == slow


class TestSanitizedBitIdentity:
    """A sanitized run persists what a plain run does.

    The sanitizer only adds checks around the one kernel step, so every
    Figure 2 transport must produce equal payloads with it on and off.
    """

    @pytest.mark.parametrize(
        "label,config",
        FIGURE2_CASES,
        ids=lambda val: val if isinstance(val, str) else "",
    )
    def test_all_transports(self, label, config, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        pipeline = config.to_pipeline()
        plain = run_pipeline(pipeline.replace(sanitize=False))
        sanitized = run_pipeline(pipeline.replace(sanitize=True))
        assert result_payload(plain) == result_payload(sanitized)

    def test_store_and_release_events_are_fresh_per_operation(self):
        from repro.simcore import Resource, Store

        events = []

        def churn(env, store, resource):
            for _ in range(4):
                for event in (store.put("x"), store.get()):
                    events.append(event)
                    yield event
                req = resource.request()
                yield req
                events.append(resource.release(req))
                yield events[-1]
                yield env.sleep(0.1)

        env = Environment()
        store, resource = Store(env), Resource(env, capacity=1)
        env.process(churn(env, store, resource))
        env.run()
        assert len({id(event) for event in events}) == len(events) == 12
        assert [event.value for event in events[1::3]] == ["x"] * 4


class TestCoalescingRule:
    """A run coalesces compute only while no layer can re-rate it.

    The source of a halo-free pipeline sends every step through
    ``compute_batch`` unless an elastic controller, a fault injector or a
    fair-share tenant scheduler may change its rates mid-run; dedicated
    FCFS jobs keep coalescing.  Either way both engine paths persist equal
    payloads.
    """

    @staticmethod
    def pipeline():
        """A synthetic producer -> consumer pair whose source has no halos."""
        workload = synthetic_workload("O(n)", 8 * MiB, data_per_rank=128 * MiB)
        return PipelineSpec(
            stages=(
                StageSpec("sim", workload, representative_ranks=4, total_ranks=128),
                StageSpec("analysis", workload, representative_ranks=2, total_ranks=64),
            ),
            couplings=(CouplingSpec("sim", "analysis", transport="zipper"),),
            cluster=bridges(),
            total_cores=192,
            trace=False,
            seed=3,
        )

    def payload(self, layer, coalesce):
        pipeline = self.pipeline().replace(coalesce=coalesce)
        if layer == "elastic":
            pipeline = pipeline.replace(elastic=elastic_default_policy())
        elif layer == "faults":
            straggler = FaultSpec(
                kind="straggler", time=0.05, target="sim", duration=0.1, severity=2.0
            )
            pipeline = pipeline.replace(faults=FaultPlan(specs=(straggler,)))
        if layer in ("fair", "fcfs"):
            jobs = (JobSpec("a/0", "a", pipeline), JobSpec("b/0", "b", pipeline))
            scheduler = TenantScheduler(TenantSpec(jobs=jobs, policy=layer))
            # Drain the facility by hand: run() would add each job's
            # dedicated baseline run, which coalesces.
            scheduler.start()
            scheduler.env.run()
            payload = {
                name: result_payload(result)
                for name, result in scheduler.job_results.items()
            }
            payload["timeline"] = [(e.time, e.kind, e.job) for e in scheduler.timeline]
            return payload
        return result_payload(run_pipeline(pipeline))

    @pytest.mark.parametrize(
        "layer, coalesces",
        [
            ("none", True),
            ("elastic", False),
            ("faults", False),
            ("fair", False),
            ("fcfs", True),
        ],
    )
    def test_batches_only_when_no_layer_can_rerate_the_run(
        self, monkeypatch, layer, coalesces
    ):
        batched = []
        original = ComputeNode.compute_batch

        def spy(*args, **kwargs):
            elapsed = yield from original(*args, **kwargs)
            batched.append(elapsed is not None)
            return elapsed

        monkeypatch.setattr(ComputeNode, "compute_batch", spy)
        fast = self.payload(layer, coalesce=True)
        assert any(batched) if coalesces else batched == []
        assert fast == self.payload(layer, coalesce=False)
        if layer == "faults":
            assert fast.get("faults"), "the plan must actually fire mid-run"
        if layer == "fair":
            kinds = [kind for _time, kind, _job in fast["timeline"]]
            assert "share" in kinds, "the two jobs must actually share the facility"


class TestElasticCoalescingBitIdentity:
    def bursty(self, **overrides):
        return elastic_burst_pipeline(sim_cores=192, steps=12).replace(**overrides)

    def test_threshold_policy_run(self):
        from repro.bench.experiments import elastic_default_policy

        fast, slow = payload_pair(self.bursty(elastic=elastic_default_policy()))
        assert fast.get("rebalances"), "scenario must actually rebalance mid-run"
        assert fast == slow

    def test_model_driven_reallocation_splits_coalesced_segments(self):
        """Mid-run reallocations land between the same steps as on the slow path."""
        pipeline = self.bursty(elastic=model_driven_default_policy())
        fast, slow = payload_pair(pipeline)
        assert fast.get("rebalances"), "scenario must actually rebalance mid-run"
        assert fast == slow

    def test_rank_elastic_assist_spawns(self):
        """Spawned assist ranks claim compute slots and stay bit-identical."""
        pipeline = self.bursty(elastic=model_driven_default_policy())
        pipeline = pipeline.replace(
            stages=tuple(s.replace(elastic_ranks=True) for s in pipeline.stages)
        )
        fast = run_pipeline(pipeline.replace(coalesce=True))
        slow = run_pipeline(pipeline.replace(coalesce=False))
        assert result_payload(fast) == result_payload(slow)

    def test_never_policy_still_matches_static(self):
        static = run_pipeline(self.bursty())
        never = run_pipeline(
            self.bursty(elastic=ModelDrivenPolicy.never(epoch_seconds=0.25))
        )
        assert result_payload(never) == result_payload(static)


class TestFaultCoalescingBitIdentity:
    """An active fault plan changes no result between the two engine paths."""

    def seeded_plan(self, pipeline):
        from repro.faults import FaultPlan
        from repro.workflow.runner import pipeline_simulation_only_time

        return FaultPlan.seeded(
            "fastpath",
            ("simulation",),
            horizon=pipeline_simulation_only_time(pipeline),
            couplings=(pipeline.couplings[0].name,),
        )

    def test_active_plan_coalesces_bit_identically(self):
        pipeline = elastic_burst_pipeline(sim_cores=192, steps=12)
        pipeline = pipeline.replace(faults=self.seeded_plan(pipeline))
        fast, slow = payload_pair(pipeline)
        assert fast.get("faults"), "the plan must actually fire mid-run"
        assert fast == slow

    def test_active_plan_under_elastic_control(self):
        from repro.bench.experiments import elastic_default_policy

        pipeline = elastic_burst_pipeline(
            sim_cores=192, steps=12, elastic=elastic_default_policy()
        )
        pipeline = pipeline.replace(faults=self.seeded_plan(pipeline))
        fast, slow = payload_pair(pipeline)
        assert fast.get("faults"), "the plan must actually fire mid-run"
        assert fast == slow


class TestTenantBitIdentity:
    """The tenant layer adds exactly zero modelled events to a solo run.

    A single job arriving at time zero on an exactly-fitting facility must
    persist the identical payload — ``events_processed`` included — as the
    same pipeline run directly through the dedicated engine, with the
    coalescing fast path on and off alike.
    """

    def solo_payload(self, pipeline):
        from repro.tenants import JobSpec, TenantScheduler, TenantSpec

        spec = TenantSpec(
            jobs=(JobSpec("solo/0", "solo", pipeline),),
            policy="fair",
            epoch_seconds=0.25,
        )
        scheduler = TenantScheduler(spec)
        scheduler.run()
        return result_payload(scheduler.job_results["solo/0"])

    @pytest.mark.parametrize("coalesce", (True, False))
    def test_solo_job_matches_the_dedicated_engine(self, coalesce):
        pipeline = elastic_burst_pipeline(sim_cores=192, steps=8).replace(
            coalesce=coalesce
        )
        via_tenants = self.solo_payload(pipeline)
        dedicated = result_payload(run_pipeline(pipeline))
        assert via_tenants == dedicated
        assert via_tenants["stats"]["events_processed"] == (
            dedicated["stats"]["events_processed"]
        )

    def test_facility_events_are_instrumentation_only(self):
        from repro.tenants import JobSpec, TenantScheduler, TenantSpec

        pipeline = elastic_burst_pipeline(sim_cores=192, steps=8)
        spec = TenantSpec(jobs=(JobSpec("solo/0", "solo", pipeline),))
        scheduler = TenantScheduler(spec)
        facility = scheduler.run()
        dedicated = run_pipeline(pipeline)
        # The scheduler's own boundary wake-ups are reported separately and
        # never leak into the modelled event count.
        assert facility.stats["scheduler_events"] > 0
        assert facility.stats["events_processed"] == (
            dedicated.stats["events_processed"]
        )
