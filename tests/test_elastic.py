"""Tests for the elastic adaptation layer (policy, controller, invariants)."""

from __future__ import annotations

import json
from itertools import permutations

import pytest

from repro.apps.costs import MiB, cfd_workload, synthetic_workload
from repro.bench.experiments import (
    elastic_burst_pipeline,
    elastic_default_policy,
    elastic_vs_static_spec,
)
from repro.cluster.presets import bridges, laptop
from repro.cluster import RATE_OWNERS, Cluster
from repro.elastic import ElasticPolicy, RebalanceEvent
from repro.elastic.monitor import CouplingHealth, EpochHealth, StageHealth
from repro.faults import FaultPlan, FaultSpec
from repro.simcore import CounterDeltas, Environment, PeriodicController, Timeout
from repro.sweep.runner import SweepRunner
from repro.sweep.store import result_payload
from repro.workflow import CouplingSpec, PipelineSpec, StageSpec
from repro.workflow.runner import PipelineRunner, run_pipeline


# -- scenario helpers ---------------------------------------------------------
def two_stage_pipeline(elastic=None, steps=6, **overrides):
    """A small static-by-default CFD pipeline used across the tests."""
    workload = cfd_workload(steps=steps)
    spec = dict(
        stages=(
            StageSpec("simulation", workload, representative_ranks=8, total_ranks=256),
            StageSpec("analysis", workload, representative_ranks=4, total_ranks=128),
        ),
        couplings=(CouplingSpec("simulation", "analysis", transport="zipper"),),
        cluster=bridges(),
        total_cores=384,
        steps=steps,
        trace=False,
        seed=11,
        elastic=elastic,
    )
    spec.update(overrides)
    return PipelineSpec(**spec)


def lease_pipeline(elastic=None):
    """Two independent producer->consumer pairs: one transfer-bound, one light."""
    heavy = synthetic_workload("O(n)", 8 * MiB, data_per_rank=512 * MiB)
    light = synthetic_workload("O(nlogn)", 1 * MiB, data_per_rank=64 * MiB)
    return PipelineSpec(
        stages=(
            StageSpec("simA", heavy, representative_ranks=4, total_ranks=128),
            StageSpec("analysisA", heavy, representative_ranks=2, total_ranks=64),
            StageSpec("simB", light, representative_ranks=4, total_ranks=128),
            StageSpec("analysisB", light, representative_ranks=2, total_ranks=64),
        ),
        couplings=(
            CouplingSpec("simA", "analysisA", transport="zipper"),
            CouplingSpec("simB", "analysisB", transport="zipper"),
        ),
        cluster=bridges(),
        total_cores=384,
        trace=False,
        producer_buffer_blocks=4,
        high_water_mark=4,
        concurrent_transfer=False,
        elastic=elastic,
        seed=3,
    )


# -- policy -------------------------------------------------------------------
class TestElasticPolicy:
    def test_defaults_validate(self):
        policy = ElasticPolicy()
        assert policy.epoch_seconds > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epoch_seconds": 0.0},
            {"stall_threshold": -0.1},
            {"idle_threshold": 1.5},
            {"idle_threshold": 0.8, "saturated_threshold": 0.5},
            {"resize_fraction": 0.0},
            {"resize_fraction": 1.5},
            {"min_stage_fraction": 0.0},
            {"lease_step": 0.0},
            {"min_bandwidth_share": 0.0},
            {"max_bandwidth_share": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ElasticPolicy(**kwargs)

    def test_never_policy_cannot_trigger(self):
        policy = ElasticPolicy.never()
        assert policy.stall_threshold == float("inf")
        assert policy.saturated_threshold == float("inf")
        assert policy.starved_threshold == float("inf")
        assert policy.idle_threshold == 0.0

    def test_pipeline_rejects_non_policy(self):
        with pytest.raises(ValueError):
            two_stage_pipeline(elastic="not a policy")


# -- simcore control primitives ----------------------------------------------
class TestPeriodicController:
    def test_fires_at_interval_and_stops_on_false(self):
        env = Environment()
        seen = []

        def tick(now):
            seen.append(now)
            return len(seen) < 3

        def keep_alive():
            yield Timeout(env, 100.0)

        controller = PeriodicController(env, 2.0, tick)
        controller.start()
        env.process(keep_alive())
        env.run()
        assert seen == [2.0, 4.0, 6.0]
        assert controller.wakeups == 3
        assert controller.events_consumed == 4  # init event + three wake-ups

    def test_unstarted_controller_consumed_nothing(self):
        controller = PeriodicController(Environment(), 1.0, lambda now: None)
        assert controller.events_consumed == 0
        assert not controller.started

    def test_rejects_bad_interval_and_double_start(self):
        env = Environment()
        with pytest.raises(ValueError):
            PeriodicController(env, 0.0, lambda now: None)
        controller = PeriodicController(env, 1.0, lambda now: False)
        controller.start()
        with pytest.raises(RuntimeError):
            controller.start()


class TestCounterDeltas:
    def test_deltas_between_advances(self):
        deltas = CounterDeltas()
        assert deltas.advance("g", {"a": 2.0}) == {"a": 2.0}
        assert deltas.advance("g", {"a": 5.0, "b": 1.0}) == {"a": 3.0, "b": 1.0}
        assert deltas.peek("g") == {"a": 5.0, "b": 1.0}
        assert deltas.peek("other") == {}


# -- cluster-side mechanism ---------------------------------------------------
class TestNodeAllocation:
    def test_allocation_scale_changes_compute_rate(self):
        cluster = Cluster(laptop(), num_nodes=1)
        node = cluster.node(0)
        durations = []

        def work():
            got = yield from node.compute(1.0)
            durations.append(got)

        cluster.env.process(work())
        cluster.run()
        node.set_rate_factor("elastic", 2.0)
        cluster.env.process(work())
        cluster.run()
        assert durations[1] == pytest.approx(durations[0] / 2.0)
        assert node.rate_factor("elastic") == 2.0


def rate_holder(kind):
    """A fresh holder of a rate-factor table and a reader of its rate."""
    if kind == "node":
        node = Cluster(laptop(), num_nodes=1).node(0)
        return node, lambda: node._rate
    coupling = PipelineRunner(lease_pipeline()).ctx.couplings[0]
    return coupling, lambda: coupling.bandwidth_share


class TestRateFactors:
    """Nodes and couplings share one validated, ordered rate-factor table."""

    @pytest.mark.parametrize("owner", RATE_OWNERS)
    @pytest.mark.parametrize("kind", ["node", "coupling"])
    def test_rejected_write_changes_nothing(self, kind, owner):
        holder, rate = rate_holder(kind)
        holder.set_rate_factor(owner, 0.5)
        before = rate()
        for factor in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                holder.set_rate_factor(owner, factor)
        with pytest.raises(KeyError):
            holder.set_rate_factor("fabric", 0.5)
        with pytest.raises(KeyError):
            holder.rate_factor("fabric")
        assert holder.rate_factor(owner) == 0.5
        assert rate() == before

    @pytest.mark.parametrize("kind", ["node", "coupling"])
    def test_factors_multiply_in_owner_order_whatever_the_write_order(self, kind):
        factors = {"elastic": 1.3, "fault": 0.7, "tenant": 0.9}
        for order in permutations(RATE_OWNERS):
            holder, rate = rate_holder(kind)
            base = rate()
            for owner in order:
                holder.set_rate_factor(owner, factors[owner])
            assert rate() == ((base * 1.3) * 0.7) * 0.9, order


# -- bursty workload model ----------------------------------------------------
class TestBurstyWorkload:
    def test_steady_workload_is_exact_passthrough(self):
        workload = cfd_workload(steps=4)
        for step in range(8):
            assert (
                workload.analysis_seconds_per_byte_at(step)
                == workload.analysis_seconds_per_byte
            )

    def test_burst_pattern_hits_window_tail(self):
        workload = cfd_workload(steps=12).replace(
            analysis_burst_factor=4.0, analysis_burst_period=6, analysis_burst_length=2
        )
        base = workload.analysis_seconds_per_byte
        costs = [workload.analysis_seconds_per_byte_at(step) for step in range(12)]
        assert costs[:4] == [base] * 4
        assert costs[4:6] == [base * 4.0] * 2
        assert costs[6:10] == [base] * 4
        assert costs[10:] == [base * 4.0] * 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"analysis_burst_factor": 0.0},
            {"analysis_burst_period": -1},
            {"analysis_burst_length": 0},
            {"analysis_burst_period": 2, "analysis_burst_length": 3},
            # length == period would make every step a burst step, leaving
            # no observable steady baseline before the first burst.
            {"analysis_burst_period": 2, "analysis_burst_length": 2},
            # NaN fails every comparison, so each check must reject it.
            {"analysis_burst_factor": float("nan")},
            {"analysis_burst_length": float("nan")},
            {"analysis_seconds_per_byte": float("nan")},
            {"sim_step_seconds": float("nan")},
            {"analysis_burst_period": float("nan")},
            {"output_bytes_per_step": float("nan")},
            {"halo_bytes": float("nan")},
            {"block_exponent": float("nan")},
            {"reference_block_bytes": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            cfd_workload(steps=4).replace(**kwargs)


# -- the acceptance invariants -----------------------------------------------
class TestNeverTriggeringPolicy:
    def test_bit_identical_to_static(self):
        static = run_pipeline(two_stage_pipeline())
        never = run_pipeline(
            two_stage_pipeline(elastic=ElasticPolicy.never(epoch_seconds=0.25))
        )
        assert never.rebalances == []
        # The full persisted payloads (times, breakdowns, every counter
        # including events_processed) must match bit for bit.
        assert result_payload(never) == result_payload(static)

    def test_bit_identical_on_bursty_scenario(self):
        static = run_pipeline(elastic_burst_pipeline(steps=12))
        never = run_pipeline(
            elastic_burst_pipeline(steps=12).replace(
                elastic=ElasticPolicy.never(epoch_seconds=0.25)
            )
        )
        assert never.rebalances == []
        assert result_payload(never) == result_payload(static)


class TestCoreConservation:
    def run_bursty(self, **policy_overrides):
        policy = elastic_default_policy().replace(**policy_overrides)
        runner = PipelineRunner(
            elastic_burst_pipeline(steps=12).replace(elastic=policy)
        )
        result = runner.run()
        return runner, result

    def test_resizes_conserve_total_cores_at_every_epoch(self):
        runner, result = self.run_bursty()
        controller = runner.elastic_controller
        resizes = [e for e in result.rebalances if e.kind == "stage_resize"]
        assert resizes, "the bursty scenario must trigger resizes"
        # Replay the timeline from the baseline: the sum is invariant after
        # every decision and the final holdings match the controller's.
        allocations = dict(controller.baseline)
        total = sum(allocations.values())
        for event in resizes:
            allocations[event.donor] -= event.amount
            allocations[event.receiver] += event.amount
            assert event.amount > 0
            assert sum(allocations.values()) == pytest.approx(total, rel=1e-12)
            for name, after in event.detail.items():
                assert allocations[name] == pytest.approx(after, rel=1e-12)
        assert allocations == pytest.approx(controller.allocations)
        assert sum(controller.allocations.values()) == pytest.approx(total)

    def test_floors_respected_throughout(self):
        runner, result = self.run_bursty(min_stage_fraction=0.25)
        controller = runner.elastic_controller
        allocations = dict(controller.baseline)
        for event in result.rebalances:
            if event.kind != "stage_resize":
                continue
            allocations[event.donor] -= event.amount
            allocations[event.receiver] += event.amount
            for name, value in allocations.items():
                assert value >= 0.25 * controller.baseline[name] - 1e-9

    def test_min_core_fraction_override_tightens_floor(self):
        policy = elastic_default_policy()
        pipeline = elastic_burst_pipeline(steps=12).replace(elastic=policy)
        stages = tuple(s.replace(min_core_fraction=0.9) for s in pipeline.stages)
        runner = PipelineRunner(pipeline.replace(stages=stages))
        result = runner.run()
        controller = runner.elastic_controller
        allocations = dict(controller.baseline)
        for event in result.rebalances:
            if event.kind != "stage_resize":
                continue
            allocations[event.donor] -= event.amount
            allocations[event.receiver] += event.amount
            for name, value in allocations.items():
                assert value >= 0.9 * controller.baseline[name] - 1e-9

    def test_uneven_grants_conserve_granted_cores(self):
        """With an uneven static grant the baseline is the *granted* cores,
        so resizes move real cores (not rank units) and conserve the total."""
        policy = elastic_default_policy()
        runner = PipelineRunner(
            elastic_burst_pipeline(sim_cores=128, steps=12).replace(elastic=policy)
        )
        controller = runner.elastic_controller
        assert controller.baseline == {"simulation": 128.0, "analysis": 256.0}
        assert controller.total_cores == 384.0
        runner.run()
        assert sum(controller.allocations.values()) == pytest.approx(384.0)

    def test_non_resizable_stages_are_left_alone(self):
        policy = elastic_default_policy()
        pipeline = elastic_burst_pipeline(steps=12).replace(elastic=policy)
        stages = tuple(s.replace(resizable=False) for s in pipeline.stages)
        runner = PipelineRunner(pipeline.replace(stages=stages))
        result = runner.run()
        assert [e for e in result.rebalances if e.kind == "stage_resize"] == []
        assert runner.elastic_controller.allocations == runner.elastic_controller.baseline


class TestBandwidthLeases:
    def test_lender_never_below_floor(self):
        policy = ElasticPolicy(
            epoch_seconds=0.25,
            stage_resize=False,
            work_stealing=True,
            starved_threshold=0.05,
            lease_step=0.25,
            min_bandwidth_share=0.5,
            max_bandwidth_share=2.0,
        )
        runner = PipelineRunner(lease_pipeline(elastic=policy))
        result = runner.run()
        leases = [e for e in result.rebalances if e.kind == "bandwidth_lease"]
        assert leases, "the lease scenario must trigger work stealing"
        shares = {c.name: 1.0 for c in runner.pipeline.couplings}
        for event in leases:
            shares[event.donor] -= event.amount
            shares[event.receiver] += event.amount
            assert min(shares.values()) >= policy.min_bandwidth_share - 1e-9
            assert max(shares.values()) <= policy.max_bandwidth_share + 1e-9
            assert sum(shares.values()) == pytest.approx(len(shares), rel=1e-12)
        assert shares == pytest.approx(runner.elastic_controller.bandwidth_shares)

    def test_floor_clamps_synthetic_decisions(self):
        """Drive the lease logic directly: even under permanent starvation the
        lender is never pushed below the floor."""
        policy = ElasticPolicy(
            epoch_seconds=0.25,
            stage_resize=False,
            min_bandwidth_share=0.5,
            lease_step=0.4,
        )
        runner = PipelineRunner(lease_pipeline(elastic=policy))
        controller = runner.elastic_controller
        names = [c.name for c in runner.pipeline.couplings]
        health = EpochHealth(
            time=1.0,
            duration=0.25,
            stages={
                s.name: StageHealth(s.name, busy_fraction=0.8, stall_fraction=0.0)
                for s in runner.pipeline.stages
            },
            couplings={
                names[0]: CouplingHealth(names[0], stall_fraction=0.9, bytes_moved=1e9, buffer_level=4),
                names[1]: CouplingHealth(names[1], stall_fraction=0.0, bytes_moved=0.0, buffer_level=0),
            },
        )
        for _ in range(10):
            controller._decide_lease(1.0, health)
        assert controller.bandwidth_shares[names[1]] == pytest.approx(0.5)
        assert controller.bandwidth_shares[names[0]] == pytest.approx(1.5)

    def test_occupancy_alone_triggers_a_lease(self):
        """Buffer occupancy near capacity is a starvation signal even before
        any producer actually stalls."""
        policy = ElasticPolicy(
            epoch_seconds=0.25, stage_resize=False, starved_occupancy=0.75
        )
        runner = PipelineRunner(lease_pipeline(elastic=policy))
        controller = runner.elastic_controller
        names = [c.name for c in runner.pipeline.couplings]
        health = EpochHealth(
            time=1.0,
            duration=0.25,
            stages={
                s.name: StageHealth(s.name, busy_fraction=0.8, stall_fraction=0.0)
                for s in runner.pipeline.stages
            },
            couplings={
                names[0]: CouplingHealth(
                    names[0], stall_fraction=0.0, bytes_moved=1e9,
                    buffer_level=15.0, occupancy_fraction=0.95,
                ),
                names[1]: CouplingHealth(
                    names[1], stall_fraction=0.0, bytes_moved=0.0,
                    buffer_level=0.0, occupancy_fraction=0.0,
                ),
            },
        )
        controller._decide_lease(1.0, health)
        assert controller.bandwidth_shares[names[0]] > 1.0
        assert controller.bandwidth_shares[names[1]] < 1.0

    def test_buffer_level_aggregates_over_ranks(self):
        runner = PipelineRunner(lease_pipeline())
        ctx = runner.ctx.couplings[0]
        assert ctx.buffer_level == 0.0
        ctx.note_buffer_level(0, 3)
        ctx.note_buffer_level(1, 2)
        ctx.note_buffer_level(0, 1)  # rank 0 drained two blocks
        assert ctx.buffer_level == 3.0

    def test_mpiio_honours_bandwidth_lease(self):
        """A halved bandwidth share slows mpiio's file path (lease is not a no-op)."""

        def run_with_share(share):
            runner = PipelineRunner(
                two_stage_pipeline(steps=3, couplings=(
                    CouplingSpec("simulation", "analysis", transport="mpiio"),
                ))
            )
            runner.ctx.couplings[0].set_rate_factor("elastic", share)
            return runner.run().end_to_end_time

        assert run_with_share(0.5) > run_with_share(1.0)

    @pytest.mark.parametrize("transport", ["dataspaces", "dimes", "decaf", "flexpath"])
    def test_staging_transports_honour_bandwidth_lease(self, transport):
        """Staging/link/event traffic is leased too: a halved share slows the
        bulk transfers of every network transport (ROADMAP follow-up)."""

        def run_with_share(share):
            runner = PipelineRunner(
                two_stage_pipeline(steps=3, couplings=(
                    CouplingSpec("simulation", "analysis", transport=transport),
                ))
            )
            runner.ctx.couplings[0].set_rate_factor("elastic", share)
            return runner.run().end_to_end_time

        assert run_with_share(0.5) > run_with_share(1.0)

    def test_transport_restart_composes_with_the_lease(self):
        """A restart window derates the lease instead of being erased by it.

        ``simB->analysisB`` lends share at the 0.25 s and 0.5 s epochs while
        a restart halves its bandwidth from 0.15 s to 0.65 s.  Recovery must
        leave the coupling at exactly the lease the rebalance timeline
        replays to, and the run must end with every coupling at the share
        the controller booked.
        """
        policy = ElasticPolicy(
            epoch_seconds=0.25,
            stage_resize=False,
            work_stealing=True,
            starved_threshold=0.05,
            lease_step=0.25,
        )
        restart = FaultSpec(
            kind="transport_restart",
            time=0.15,
            target="simB->analysisB",
            duration=0.5,
            severity=0.5,
        )
        runner = PipelineRunner(
            lease_pipeline(elastic=policy).replace(faults=FaultPlan(specs=(restart,)))
        )
        result = runner.run()
        recoveries = [e for e in result.faults if e.action == "recover"]
        assert recoveries, "the restart must recover mid-run"
        for event in recoveries:
            lease = 1.0
            for rebalance in result.rebalances:
                if rebalance.kind != "bandwidth_lease" or rebalance.time > event.time:
                    continue
                if rebalance.donor == event.target:
                    lease -= rebalance.amount
                elif rebalance.receiver == event.target:
                    lease += rebalance.amount
            assert event.detail["share"] == lease == 0.5
        controller = runner.elastic_controller
        for cctx in runner.ctx.couplings:
            assert cctx.bandwidth_share == controller.bandwidth_shares[cctx.name]

    def test_non_leasable_couplings_never_lend(self):
        policy = ElasticPolicy(epoch_seconds=0.25, stage_resize=False)
        pipeline = lease_pipeline(elastic=policy)
        couplings = tuple(c.replace(leasable=False) for c in pipeline.couplings)
        runner = PipelineRunner(pipeline.replace(couplings=couplings))
        result = runner.run()
        assert [e for e in result.rebalances if e.kind == "bandwidth_lease"] == []


class TestElasticBeatsStatic:
    def test_spec_builds_for_small_totals(self):
        for total in (48, 192, 256):
            cases = elastic_vs_static_spec(steps=6, total_cores=total).cases()
            assert len(cases) == 10

    def test_beats_best_static_split_on_bursty_scenario(self):
        spec = elastic_vs_static_spec(steps=12)
        results = SweepRunner(workers=0).run_labelled(spec)
        static = {k: v for k, v in results.items() if k.startswith("static/")}
        elastic = {k: v for k, v in results.items() if k.startswith("elastic/")}
        assert len(static) == len(elastic) == 5
        best_static = min(r.end_to_end_time for r in static.values())
        best_elastic = min(r.end_to_end_time for r in elastic.values())
        assert best_elastic < best_static
        # The winning elastic run actually adapted.
        winner = min(elastic.values(), key=lambda r: r.end_to_end_time)
        assert winner.rebalances


# -- persistence --------------------------------------------------------------
class TestRebalanceTimelineRoundTrip:
    def test_events_roundtrip_through_store_payload(self, tmp_path):
        policy = elastic_default_policy()
        result = run_pipeline(elastic_burst_pipeline(steps=12).replace(elastic=policy))
        assert result.rebalances
        payload = result_payload(result)
        assert "rebalances" in payload
        # Through JSON (exactly what the JSONL store writes) and back.
        restored = json.loads(json.dumps(payload, sort_keys=True))
        events = [RebalanceEvent.from_dict(e) for e in restored["rebalances"]]
        assert events == result.rebalances

    def test_static_payload_has_no_rebalance_key(self):
        result = run_pipeline(two_stage_pipeline())
        assert "rebalances" not in result_payload(result)

    def test_stage_summary_mentions_rebalances(self):
        policy = elastic_default_policy()
        result = run_pipeline(elastic_burst_pipeline(steps=12).replace(elastic=policy))
        summary = result.stage_summary()
        assert "rebalance" in summary
        assert "stage_resize" in summary
