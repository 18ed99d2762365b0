"""Unit tests of the multi-tenant layer: vocabulary, policies, timelines.

The cross-layer contracts (bit-identity, conservation, reproducibility)
live in ``test_invariants.py`` and ``test_fastpath.py``; this file covers
the tenant vocabulary itself — arrival processes, job/facility validation,
the water-filling allocator — and the scheduler's observable behaviour:
FCFS head-of-line blocking, fair-share admission, the recorded job
timeline and the facility-level result.
"""

from __future__ import annotations

import math

import pytest

from repro.bench.experiments import elastic_burst_pipeline
from repro.sweep.spec import config_hash
from repro.tenants import (
    EVENT_KINDS,
    POLICIES,
    ArrivalProcess,
    JobSpec,
    TenantScheduler,
    TenantSpec,
    jain_index,
    job_queue,
    run_tenants,
    water_fill,
)


def small_pipeline(steps: int = 2, total_cores: int = 128):
    return elastic_burst_pipeline(
        sim_cores=(total_cores * 2) // 3,
        total_cores=total_cores,
        steps=steps,
        representative_sim_ranks=4,
    )


# -- arrival processes --------------------------------------------------------
class TestArrivalProcess:
    def test_fixed_replays_its_times_and_ignores_the_seed(self):
        process = ArrivalProcess.fixed(0.0, 1.5, 3.0)
        assert process.arrival_times("a", seed=1) == (0.0, 1.5, 3.0)
        assert process.arrival_times("a", seed=99) == (0.0, 1.5, 3.0)

    def test_fixed_rejects_unsorted_and_negative_times(self):
        with pytest.raises(ValueError):
            ArrivalProcess.fixed(2.0, 1.0)
        with pytest.raises(ValueError):
            ArrivalProcess.fixed(-1.0)
        with pytest.raises(ValueError):
            ArrivalProcess.fixed()

    def test_seeded_draws_reproduce_and_decorrelate(self):
        process = ArrivalProcess.poisson(count=5, rate=2.0, start=1.0)
        first = process.arrival_times("tenant", seed=7)
        assert first == process.arrival_times("tenant", seed=7)
        assert first != process.arrival_times("tenant", seed=8)
        assert first != process.arrival_times("other", seed=7)
        assert len(first) == 5
        assert all(t >= 1.0 for t in first)
        assert list(first) == sorted(first)

    def test_bursty_first_burst_lands_at_start(self):
        process = ArrivalProcess.bursty(count=5, rate=1.0, burst_size=2, start=0.5)
        times = process.arrival_times("tenant", seed=3)
        assert len(times) == 5
        assert times[0] == times[1] == 0.5
        assert list(times) == sorted(times)

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ArrivalProcess.poisson(count=0, rate=1.0)
        with pytest.raises(ValueError):
            ArrivalProcess.poisson(count=1, rate=0.0)
        with pytest.raises(ValueError):
            ArrivalProcess.bursty(count=1, rate=1.0, burst_size=0)
        with pytest.raises(ValueError):
            ArrivalProcess(kind="uniform")
        # NaN fails every comparison, so each check must reject it.
        with pytest.raises(ValueError):
            ArrivalProcess.poisson(count=1, rate=float("nan"))
        with pytest.raises(ValueError):
            ArrivalProcess.poisson(count=1, rate=1.0, start=float("nan"))
        with pytest.raises(ValueError):
            ArrivalProcess.fixed(float("nan"))


# -- jobs and facilities ------------------------------------------------------
class TestJobSpec:
    def test_demand_is_the_pipeline_core_count(self):
        job = JobSpec("a/0", "a", small_pipeline(total_cores=128))
        assert job.demand == 128

    def test_validation(self):
        pipeline = small_pipeline()
        with pytest.raises(ValueError):
            JobSpec("", "a", pipeline)
        with pytest.raises(ValueError):
            JobSpec("a/0", "", pipeline)
        with pytest.raises(ValueError):
            JobSpec("a/0", "a", "not a pipeline")
        with pytest.raises(ValueError):
            JobSpec("a/0", "a", pipeline, arrival=-1.0)
        with pytest.raises(ValueError):
            JobSpec("a/0", "a", pipeline, weight=0.0)
        # NaN fails every comparison, so each check must reject it.
        with pytest.raises(ValueError):
            JobSpec("a/0", "a", pipeline, arrival=float("nan"))
        with pytest.raises(ValueError):
            JobSpec("a/0", "a", pipeline, weight=float("nan"))

    def test_job_queue_names_and_orders_by_arrival(self):
        jobs = job_queue(
            "burst",
            small_pipeline(),
            ArrivalProcess.poisson(count=3, rate=1.0),
            weight=2.0,
            seed=5,
        )
        assert [job.name for job in jobs] == ["burst/0", "burst/1", "burst/2"]
        assert all(job.tenant == "burst" and job.weight == 2.0 for job in jobs)
        assert [job.arrival for job in jobs] == sorted(job.arrival for job in jobs)


class TestTenantSpec:
    def test_capacity_defaults_to_the_largest_job(self):
        spec = TenantSpec(jobs=(JobSpec("a/0", "a", small_pipeline(total_cores=128)),))
        assert spec.capacity == 128
        assert spec.replace(capacity_cores=384).capacity == 384

    def test_tenants_keep_first_appearance_order(self):
        pipeline = small_pipeline()
        spec = TenantSpec(
            jobs=(
                JobSpec("b/0", "b", pipeline),
                JobSpec("a/0", "a", pipeline),
                JobSpec("b/1", "b", pipeline),
            )
        )
        assert spec.tenants == ("b", "a")

    def test_validation(self):
        pipeline = small_pipeline(total_cores=128)
        job = JobSpec("a/0", "a", pipeline)
        with pytest.raises(ValueError):
            TenantSpec(jobs=())
        with pytest.raises(ValueError):
            TenantSpec(jobs=(job, JobSpec("a/0", "b", pipeline)))
        with pytest.raises(ValueError):
            TenantSpec(jobs=(job,), policy="lottery")
        with pytest.raises(ValueError):
            TenantSpec(jobs=(job,), capacity_cores=64)
        with pytest.raises(ValueError):
            TenantSpec(jobs=(job,), epoch_seconds=0.0)
        # NaN fails every comparison, so the check must reject it.
        with pytest.raises(ValueError):
            TenantSpec(jobs=(job,), epoch_seconds=float("nan"))

    def test_hashes_like_every_other_sweep_config(self):
        job = JobSpec("a/0", "a", small_pipeline())
        spec = TenantSpec(jobs=(job,), label="x")
        assert config_hash(spec) == config_hash(TenantSpec(jobs=(job,), label="x"))
        assert config_hash(spec) != config_hash(spec.replace(policy="fcfs"))


# -- the allocator and the fairness metric ------------------------------------
class TestWaterFill:
    def test_uncontended_grants_equal_demands(self):
        grants = water_fill({"a": 100.0, "b": 50.0}, {"a": 1.0, "b": 1.0}, 384.0)
        assert grants == {"a": 100.0, "b": 50.0}

    def test_contended_equal_weights_split_evenly(self):
        grants = water_fill({"a": 300.0, "b": 300.0}, {"a": 1.0, "b": 1.0}, 384.0)
        assert grants == {"a": 192.0, "b": 192.0}

    def test_weights_tilt_the_split(self):
        grants = water_fill({"a": 300.0, "b": 300.0}, {"a": 2.0, "b": 1.0}, 300.0)
        assert grants["a"] == pytest.approx(200.0)
        assert grants["b"] == pytest.approx(100.0)

    def test_capped_surplus_is_redistributed(self):
        grants = water_fill(
            {"a": 50.0, "b": 300.0, "c": 300.0},
            {"a": 1.0, "b": 1.0, "c": 1.0},
            350.0,
        )
        assert grants["a"] == 50.0
        assert grants["b"] == pytest.approx(150.0)
        assert grants["c"] == pytest.approx(150.0)

    def test_grants_conserve_the_wet_capacity(self):
        demands = {"a": 120.0, "b": 77.0, "c": 345.0, "d": 8.0}
        weights = {"a": 1.0, "b": 3.0, "c": 0.5, "d": 2.0}
        for capacity in (64.0, 384.0, 1000.0):
            grants = water_fill(demands, weights, capacity)
            wet = min(capacity, sum(demands.values()))
            assert math.fsum(grants.values()) == pytest.approx(wet)
            assert all(0.0 <= grants[n] <= demands[n] for n in demands)


class TestJainIndex:
    def test_equal_values_are_perfectly_fair(self):
        assert jain_index([2.0, 2.0, 2.0]) == pytest.approx(1.0)
        assert jain_index([]) == 1.0

    def test_one_starved_flow_bounds_below(self):
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)


# -- the scheduler ------------------------------------------------------------
class TestTenantScheduler:
    def contended_spec(self, policy: str) -> TenantSpec:
        heavy = small_pipeline(steps=4, total_cores=320)
        light = small_pipeline(steps=2, total_cores=128)
        return TenantSpec(
            jobs=(
                JobSpec("heavy/0", "heavy", heavy, arrival=0.0),
                JobSpec("light/0", "light", light, arrival=0.5),
            ),
            policy=policy,
            capacity_cores=384,
            epoch_seconds=0.25,
        )

    def test_fcfs_blocks_behind_the_head_of_line(self):
        scheduler = TenantScheduler(self.contended_spec("fcfs"))
        scheduler.run()
        events = {(e.kind, e.job): e for e in scheduler.timeline}
        heavy_done = events[("completed", "heavy/0")]
        light_admitted = events[("admitted", "light/0")]
        # 64 free cores cannot fit the 128-core job until the 320-core job
        # completes, so its admission waits for the full head-of-line time.
        assert light_admitted.time >= heavy_done.time
        assert light_admitted.detail["wait"] > 0.0
        assert not any(e.kind == "share" for e in scheduler.timeline)

    def test_fair_admits_at_the_next_boundary_and_scales_shares(self):
        spec = self.contended_spec("fair")
        scheduler = TenantScheduler(spec)
        result = scheduler.run()
        events = {(e.kind, e.job): e for e in scheduler.timeline}
        light_admitted = events[("admitted", "light/0")]
        # Arrival 0.5 is exactly two epochs in: admission happens there, not
        # after the heavy job finishes.
        assert light_admitted.time == pytest.approx(0.5)
        shares = [e for e in scheduler.timeline if e.kind == "share"]
        assert shares, "contention must rescale at least one share"
        for event in shares:
            assert 0.0 < event.detail["share"] <= 1.0
            assert event.detail["grant"] <= event.detail["demand"]
        assert not result.failed

    def test_timeline_is_ordered_and_walks_the_lifecycle(self):
        scheduler = TenantScheduler(self.contended_spec("fair"))
        scheduler.run()
        times = [e.time for e in scheduler.timeline]
        assert times == sorted(times)
        assert {e.kind for e in scheduler.timeline} <= set(EVENT_KINDS)
        for job in ("heavy/0", "light/0"):
            kinds = [e.kind for e in scheduler.timeline if e.job == job]
            assert kinds[0] == "queued"
            assert kinds[-1] == "completed"
            assert kinds.count("queued") == kinds.count("admitted") == 1

    @pytest.mark.parametrize("policy", POLICIES)
    def test_facility_result_aggregates_per_tenant(self, policy):
        result = run_tenants(self.contended_spec(policy))
        assert result.transport == "tenants"
        assert result.total_cores == 384
        assert result.stats["jobs"] == 2.0
        assert result.stats["jobs_failed"] == 0.0
        assert result.stats["scheduler_events"] > 0
        assert result.stats["aggregate_slowdown"] >= 1.0
        assert 0.0 < result.stats["fairness_jain"] <= 1.0
        for tenant in ("heavy", "light"):
            assert result.stats[f"tenant/{tenant}/jobs"] == 1.0
            assert result.stats[f"tenant/{tenant}/makespan"] > 0.0
            assert result.stats[f"tenant/{tenant}/mean_slowdown"] >= 1.0
        assert result.jobs == sorted(result.jobs, key=lambda e: e.time)

    def test_weights_bias_the_fair_split(self):
        # Two equally hungry 320-core jobs on 384 cores: neither offer is
        # capped, so the water level tracks the weights exactly.
        heavy = small_pipeline(steps=3, total_cores=320)

        def facility(weight_b: float) -> TenantSpec:
            return TenantSpec(
                jobs=(
                    JobSpec("a/0", "a", heavy, arrival=0.0),
                    JobSpec("b/0", "b", heavy, arrival=0.0, weight=weight_b),
                ),
                policy="fair",
                capacity_cores=384,
                epoch_seconds=0.25,
            )

        def first_share(spec: TenantSpec, job: str) -> float:
            scheduler = TenantScheduler(spec)
            scheduler.run()
            shares = [
                e.detail["share"]
                for e in scheduler.timeline
                if e.kind == "share" and e.job == job
            ]
            return shares[0] if shares else 1.0

        assert first_share(facility(1.0), "b/0") == pytest.approx(192.0 / 320.0)
        assert first_share(facility(2.0), "b/0") == pytest.approx(256.0 / 320.0)

    def test_baselines_feed_the_slowdown_denominator(self):
        scheduler = TenantScheduler(self.contended_spec("fair"))
        scheduler.run()
        assert set(scheduler.baseline_times) == {"heavy/0", "light/0"}
        assert all(t > 0 for t in scheduler.baseline_times.values())
