"""Co-schedule many pipelines on one shared facility, epoch by epoch.

The :class:`TenantScheduler` is an ordinary simulated process in its own
*facility* :class:`~repro.simcore.Environment`: it sleeps from epoch
boundary to epoch boundary, admits arriving jobs per the configured policy,
partitions the facility's cores and network bandwidth across the active
jobs, and records every transition as a
:class:`~repro.tenants.spec.JobEvent`.  Each admitted job keeps its **own**
:class:`~repro.workflow.runner.PipelineRunner` — private event queue,
private cluster model — advanced segment by segment through
:meth:`~repro.workflow.runner.PipelineRunner.advance` (a job's local clock
is facility time minus its admit time).  Shares change *only* at epoch
boundaries, through the ``"tenant"`` rate factor of every node and coupling
of the job (:meth:`~repro.cluster.node.ComputeNode.set_rate_factor` and
:meth:`~repro.workflow.context.CouplingContext.set_rate_factor`), so a
contended run is deterministic, replayable from its timeline, and composes
cleanly with the elastic controller's and the fault injector's factors.

Two policies (see :data:`~repro.tenants.spec.POLICIES`):

* ``fcfs`` — dedicated FCFS: a job is admitted only when its full core
  demand fits the free capacity (head-of-line blocking) and then runs at
  scale 1.0 throughout, which makes every FCFS job bit-identical to its
  dedicated run, just time-shifted by its admission wait;
* ``fair`` — weighted fair share: every waiting job is admitted at the next
  boundary and the capacity is water-filled across the active set by
  weight, each job's compute *and* coupling bandwidth scaled to
  ``grant/demand``.  Since a share may move at any boundary, the scheduler
  clears :attr:`~repro.workflow.runner.PipelineRunner.rates_fixed` on every
  job it admits, so fair-share jobs never coalesce compute; FCFS jobs run
  dedicated and keep it.

The facility environment's own events (the scheduler's boundary sleeps)
are instrumentation, not modelled workload — exactly like the elastic
controller's wake-ups — so the facility result's ``events_processed`` is
the sum of the *jobs'* counts, and a solo, arrival-at-zero job reproduces
its dedicated payload byte for byte.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Generator, List, Optional

from repro.simcore import Environment
from repro.tenants.spec import JobEvent, JobSpec, TenantSpec
from repro.workflow.pipeline import PipelineSpec
from repro.workflow.result import StageBreakdown, WorkflowResult
from repro.workflow.runner import (
    PipelineRunner,
    pipeline_simulation_only_time,
    run_pipeline,
)

__all__ = ["TenantScheduler", "run_tenants", "water_fill", "jain_index"]


def water_fill(
    demands: Dict[str, float], weights: Dict[str, float], capacity: float
) -> Dict[str, float]:
    """Weighted max-min grants: water-fill ``capacity`` across the demands.

    Each job is offered ``capacity * weight / total_weight``; jobs whose
    offer covers their demand are capped at the demand and their surplus is
    redistributed across the rest, repeated until no offer is capped.  The
    grants therefore sum to ``min(capacity, total demand)`` (up to float
    rounding) — the conservation invariant the property harness replays.
    """
    grants = {name: 0.0 for name in demands}
    remaining = float(capacity)
    live = sorted(demands)
    while live:
        total_weight = sum(weights[name] for name in live)
        offers = {
            name: remaining * weights[name] / total_weight for name in live
        }
        capped = [name for name in live if offers[name] >= demands[name]]
        if not capped:
            for name in live:
                grants[name] = offers[name]
            break
        for name in capped:
            grants[name] = demands[name]
            remaining = max(0.0, remaining - demands[name])
        live = [name for name in live if name not in capped]
    return grants


def jain_index(values: List[float]) -> float:
    """Jain's fairness index of ``values``: 1.0 is perfectly fair, 1/n worst."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares <= 0:
        return 1.0
    return (total * total) / (len(values) * squares)


class _JobRun:
    """One admitted job's live state: runner, admit time, current share."""

    __slots__ = ("job", "runner", "admit", "share", "finish")

    def __init__(self, job: JobSpec, runner: PipelineRunner, admit: float):
        self.job = job
        self.runner = runner
        self.admit = admit
        self.share = 1.0
        self.finish = float("nan")


class TenantScheduler:
    """Runs a :class:`~repro.tenants.spec.TenantSpec` to completion."""

    def __init__(self, spec: TenantSpec, env: Optional[Environment] = None):
        self.spec = spec
        #: The facility clock (instrumentation only; see the module docs).
        self.env = env if env is not None else Environment()
        #: Every recorded job transition, time-ordered once the run ends.
        self.timeline: List[JobEvent] = []
        #: Per-job :class:`WorkflowResult`, keyed by job name.
        self.job_results: Dict[str, WorkflowResult] = {}
        #: Dedicated (solo-run) end-to-end time per job name, the slowdown
        #: denominator; filled lazily and cached per pipeline object.
        self.baseline_times: Dict[str, float] = {}
        self._finished: List[_JobRun] = []
        self._baseline_cache: Dict[int, float] = {}

    # -- recording -----------------------------------------------------------
    def _record(
        self, when: float, kind: str, job: JobSpec, detail: Dict[str, float]
    ) -> None:
        self.timeline.append(
            JobEvent(time=when, kind=kind, job=job.name, tenant=job.tenant, detail=detail)
        )

    # -- the scheduler process ----------------------------------------------
    def start(self) -> None:
        """Spawn the scheduler process (call once, before ``env.run``)."""
        self.env.process(self._run())

    def _run(self) -> Generator:
        env = self.env
        spec = self.spec
        epoch = spec.epoch_seconds
        capacity = float(spec.capacity)
        pending: Deque[JobSpec] = deque(
            sorted(spec.jobs, key=lambda job: (job.arrival, job.name))
        )
        waiting: Deque[JobSpec] = deque()
        active: Dict[str, _JobRun] = {}
        boundary = 0  # epoch index: decisions happen only at boundary * epoch
        while pending or waiting or active:
            if not waiting and not active and pending:
                # Idle facility: jump to the first boundary at/after the
                # next arrival instead of sleeping through empty epochs.
                jump = int(math.ceil(pending[0].arrival / epoch - 1e-12))
                boundary = max(boundary, jump)
            now = boundary * epoch
            if now > env.now:
                yield env.sleep_until(now)
            while pending and pending[0].arrival <= now:
                job = pending.popleft()
                waiting.append(job)
                self._record(job.arrival, "queued", job, {"arrival": job.arrival})
            if not waiting and not active:
                # Float guard: the jump boundary can land one ulp short of
                # the arrival; the next boundary certainly covers it.
                boundary += 1
                continue
            self._admit(waiting, active, now, capacity)
            contended = self._apply_shares(active, now, capacity)
            horizon = (boundary + 1) * epoch
            for name in sorted(active):
                run = active[name]
                # A job alone in the facility with nothing queued or still
                # to arrive can never be preempted: run it to completion in
                # one unbounded segment (bit-identical to a dedicated run).
                solo = (
                    not contended
                    and len(active) == 1
                    and not waiting
                    and not pending
                )
                bound = float("inf") if solo else horizon - run.admit
                if run.runner.advance(bound):
                    self._complete(run)
                    del active[name]
            boundary += 1

    def _admit(
        self,
        waiting: Deque[JobSpec],
        active: Dict[str, _JobRun],
        now: float,
        capacity: float,
    ) -> None:
        """Admit waiting jobs in arrival order, per the configured policy."""
        spec = self.spec
        used = sum(run.job.demand for run in active.values())
        while waiting:
            job = waiting[0]
            if spec.policy == "fcfs" and used + job.demand > capacity:
                # Dedicated admission is strict FCFS: the head of the queue
                # blocks everything behind it until capacity frees up.
                break
            waiting.popleft()
            pipeline: PipelineSpec = (
                job.pipeline.replace(trace=True) if spec.trace else job.pipeline
            )
            runner = PipelineRunner(pipeline)
            if spec.policy == "fair":
                runner.rates_fixed = False
            runner.start()
            active[job.name] = _JobRun(job, runner, now)
            used += job.demand
            self._record(
                now,
                "admitted",
                job,
                {
                    "wait": now - job.arrival,
                    "demand": float(job.demand),
                    "weight": job.weight,
                    "share": 1.0,
                },
            )

    def _apply_shares(
        self, active: Dict[str, _JobRun], now: float, capacity: float
    ) -> bool:
        """Partition the facility across the active jobs; returns contention."""
        if self.spec.policy == "fcfs":
            # Admission guaranteed the active demands fit: every job runs
            # dedicated and its shares never move.
            return False
        demands = {name: float(run.job.demand) for name, run in active.items()}
        weights = {name: run.job.weight for name, run in active.items()}
        grants = water_fill(demands, weights, capacity)
        contended = sum(demands.values()) > capacity
        for name in sorted(active):
            run = active[name]
            share = grants[name] / demands[name]
            if share != run.share:
                self._apply_share(run, share, grants[name], demands[name], now)
        return contended

    def _apply_share(
        self, run: _JobRun, share: float, grant: float, demand: float, now: float
    ) -> None:
        """Apply one job's new facility share to its cluster and couplings."""
        for node in run.runner.cluster.nodes:
            node.set_rate_factor("tenant", share)
        for cctx in run.runner.ctx.couplings:
            cctx.set_rate_factor("tenant", share)
        self._record(
            now,
            "share",
            run.job,
            {
                "share": share,
                "previous": run.share,
                "grant": grant,
                "demand": demand,
            },
        )
        run.share = share

    def _complete(self, run: _JobRun) -> None:
        """Collect a finished job's result and record its completion."""
        result = run.runner.finish()
        finish = run.admit + run.runner.ctx.env.now
        run.finish = finish
        self.job_results[run.job.name] = result
        self._finished.append(run)
        self._record(
            finish,
            "completed",
            run.job,
            {
                "wait": run.admit - run.job.arrival,
                "turnaround": finish - run.job.arrival,
                "run": finish - run.admit,
                "failed": 1.0 if result.failed else 0.0,
            },
        )

    # -- results -------------------------------------------------------------
    def _baseline_time(self, job: JobSpec) -> float:
        """Dedicated end-to-end time of a job's pipeline (cached per object)."""
        key = id(job.pipeline)
        if key not in self._baseline_cache:
            self._baseline_cache[key] = run_pipeline(job.pipeline).end_to_end_time
        self.baseline_times[job.name] = self._baseline_cache[key]
        return self._baseline_cache[key]

    def run(self) -> WorkflowResult:
        """Execute the facility to completion and assemble the result."""
        self.start()
        self.env.run()
        self.timeline.sort(key=lambda event: event.time)  # stable: ties keep order
        return self._facility_result()

    def _facility_result(self) -> WorkflowResult:
        spec = self.spec
        runs = self._finished
        results = [self.job_results[run.job.name] for run in runs]
        failed = [run for run in runs if self.job_results[run.job.name].failed]
        slowdowns: List[float] = []
        per_job_slowdown: Dict[str, float] = {}
        waits: List[float] = []
        for run in runs:
            waits.append(run.admit - run.job.arrival)
            if self.job_results[run.job.name].failed:
                continue
            baseline = self._baseline_time(run.job)
            if baseline > 0:
                slowdown = (run.finish - run.job.arrival) / baseline
                slowdowns.append(slowdown)
                per_job_slowdown[run.job.name] = slowdown
        stats: Dict[str, float] = {
            "events_processed": sum(
                int(result.stats.get("events_processed", 0)) for result in results
            ),
            "jobs": float(len(runs)),
            "jobs_failed": float(len(failed)),
            "scheduler_events": float(self.env.events_processed),
            "mean_wait": (sum(waits) / len(waits)) if waits else 0.0,
            "aggregate_slowdown": (
                sum(slowdowns) / len(slowdowns) if slowdowns else float("nan")
            ),
            "fairness_jain": jain_index(slowdowns),
        }
        for tenant in spec.tenants:
            tenant_runs = [run for run in runs if run.job.tenant == tenant]
            if not tenant_runs:
                continue
            tenant_slow = [
                per_job_slowdown[run.job.name]
                for run in tenant_runs
                if run.job.name in per_job_slowdown
            ]
            stats[f"tenant/{tenant}/jobs"] = float(len(tenant_runs))
            stats[f"tenant/{tenant}/mean_wait"] = sum(
                run.admit - run.job.arrival for run in tenant_runs
            ) / len(tenant_runs)
            stats[f"tenant/{tenant}/makespan"] = max(
                run.finish for run in tenant_runs
            ) - min(run.job.arrival for run in tenant_runs)
            if tenant_slow:
                stats[f"tenant/{tenant}/mean_slowdown"] = sum(tenant_slow) / len(
                    tenant_slow
                )
        breakdown = StageBreakdown(
            simulation=sum(result.breakdown.simulation for result in results),
            transfer=sum(result.breakdown.transfer for result in results),
            analysis=sum(result.breakdown.analysis for result in results),
            store=sum(result.breakdown.store for result in results),
            stall=sum(result.breakdown.stall for result in results),
        )
        return WorkflowResult(
            transport="tenants",
            end_to_end_time=max(run.finish for run in runs) if runs else 0.0,
            simulation_only_time=max(
                pipeline_simulation_only_time(job.pipeline) for job in spec.jobs
            ),
            breakdown=breakdown,
            stats=stats,
            xmit_wait=sum(result.xmit_wait for result in results),
            label=spec.label,
            total_cores=spec.capacity,
            failed=bool(failed),
            failure_reason=(
                f"job {failed[0].job.name}: "
                f"{self.job_results[failed[0].job.name].failure_reason}"
                if failed
                else ""
            ),
            jobs=list(self.timeline),
        )


def run_tenants(spec: TenantSpec) -> WorkflowResult:
    """Run a multi-tenant facility and return the facility-level result.

    The one-call entry point the sweep engine dispatches
    :class:`~repro.tenants.spec.TenantSpec` configs to; build a
    :class:`TenantScheduler` directly to additionally inspect the per-job
    :class:`~repro.workflow.result.WorkflowResult`\\ s and dedicated
    baselines.
    """
    return TenantScheduler(spec).run()
