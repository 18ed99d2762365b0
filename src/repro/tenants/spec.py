"""Multi-tenant vocabulary: jobs, arrival processes, and the job timeline.

A :class:`JobSpec` names one unit of facility work (a tenant's pipeline plus
its arrival time and fair-share weight); a :class:`TenantSpec` is the
immutable facility configuration the sweep engine executes — a job queue, a
co-scheduling policy, the shared core capacity and the scheduling epoch.
Job queues are either hand-written or generated from a seeded
:class:`ArrivalProcess` (fixed schedule, Poisson, or bursty) through
:func:`job_queue`, which draws every arrival instant from a label-derived
:class:`~repro.simcore.rng.RandomStreams` stream so the same label and seed
always reproduce the same queue.

:class:`JobEvent` is the recorded timeline — one entry per queued / admitted
/ share-change / completed transition the
:class:`~repro.tenants.scheduler.TenantScheduler` applied — mirroring the
fault layer's :class:`~repro.faults.plan.FaultEvent`
(``as_dict``/``from_dict`` round-trip through the sweep's JSONL store).

This module depends only on the stdlib and the simcore RNG helper so the
workflow layer can reference it without cycles (the pipeline type is only
checked lazily, at job construction time).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Mapping, Tuple

from repro.simcore.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workflow.pipeline import PipelineSpec

__all__ = [
    "POLICIES",
    "EVENT_KINDS",
    "ArrivalProcess",
    "JobSpec",
    "TenantSpec",
    "JobEvent",
    "job_queue",
]

#: Co-scheduling policies the :class:`~repro.tenants.scheduler.TenantScheduler`
#: understands.  ``fcfs`` admits jobs in arrival order only while their full
#: core demand fits the free capacity (dedicated rates, head-of-line
#: blocking); ``fair`` admits every waiting job and water-fills the capacity
#: across the active set by weight.
POLICIES: Tuple[str, ...] = ("fcfs", "fair")

#: Every transition kind the scheduler records on the job timeline.
EVENT_KINDS: Tuple[str, ...] = ("queued", "admitted", "share", "completed")


@dataclass(frozen=True)
class ArrivalProcess:
    """A seeded generator of job arrival instants.

    Three kinds: ``fixed`` replays the explicit ``times`` tuple; ``poisson``
    draws ``count`` exponential inter-arrival gaps with mean ``1/rate``;
    ``bursty`` groups ``count`` jobs into bursts of ``burst_size``
    simultaneous arrivals whose burst gaps average ``burst_size/rate`` (so
    the long-run rate matches the Poisson process it contends against).
    Use the :meth:`fixed` / :meth:`poisson` / :meth:`bursty` constructors;
    the dataclass fields exist so specs hash and replicate like every other
    sweep config.
    """

    kind: str
    times: Tuple[float, ...] = ()
    count: int = 0
    rate: float = 1.0
    burst_size: int = 1
    start: float = 0.0

    def __post_init__(self) -> None:
        """Validate the process eagerly so bad queues fail at build time."""
        # Float checks are written so that NaN fails them too.
        if self.kind not in ("fixed", "poisson", "bursty"):
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; "
                "expected fixed, poisson or bursty"
            )
        if not isinstance(self.times, tuple):
            object.__setattr__(self, "times", tuple(self.times))
        if self.kind == "fixed":
            if not self.times:
                raise ValueError("fixed arrivals need at least one time")
            if not all(t >= 0 for t in self.times):
                raise ValueError("arrival times must be >= 0")
            if list(self.times) != sorted(self.times):
                raise ValueError("fixed arrival times must be sorted")
        else:
            if self.count <= 0:
                raise ValueError(f"{self.kind} arrivals need count > 0")
            if not self.rate > 0:
                raise ValueError(f"{self.kind} arrivals need rate > 0")
        if self.kind == "bursty" and self.burst_size <= 0:
            raise ValueError("burst_size must be positive")
        if not self.start >= 0:
            raise ValueError(f"start must be >= 0, got {self.start}")

    @classmethod
    def fixed(cls, *times: float) -> "ArrivalProcess":
        """An explicit, deterministic arrival schedule."""
        return cls(kind="fixed", times=tuple(float(t) for t in times))

    @classmethod
    def poisson(cls, count: int, rate: float, start: float = 0.0) -> "ArrivalProcess":
        """``count`` Poisson arrivals at ``rate`` jobs per simulated second."""
        return cls(kind="poisson", count=int(count), rate=float(rate), start=float(start))

    @classmethod
    def bursty(
        cls, count: int, rate: float, burst_size: int, start: float = 0.0
    ) -> "ArrivalProcess":
        """``count`` jobs arriving in simultaneous bursts of ``burst_size``."""
        return cls(
            kind="bursty",
            count=int(count),
            rate=float(rate),
            burst_size=int(burst_size),
            start=float(start),
        )

    def arrival_times(self, label: str, seed: int = 1) -> Tuple[float, ...]:
        """The arrival instants, drawn from the label-derived seeded stream.

        The same ``label``/``seed`` pair always yields the identical
        schedule; changing either decorrelates every draw, exactly like the
        engine's per-purpose RNG streams.  ``fixed`` processes ignore the
        seed entirely.
        """
        if self.kind == "fixed":
            return self.times
        rng = RandomStreams(int(seed)).stream(f"arrivals/{label}")
        out = []
        if self.kind == "poisson":
            t = self.start
            for _ in range(self.count):
                t += float(rng.exponential(1.0 / self.rate))
                out.append(t)
        else:  # bursty: first burst at start, burst gaps keep the mean rate
            t = self.start
            remaining = self.count
            while remaining > 0:
                burst = min(self.burst_size, remaining)
                out.extend([t] * burst)
                remaining -= burst
                t += float(rng.exponential(self.burst_size / self.rate))
        return tuple(out)


@dataclass(frozen=True)
class JobSpec:
    """One facility job: a tenant's named pipeline plus arrival and weight.

    ``name`` must be unique within a :class:`TenantSpec`; ``tenant`` groups
    jobs for the per-tenant fairness metrics; ``weight`` is the tenant's
    fair-share weight (only the ``fair`` policy reads it).  The pipeline is
    executed verbatim — the tenant layer never rewrites a job's
    :class:`~repro.workflow.pipeline.PipelineSpec`, which is what makes a
    solo, uncontended job bit-identical to a dedicated run.
    """

    name: str
    tenant: str
    pipeline: "PipelineSpec"
    arrival: float = 0.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        """Validate the job eagerly so bad queues fail at build time."""
        # Float checks are written so that NaN fails them too.
        from repro.workflow.pipeline import PipelineSpec

        if not self.name:
            raise ValueError("job name must be non-empty")
        if not self.tenant:
            raise ValueError("job tenant must be non-empty")
        if not isinstance(self.pipeline, PipelineSpec):
            raise ValueError(
                f"JobSpec.pipeline must be a PipelineSpec, got {type(self.pipeline)!r}"
            )
        if not self.arrival >= 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if not self.weight > 0:
            raise ValueError(f"weight must be positive, got {self.weight}")

    @property
    def demand(self) -> int:
        """Cores the job needs to run at full (dedicated) rate."""
        return self.pipeline.total_cores

    def replace(self, **changes: Any) -> "JobSpec":
        """A copy of the job with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


def job_queue(
    tenant: str,
    pipeline: "PipelineSpec",
    arrivals: ArrivalProcess,
    *,
    weight: float = 1.0,
    seed: int = 1,
) -> Tuple[JobSpec, ...]:
    """One tenant's job queue: the arrival process applied to one pipeline.

    Jobs are named ``tenant/0``, ``tenant/1``, … in arrival order, and the
    arrival draws come from the stream labelled by the tenant name, so two
    tenants with identical processes still get decorrelated schedules.
    """
    times = arrivals.arrival_times(tenant, seed=seed)
    return tuple(
        JobSpec(
            name=f"{tenant}/{index}",
            tenant=tenant,
            pipeline=pipeline,
            arrival=when,
            weight=weight,
        )
        for index, when in enumerate(times)
    )


@dataclass(frozen=True)
class TenantSpec:
    """An immutable multi-tenant facility configuration.

    The sweep-facing config type of the tenant layer: a job queue, the
    co-scheduling ``policy``, the shared ``capacity_cores`` (0 means "just
    fits the largest job"), and the scheduling ``epoch_seconds`` — shares
    change only at epoch boundaries, which is what keeps contended runs
    deterministic and replayable.  Carries ``label``/``seed``/``trace`` and
    :meth:`replace` so the sweep runner treats it exactly like a
    :class:`~repro.workflow.pipeline.PipelineSpec`.
    """

    jobs: Tuple[JobSpec, ...] = ()
    policy: str = "fair"
    capacity_cores: int = 0
    epoch_seconds: float = 0.25
    label: str = ""
    seed: int = 1
    trace: bool = False

    def __post_init__(self) -> None:
        """Coerce ``jobs`` to a tuple and validate the facility eagerly."""
        if not isinstance(self.jobs, tuple):
            object.__setattr__(self, "jobs", tuple(self.jobs))
        if not self.jobs:
            raise ValueError("TenantSpec needs at least one job")
        for job in self.jobs:
            if not isinstance(job, JobSpec):
                raise ValueError(f"TenantSpec.jobs must hold JobSpec, got {job!r}")
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate job names {dupes}")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}"
            )
        if self.capacity_cores < 0:
            raise ValueError(f"capacity_cores must be >= 0, got {self.capacity_cores}")
        if self.capacity_cores and self.capacity_cores < max(
            job.demand for job in self.jobs
        ):
            raise ValueError(
                "capacity_cores must fit the largest job "
                f"({max(job.demand for job in self.jobs)} cores)"
            )
        if not self.epoch_seconds > 0:  # NaN fails this too
            raise ValueError(f"epoch_seconds must be positive, got {self.epoch_seconds}")

    @property
    def capacity(self) -> int:
        """The facility's shared core capacity (defaults to the largest job)."""
        if self.capacity_cores:
            return self.capacity_cores
        return max(job.demand for job in self.jobs)

    @property
    def tenants(self) -> Tuple[str, ...]:
        """Tenant names in first-appearance order."""
        seen: Dict[str, None] = {}
        for job in self.jobs:
            seen.setdefault(job.tenant, None)
        return tuple(seen)

    def replace(self, **changes: Any) -> "TenantSpec":
        """A copy of the spec with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class JobEvent:
    """One applied job transition in a facility run's recorded timeline.

    ``kind`` walks the job lifecycle: ``queued`` at the arrival instant,
    ``admitted`` when the scheduler starts the job (detail carries the wait
    and the initial share), ``share`` whenever an epoch boundary changes the
    job's facility share mid-run (the preempted-share transition; detail
    carries the new and previous share plus the grant/demand pair the
    conservation replay checks), and ``completed`` at the exact finish
    instant.  ``detail`` holds the numeric facts as floats so the record
    survives a JSON round trip exactly.
    """

    time: float
    kind: str
    job: str
    tenant: str
    detail: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form, as stored in the sweep's JSONL records."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobEvent":
        """Rebuild an event from :meth:`as_dict` output (or a JSONL record)."""
        return cls(
            time=float(payload["time"]),
            kind=str(payload["kind"]),
            job=str(payload["job"]),
            tenant=str(payload["tenant"]),
            detail={str(k): float(v) for k, v in dict(payload.get("detail", {})).items()},
        )
