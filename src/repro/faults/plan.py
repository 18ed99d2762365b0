"""Deterministic fault vocabulary: specs, plans, and the recorded timeline.

A :class:`FaultSpec` names one fault (what, where, when, how hard); a
:class:`FaultPlan` is an immutable bundle of specs plus the crash-recovery
base cost, attached to a pipeline via ``PipelineSpec.faults``.  Plans are
either hand-written or generated by :meth:`FaultPlan.seeded`, which draws
every fault time, target, and victim rank from a label-derived
:class:`~repro.simcore.rng.RandomStreams` stream so the same label and seed
always reproduce the same schedule.

:class:`FaultEvent` is the applied-timeline record — one entry per
injection or recovery the :class:`~repro.faults.injector.FaultInjector`
actually performed — mirroring the elastic layer's ``RebalanceEvent``
(``as_dict``/``from_dict`` round-trip through the sweep's JSONL store).

This module depends only on the stdlib and the simcore RNG helper so the
workflow layer can import it without cycles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Iterable, Mapping, Tuple

from repro.simcore.rng import RandomStreams

__all__ = ["KINDS", "WINDOWED_KINDS", "FaultSpec", "FaultPlan", "FaultEvent"]

#: Every fault kind the injector understands.
KINDS: Tuple[str, ...] = (
    "node_crash",
    "straggler",
    "link_degrade",
    "transport_restart",
)

#: Kinds whose effect holds for ``duration`` seconds and is then reverted.
#: ``node_crash`` is excluded: its downtime is *computed* from the lost work
#: and the plan's recovery cost, not specified up front.
WINDOWED_KINDS: Tuple[str, ...] = ("straggler", "link_degrade", "transport_restart")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``target`` is a stage name for node-scoped kinds (``node_crash``,
    ``straggler``, ``link_degrade``) and a coupling name (``"src->dst"``)
    for ``transport_restart``.  ``rank`` picks the victim rank within the
    stage (taken modulo the stage's modelled rank count, so plans stay
    valid across representative-rank downsizing).  ``severity`` is the
    slowdown factor (> 1) for stragglers and the bandwidth scale in
    ``(0, 1)`` for link degradation and transport restarts.
    """

    kind: str
    time: float
    target: str
    rank: int = 0
    duration: float = 0.0
    severity: float = 1.0

    def __post_init__(self) -> None:
        """Validate the spec eagerly so bad plans fail at build time."""
        # Float checks are written so that NaN fails them too.
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if not self.time >= 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if not self.target:
            raise ValueError("fault target must be a non-empty stage/coupling name")
        if self.rank < 0:
            raise ValueError(f"fault rank must be >= 0, got {self.rank}")
        if self.kind in WINDOWED_KINDS:
            if not self.duration > 0:
                raise ValueError(f"{self.kind} needs a positive duration, got {self.duration}")
        elif self.duration != 0.0:
            raise ValueError(
                "node_crash downtime is computed from lost work; duration must stay 0"
            )
        if self.kind == "straggler" and not self.severity > 1.0:
            raise ValueError(
                f"straggler severity is a slowdown factor > 1, got {self.severity}"
            )
        if self.kind in ("link_degrade", "transport_restart") and not (
            0.0 < self.severity < 1.0
        ):
            raise ValueError(
                f"{self.kind} severity is a bandwidth scale in (0, 1), got {self.severity}"
            )

    def replace(self, **changes: Any) -> "FaultSpec":
        """A copy of the spec with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable fault schedule plus the crash-recovery base cost.

    ``recovery_seconds`` is the fixed respawn overhead a crashed rank pays
    before recomputing the work lost since its last checkpoint (see
    ``docs/faults.md``).  An empty plan schedules nothing: the runner
    creates no injector, so the run is bit-identical to a plan-less run.
    """

    specs: Tuple[FaultSpec, ...] = ()
    recovery_seconds: float = 0.25

    def __post_init__(self) -> None:
        """Coerce ``specs`` to a tuple and validate the recovery cost."""
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ValueError(f"FaultPlan.specs must hold FaultSpec, got {spec!r}")
        if not self.recovery_seconds >= 0:
            raise ValueError(f"recovery_seconds must be >= 0, got {self.recovery_seconds}")

    @property
    def empty(self) -> bool:
        """True when the plan schedules no faults at all."""
        return not self.specs

    @classmethod
    def none(cls) -> "FaultPlan":
        """The explicit no-fault plan (bit-identical to no plan at all)."""
        return cls(specs=())

    def replace(self, **changes: Any) -> "FaultPlan":
        """A copy of the plan with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    @classmethod
    def seeded(
        cls,
        label: str,
        stages: Iterable[str],
        *,
        horizon: float,
        couplings: Iterable[str] = (),
        crashes: int = 1,
        stragglers: int = 1,
        degradations: int = 1,
        restarts: int = 1,
        slowdown: float = 4.0,
        degrade_scale: float = 0.25,
        recovery_seconds: float = 0.25,
        max_rank: int = 8,
        seed: int = 1,
    ) -> "FaultPlan":
        """Generate a reproducible plan from a label-derived seeded stream.

        ``horizon`` is the fault window in simulated seconds (typically the
        pipeline's simulation-only time); crash times land in the middle of
        it and windowed faults hold for up to 20% of it.  The same
        ``label``/``seed`` pair always yields the identical plan; changing
        either decorrelates every draw, exactly like the engine's
        per-purpose RNG streams.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if max_rank <= 0:
            raise ValueError(f"max_rank must be positive, got {max_rank}")
        stage_names = tuple(stages)
        if not stage_names:
            raise ValueError("seeded plan needs at least one stage name")
        coupling_names = tuple(couplings)
        if restarts > 0 and not coupling_names:
            raise ValueError("transport restarts requested but no couplings given")
        rng = RandomStreams(int(seed)).stream(f"faultplan/{label}")
        window = 0.2 * horizon
        specs = []
        for _ in range(int(crashes)):
            specs.append(
                FaultSpec(
                    kind="node_crash",
                    time=float(rng.uniform(0.15, 0.6)) * horizon,
                    target=stage_names[int(rng.integers(len(stage_names)))],
                    rank=int(rng.integers(max_rank)),
                )
            )
        for _ in range(int(stragglers)):
            specs.append(
                FaultSpec(
                    kind="straggler",
                    time=float(rng.uniform(0.1, 0.7)) * horizon,
                    target=stage_names[int(rng.integers(len(stage_names)))],
                    rank=int(rng.integers(max_rank)),
                    duration=float(rng.uniform(0.5, 1.0)) * window,
                    severity=float(slowdown),
                )
            )
        for _ in range(int(degradations)):
            specs.append(
                FaultSpec(
                    kind="link_degrade",
                    time=float(rng.uniform(0.1, 0.7)) * horizon,
                    target=stage_names[int(rng.integers(len(stage_names)))],
                    rank=int(rng.integers(max_rank)),
                    duration=float(rng.uniform(0.5, 1.0)) * window,
                    severity=float(degrade_scale),
                )
            )
        for _ in range(int(restarts)):
            specs.append(
                FaultSpec(
                    kind="transport_restart",
                    time=float(rng.uniform(0.1, 0.7)) * horizon,
                    target=coupling_names[int(rng.integers(len(coupling_names)))],
                    duration=float(rng.uniform(0.25, 0.5)) * window,
                    severity=float(degrade_scale),
                )
            )
        specs.sort(key=lambda spec: (spec.time, spec.kind, spec.target, spec.rank))
        return cls(specs=tuple(specs), recovery_seconds=float(recovery_seconds))


@dataclass(frozen=True)
class FaultEvent:
    """One applied fault transition in a run's recorded timeline.

    ``action`` is ``"inject"`` when the fault takes effect and
    ``"recover"`` when its effect is reverted (windowed faults) or the
    crashed rank comes back (crashes).  ``detail`` carries the numeric
    facts of the transition — victim node, applied scale, lost steps,
    downtime — as floats so the record survives a JSON round trip exactly.
    """

    time: float
    kind: str
    action: str
    target: str
    detail: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form, as stored in the sweep's JSONL records."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultEvent":
        """Rebuild an event from :meth:`as_dict` output (or a JSONL record)."""
        return cls(
            time=float(payload["time"]),
            kind=str(payload["kind"]),
            action=str(payload["action"]),
            target=str(payload["target"]),
            detail={str(k): float(v) for k, v in dict(payload.get("detail", {})).items()},
        )
