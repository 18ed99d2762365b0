"""Declarative adaptation policies and the rebalance timeline records.

An :class:`ElasticPolicy` describes *when* and *how aggressively* the elastic
controller reacts to observed stall/idle time — it carries no mechanism.  The
mechanisms (stage core resize, coupling bandwidth leases) live in
:mod:`repro.elastic.controller`; the observation layer lives in
:mod:`repro.elastic.monitor`.

Every adaptation decision the controller takes is recorded as a
:class:`RebalanceEvent`; the ordered list of those events is the run's
*rebalance timeline*, carried on
:class:`~repro.workflow.result.WorkflowResult` and persisted by the sweep
store (see ``docs/sweep-format.md`` for the JSONL schema).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    from repro.elastic.controller import ElasticControllerBase
    from repro.workflow.context import PipelineContext
    from repro.workflow.runner import PipelineRunner

__all__ = ["ElasticPolicy", "RebalanceEvent"]


@dataclass(frozen=True)
class ElasticPolicy:
    """Thresholds and step sizes of one run's adaptation loop.

    All fractions are relative quantities: busy/stall fractions are time
    fractions of one epoch, ``resize_fraction``/``lease_step`` are fractions
    of the donor's current holding, and the floors are fractions of a
    stage's baseline core allocation (resp. of a coupling's fair bandwidth
    share of 1.0).
    """

    #: Simulated seconds between controller wake-ups.
    epoch_seconds: float = 1.0
    #: Source-stage stall fraction of an epoch above which the coupling's
    #: target stage receives cores from the stalled stage.
    stall_threshold: float = 0.05
    #: Busy fraction below which a stage holding more than its baseline
    #: gives cores back towards the static plan — and below which a stage
    #: counts as over-provisioned (a donor) for the saturation trigger.
    idle_threshold: float = 0.5
    #: Busy fraction above which a stage counts as the pipeline bottleneck:
    #: when some other stage idles below ``idle_threshold`` at the same
    #: time, cores move from the idle stage to the saturated one.
    saturated_threshold: float = 0.9
    #: Fraction of the donor's current cores moved per resize decision.
    resize_fraction: float = 0.25
    #: No stage is ever resized below this fraction of its baseline cores
    #: (a per-stage ``min_core_fraction`` on the StageSpec overrides it).
    min_stage_fraction: float = 0.25
    #: Enable the stage-resize mechanism.
    stage_resize: bool = True
    #: Enable coupling-level bandwidth work stealing.
    work_stealing: bool = True
    #: Coupling stall fraction of an epoch above which the coupling borrows
    #: bandwidth from the idlest leasable coupling.
    starved_threshold: float = 0.05
    #: Aggregate producer-buffer occupancy (fraction of total capacity)
    #: above which a coupling also counts as starved — backpressure that is
    #: building but has not yet stalled the producers.
    starved_occupancy: float = 0.75
    #: Share moved per lease decision.
    lease_step: float = 0.25
    #: A lender's bandwidth share never drops below this floor.
    min_bandwidth_share: float = 0.5
    #: A borrower's bandwidth share never grows above this cap.
    max_bandwidth_share: float = 2.0

    def __post_init__(self) -> None:
        # Float checks are written so that NaN fails them too; infinite
        # thresholds stay legal (``never`` uses them).
        if not self.epoch_seconds > 0:
            raise ValueError("epoch_seconds must be positive")
        if not (
            self.stall_threshold >= 0
            and self.starved_threshold >= 0
            and self.starved_occupancy >= 0
        ):
            raise ValueError("thresholds must be non-negative")
        if not 0.0 <= self.idle_threshold <= 1.0:
            raise ValueError("idle_threshold must lie in [0, 1]")
        if not self.saturated_threshold >= self.idle_threshold:
            raise ValueError("saturated_threshold must be >= idle_threshold")
        if not 0.0 < self.resize_fraction <= 1.0:
            raise ValueError("resize_fraction must lie in (0, 1]")
        if not 0.0 < self.min_stage_fraction <= 1.0:
            raise ValueError("min_stage_fraction must lie in (0, 1]")
        if not 0.0 < self.lease_step <= 1.0:
            raise ValueError("lease_step must lie in (0, 1]")
        if not 0.0 < self.min_bandwidth_share <= 1.0:
            raise ValueError("min_bandwidth_share must lie in (0, 1]")
        if not self.max_bandwidth_share >= 1.0:
            raise ValueError("max_bandwidth_share must be at least 1")

    @classmethod
    def never(cls, epoch_seconds: float = 1.0) -> "ElasticPolicy":
        """A policy whose thresholds can never trigger.

        The controller still wakes every epoch and observes, but takes no
        decision — results are bit-identical to a run without a policy
        (the acceptance contract tested in ``tests/test_elastic.py``).
        """
        return cls(
            epoch_seconds=epoch_seconds,
            stall_threshold=float("inf"),
            idle_threshold=0.0,
            saturated_threshold=float("inf"),
            starved_threshold=float("inf"),
            starved_occupancy=float("inf"),
        )

    def replace(self, **changes) -> "ElasticPolicy":
        """A copy of the policy with ``changes`` applied."""
        return replace(self, **changes)

    def build_controller(
        self, ctx: "PipelineContext", runner: Optional["PipelineRunner"] = None
    ) -> "ElasticControllerBase":
        """Instantiate the controller that executes this policy.

        The base policy builds the threshold
        :class:`~repro.elastic.controller.ElasticController`; subclasses
        (e.g. :class:`~repro.elastic.model_driven.ModelDrivenPolicy`) return
        their own decision layer.  ``runner`` is the owning
        :class:`~repro.workflow.runner.PipelineRunner`, forwarded so
        controllers can reach its rank-lifecycle hooks.
        """
        from repro.elastic.controller import ElasticController

        return ElasticController(ctx, self, runner=runner)


@dataclass(frozen=True)
class RebalanceEvent:
    """One adaptation decision taken by the elastic controller.

    ``kind`` is ``"stage_resize"`` (cores moved between stages; ``amount``
    in represented cores) or ``"bandwidth_lease"`` (bandwidth share moved
    between couplings; ``amount`` in share units).  ``detail`` carries the
    holdings *after* the decision, keyed by stage/coupling name.
    """

    time: float
    epoch: int
    kind: str
    donor: str
    receiver: str
    amount: float
    detail: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """The JSON-safe form persisted in the sweep store's JSONL records."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RebalanceEvent":
        """Rebuild an event from :meth:`as_dict` output (store round-trip)."""
        return cls(
            time=float(payload["time"]),
            epoch=int(payload["epoch"]),
            kind=str(payload["kind"]),
            donor=str(payload["donor"]),
            receiver=str(payload["receiver"]),
            amount=float(payload["amount"]),
            detail={str(k): float(v) for k, v in dict(payload.get("detail", {})).items()},
        )
