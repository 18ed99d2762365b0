"""The elastic controllers: epoch-driven stage resize and bandwidth leases.

Two controllers share one mechanism layer:

* :class:`ElasticControllerBase` owns the *mechanisms* and their invariants —
  the epoch clock (one :class:`~repro.simcore.control.PeriodicController`
  wake-up per policy epoch), the :class:`~repro.elastic.monitor.EpochMonitor`,
  the per-stage core allocations (conserved, floored, applied as each node's
  ``"elastic"`` factor through
  :meth:`~repro.cluster.node.ComputeNode.set_rate_factor`), the
  per-coupling bandwidth shares (conserved, applied as each coupling's
  ``"elastic"`` factor through
  :meth:`~repro.workflow.context.CouplingContext.set_rate_factor`) and the
  :class:`~repro.elastic.policy.RebalanceEvent` timeline;
* :class:`ElasticController` is the PR 3 *threshold* (bang-bang) decision
  layer on top of it, and
  :class:`~repro.elastic.model_driven.ModelDrivenController` the predictive
  one driven by :mod:`repro.perfmodel` with PID smoothing and elastic rank
  counts.

**Threshold decisions.**  *Stage resize* has two triggers.  *Backpressure*: a
coupling's source stage spent more than ``stall_threshold`` of the epoch
stalled, so its cores are wasted while the coupling's target is the
bottleneck — move ``resize_fraction`` of the source's cores to the target.
*Saturation*: one stage ran busier than ``saturated_threshold`` while another
idled below ``idle_threshold`` (transports with unbounded delivery queues
never stall the producer; the imbalance shows up as idle time on whichever
stage ran ahead) — move cores from the idle stage to the saturated one.  When
a grown stage later idles below ``idle_threshold``, cores drift back towards
the static plan.  *Bandwidth lease (coupling work stealing)*: when a coupling
is *starved* (stalled above ``starved_threshold``, or its aggregate producer
buffers filled past ``starved_occupancy`` of capacity) while another leasable
coupling is idle, the starved coupling borrows ``lease_step`` of bandwidth
share from the idlest lender (never driving the lender below
``min_bandwidth_share``).

A controller whose policy never triggers observes but never mutates model
state; such a run is bit-identical to a static run (the controller's own
wake-up events are subtracted from the reported event totals).  Because a
controller may re-rate nodes at any epoch, a run with one never coalesces
compute (see :attr:`~repro.workflow.runner.PipelineRunner.rates_fixed`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.elastic.monitor import EpochHealth, EpochMonitor
from repro.elastic.policy import ElasticPolicy, RebalanceEvent
from repro.perfmodel.pipeline import baseline_cores
from repro.simcore import PeriodicController

if TYPE_CHECKING:
    from repro.workflow.context import PipelineContext
    from repro.workflow.runner import PipelineRunner

__all__ = ["ElasticControllerBase", "ElasticController", "MIN_TRANSFER"]

#: Transfers smaller than this (cores or share units) are dropped as noise.
MIN_TRANSFER = 1e-9


class ElasticControllerBase:
    """Mechanism layer shared by every elastic controller.

    Owns the epoch clock, the monitor, the conserved core/bandwidth holdings
    and the decision timeline; concrete controllers implement
    :meth:`_decide` to turn an epoch's health report into transfers.

    Parameters
    ----------
    ctx:
        The run's :class:`~repro.workflow.context.PipelineContext`.
    policy:
        The :class:`~repro.elastic.policy.ElasticPolicy` (or subclass)
        governing epochs, step sizes and floors.
    runner:
        The owning :class:`~repro.workflow.runner.PipelineRunner`, when the
        controller needs its rank-lifecycle hooks (``None`` otherwise).
    """

    def __init__(
        self,
        ctx: "PipelineContext",
        policy: ElasticPolicy,
        runner: Optional["PipelineRunner"] = None,
    ):
        self.ctx = ctx
        self.policy = policy
        self.runner = runner
        self.monitor = EpochMonitor(ctx)
        self.timeline: List[RebalanceEvent] = []
        self.epoch = 0

        pipeline = ctx.pipeline
        placement = ctx.placement
        #: Represented cores each stage holds under the static plan — the
        #: stage's explicit grant when given, else its full-job rank count.
        #: Allocations (and the conservation invariant) are in these units,
        #: so scenario families with uneven grants still move real cores.
        #: The same rule seeds the perf model, so model targets and
        #: controller holdings always share units.
        self.baseline: Dict[str, float] = baseline_cores(pipeline)
        #: Current core holdings; the sum is invariant across resizes.
        self.allocations: Dict[str, float] = dict(self.baseline)
        self.total_cores = sum(self.baseline.values())
        self._stage_nodes: Dict[str, List[int]] = {
            s.name: list(
                range(
                    placement.stage_node_base[s.name],
                    placement.stage_node_base[s.name] + placement.stage_nodes[s.name],
                )
            )
            for s in pipeline.stages
        }
        #: Current bandwidth shares per coupling; the sum is invariant.
        self.bandwidth_shares: Dict[str, float] = {
            c.name: 1.0 for c in pipeline.couplings
        }
        self._clock: Optional[PeriodicController] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Spawn the periodic controller process in the run's environment."""
        self._clock = PeriodicController(
            self.ctx.env, self.policy.epoch_seconds, self._on_epoch, name="elastic"
        )
        self._clock.start()

    @property
    def events_consumed(self) -> int:
        """Simulation events this controller's instrumentation consumed."""
        return self._clock.events_consumed if self._clock is not None else 0

    # -- epoch loop ---------------------------------------------------------
    def _on_epoch(self, now: float) -> None:
        self.epoch += 1
        health = self.monitor.advance(now)
        if health.duration <= 0:
            # A zero-length epoch carries no information (all fractions and
            # progress are zero by construction); deciding on it would act on
            # pure noise.
            return
        self._decide(now, health)

    def _decide(self, now: float, health: EpochHealth) -> None:
        raise NotImplementedError

    # -- stage-resize mechanism ---------------------------------------------
    def _stage_floor(self, name: str) -> float:
        stage = self.ctx.pipeline.stage(name)
        fraction = stage.min_core_fraction
        if fraction is None:
            fraction = self.policy.min_stage_fraction
        return fraction * self.baseline[name]

    def _resizable(self, name: str) -> bool:
        return self.ctx.pipeline.stage(name).resizable

    def _transfer_cores(
        self, now: float, donor: str, receiver: str, amount: Optional[float] = None
    ) -> bool:
        if amount is None:
            amount = self.policy.resize_fraction * self.allocations[donor]
        amount = min(amount, self.allocations[donor] - self._stage_floor(donor))
        if amount <= MIN_TRANSFER:
            return False
        self.allocations[donor] -= amount
        self.allocations[receiver] += amount
        self._apply_allocation(donor)
        self._apply_allocation(receiver)
        self.timeline.append(
            RebalanceEvent(
                time=now,
                epoch=self.epoch,
                kind="stage_resize",
                donor=donor,
                receiver=receiver,
                amount=amount,
                detail={name: self.allocations[name] for name in (donor, receiver)},
            )
        )
        return True

    def _apply_allocation(self, name: str) -> None:
        scale = self.allocations[name] / self.baseline[name]
        self._spread_allocation(name, scale)

    def _spread_allocation(self, name: str, scale: float) -> None:
        """Re-rate a stage's nodes, routing the grant around degraded ones.

        Healthy nodes absorb the share a degraded (crashed or straggling)
        node cannot use: with ``d`` of ``n`` nodes degraded, healthy nodes
        run at ``scale * n / (n - d)`` while degraded nodes keep the plain
        ``scale`` (a crashed node's cores are seized anyway; a straggler
        stays derated through its ``"fault"`` factor).  With no degraded
        nodes this is exactly the uniform re-rate, so fault-free runs are
        bit-identical to the pre-fault engine.
        """
        nodes = [self.ctx.cluster.node(node_id) for node_id in self._stage_nodes[name]]
        degraded = sum(node.degraded for node in nodes)
        healthy_scale = scale
        if 0 < degraded < len(nodes):
            healthy_scale = scale * len(nodes) / (len(nodes) - degraded)
        for node in nodes:
            node.set_rate_factor("elastic", scale if node.degraded else healthy_scale)

    # -- bandwidth-lease mechanism -------------------------------------------
    def _leasable(self, name: str) -> bool:
        for coupling in self.ctx.pipeline.couplings:
            if coupling.name == name:
                return coupling.leasable
        return False

    def _transfer_share(
        self, now: float, donor: str, receiver: str, amount: float
    ) -> None:
        self.bandwidth_shares[donor] -= amount
        self.bandwidth_shares[receiver] += amount
        for name in (donor, receiver):
            self.ctx.coupling(name).set_rate_factor("elastic", self.bandwidth_shares[name])
        self.timeline.append(
            RebalanceEvent(
                time=now,
                epoch=self.epoch,
                kind="bandwidth_lease",
                donor=donor,
                receiver=receiver,
                amount=amount,
                detail={n: self.bandwidth_shares[n] for n in (donor, receiver)},
            )
        )


class ElasticController(ElasticControllerBase):
    """The threshold (bang-bang) adaptation loop of PR 3.

    Applies at most one decision per mechanism per epoch, triggered by the
    policy's stall/idle/saturation thresholds (see the module docstring for
    the trigger semantics).
    """

    def _decide(self, now: float, health: EpochHealth) -> None:
        if self.policy.stage_resize:
            self._decide_resize(now, health)
        if self.policy.work_stealing:
            self._decide_lease(now, health)

    # -- stage resize -------------------------------------------------------
    def _decide_resize(self, now: float, health: EpochHealth) -> None:
        # A stalled source is idling its cores while its coupling's target is
        # the bottleneck: hand the idle cores to the target.
        for coupling in self.ctx.pipeline.couplings:
            src, dst = coupling.source, coupling.target
            if not (self._resizable(src) and self._resizable(dst)):
                continue
            if health.stages[src].stall_fraction > self.policy.stall_threshold:
                if self._transfer_cores(now, src, dst):
                    return
        # Saturation: a stage running flat out while another idles marks an
        # over-provisioned/bottleneck pair even without explicit backpressure
        # (unbounded delivery queues never stall the producer — the idle time
        # simply shows up on whichever stage ran ahead).
        resizable = [n for n in self.allocations if self._resizable(n)]
        saturated = sorted(
            (n for n in resizable
             if health.stages[n].busy_fraction > self.policy.saturated_threshold),
            key=lambda n: -health.stages[n].busy_fraction,
        )
        idle = sorted(
            (n for n in resizable
             if health.stages[n].busy_fraction < self.policy.idle_threshold),
            key=lambda n: health.stages[n].busy_fraction,
        )
        if saturated and idle and saturated[0] != idle[0]:
            if self._transfer_cores(now, idle[0], saturated[0]):
                return
        # Recovery: a grown stage that idles gives cores back to the most
        # starved below-baseline stage, drifting towards the static plan.
        overfull = [
            name
            for name in self.allocations
            if self._resizable(name)
            and self.allocations[name] > self.baseline[name] + MIN_TRANSFER
            and health.stages[name].busy_fraction < self.policy.idle_threshold
        ]
        deficits = sorted(
            (
                (self.baseline[name] - self.allocations[name], name)
                for name in self.allocations
                if self._resizable(name)
                and self.allocations[name] < self.baseline[name] - MIN_TRANSFER
            ),
            reverse=True,
        )
        if overfull and deficits:
            donor = overfull[0]
            receiver = deficits[0][1]
            surplus = self.allocations[donor] - self.baseline[donor]
            amount = min(
                self.policy.resize_fraction * self.allocations[donor],
                surplus,
                deficits[0][0],
            )
            self._transfer_cores(now, donor, receiver, amount=amount)

    # -- bandwidth leases ---------------------------------------------------
    def _decide_lease(self, now: float, health: EpochHealth) -> None:
        shares = self.bandwidth_shares
        leasable = [n for n in shares if self._leasable(n)]
        if len(leasable) < 2:
            return
        def _is_starved(name: str) -> bool:
            # Explicit producer stalls, or buffer occupancy approaching
            # capacity (backpressure building before anyone blocks).
            coupling = health.couplings[name]
            return (
                coupling.stall_fraction > self.policy.starved_threshold
                or coupling.occupancy_fraction > self.policy.starved_occupancy
            )

        starved = [
            name
            for name in leasable
            if _is_starved(name)
            and shares[name] < self.policy.max_bandwidth_share - MIN_TRANSFER
        ]
        if starved:
            borrower = starved[0]
            # The idlest other coupling lends: least stalled, then least traffic.
            lenders = sorted(
                (n for n in leasable if n != borrower),
                key=lambda n: (
                    health.couplings[n].stall_fraction,
                    health.couplings[n].bytes_moved,
                ),
            )
            for lender in lenders:
                amount = min(
                    self.policy.lease_step,
                    shares[lender] - self.policy.min_bandwidth_share,
                    self.policy.max_bandwidth_share - shares[borrower],
                )
                if amount > MIN_TRANSFER:
                    self._transfer_share(now, lender, borrower, amount)
                    return
            return
        # Recovery: an unstarved borrower returns share towards the fair 1.0.
        for name in leasable:
            if shares[name] > 1.0 + MIN_TRANSFER and not _is_starved(name):
                lenders_below = sorted(
                    (n for n in leasable if shares[n] < 1.0 - MIN_TRANSFER),
                    key=lambda n: shares[n],
                )
                if not lenders_below:
                    return
                receiver = lenders_below[0]
                amount = min(
                    self.policy.lease_step,
                    shares[name] - 1.0,
                    1.0 - shares[receiver],
                )
                if amount > MIN_TRANSFER:
                    self._transfer_share(now, name, receiver, amount)
                return
