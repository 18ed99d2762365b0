"""Model-driven elastic control: predictive targets, PID smoothing, rank counts.

The threshold :class:`~repro.elastic.controller.ElasticController` reacts to
symptoms (stall/idle fractions crossing fixed thresholds) with fixed-size
steps — a bang-bang loop that oscillates mildly around balance.  The
:class:`ModelDrivenController` instead *predicts*: every epoch it

1. re-calibrates a :class:`~repro.perfmodel.pipeline.PipelinePerfModel` from
   the epoch's :class:`~repro.elastic.monitor.EpochMonitor` counters,
2. solves the model's inverse problem for the predicted-optimal core split
   (``a_s ∝ w_s``) and bandwidth shares (``β_c ∝ d_c / b_c``), and
3. moves the current holdings *towards* those targets through one
   :class:`~repro.simcore.control.PIDSmoother` per stage/coupling, with a
   dead band (hysteresis) suppressing moves smaller than
   ``deadband_fraction`` of the pool — which is what removes the threshold
   controller's oscillation and its steady drip of tiny corrective events.

Stages declared rank-elastic (``StageSpec.elastic_ranks=True``) receive
grown capacity as *spawned modelled ranks*: the controller converts the
above-baseline part of the stage's allocation into whole assist ranks and
drives the :class:`~repro.workflow.runner.PipelineRunner` spawn/retire hooks
at the epoch boundary; only the sub-rank remainder is applied as a node
re-rate.  Spawn/retire decisions appear on the rebalance timeline as
``"rank_spawn"``/``"rank_retire"`` events next to the usual
``"stage_resize"``/``"bandwidth_lease"`` kinds.

A :meth:`ModelDrivenPolicy.never` policy (infinite dead band) observes and
calibrates but never moves anything — such a run stays bit-identical to a
static run, exactly like the threshold controller's never-triggering policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.elastic.controller import ElasticControllerBase, MIN_TRANSFER
from repro.elastic.monitor import EpochHealth
from repro.elastic.policy import ElasticPolicy, RebalanceEvent
from repro.perfmodel.pipeline import PipelinePerfModel
from repro.simcore import PIDSmoother

if TYPE_CHECKING:
    from repro.workflow.context import PipelineContext
    from repro.workflow.runner import PipelineRunner

__all__ = ["ModelDrivenPolicy", "ModelDrivenController"]


@dataclass(frozen=True)
class ModelDrivenPolicy(ElasticPolicy):
    """Tuning of the model-driven adaptation loop.

    Inherits the mechanism toggles (``stage_resize``, ``work_stealing``),
    the epoch cadence and the floors/caps from
    :class:`~repro.elastic.policy.ElasticPolicy`; the threshold fields are
    ignored (the model, not a threshold, decides when to move).
    """

    #: EWMA weight of each epoch's estimates in the model calibration.
    smoothing: float = 0.5
    #: PID gains shaping how fast holdings approach the model's targets.
    proportional_gain: float = 0.6
    integral_gain: float = 0.05
    derivative_gain: float = 0.0
    #: Hysteresis dead band: core moves smaller than this fraction of the
    #: total cores (resp. bandwidth moves smaller than this many share
    #: units) are suppressed.  ``float("inf")`` turns the controller into a
    #: pure observer (see :meth:`never`).
    deadband_fraction: float = 0.02
    #: Cap on assist ranks spawned per rank-elastic stage.
    max_assist_ranks: int = 8
    #: Epochs advancing fewer workflow steps than this teach the model nothing.
    min_progress_steps: float = 1e-3

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must lie in (0, 1]")
        # One check per gain: ``min`` would pass a NaN in any position.
        for gain in (self.proportional_gain, self.integral_gain, self.derivative_gain):
            if not gain >= 0:
                raise ValueError("PID gains must be non-negative")
        if not self.deadband_fraction >= 0:
            raise ValueError("deadband_fraction must be non-negative")
        if self.max_assist_ranks < 0:
            raise ValueError("max_assist_ranks must be non-negative")
        if not self.min_progress_steps >= 0:
            raise ValueError("min_progress_steps must be non-negative")

    @classmethod
    def never(cls, epoch_seconds: float = 1.0) -> "ModelDrivenPolicy":
        """A policy that observes and calibrates but can never move anything.

        The infinite dead band suppresses every transfer, so the run is
        bit-identical to a static run (the acceptance contract tested in
        ``tests/test_elastic_model.py``).
        """
        return cls(epoch_seconds=epoch_seconds, deadband_fraction=float("inf"))

    def build_controller(
        self, ctx: "PipelineContext", runner: Optional["PipelineRunner"] = None
    ) -> "ModelDrivenController":
        """Instantiate the model-driven controller for one run."""
        return ModelDrivenController(ctx, self, runner=runner)


class ModelDrivenController(ElasticControllerBase):
    """Predictive adaptation of one run's core split and bandwidth shares.

    Shares the mechanism layer (conserved allocations/shares, floors, the
    decision timeline) with the threshold controller; only the decision rule
    differs — see the module docstring for the three-step epoch loop.
    """

    def __init__(
        self,
        ctx: "PipelineContext",
        policy: ModelDrivenPolicy,
        runner: Optional["PipelineRunner"] = None,
    ):
        super().__init__(ctx, policy, runner=runner)
        self.model = PipelinePerfModel(
            ctx.pipeline,
            smoothing=policy.smoothing,
            min_progress_steps=policy.min_progress_steps,
        )
        kwargs = dict(
            kp=policy.proportional_gain,
            ki=policy.integral_gain,
            kd=policy.derivative_gain,
        )
        self._pids: Dict[str, PIDSmoother] = {
            s.name: PIDSmoother(integral_limit=self.total_cores, **kwargs)
            for s in ctx.pipeline.stages
        }
        self._share_pids: Dict[str, PIDSmoother] = {
            c.name: PIDSmoother(integral_limit=float(len(self.bandwidth_shares)), **kwargs)
            for c in ctx.pipeline.couplings
        }

    # -- epoch decision ------------------------------------------------------
    def _decide(self, now: float, health: EpochHealth) -> None:
        self.model.observe(health, self.allocations, self.bandwidth_shares)
        if self.policy.stage_resize:
            self._decide_resize(now)
        if self.policy.work_stealing:
            self._decide_lease(now)

    def _paired_transfers(
        self, moves: Dict[str, float], deadband: float
    ) -> List[tuple]:
        """Decompose a zero-sum move vector into (donor, receiver, amount) pairs.

        Numeric drift is recentred out first so pairing can never create or
        destroy holdings; moves below the dead band are dropped.
        """
        if not moves:
            return []
        mean = sum(moves.values()) / len(moves)
        centred = {n: m - mean for n, m in moves.items()}
        donors = sorted((n for n, m in centred.items() if m < 0), key=lambda n: centred[n])
        receivers = sorted(
            (n for n, m in centred.items() if m > 0), key=lambda n: -centred[n]
        )
        transfers = []
        for donor in donors:
            need = -centred[donor]
            for receiver in receivers:
                if need <= MIN_TRANSFER:
                    break
                give = min(need, centred[receiver])
                if give >= deadband and give > MIN_TRANSFER:
                    transfers.append((donor, receiver, give))
                    centred[receiver] -= give
                need -= give
        return transfers

    def _decide_resize(self, now: float) -> None:
        resizable = [n for n in self.allocations if self._resizable(n)]
        if len(resizable) < 2:
            return
        floors = {n: self._stage_floor(n) for n in resizable}
        target = self.model.optimal_core_split(self.allocations, resizable, floors)
        dt = self.policy.epoch_seconds
        moves = {
            n: self._pids[n].update(target[n] - self.allocations[n], dt)
            for n in resizable
        }
        deadband = self.policy.deadband_fraction * self.total_cores
        for donor, receiver, amount in self._paired_transfers(moves, deadband):
            # The inherited resize_fraction bounds how much a donor may lose
            # in one epoch, so one noisy calibration epoch cannot swing the
            # split violently.
            amount = min(amount, self.policy.resize_fraction * self.allocations[donor])
            if amount > MIN_TRANSFER:
                self._transfer_cores(now, donor, receiver, amount=amount)

    def _decide_lease(self, now: float) -> None:
        shares = self.bandwidth_shares
        leasable = [n for n in shares if self._leasable(n)]
        if len(leasable) < 2:
            return
        target = self.model.optimal_bandwidth_shares(
            shares,
            leasable,
            self.policy.min_bandwidth_share,
            self.policy.max_bandwidth_share,
        )
        dt = self.policy.epoch_seconds
        moves = {
            n: self._share_pids[n].update(target[n] - shares[n], dt) for n in leasable
        }
        for donor, receiver, amount in self._paired_transfers(
            moves, self.policy.deadband_fraction
        ):
            amount = min(
                amount,
                shares[donor] - self.policy.min_bandwidth_share,
                self.policy.max_bandwidth_share - shares[receiver],
            )
            if amount > MIN_TRANSFER:
                self._transfer_share(now, donor, receiver, amount)

    # -- elastic rank counts -------------------------------------------------
    def _apply_allocation(self, name: str) -> None:
        stage = self.ctx.pipeline.stage(name)
        if self.runner is None or not stage.elastic_ranks:
            super()._apply_allocation(name)
            return
        # Deliver the above-baseline part of the grant as whole spawned
        # ranks; the sub-rank remainder (and any below-baseline deficit)
        # stays a node re-rate.
        modelled = self.ctx.stage_ranks(name)
        scale = self.allocations[name] / self.baseline[name]
        target = int(round((scale - 1.0) * modelled))
        target = max(0, min(self.policy.max_assist_ranks, target))
        current = self.runner.stage_assists(name)
        if target != current:
            actual = self.runner.set_assist_ranks(name, target)
            kind = "rank_spawn" if actual > current else "rank_retire"
            self.timeline.append(
                RebalanceEvent(
                    time=self.ctx.env.now,
                    epoch=self.epoch,
                    kind=kind,
                    donor=name if kind == "rank_retire" else "reserve",
                    receiver=name if kind == "rank_spawn" else "reserve",
                    amount=float(abs(actual - current)),
                    detail={
                        "assist_ranks": float(actual),
                        "modelled_ranks": float(modelled),
                    },
                )
            )
            target = actual
        delivered = (modelled + target) / modelled
        # The sub-rank remainder routes around degraded nodes like any
        # other re-rate, so model-driven policies keep rerouting cores
        # during crash/straggler windows on rank-elastic stages too.
        self._spread_allocation(name, scale / delivered)
