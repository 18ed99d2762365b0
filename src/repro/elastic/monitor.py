"""Per-epoch health observation of a running pipeline.

The :class:`EpochMonitor` turns the monotonically growing per-stage rank
statistics and per-coupling counters of a
:class:`~repro.workflow.context.PipelineContext` into per-epoch *fractions*
the controller can compare against policy thresholds:

* a stage's **busy fraction** — time its ranks spent computing, analysing or
  putting data, as a fraction of the epoch's rank-seconds;
* a stage's **stall fraction** — time its ranks spent blocked on a full
  producer buffer (the transports' ``stall_time`` counter);
* a stage's **work fraction** and **progress** — core-bound work only and
  the workflow steps the stage itself advanced, the two signals the
  performance-model calibration consumes (see ``docs/perf-model.md``);
* a coupling's **stall fraction** and **bytes moved** — the same signals
  scoped to one coupling's stats channel, plus the instantaneous producer
  buffer occupancy reported through the coupling context's buffer hook.

The monitor is read-only with respect to the simulation: it never schedules
events and never mutates model state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from repro.simcore import CounterDeltas

if TYPE_CHECKING:
    from repro.workflow.context import PipelineContext

__all__ = ["StageHealth", "CouplingHealth", "EpochHealth", "EpochMonitor"]

#: Rank-stat keys counted as "the rank was doing useful work".
BUSY_KEYS = ("compute_time", "analysis_time", "put_time")
#: Rank-stat keys counted as "the rank was blocked by backpressure".
STALL_KEYS = ("stall_time",)
#: Rank-stat keys counted as core-bound work (compute only, no transfer/put)
#: — the share of the epoch that scales with the stage's core allocation,
#: which is what the performance model's ``w_s`` coefficient measures.
WORK_KEYS = ("compute_time", "analysis_time")
#: Rank-stat keys carrying the stages' own progress counters.
PROGRESS_KEYS = ("steps_done", "bytes_done")


@dataclass(frozen=True)
class StageHealth:
    """One stage's observed load over one epoch."""

    stage: str
    #: Fraction of the epoch's rank-seconds spent in compute/analysis/put.
    busy_fraction: float
    #: Fraction of the epoch's rank-seconds spent stalled on backpressure.
    stall_fraction: float
    #: Fraction of the epoch's rank-seconds spent in core-bound work only
    #: (compute/analysis, excluding puts — which can overlap backpressure
    #: waits and are bounded by the coupling, not the stage's cores).
    work_fraction: float = 0.0
    #: Workflow steps the stage itself advanced during the epoch: sources
    #: count completed steps directly, consuming stages convert analysed
    #: bytes.  Unlike coupling byte flow this cannot run ahead of the stage
    #: (unbounded delivery queues make transfers complete long before slow
    #: consumers catch up).
    progress_steps: float = 0.0
    #: Fraction of the stage's nodes currently impaired by a fault (crash
    #: in progress or straggler window) at the epoch instant — the signal
    #: controllers use to reroute cores around degraded nodes.
    degraded_fraction: float = 0.0


@dataclass(frozen=True)
class CouplingHealth:
    """One coupling's observed load over one epoch."""

    coupling: str
    #: Fraction of the epoch's source-rank-seconds stalled on this coupling.
    stall_fraction: float
    #: Bytes this coupling moved during the epoch (network + file paths).
    bytes_moved: float
    #: Instantaneous producer-buffer occupancy in blocks, summed over the
    #: source ranks (transports that do not report occupancy leave this at 0).
    buffer_level: float
    #: ``buffer_level`` as a fraction of the coupling's aggregate buffer
    #: capacity — the controller's "backpressure is building" signal.
    occupancy_fraction: float = 0.0


@dataclass(frozen=True)
class EpochHealth:
    """The full health report the controller receives each epoch."""

    time: float
    duration: float
    stages: Dict[str, StageHealth] = field(default_factory=dict)
    couplings: Dict[str, CouplingHealth] = field(default_factory=dict)


class EpochMonitor:
    """Snapshot the pipeline's counters and emit per-epoch health reports."""

    def __init__(self, ctx: "PipelineContext"):
        self.ctx = ctx
        self._deltas = CounterDeltas()
        self._last_time = float(ctx.env.now)
        #: Bytes a consuming stage must analyse to complete one workflow step
        #: (all inbound couplings' per-step payloads; 0 for source stages).
        self._stage_step_bytes: Dict[str, float] = {
            s.name: float(
                sum(c.step_output_bytes() * c.sim_ranks for c in ctx.inbound(s.name))
            )
            for s in ctx.pipeline.stages
        }

    def _stage_sums(self, stage: str) -> Dict[str, float]:
        sums: Dict[str, float] = {}
        for stats in self.ctx.stage_rank_stats[stage].values():
            for key in BUSY_KEYS + STALL_KEYS + PROGRESS_KEYS:
                value = stats.get(key)
                if value:
                    sums[key] = sums.get(key, 0.0) + value
        return sums

    def _degraded_fraction(self, stage: str) -> float:
        """Fraction of the stage's nodes flagged degraded right now.

        An instantaneous read of the fault injector's ``degraded`` flags —
        pure observation, like the buffer-occupancy hook.
        """
        placement = self.ctx.placement
        base = placement.stage_node_base[stage]
        count = placement.stage_nodes[stage]
        if count <= 0:
            return 0.0
        degraded = sum(
            1
            for node_id in range(base, base + count)
            if self.ctx.cluster.node(node_id).degraded
        )
        return degraded / count

    def _stage_progress(self, stage: str, delta: Dict[str, float]) -> float:
        """Workflow steps the stage advanced, from its own progress counters."""
        step_bytes = self._stage_step_bytes[stage]
        if step_bytes > 0:
            return delta.get("bytes_done", 0.0) / step_bytes
        ranks = self.ctx.stage_ranks(stage)
        return delta.get("steps_done", 0.0) / ranks if ranks > 0 else 0.0

    def advance(self, now: float) -> EpochHealth:
        """Consume the counters accumulated since the last call.

        Returns the health report of the elapsed epoch.  The first call
        covers the interval from the monitor's construction time.
        """
        duration = float(now) - self._last_time
        self._last_time = float(now)
        stages: Dict[str, StageHealth] = {}
        for stage in self.ctx.pipeline.stages:
            name = stage.name
            delta = self._deltas.advance(f"stage:{name}", self._stage_sums(name))
            rank_seconds = duration * self.ctx.stage_ranks(name)
            if rank_seconds <= 0:
                busy = stall = work = 0.0
            else:
                busy = sum(delta.get(key, 0.0) for key in BUSY_KEYS) / rank_seconds
                stall = sum(delta.get(key, 0.0) for key in STALL_KEYS) / rank_seconds
                work = sum(delta.get(key, 0.0) for key in WORK_KEYS) / rank_seconds
            stages[name] = StageHealth(
                name,
                busy_fraction=busy,
                stall_fraction=stall,
                work_fraction=work,
                progress_steps=self._stage_progress(name, delta),
                degraded_fraction=self._degraded_fraction(name),
            )

        couplings: Dict[str, CouplingHealth] = {}
        for cctx in self.ctx.couplings:
            delta = self._deltas.advance(f"coupling:{cctx.name}", cctx.stats)
            rank_seconds = duration * cctx.sim_ranks
            stall = (
                delta.get("stall_time", 0.0) / rank_seconds if rank_seconds > 0 else 0.0
            )
            moved = delta.get("bytes_network", 0.0) + delta.get("bytes_file", 0.0)
            level = float(getattr(cctx, "buffer_level", 0.0))
            capacity = cctx.producer_buffer_blocks * cctx.sim_ranks
            couplings[cctx.name] = CouplingHealth(
                cctx.name,
                stall_fraction=stall,
                bytes_moved=moved,
                buffer_level=level,
                occupancy_fraction=level / capacity if capacity > 0 else 0.0,
            )
        return EpochHealth(
            time=float(now), duration=duration, stages=stages, couplings=couplings
        )
