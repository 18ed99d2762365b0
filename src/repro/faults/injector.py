"""Apply a :class:`~repro.faults.plan.FaultPlan` to a running pipeline.

The :class:`FaultInjector` is an ordinary simulated process: it sleeps to
each scheduled fault time with ``env.sleep_until``, mutates the
cluster/coupling state (a node's or a coupling's ``"fault"`` rate factor,
link bandwidth), and records every transition as a
:class:`~repro.faults.plan.FaultEvent`.  It writes only its own rate
factor, so a transport restart composes with the elastic controller's
bandwidth lease and the tenant share instead of overwriting them.  Because
the schedule is fixed at construction and every mutation is driven by the
deterministic event loop, an identical re-run reproduces the exact fault
timeline.

Crash handling is the one runtime-dependent piece: a ``node_crash`` seizes
every core slot of the victim node (in-flight compute drains first, new
work queues behind the seizure), holds them for a downtime computed from
the work lost since the stage's last checkpoint plus the plan's fixed
recovery cost, and then releases the node — forcing any elastic assist
rank on the stage through the runner's ``retire_rank``/``spawn_rank``
lifecycle.  Since a fault may re-rate a node or seize its cores at any
instant, a run with an injector never coalesces compute (see
:attr:`~repro.workflow.runner.PipelineRunner.rates_fixed`).

Injector events are *not* subtracted from ``events_processed``: faults are
modelled workload, so their events are part of the run.  The required
bit-identity is with the *no-fault* plan, which creates no injector at all.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.faults.plan import WINDOWED_KINDS, FaultEvent, FaultPlan, FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import ComputeNode
    from repro.workflow.context import PipelineContext
    from repro.workflow.runner import PipelineRunner

__all__ = ["FaultInjector"]


class FaultInjector:
    """Replays a fault plan against a pipeline as ordinary simcore events."""

    def __init__(
        self,
        ctx: "PipelineContext",
        plan: FaultPlan,
        runner: Optional["PipelineRunner"] = None,
    ):
        self.ctx = ctx
        self.plan = plan
        self.runner = runner
        #: Applied transitions in time order; copied into the run's
        #: :class:`~repro.workflow.result.WorkflowResult` as ``faults``.
        self.timeline: List[FaultEvent] = []
        entries: List[Tuple[float, int, str, FaultSpec]] = []
        for index, spec in enumerate(plan.specs):
            self._validate_target(spec)
            entries.append((spec.time, index, "inject", spec))
            if spec.kind in WINDOWED_KINDS:
                entries.append((spec.time + spec.duration, index, "recover", spec))
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        self._schedule = entries
        self._cursor = 0

    def _validate_target(self, spec: FaultSpec) -> None:
        """Fail at construction if a spec names an unknown stage/coupling."""
        if spec.kind == "transport_restart":
            try:
                self.ctx.coupling(spec.target)
            except KeyError:
                raise ValueError(
                    f"fault plan names unknown coupling {spec.target!r}"
                ) from None
        else:
            try:
                self.ctx.pipeline.stage(spec.target)
            except KeyError:
                raise ValueError(
                    f"fault plan names unknown stage {spec.target!r}"
                ) from None

    def start(self) -> None:
        """Spawn the injector process (call once, before ``env.run``)."""
        self.ctx.env.process(self._run())

    def _run(self) -> Generator:
        env = self.ctx.env
        while self._cursor < len(self._schedule):
            when, _index, action, spec = self._schedule[self._cursor]
            if when > env.now:
                yield env.sleep_until(when)
            self._cursor += 1
            if spec.kind == "node_crash":
                env.process(self._crash_process(spec))
            elif action == "inject":
                self._inject(spec)
            else:
                self._recover(spec)

    def _record(self, spec: FaultSpec, action: str, detail: Dict[str, float]) -> None:
        self.timeline.append(
            FaultEvent(
                time=self.ctx.env.now,
                kind=spec.kind,
                action=action,
                target=spec.target,
                detail=detail,
            )
        )

    def _victim_node(self, spec: FaultSpec) -> Tuple[int, "ComputeNode"]:
        """The (rank, node) a node-scoped spec lands on."""
        rank = spec.rank % self.ctx.stage_ranks(spec.target)
        node_id = self.ctx.stage_node(spec.target, rank)
        return rank, self.ctx.cluster.node(node_id)

    def _inject(self, spec: FaultSpec) -> None:
        if spec.kind == "straggler":
            rank, node = self._victim_node(spec)
            node.set_rate_factor("fault", 1.0 / spec.severity)
            node.degraded = True
            self._record(
                spec,
                "inject",
                {
                    "node": float(node.node_id),
                    "rank": float(rank),
                    "scale": 1.0 / spec.severity,
                },
            )
        elif spec.kind == "link_degrade":
            rank, node = self._victim_node(spec)
            self.ctx.cluster.network.scale_node_bandwidth(node.node_id, spec.severity)
            self._record(
                spec,
                "inject",
                {
                    "node": float(node.node_id),
                    "rank": float(rank),
                    "scale": float(spec.severity),
                },
            )
        else:  # transport_restart
            cctx = self.ctx.coupling(spec.target)
            cctx.set_rate_factor("fault", cctx.rate_factor("fault") * spec.severity)
            self._record(spec, "inject", {"share": float(cctx.bandwidth_share)})

    def _recover(self, spec: FaultSpec) -> None:
        if spec.kind == "straggler":
            rank, node = self._victim_node(spec)
            node.set_rate_factor("fault", 1.0)
            node.degraded = False
            self._record(
                spec,
                "recover",
                {"node": float(node.node_id), "rank": float(rank), "scale": 1.0},
            )
        elif spec.kind == "link_degrade":
            rank, node = self._victim_node(spec)
            self.ctx.cluster.network.scale_node_bandwidth(
                node.node_id, 1.0 / spec.severity
            )
            self._record(
                spec,
                "recover",
                {
                    "node": float(node.node_id),
                    "rank": float(rank),
                    "scale": 1.0 / spec.severity,
                },
            )
        else:  # transport_restart
            cctx = self.ctx.coupling(spec.target)
            cctx.set_rate_factor("fault", cctx.rate_factor("fault") / spec.severity)
            self._record(spec, "recover", {"share": float(cctx.bandwidth_share)})

    def _crash_downtime(self, spec: FaultSpec, rank: int, node: "ComputeNode") -> Tuple[float, float]:
        """(lost_steps, downtime) for a crash, per the checkpoint model.

        A crashed rank loses every step completed since its last checkpoint
        (all of them when ``checkpoint_interval`` is None) and recomputes
        the lost work at the node's nominal core speed on top of the plan's
        fixed ``recovery_seconds`` respawn cost.  Stages without a
        ``steps_done`` counter (pure consumers) lose no recomputable work.
        """
        pipeline = self.ctx.pipeline
        stage = pipeline.stage(spec.target)
        stats = self.ctx.stage_rank_stats[spec.target][rank]
        steps_done = float(stats.get("steps_done", 0.0))
        interval = stage.checkpoint_interval
        lost = steps_done if interval is None else math.fmod(steps_done, float(interval))
        step_ref = stage.workload.sim_step_seconds_for_block(
            pipeline.stage_block_bytes(spec.target)
        )
        downtime = self.plan.recovery_seconds + lost * step_ref / node.spec.core_speed
        return lost, downtime

    def _seize_and_hold(self, node: ComputeNode, downtime: float) -> Generator:
        """Seize every core slot of ``node``, hold for ``downtime``, release.

        In-flight compute drains first (its durations were frozen at issue
        time), new work queues behind the seizure, and the node-local fast
        paths observe the waiters and fall back to the queued path.
        """
        env = self.ctx.env
        cores = node.cores
        requests = [cores.request() for _ in range(node.spec.cores)]
        for request in requests:
            yield request
        if downtime > 0:
            yield env.sleep(downtime)
        for request in requests:
            cores.release(request)

    def _crash_process(self, spec: FaultSpec) -> Generator:
        """Crash one rank's node: drain, hold for the downtime, respawn."""
        rank, node = self._victim_node(spec)
        lost, downtime = self._crash_downtime(spec, rank, node)
        node.degraded = True
        retired = False
        runner = self.runner
        if runner is not None and runner.stage_assists(spec.target) > 0:
            runner.retire_rank(spec.target)
            retired = True
        self._record(
            spec,
            "inject",
            {
                "node": float(node.node_id),
                "rank": float(rank),
                "lost_steps": lost,
                "downtime": downtime,
            },
        )
        yield from self._seize_and_hold(node, downtime)
        node.degraded = False
        if retired:
            runner.spawn_rank(spec.target)
        self._record(
            spec,
            "recover",
            {
                "node": float(node.node_id),
                "rank": float(rank),
                "lost_steps": lost,
                "downtime": downtime,
            },
        )
