"""Execute one simulated workflow (a stage/coupling pipeline) and collect results.

:class:`PipelineRunner` is the general engine: it builds the modelled cluster
from the union of the stage placements, instantiates one transport per
coupling, spawns one rank-process family per stage and runs the discrete-event
simulation to completion.  Stage processes come in two shapes:

* *source* stages (no inbound coupling) run the simulation compute loop —
  phase kernels, halo exchanges — and put each step's output into every
  outbound coupling;
* *consuming* stages run each inbound coupling's ``consumer_run`` loop,
  charging their workload's per-byte analysis cost for every delivery, and —
  when they also have outbound couplings — forward each fully-consumed step
  downstream, which is how sim → analysis → visualization chains pipeline.

A two-application :class:`~repro.workflow.config.WorkflowConfig` runs as the
two-stage pipeline it builds: ``run_pipeline(config.to_pipeline())``.

When the pipeline carries an :class:`~repro.elastic.policy.ElasticPolicy`
(or a :class:`~repro.elastic.model_driven.ModelDrivenPolicy`), the runner
also spawns the policy's controller, which rebalances stage core
allocations and coupling bandwidth at policy epochs; its decision timeline
lands on the result's ``rebalances`` field.  For rank-elastic stages the
runner additionally exposes the *rank lifecycle hooks*
(:meth:`PipelineRunner.spawn_rank` / :meth:`PipelineRunner.retire_rank`):
a spawned rank is a real simulation process placed on the least-loaded node
of the stage's range that absorbs an offloaded slice of every primary
rank's compute through the stage's assist pool, so grown capacity shows up
as genuine added parallelism (with node placement, queueing and jitter)
rather than a bare rate multiplier.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from typing import Dict, Generator, Iterable, List, Optional

from repro.cluster.machine import Cluster
from repro.cluster.spec import ClusterSpec
from repro.elastic.controller import ElasticControllerBase
from repro.faults.injector import FaultInjector
from repro.simcore import AllOf, Container, Environment, OneShotSignal, Store
from repro.trace import Tracer
from repro.transports.base import Transport, TransportFault
from repro.transports.registry import create_transport
from repro.workflow.context import PipelineContext, PipelinePlacement
from repro.workflow.pipeline import PipelineSpec
from repro.workflow.result import StageBreakdown, WorkflowResult

__all__ = [
    "PipelineRunner",
    "run_pipeline",
    "pipeline_simulation_only_time",
]


def pipeline_simulation_only_time(pipeline: PipelineSpec) -> float:
    """Analytic lower bound of a pipeline: the slowest source stage's kernels."""
    core_speed = pipeline.cluster.node.core_speed
    times = [0.0]
    for stage in pipeline.sources:
        per_step = stage.workload.sim_step_seconds_for_block(
            pipeline.stage_block_bytes(stage.name)
        )
        times.append(per_step * pipeline.stage_steps(stage.name) / core_speed)
    return max(times)


class _RetireSentinel:
    """Queue marker telling one assist rank to finish and leave its node."""


_RETIRE = _RetireSentinel()


class _AssistUnit:
    """One offloaded slice of a primary rank's compute (seconds + done latch)."""

    __slots__ = ("seconds", "done")

    def __init__(self, seconds: float, done: OneShotSignal):
        self.seconds = seconds
        self.done = done


class _AssistPool:
    """Work queue and census of one stage's spawned assist ranks."""

    __slots__ = ("queue", "active", "spawned_total", "busy_time")

    def __init__(self, env: Environment):
        self.queue = Store(env)
        #: Assist ranks currently serving (decremented at retire time, so
        #: offloads issued after a retire are sized for the smaller pool).
        self.active = 0
        #: Lifetime spawn count (for the result's rank-count census).
        self.spawned_total = 0
        #: Wall seconds the assists spent computing offloaded work.
        self.busy_time = 0.0


class PipelineRunner:
    """Builds the modelled cluster, spawns every stage's ranks, runs the pipeline.

    Parameters
    ----------
    pipeline:
        The validated stage/coupling graph to execute.
    transports:
        Optional pre-built transports keyed by coupling name (``"src->dst"``);
        couplings without an entry get ``create_transport(spec.transport,
        **spec.transport_options)``.
    """

    def __init__(
        self,
        pipeline: PipelineSpec,
        transports: Optional[Dict[str, Transport]] = None,
    ):
        self.pipeline = pipeline
        self.placement = PipelinePlacement(pipeline)
        self.tracer = Tracer(enabled=pipeline.trace)
        self.cluster = self._build_cluster()
        self.ctx = PipelineContext(pipeline, self.cluster, self.tracer, self.placement)
        overrides = dict(transports) if transports else {}
        unknown = set(overrides) - {spec.name for spec in pipeline.couplings}
        if unknown:
            raise ValueError(
                f"transport overrides for unknown couplings {sorted(unknown)}; "
                f"couplings are {[spec.name for spec in pipeline.couplings]}"
            )
        self.transports: Dict[str, Transport] = {
            spec.name: (
                overrides[spec.name]
                if spec.name in overrides
                else create_transport(spec.transport, **spec.transport_options)
            )
            for spec in pipeline.couplings
        }
        self._apply_underfill_correction()
        # Seed the per-node hosting bookkeeping from the static placement so
        # elastic rank spawns can pick the least-loaded node of a stage.
        for node_id, count in self.placement.ranks_per_node().items():
            self.cluster.node(node_id).hosted_ranks = count
        if pipeline.coalesce:
            # Declare every node's worst-case compute concurrency (one slot
            # per potential concurrent compute() of each hosted rank: a
            # consuming rank runs one consumer process per inbound coupling).
            # Nodes whose claims fit their core count can never queue a
            # compute and take the simcore uncontended fast path; elastic
            # assist spawns claim additional slots as they land.
            for stage in pipeline.stages:
                concurrency = max(1, len(pipeline.inbound(stage.name)))
                for rank in range(self.placement.stage_ranks[stage.name]):
                    self.cluster.node(
                        self.placement.stage_node(stage.name, rank)
                    ).claim_compute_slots(concurrency)
        #: Assist pools of rank-elastic stages, created on first spawn.
        self._assist_pools: Dict[str, _AssistPool] = {}
        #: The elastic adaptation loop (None for static runs).  Exposed so
        #: tests and tools can inspect allocations and the decision timeline.
        self.elastic_controller: Optional[ElasticControllerBase] = (
            pipeline.elastic.build_controller(self.ctx, runner=self)
            if pipeline.elastic is not None
            else None
        )
        #: Deterministic fault injector (None when the spec carries no fault
        #: plan or an empty one, so fault-free runs schedule zero extra
        #: events and stay bit-identical to the pre-fault engine).
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(self.ctx, pipeline.faults, runner=self)
            if pipeline.faults is not None and pipeline.faults.specs
            else None
        )
        #: Whether no layer can re-rate this run while it executes, the one
        #: condition under which source stages coalesce compute (a batch
        #: folds the rate in force when it starts).  False with an elastic
        #: controller or a fault injector; a co-scheduler that re-rates the
        #: run from outside (the fair-share tenant scheduler) clears it
        #: before :meth:`start`.
        self.rates_fixed = self.elastic_controller is None and self.fault_injector is None
        # Segmented-execution state (see start/advance/finish): the pending
        # all-stages completion event and the failure latch.
        self._completion: Optional[AllOf] = None
        self._run_failed = False
        self._failure_reason = ""

    # -- construction -------------------------------------------------------
    def _scaled_cluster_spec(self) -> ClusterSpec:
        """Scale per-node and file-system bandwidth to the modelled fraction.

        Each modelled node hosts ``ranks_per_modelled_node`` ranks but stands
        for a full node of ``cores`` ranks, so it is entitled to that fraction
        of a real node's NIC; likewise the modelled ranks are entitled to
        their fraction of the shared file system's aggregate bandwidth.
        """
        spec = self.pipeline.cluster
        node_fraction = self.pipeline.ranks_per_modelled_node / spec.node.cores
        job_fraction = min(1.0, self.placement.modelled_ranks / self.placement.total_ranks)
        network = replace(
            spec.network,
            link_bandwidth=spec.network.link_bandwidth * node_fraction,
            core_link_bandwidth=spec.network.core_link_bandwidth * node_fraction,
        )
        filesystem = replace(
            spec.filesystem,
            job_share=job_fraction,
            client_node_bandwidth=spec.filesystem.client_node_bandwidth * node_fraction,
        )
        return replace(spec, network=network, filesystem=filesystem, max_nodes=None)

    def _build_cluster(self) -> Cluster:
        pipeline = self.pipeline
        num_nodes = self.placement.num_nodes
        # Nodes of the full represented job (for the fabric's scale effects).
        total_nodes = max(
            num_nodes, -(-self.placement.total_ranks // pipeline.cluster.node.cores)
        )
        return Cluster(
            self._scaled_cluster_spec(),
            num_nodes=num_nodes,
            total_nodes=total_nodes,
            deterministic=pipeline.deterministic,
            seed=pipeline.seed,
            # False defers to REPRO_SANITIZE so a whole run can be sanitized
            # from the environment; True forces the traps on for this spec.
            sanitize=pipeline.sanitize or None,
        )

    def _apply_underfill_correction(self) -> None:
        """Shrink the NIC share of modelled nodes that host fewer ranks than assumed.

        The cluster spec was scaled for ``ranks_per_modelled_node`` ranks per
        node; nodes that actually host fewer modelled ranks (typically the
        staging/link nodes, which may host a single rank) get their port
        bandwidth reduced proportionally so per-rank shares stay faithful.
        """
        rpn = self.pipeline.ranks_per_modelled_node
        for node, count in self.placement.ranks_per_node().items():
            if count < rpn:
                self.cluster.network.scale_node_bandwidth(node, count / rpn)

    # -- elastic rank lifecycle --------------------------------------------------
    def stage_assists(self, stage_name: str) -> int:
        """Assist ranks currently spawned for a stage (0 when none ever were)."""
        pool = self._assist_pools.get(stage_name)
        return pool.active if pool is not None else 0

    def spawn_rank(self, stage_name: str) -> int:
        """Spawn one assist rank for a stage; returns the new assist count.

        The rank is a real simulation process placed on the least-loaded
        node of the stage's node range (ties break towards lower node ids,
        keeping placement deterministic).  From the next compute call on,
        every primary rank of the stage offloads the ``k / (n + k)`` slice
        of its work to the pool of ``k`` assists, so the stage's delivered
        capacity grows by ``(n + k) / n`` through genuine added parallelism.
        """
        self.pipeline.stage(stage_name)  # raises KeyError for unknown stages
        pool = self._assist_pools.get(stage_name)
        if pool is None:
            pool = _AssistPool(self.ctx.env)
            self._assist_pools[stage_name] = pool
        base = self.placement.stage_node_base[stage_name]
        nodes = [
            self.cluster.node(base + offset)
            for offset in range(self.placement.stage_nodes[stage_name])
        ]
        node = min(nodes, key=lambda n: (n.hosted_ranks, n.node_id))
        node.host_rank()
        if self.pipeline.coalesce:
            node.claim_compute_slots(1)
        self.ctx.env.process(self._assist_rank_process(stage_name, node, pool))
        pool.active += 1
        pool.spawned_total += 1
        return pool.active

    def retire_rank(self, stage_name: str) -> int:
        """Retire one assist rank of a stage; returns the remaining count.

        The census shrinks immediately (offloads issued after this call are
        sized for the smaller pool); the retiring process drains queued work
        ahead of the sentinel before leaving its node, so no offloaded unit
        is ever lost.
        """
        pool = self._assist_pools.get(stage_name)
        if pool is None or pool.active <= 0:
            raise ValueError(f"stage {stage_name!r} has no assist ranks to retire")
        pool.active -= 1
        pool.queue.put(_RETIRE)
        return pool.active

    def set_assist_ranks(self, stage_name: str, count: int) -> int:
        """Spawn/retire until the stage holds ``count`` assists; returns the count."""
        if count < 0:
            raise ValueError("assist count must be non-negative")
        while self.stage_assists(stage_name) < count:
            self.spawn_rank(stage_name)
        while self.stage_assists(stage_name) > count:
            self.retire_rank(stage_name)
        return self.stage_assists(stage_name)

    def _assist_rank_process(self, stage_name: str, node, pool: _AssistPool) -> Generator:
        env = self.ctx.env
        while True:
            unit = yield pool.queue.get()
            if unit is _RETIRE:
                node.release_rank()
                if self.pipeline.coalesce:
                    node.release_compute_slots(1)
                return
            start = env.now
            yield from node.compute(unit.seconds)
            pool.busy_time += env.now - start
            unit.done.set()

    def _stage_compute(self, stage_name: str, node, reference_seconds: float) -> Generator:
        """One primary rank's compute, offloading a slice to any assist ranks.

        With no assists active this is exactly ``node.compute`` (no extra
        events — static and threshold-elastic runs are untouched).  With
        ``k`` assists behind ``n`` primaries, the primary computes the
        ``n / (n + k)`` slice locally while one assist computes the rest
        concurrently; the primary waits for both, so its recorded busy time
        is the sped-up wall time.
        """
        pool = self._assist_pools.get(stage_name)
        if pool is None or pool.active <= 0 or reference_seconds <= 0:
            yield from node.compute(reference_seconds)
            return
        ranks = self.ctx.stage_ranks(stage_name)
        offload = reference_seconds * pool.active / (ranks + pool.active)
        unit = _AssistUnit(offload, OneShotSignal(self.ctx.env))
        yield pool.queue.put(unit)
        yield from node.compute(reference_seconds - offload)
        yield unit.done.wait()

    # -- rank processes ----------------------------------------------------------
    def _source_rank_process(self, stage_name: str, rank: int) -> Generator:
        """One rank of a source stage: compute phases, halos, per-step puts.

        Per-step constants (phase chunks, halo topology, outbound transport
        bindings) are hoisted out of the step/phase loops.  When the stage's
        steps are pure compute — no mid-step halo exchange, no tracing, no
        active assist offload — runs of compute calls between coupling
        interactions are coalesced through
        :meth:`~repro.cluster.node.ComputeNode.compute_batch`: one event per
        step when every step ends in transport puts, one event for the whole
        remaining run when there are no outbound couplings.  Only a run whose
        :attr:`rates_fixed` holds coalesces, so no re-rate can land inside a
        fast-forwarded segment.
        """
        ctx = self.ctx
        env = ctx.env
        stage = self.pipeline.stage(stage_name)
        workload = stage.workload
        node = ctx.cluster.node(ctx.stage_node(stage_name, rank))
        comm = ctx.stage_comms[stage_name]
        stats = ctx.stage_rank_stats[stage_name][rank]
        outbound = ctx.outbound(stage_name)
        steps = ctx.stage_steps[stage_name]
        nranks = ctx.stage_ranks(stage_name)
        step_seconds = workload.sim_step_seconds_for_block(
            self.pipeline.stage_block_bytes(stage_name)
        )
        left, right = (rank - 1) % nranks, (rank + 1) % nranks
        # Hoisted per-step constants.
        phases = tuple(workload.phase_fractions.items())
        chunks = tuple(step_seconds * fraction for _phase, fraction in phases)
        halo_bytes = workload.halo_bytes
        halo_active = halo_bytes > 0 and workload.halo_neighbors > 0 and nranks > 1
        double_halo = halo_active and workload.halo_neighbors > 1
        out_bytes = ctx.stage_output_bytes[stage_name]
        puts = tuple((cctx, self.transports[cctx.name]) for cctx in outbound)
        coalescable = (
            self.pipeline.coalesce
            and self.rates_fixed
            and not self.tracer.enabled
            and not halo_active
        )
        pools = self._assist_pools
        tracing = self.tracer.enabled

        step = 0
        while step < steps:
            step_start = env._now
            pool = pools.get(stage_name)
            if coalescable and node.can_batch and (pool is None or pool.active <= 0):
                # With no outbound couplings there is no interaction until the
                # end of the run, so the whole remaining step range coalesces.
                # A coalescable run is untraced, so it records no spans.
                elapsed = yield from node.compute_batch(
                    chunks, steps=1 if puts else steps - step
                )
                if elapsed is not None:
                    for span in elapsed:
                        stats["compute_time"] += span
                        stats["steps_done"] += 1.0
                        put_start = env._now
                        for cctx, transport in puts:
                            yield from transport.producer_put(
                                cctx, rank, step, out_bytes
                            )
                        stats["put_time"] += env._now - put_start
                        step += 1
                    continue
                # The batch declined (a transient core holder): run the
                # exact per-phase sequence below.
            compute_this_step = 0.0
            for (phase, _fraction), chunk in zip(phases, chunks):
                phase_start = env._now
                yield from self._stage_compute(stage_name, node, chunk)
                compute_this_step += env._now - phase_start
                if tracing:
                    ctx.record_stage(stage_name, rank, phase, phase_start, step=step)
                if phase == "streaming" and halo_active:
                    yield from comm.sendrecv(rank, right, halo_bytes, left)
                    if double_halo:
                        yield from comm.sendrecv(rank, left, halo_bytes, right)
            stats["compute_time"] += compute_this_step
            # Per-stage progress counter for the elastic monitor/perf model:
            # unlike coupling byte flow (which measures the *transfer*, not
            # the stage), this advances only when the stage itself does.
            stats["steps_done"] += 1.0
            put_start = env._now
            for cctx, transport in puts:
                yield from transport.producer_put(cctx, rank, step, out_bytes)
            if tracing:
                ctx.record_stage(stage_name, rank, "put", put_start, step=step)
                ctx.record_stage(stage_name, rank, "step", step_start, step=step)
            stats["put_time"] += env._now - put_start
            step += 1
        for cctx, transport in puts:
            yield from transport.producer_finalize(cctx, rank)
        stats["finish_time"] = env._now

    def _consumer_rank_process(self, stage_name: str, rank: int) -> Generator:
        """One rank of a consuming stage.

        Drives every inbound coupling's consumer loop and forwards
        fully-consumed steps into the outbound couplings.
        """
        ctx = self.ctx
        env = ctx.env
        stage = self.pipeline.stage(stage_name)
        workload = stage.workload
        node = ctx.cluster.node(ctx.stage_node(stage_name, rank))
        stats = ctx.stage_rank_stats[stage_name][rank]
        inbound = ctx.inbound(stage_name)
        outbound = ctx.outbound(stage_name)
        out_bytes = ctx.stage_output_bytes[stage_name]
        out_pairs = tuple((oc, self.transports[oc.name]) for oc in outbound)
        expected_per_step = sum(
            self.transports[cctx.name].consumer_deliveries_per_step(cctx, rank)
            for cctx in inbound
        )
        step_progress: Dict[int, int] = {}
        # Steps can *complete* out of order (fine-grain inbound blocks arrive
        # interleaved across steps), but downstream producer contracts assume
        # in-order per-rank puts (MPI-IO visibility bookkeeping, DIMES's
        # circular step window) — so hold completed steps back and flush them
        # in step order.
        ready_steps: set = set()
        forward_state = {"next": 0}
        # With several inbound couplings, two consumer processes of this rank
        # can flush concurrently; serialise them so transports with collective
        # producer sync (e.g. MPI-IO barriers) never see two concurrent calls
        # from one rank.
        forward_mutex = (
            Container(env, capacity=1, init=1)
            if outbound and len(inbound) > 1
            else None
        )

        pools = self._assist_pools
        tracing = self.tracer.enabled
        cost_at = workload.analysis_seconds_per_byte_at

        def analyze(nbytes: int, step: int) -> Generator:
            """Charge the analysis cost for one delivery; forward complete steps."""
            start = env._now
            # One delivery per fine-grain block makes this the consumer hot
            # path: with no assist pool active, _stage_compute is exactly
            # node.compute, so the extra generator frame is skipped.
            pool = pools.get(stage_name)
            if pool is None or pool.active <= 0:
                yield from node.compute(cost_at(step) * nbytes)
            else:
                yield from self._stage_compute(stage_name, node, cost_at(step) * nbytes)
            if tracing:
                ctx.record_stage(
                    stage_name, rank, "analysis", start, step=step, nbytes=nbytes
                )
            stats["analysis_time"] += env._now - start
            # Consumption progress (bytes actually analysed), the consuming
            # stages' equivalent of the sources' steps_done counter.
            stats["bytes_done"] += nbytes
            if outbound:
                step_progress[step] = step_progress.get(step, 0) + 1
                if step_progress[step] == expected_per_step:
                    ready_steps.add(step)
                    if forward_mutex is not None:
                        yield forward_mutex.get(1)
                    while forward_state["next"] in ready_steps:
                        flush = forward_state["next"]
                        put_start = env.now
                        for oc, transport in out_pairs:
                            yield from transport.producer_put(oc, rank, flush, out_bytes)
                        ctx.record_stage(stage_name, rank, "put", put_start, step=flush)
                        stats["put_time"] += env.now - put_start
                        ready_steps.discard(flush)
                        forward_state["next"] += 1
                    if forward_mutex is not None:
                        yield forward_mutex.put(1)
                elif step_progress[step] > expected_per_step:
                    # A transport whose consumer_run delivers more often than
                    # its consumer_deliveries_per_step hook reports would
                    # silently duplicate data downstream; fail loudly instead.
                    raise RuntimeError(
                        f"stage {stage_name!r} rank {rank} received "
                        f"{step_progress[step]} deliveries for step {step} but "
                        f"the inbound transports reported {expected_per_step} "
                        "per step; fix consumer_deliveries_per_step"
                    )

        if len(inbound) == 1:
            cctx = inbound[0]
            yield from self.transports[cctx.name].consumer_run(cctx, rank, analyze)
        else:
            consumers = [
                env.process(self.transports[cctx.name].consumer_run(cctx, rank, analyze))
                for cctx in inbound
            ]
            yield AllOf(env, consumers)
        if outbound and forward_state["next"] < ctx.stage_steps[stage_name]:
            # The mirror of the over-delivery guard in analyze(): a transport
            # that delivered fewer calls per step than its hook reported (or
            # none at all for some step) left steps unforwarded, which would
            # starve the downstream stages.
            raise RuntimeError(
                f"stage {stage_name!r} rank {rank} only forwarded "
                f"{forward_state['next']} of {ctx.stage_steps[stage_name]} steps "
                f"({expected_per_step} deliveries per step expected); fix "
                "consumer_deliveries_per_step"
            )
        for oc, transport in out_pairs:
            yield from transport.producer_finalize(oc, rank)
        stats["finish_time"] = env.now

    def _stage_rank_process(self, stage_name: str, rank: int) -> Generator:
        if not self.ctx.inbound(stage_name):
            return self._source_rank_process(stage_name, rank)
        return self._consumer_rank_process(stage_name, rank)

    # -- execution --------------------------------------------------------------
    def run(self) -> WorkflowResult:
        """Execute the pipeline to completion and assemble the result."""
        try:
            self.start()
            self.advance(float("inf"))
        except BaseException:
            # Mirror the pre-segmentation behaviour: any error other than a
            # TransportFault (which advance() latches) still tears the
            # transports down before propagating.
            for cctx in self.ctx.couplings:
                self.transports[cctx.name].teardown(cctx)
            raise
        return self.finish()

    def start(self) -> None:
        """Set up every transport and spawn every simulated process.

        The first third of a segmented run (used by the tenant scheduler to
        co-schedule many runners): after ``start()`` the run is live but no
        event has been processed; drive it with :meth:`advance` and collect
        the result with :meth:`finish`.  ``run()`` composes the three for
        the ordinary dedicated case.
        """
        ctx = self.ctx
        env = ctx.env
        try:
            for cctx in ctx.couplings:
                self.transports[cctx.name].setup(cctx)
        except TransportFault as fault:
            # A modelled setup-time failure (e.g. Decaf's overflow check) is
            # a *result*, not a crash: latch it so finish() reports it.
            self._run_failed = True
            self._failure_reason = fault.reason
            return
        processes = [
            env.process(self._stage_rank_process(stage.name, rank))
            for stage in self.pipeline.stages
            for rank in range(ctx.stage_ranks(stage.name))
        ]
        if self.elastic_controller is not None:
            self.elastic_controller.start()
        if self.fault_injector is not None:
            self.fault_injector.start()
        self._completion = AllOf(env, processes)

    @property
    def finished(self) -> bool:
        """True once every stage process completed (or the run failed)."""
        return self._run_failed or (
            self._completion is not None and self._completion.callbacks is None
        )

    def advance(self, until: float = float("inf")) -> bool:
        """Advance the run until it completes or the clock reaches ``until``.

        Returns True when the run is finished (all stage processes done, or
        a transport fault latched the failure), False when it stopped at the
        time bound with work still pending.  On completion the environment
        clock is the actual completion instant; at a bound it is exactly
        ``until`` — both via :meth:`~repro.simcore.Environment.run_bounded`,
        so a single unbounded ``advance`` is bit-identical to the
        pre-segmentation ``env.run(until=AllOf(...))``.
        """
        if self.finished:
            return True
        if self._completion is None:
            raise RuntimeError("PipelineRunner.advance() called before start()")
        try:
            return self.ctx.env.run_bounded(self._completion, until)
        except TransportFault as fault:
            self._run_failed = True
            self._failure_reason = fault.reason
            return True

    def finish(self) -> WorkflowResult:
        """Tear the transports down and assemble the :class:`WorkflowResult`."""
        ctx = self.ctx
        env = ctx.env
        pipeline = self.pipeline
        failed = self._run_failed
        failure_reason = self._failure_reason
        if failed:
            end_to_end = float("nan")
        else:
            end_to_end = max(
                stats.get("finish_time", 0.0)
                for per_stage in ctx.stage_rank_stats.values()
                for stats in per_stage.values()
            )
        for cctx in ctx.couplings:
            self.transports[cctx.name].teardown(cctx)

        stats: Dict[str, float] = defaultdict(float)
        for cctx in ctx.couplings:
            for key, value in cctx.stats.items():
                # Rank-identity keys (consumer_<n>_...) from different
                # couplings describe different stages' ranks; summing them
                # would be meaningless, so namespace them instead.  Additive
                # counters (bytes, blocks, waits) aggregate as before.
                if key.startswith("consumer_") and len(ctx.couplings) > 1:
                    stats[f"{cctx.name}/{key}"] += value
                else:
                    stats[key] += value
        stats = dict(stats)
        for name, pool in self._assist_pools.items():
            # Rank-elastic runs surface what the spawned assists contributed;
            # static runs never create pools, so their stats are unchanged.
            if pool.spawned_total > 0:
                stats[f"{name}/assist_busy_time"] = pool.busy_time
        # The elastic controller's wake-ups are instrumentation, not modelled
        # workload; subtracting them keeps a never-triggering policy's event
        # count bit-identical to the equivalent static run.
        controller_events = (
            self.elastic_controller.events_consumed
            if self.elastic_controller is not None
            else 0
        )
        stats["events_processed"] = env.events_processed - controller_events
        xmit_wait = ctx.cluster.network.xmit_wait_total() * ctx.rank_scale_factor

        stage_rank_stats = {
            name: {rank: dict(v) for rank, v in per_stage.items()}
            for name, per_stage in ctx.stage_rank_stats.items()
        }
        sources = [s.name for s in pipeline.sources]
        sinks = [s.name for s in pipeline.sinks]
        sim_stats = stage_rank_stats.get(sources[0], {}) if sources else {}
        analysis_stats = stage_rank_stats.get(sinks[-1], {}) if sinks else {}
        return WorkflowResult(
            transport=self._transport_label(),
            end_to_end_time=end_to_end,
            simulation_only_time=pipeline_simulation_only_time(pipeline),
            breakdown=self._breakdown(),
            stats=stats,
            sim_rank_stats=sim_stats,
            analysis_rank_stats=analysis_stats,
            xmit_wait=xmit_wait,
            tracer=self.tracer if pipeline.trace else None,
            label=pipeline.label,
            total_cores=pipeline.total_cores,
            block_bytes=self._common_block_bytes(),
            failed=failed,
            failure_reason=failure_reason,
            stage_rank_stats=stage_rank_stats,
            stage_breakdowns=self._stage_breakdowns(),
            coupling_stats={c.name: dict(c.stats) for c in ctx.couplings},
            coupling_transports={
                c.name: self.transports[c.name].name for c in ctx.couplings
            },
            coupling_block_bytes={c.name: c.block_bytes for c in ctx.couplings},
            rebalances=(
                list(self.elastic_controller.timeline)
                if self.elastic_controller is not None
                else []
            ),
            # Injector events stay in events_processed: faults are modelled
            # workload (unlike the controller's instrumentation wake-ups);
            # fault-free runs create no injector at all.
            faults=(
                list(self.fault_injector.timeline)
                if self.fault_injector is not None
                else []
            ),
            stage_assist_ranks={
                name: pool.spawned_total
                for name, pool in self._assist_pools.items()
                if pool.spawned_total > 0
            },
        )

    def _common_block_bytes(self) -> int:
        """The block size shared by every coupling, or 0 when they disagree."""
        sizes = {c.block_bytes for c in self.ctx.couplings}
        if not sizes:
            return self.pipeline.block_bytes
        return sizes.pop() if len(sizes) == 1 else 0

    def _transport_label(self) -> str:
        if not self.pipeline.couplings:
            return "none"
        if len(self.pipeline.couplings) == 1:
            return self.transports[self.pipeline.couplings[0].name].name
        return ",".join(
            f"{spec.name}:{self.transports[spec.name].name}"
            for spec in self.pipeline.couplings
        )

    # -- result assembly ---------------------------------------------------------
    def _stage_values(self, stage_names: Iterable[str], *keys: str) -> List[float]:
        """Per-rank sums of ``keys`` over every rank of the given stages."""
        return [
            sum(stats.get(key, 0.0) for key in keys)
            for name in stage_names
            for stats in self.ctx.stage_rank_stats[name].values()
        ]

    def _breakdown_for(
        self,
        sources: List[str],
        producers: List[str],
        consumers: List[str],
    ) -> StageBreakdown:
        """The stat-key -> breakdown-field mapping, shared by both views."""
        return StageBreakdown(
            simulation=_mean(self._stage_values(sources, "compute_time")),
            transfer=_mean(
                self._stage_values(producers, "transfer_busy_time", "io_write_time")
            ),
            analysis=_mean(self._stage_values(consumers, "analysis_time")),
            store=_mean(self._stage_values(producers, "writer_busy_time"))
            + _mean(self._stage_values(consumers, "output_busy_time")),
            stall=_mean(self._stage_values(sources, "stall_time")),
        )

    def _breakdown(self) -> StageBreakdown:
        pipeline = self.pipeline
        sources = [s.name for s in pipeline.sources]
        producers = [s.name for s in pipeline.stages if pipeline.outbound(s.name)]
        consumers = [s.name for s in pipeline.stages if pipeline.inbound(s.name)]
        return self._breakdown_for(sources, producers, consumers)

    def _stage_breakdowns(self) -> Dict[str, StageBreakdown]:
        return {
            stage.name: self._breakdown_for(
                [stage.name], [stage.name], [stage.name]
            )
            for stage in self.pipeline.stages
        }


def _mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def run_pipeline(
    pipeline: PipelineSpec, transports: Optional[Dict[str, Transport]] = None
) -> WorkflowResult:
    """Convenience wrapper: build a :class:`PipelineRunner` and run it."""
    return PipelineRunner(pipeline, transports).run()
