"""Shared state handed to the transport implementations during a workflow run.

Two layers:

* :class:`PipelineContext` owns everything global to one pipeline run — the
  modelled cluster, per-stage placements, per-stage communicators and rank
  statistics, the tracer and the aggregate stats; and
* :class:`CouplingContext` is the thin *endpoint adapter* a transport sees.
  It scopes the pipeline to one coupling and exposes the historical
  producer/consumer vocabulary (``sim_ranks``, ``analysis_node``,
  ``consumer_of``, ...) where "sim" means the coupling's source stage and
  "analysis" its target stage — which is exactly what those names meant in the
  hardcoded two-application runner, so every existing transport works
  unmodified on arbitrary stage graphs.

Transports are given the coupling context in every call and must not hold
global state outside it, so several workflow runs can coexist in one process.
The coupling's buffering policy and optimisation toggles are plain attributes
of the context (``producer_buffer_blocks``, ``high_water_mark``,
``concurrent_transfer``, ``preserve``), resolved from the coupling spec and
the pipeline defaults.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from repro.cluster.machine import Cluster
from repro.cluster.node import RateFactors
from repro.simmpi.comm import Communicator
from repro.trace import Tracer
from repro.workflow.pipeline import CouplingSpec, PipelineSpec

__all__ = ["PipelinePlacement", "PipelineContext", "CouplingContext"]


class PipelinePlacement:
    """Pure arithmetic: which modelled node hosts which stage/staging rank.

    Stages occupy contiguous node ranges in declaration order; each coupling's
    staging/link ranks occupy further ranges after all the stage nodes, in
    coupling order.  (For a two-application config's pipeline this is the
    ``sim | analysis | staging`` layout.)
    """

    def __init__(self, pipeline: PipelineSpec):
        self.pipeline = pipeline
        rpn = pipeline.ranks_per_modelled_node
        self.stage_ranks: Dict[str, int] = {}
        self.stage_total_ranks: Dict[str, int] = {}
        self.stage_nodes: Dict[str, int] = {}
        self.stage_node_base: Dict[str, int] = {}
        self.stage_rank_base: Dict[str, int] = {}
        base = 0
        rank_base = 0
        for stage in pipeline.stages:
            ranks = pipeline.modelled_ranks(stage.name)
            nodes = _ceil_div(ranks, rpn)
            self.stage_ranks[stage.name] = ranks
            self.stage_total_ranks[stage.name] = pipeline.resolved_total_ranks(stage.name)
            self.stage_nodes[stage.name] = nodes
            self.stage_node_base[stage.name] = base
            self.stage_rank_base[stage.name] = rank_base
            base += nodes
            rank_base += ranks

        self.coupling_staging_ranks: Dict[str, int] = {}
        self.coupling_staging_base: Dict[str, int] = {}
        for coupling in pipeline.couplings:
            staging = pipeline.coupling_staging_ranks(coupling)
            self.coupling_staging_ranks[coupling.name] = staging
            self.coupling_staging_base[coupling.name] = base
            base += _ceil_div(staging, rpn) if staging else 0

        #: All modelled nodes: stage nodes followed by per-coupling staging nodes.
        self.num_nodes = base
        #: Modelled application ranks (staging ranks excluded, as before).
        self.modelled_ranks = sum(self.stage_ranks.values())
        #: Application ranks of the full represented job.
        self.total_ranks = sum(self.stage_total_ranks.values())

    def stage_node(self, stage: str, rank: int) -> int:
        """Modelled node hosting rank ``rank`` of stage ``stage``."""
        rpn = self.pipeline.ranks_per_modelled_node
        return self.stage_node_base[stage] + rank // rpn

    def staging_node(self, coupling: str, srank: int) -> int:
        """Modelled node hosting staging rank ``srank`` of coupling ``coupling``."""
        staging = self.coupling_staging_ranks[coupling]
        if not staging:
            raise ValueError(f"coupling {coupling!r} has no staging ranks")
        rpn = self.pipeline.ranks_per_modelled_node
        return self.coupling_staging_base[coupling] + (srank % staging) // rpn

    def ranks_per_node(self) -> Dict[int, int]:
        """How many modelled ranks (incl. staging) each node actually hosts."""
        counts: Dict[int, int] = {}
        for stage in self.pipeline.stages:
            for rank in range(self.stage_ranks[stage.name]):
                node = self.stage_node(stage.name, rank)
                counts[node] = counts.get(node, 0) + 1
        for coupling in self.pipeline.couplings:
            for srank in range(self.coupling_staging_ranks[coupling.name]):
                node = self.staging_node(coupling.name, srank)
                counts[node] = counts.get(node, 0) + 1
        return counts


class PipelineContext:
    """Everything global to one pipeline run.

    Owns the cluster, the per-stage communicators/placements/statistics, the
    tracer, and one :class:`CouplingContext` per coupling (in spec order,
    available as :attr:`couplings`; each carries its own stats channel, which
    the runner merges into the result's aggregate stats).
    """

    def __init__(
        self,
        pipeline: PipelineSpec,
        cluster: Cluster,
        tracer: Tracer,
        placement: Optional[PipelinePlacement] = None,
    ):
        self.pipeline = pipeline
        self.cluster = cluster
        self.env = cluster.env
        self.tracer = tracer
        self.placement = placement if placement is not None else PipelinePlacement(pipeline)

        self.stage_steps: Dict[str, int] = {
            s.name: pipeline.stage_steps(s.name) for s in pipeline.stages
        }
        self.stage_output_bytes: Dict[str, int] = {
            s.name: pipeline.stage_output_bytes_per_step(s.name) for s in pipeline.stages
        }
        #: per-stage, per-rank statistics (stall_time, transfer_busy_time, ...)
        self.stage_rank_stats: Dict[str, Dict[int, Dict[str, float]]] = {
            s.name: {r: defaultdict(float) for r in range(self.placement.stage_ranks[s.name])}
            for s in pipeline.stages
        }
        # Stage-level communicators carry the application's own traffic (the
        # halo exchanges of the compute loop), which only source stages run;
        # coupling traffic goes through each CouplingContext's private comms.
        self.stage_comms: Dict[str, Communicator] = {
            s.name: Communicator(
                cluster,
                [
                    self.placement.stage_node(s.name, r)
                    for r in range(self.placement.stage_ranks[s.name])
                ],
                represented_size=self.placement.stage_total_ranks[s.name],
                tracer=tracer,
                name=s.name,
            )
            for s in pipeline.sources
        }
        self.couplings: List[CouplingContext] = [
            CouplingContext(self, spec) for spec in pipeline.couplings
        ]
        self._couplings_by_name: Dict[str, CouplingContext] = {
            c.name: c for c in self.couplings
        }

    # -- lookups -------------------------------------------------------------
    def coupling(self, name: str) -> "CouplingContext":
        """The coupling context named ``name`` (``"src->dst"``)."""
        return self._couplings_by_name[name]

    def inbound(self, stage: str) -> List["CouplingContext"]:
        """Coupling contexts delivering data into ``stage`` (spec order)."""
        return [c for c in self.couplings if c.spec.target == stage]

    def outbound(self, stage: str) -> List["CouplingContext"]:
        """Coupling contexts carrying ``stage``'s output (spec order)."""
        return [c for c in self.couplings if c.spec.source == stage]

    def stage_ranks(self, stage: str) -> int:
        """Modelled rank count of ``stage``."""
        return self.placement.stage_ranks[stage]

    def stage_node(self, stage: str, rank: int) -> int:
        """Modelled node hosting ``stage``'s rank ``rank``."""
        return self.placement.stage_node(stage, rank)

    # -- tracing -------------------------------------------------------------
    def trace_row(self, stage: str, rank: int) -> int:
        """Trace-row id of a stage rank (stages stacked in declaration order)."""
        return self.placement.stage_rank_base[stage] + rank

    def record_stage(self, stage: str, rank: int, category: str, start: float, **meta) -> None:
        """Record a span ending now on a stage rank's trace row."""
        self.tracer.record(self.trace_row(stage, rank), category, start, self.env.now, **meta)

    # -- scaling -------------------------------------------------------------
    @property
    def rank_scale_factor(self) -> float:
        """How many real producer ranks one modelled producer rank stands for.

        Aggregated over *all* source stages (totals over modelled counts), so
        fan-in pipelines whose sources represent differently-sized jobs get a
        modelled-rank-weighted factor; for a single source this is exactly
        ``total_sim_ranks / sim_ranks``.
        """
        sources = self.pipeline.sources  # non-empty: every DAG has a source
        total = sum(self.placement.stage_total_ranks[s.name] for s in sources)
        modelled = sum(self.placement.stage_ranks[s.name] for s in sources)
        return total / modelled


class CouplingContext:
    """One coupling's view of the pipeline — the context transports receive.

    The historical two-application vocabulary is preserved: ``sim_*`` refers
    to the coupling's *source* stage and ``analysis_*`` to its *target* stage.
    Each coupling gets its own stats dictionary and tags its trace spans with
    the coupling name, giving per-coupling stats/trace channels.
    """

    def __init__(self, pipeline_ctx: PipelineContext, spec: CouplingSpec):
        self.pipeline_ctx = pipeline_ctx
        self.spec = spec
        self.name = spec.name
        pipeline = pipeline_ctx.pipeline
        placement = pipeline_ctx.placement

        self.cluster = pipeline_ctx.cluster
        self.env = pipeline_ctx.env
        self.tracer = pipeline_ctx.tracer
        #: Source-stage workload (what the coupled data stream is made of).
        self.workload = pipeline.stage(spec.source).workload
        self.block_bytes = pipeline.coupling_block_bytes(spec)
        self.steps = pipeline_ctx.stage_steps[spec.source]
        #: The coupling's buffer policy and the run-wide transfer toggles.
        self.producer_buffer_blocks = pipeline.coupling_buffer_blocks(spec)
        self.high_water_mark = pipeline.coupling_high_water_mark(spec)
        self.concurrent_transfer = pipeline.concurrent_transfer
        self.preserve = pipeline.preserve

        self.sim_ranks = placement.stage_ranks[spec.source]
        self.analysis_ranks = placement.stage_ranks[spec.target]
        self.total_sim_ranks = placement.stage_total_ranks[spec.source]
        self.total_analysis_ranks = placement.stage_total_ranks[spec.target]
        self.sim_nodes = placement.stage_nodes[spec.source]
        self.analysis_nodes = placement.stage_nodes[spec.target]
        self.staging_ranks = placement.coupling_staging_ranks[spec.name]
        self.staging_nodes = (
            _ceil_div(self.staging_ranks, pipeline.ranks_per_modelled_node)
            if self.staging_ranks
            else 0
        )

        #: Per-coupling statistics channel (merged into the run's aggregate
        #: stats when the result is assembled).
        self.stats: Dict[str, float] = defaultdict(float)
        # The share of its fair bandwidth this coupling currently drains at
        # (1.0 = the static fair share): the product of its rate factors.
        self._factors = RateFactors()
        self._share = 1.0
        #: Per-source-rank producer-buffer occupancy in blocks, reported by
        #: transports through :meth:`note_buffer_level` (empty when the
        #: transport does not report occupancy).
        self._buffer_levels: Dict[int, float] = {}
        self.sim_rank_stats = pipeline_ctx.stage_rank_stats[spec.source]
        self.analysis_rank_stats = pipeline_ctx.stage_rank_stats[spec.target]
        # Private communicators per coupling: they share the stage placement
        # and represented size but not the collective state, so e.g. two
        # couplings fanning into one stage cannot corrupt each other's
        # count-based barriers (the stage-level comm stays dedicated to the
        # application's own traffic such as halo exchanges).
        self.sim_comm = Communicator(
            self.cluster,
            [self.sim_node(r) for r in range(self.sim_ranks)],
            represented_size=self.total_sim_ranks,
            tracer=self.tracer,
            name=spec.source,
        )
        self.analysis_comm = Communicator(
            self.cluster,
            [self.analysis_node(a) for a in range(self.analysis_ranks)],
            represented_size=self.total_analysis_ranks,
            tracer=self.tracer,
            name=spec.target,
        )

    # -- placement ---------------------------------------------------------
    @property
    def total_nodes_modelled(self) -> int:
        """All modelled nodes of the run (stage nodes plus staging nodes)."""
        return self.pipeline_ctx.placement.num_nodes

    def sim_node(self, rank: int) -> int:
        """Modelled node hosting source-stage rank ``rank``."""
        return self.pipeline_ctx.placement.stage_node(self.spec.source, rank)

    def analysis_node(self, arank: int) -> int:
        """Modelled node hosting target-stage rank ``arank``."""
        return self.pipeline_ctx.placement.stage_node(self.spec.target, arank)

    def staging_node(self, srank: int) -> int:
        """Modelled node hosting this coupling's staging/server rank ``srank``."""
        if not self.staging_ranks:
            raise ValueError(f"coupling {self.name!r} has no staging ranks")
        return self.pipeline_ctx.placement.staging_node(self.spec.name, srank)

    # -- producer/consumer mapping ------------------------------------------
    def consumer_of(self, sim_rank: int) -> int:
        """Target-stage rank that consumes ``sim_rank``'s output."""
        return sim_rank % self.analysis_ranks

    def producers_of(self, arank: int) -> List[int]:
        """Source-stage ranks whose output ``arank`` consumes."""
        return [r for r in range(self.sim_ranks) if self.consumer_of(r) == arank]

    def staging_target_of(self, sim_rank: int) -> int:
        """Staging rank that serves ``sim_rank`` (round-robin)."""
        if self.staging_ranks == 0:
            raise ValueError(f"coupling {self.name!r} has no staging ranks")
        return sim_rank % self.staging_ranks

    # -- per-step data volumes -------------------------------------------------
    def step_output_bytes(self) -> int:
        """Bytes one source-stage rank emits into this coupling per step."""
        return self.pipeline_ctx.stage_output_bytes[self.spec.source]

    def represented_step_output_bytes(self) -> int:
        """Bytes one *full-job* source rank emits per step.

        For scale-sensitive fault models, where modelled and represented
        ratios can differ.
        """
        return self.pipeline_ctx.pipeline.represented_stage_output_bytes_per_step(
            self.spec.source
        )

    def blocks_per_step(self) -> int:
        """Fine-grain blocks per source rank per step."""
        return max(1, _ceil_div(self.step_output_bytes(), self.block_bytes))

    def consumer_step_bytes(self, arank: int) -> int:
        """Bytes target rank ``arank`` receives per step."""
        return self.step_output_bytes() * len(self.producers_of(arank))

    # -- tracing helpers ----------------------------------------------------
    def trace_rank_of_analysis(self, arank: int) -> int:
        """Trace-row id used for target-stage ranks."""
        return self.pipeline_ctx.trace_row(self.spec.target, arank)

    def record_sim(self, rank: int, category: str, start: float, **meta) -> None:
        """Record a span ending now on a source-stage rank's trace row.

        Spans are tagged with the coupling name so fan-in/fan-out traffic on
        shared trace rows stays attributable to its coupling.
        """
        self.tracer.record(
            self.pipeline_ctx.trace_row(self.spec.source, rank),
            category,
            start,
            self.env.now,
            coupling=self.name,
            **meta,
        )

    def record_analysis(self, arank: int, category: str, start: float, **meta) -> None:
        """Record a span ending now on a target-stage rank's trace row."""
        self.tracer.record(
            self.trace_rank_of_analysis(arank),
            category,
            start,
            self.env.now,
            coupling=self.name,
            **meta,
        )

    # -- rate factors and monitor hooks ---------------------------------------
    @property
    def bandwidth_share(self) -> float:
        """The bandwidth scale transports apply to every issued transfer.

        The product of this coupling's rate factors (see
        :meth:`set_rate_factor`); 1.0 for a dedicated, unleased, healthy
        coupling, which drains at its static fair bandwidth.
        """
        return self._share

    def rate_factor(self, owner: str) -> float:
        """The bandwidth factor ``owner`` last set (1.0 until it does)."""
        return self._factors[owner]

    def set_rate_factor(self, owner: str, factor: float) -> None:
        """Set ``owner``'s factor of this coupling's :attr:`bandwidth_share`.

        The share multiplies the :data:`~repro.cluster.node.RATE_OWNERS`
        factors in order: the elastic bandwidth lease, the fault injector's
        transport-restart derating and the owning tenant's facility share.
        Transports consult :attr:`bandwidth_share` when issuing transfers
        (the network and file-system ``rate_scale`` arguments), so the new
        share takes effect for every operation *issued* after this call;
        in-flight operations keep the rate frozen at issue time.
        """
        self._factors.set(owner, factor)
        self._share = self._factors.times(1.0)

    def note_buffer_level(self, rank: int, level: float) -> None:
        """Report one source rank's instantaneous buffer occupancy (in blocks).

        A cheap monitor hook: transports with bounded producer buffers call
        it on every enqueue/dequeue so the elastic controller can observe
        occupancy without the cost of a full time series.  Levels are kept
        per rank; :attr:`buffer_level` aggregates them.
        """
        self._buffer_levels[rank] = float(level)

    @property
    def buffer_level(self) -> float:
        """Total instantaneous producer-buffer occupancy across source ranks.

        0 for transports that never report occupancy.
        """
        return sum(self._buffer_levels.values())

    # -- scaling ------------------------------------------------------------
    @property
    def rank_scale_factor(self) -> float:
        """How many real source ranks one modelled source rank stands for."""
        return self.total_sim_ranks / self.sim_ranks

    def __repr__(self) -> str:
        return f"<CouplingContext {self.name!r} transport={self.spec.transport!r}>"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
