"""Declarative multi-stage pipeline specifications.

The paper's central argument is that the *whole* coupled workflow — not one
producer/consumer pair — is the unit that must be integrated and pipelined.
This module captures that idea declaratively:

* a :class:`StageSpec` describes one application of the workflow (its cost
  model, its share of the job's cores, and how many representative ranks are
  actually simulated);
* a :class:`CouplingSpec` describes one directed data coupling between two
  stages, each with its *own* transport method, transport options, block size
  and buffering policy;
* a :class:`PipelineSpec` bundles stages and couplings into a validated DAG
  plus the run-wide knobs (cluster, total cores, steps, seed, ...).

A classic two-application run is the special case of a two-stage pipeline with
a single coupling: :meth:`~repro.workflow.config.WorkflowConfig.to_pipeline`
builds exactly that pipeline from a two-application config.

Execution semantics (see :class:`~repro.workflow.runner.PipelineRunner`):

* stages with no inbound coupling are *sources*: they run the simulation
  compute loop and put each step's output into every outbound coupling;
* stages with inbound couplings consume delivered data (charging their
  workload's per-byte analysis cost) and, if they also have outbound
  couplings, forward ``output_fraction`` of each fully-consumed step
  downstream — the sim → analysis → visualization chain;
* fan-out (one source stage feeding several analyses over independent
  couplings) and fan-in (several stages feeding one consumer) are both
  expressed as plain extra couplings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.apps.costs import WorkloadModel
from repro.cluster.spec import ClusterSpec
from repro.elastic.policy import ElasticPolicy
from repro.faults.plan import FaultPlan
from repro.transports.null import NullTransport
from repro.transports.registry import transport_class

__all__ = ["StageSpec", "CouplingSpec", "PipelineSpec", "MiB"]

MiB = 1024 * 1024


@dataclass(frozen=True)
class StageSpec:
    """One application (stage) of a multi-stage workflow.

    ``core_share`` is the stage's fraction of the pipeline's ``total_cores``
    in the represented (full-scale) job; ``total_ranks`` overrides the derived
    count directly.  ``representative_ranks`` is how many of those ranks are
    actually simulated — per-rank resource shares are scaled so weak-scaling
    behaviour of the full job is preserved, exactly as in the two-app model.
    """

    name: str
    workload: WorkloadModel
    #: Fraction of the pipeline's ``total_cores`` this stage occupies in the
    #: full job (ignored when ``total_ranks`` is given).
    core_share: float = 0.0
    #: Number of ranks actually simulated (representative subset).
    representative_ranks: int = 8
    #: Explicit full-job rank count (overrides ``core_share``).
    total_ranks: Optional[int] = None
    #: Free-form role tag carried into results ("producer", "analysis",
    #: "visualization", ...); purely descriptive — behaviour follows topology.
    role: str = ""
    #: For stages that both consume and produce (chain middles): bytes emitted
    #: downstream per byte consumed.
    output_fraction: float = 1.0
    #: Whether an elastic controller may move cores to/from this stage.
    resizable: bool = True
    #: Floor for elastic resizes, as a fraction of this stage's baseline
    #: cores; ``None`` inherits the policy's ``min_stage_fraction``.
    min_core_fraction: Optional[float] = None
    #: Represented cores this stage actually holds at the start of the run,
    #: for elastic accounting (``None`` = its resolved full-job rank count).
    #: Scenario builders that encode an uneven static core grant as workload
    #: rate factors set this so the controller moves (and conserves) the
    #: *granted* cores rather than rank units.
    granted_cores: Optional[float] = None
    #: Whether a model-driven controller delivers grown capacity by spawning
    #: modelled assist ranks at epoch boundaries (the runner's rank lifecycle
    #: hooks) instead of purely re-rating the stage's nodes.
    elastic_ranks: bool = False
    #: Steps between checkpoints for fault recovery.  A crashed rank loses
    #: the steps completed since its last checkpoint and recomputes them
    #: during recovery; ``None`` means no checkpointing — every completed
    #: step is lost on a crash (see ``docs/faults.md``).
    checkpoint_interval: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a stage needs a non-empty name")
        if self.representative_ranks <= 0:
            raise ValueError(
                f"stage {self.name!r} has zero representative ranks; every "
                "stage must model at least one rank"
            )
        if self.total_ranks is not None and self.total_ranks <= 0:
            raise ValueError(f"stage {self.name!r} has a non-positive total_ranks")
        if not self.output_fraction > 0:
            raise ValueError(f"stage {self.name!r} needs output_fraction > 0")
        if self.min_core_fraction is not None and not 0.0 < self.min_core_fraction <= 1.0:
            raise ValueError(
                f"stage {self.name!r} needs min_core_fraction in (0, 1] (or None)"
            )
        if self.granted_cores is not None and not self.granted_cores > 0:
            raise ValueError(f"stage {self.name!r} needs granted_cores > 0 (or None)")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError(
                f"stage {self.name!r} needs checkpoint_interval > 0 (or None)"
            )

    def replace(self, **changes) -> "StageSpec":
        """A copy of the stage spec with ``changes`` applied."""
        return replace(self, **changes)


@dataclass(frozen=True)
class CouplingSpec:
    """One directed data coupling between two stages.

    Every coupling owns its transport: name + keyword options (forwarded to
    :func:`~repro.transports.registry.create_transport`), block size and
    producer-buffer policy.  ``None`` values inherit the pipeline defaults.
    """

    source: str
    target: str
    transport: str = "zipper"
    #: Keyword arguments for the transport constructor (per-coupling options).
    transport_options: dict = field(default_factory=dict)
    #: Fine-grain block size; ``None`` inherits the pipeline default.
    block_bytes: Optional[int] = None
    producer_buffer_blocks: Optional[int] = None
    high_water_mark: Optional[int] = None
    #: Staging/link ranks allocated per 8 source ranks (DataSpaces/DIMES
    #: servers, Decaf links); ``None`` inherits the pipeline default.  A
    #: transport that needs staging ranks rejects 0.
    staging_ranks_per_8: Optional[int] = None
    #: Whether an elastic controller may lease this coupling's bandwidth
    #: (lend it when idle, borrow for it when starved).
    leasable: bool = True

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise ValueError("a coupling needs non-empty source and target stages")
        if self.source == self.target:
            raise ValueError(f"coupling {self.source!r} -> itself is not allowed")
        if self.block_bytes is not None and self.block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if self.producer_buffer_blocks is not None and self.producer_buffer_blocks <= 0:
            raise ValueError("producer_buffer_blocks must be positive")
        if self.staging_ranks_per_8 is not None and self.staging_ranks_per_8 < 0:
            raise ValueError("staging_ranks_per_8 must be non-negative")

    @property
    def name(self) -> str:
        """Stable identifier of the coupling (used for stats/trace channels)."""
        return f"{self.source}->{self.target}"

    def replace(self, **changes) -> "CouplingSpec":
        """A copy of the coupling spec with ``changes`` applied."""
        return replace(self, **changes)


@dataclass(frozen=True)
class PipelineSpec:
    """A validated stage graph plus the run-wide execution knobs.

    The stage order given here is also the node-placement order: stages get
    contiguous node ranges in declaration order, followed by each coupling's
    staging nodes in coupling order (the sim | analysis | staging layout of
    a two-application config's pipeline).
    """

    stages: Tuple[StageSpec, ...]
    couplings: Tuple[CouplingSpec, ...]
    cluster: ClusterSpec
    #: Total cores of the represented job across all stages.
    total_cores: int = 384
    ranks_per_modelled_node: int = 4
    #: Default fine-grain block size for couplings that do not override it.
    block_bytes: int = 1 * MiB
    producer_buffer_blocks: int = 64
    high_water_mark: int = 48
    concurrent_transfer: bool = True
    preserve: bool = False
    #: Override of the source stages' step count (``None`` keeps the workload values).
    steps: Optional[int] = None
    trace: bool = True
    deterministic: bool = True
    seed: int = 1
    #: Default staging ranks per 8 source ranks for couplings that do not override it.
    staging_ranks_per_8_sim: int = 1
    #: Adaptation policy; ``None`` keeps the static resource split.
    elastic: Optional[ElasticPolicy] = None
    #: Deterministic fault schedule; ``None`` (or an empty plan) injects
    #: nothing and keeps the run bit-identical to today's fault-free engine.
    faults: Optional[FaultPlan] = None
    #: Engine fast path: fast-forward pure-compute segments on guaranteed-
    #: uncontended nodes in one event (elided events are credited, results
    #: stay bit-identical — see ``docs/performance.md``).  Turn off to force
    #: the per-phase event sequence, e.g. when external processes mutate
    #: node allocations outside the elastic epoch protocol.
    coalesce: bool = True
    #: Not an option: no code reads it, but ``config_hash`` covers it, so it
    #: stays to keep the digest of every stored case.
    pool_events: bool = field(default=True, init=False)
    #: Arm the :mod:`repro.sanitize` runtime determinism traps for this run.
    #: ``False`` (the default) defers to the ``REPRO_SANITIZE`` environment
    #: variable, so a whole sweep can be sanitized without editing configs.
    sanitize: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        if self.total_cores <= 1:
            raise ValueError("total_cores must be at least 2")
        if self.ranks_per_modelled_node <= 0:
            raise ValueError("ranks_per_modelled_node must be positive")
        if self.ranks_per_modelled_node > self.cluster.node.cores:
            raise ValueError("ranks_per_modelled_node cannot exceed the node's core count")
        if self.block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if self.producer_buffer_blocks <= 0:
            raise ValueError("producer_buffer_blocks must be positive")
        if not 0 <= self.high_water_mark <= self.producer_buffer_blocks:
            raise ValueError("high_water_mark must lie in [0, producer_buffer_blocks]")
        if self.steps is not None and self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.staging_ranks_per_8_sim < 0:
            raise ValueError("staging_ranks_per_8_sim must be non-negative")
        if self.elastic is not None and not isinstance(self.elastic, ElasticPolicy):
            raise ValueError("elastic must be an ElasticPolicy (or None)")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError("faults must be a FaultPlan (or None)")
        self._validate_graph()

    # -- graph validation ---------------------------------------------------
    def _validate_graph(self) -> None:
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in pipeline: {names}")
        known = set(names)
        seen_edges = set()
        for coupling in self.couplings:
            for endpoint in (coupling.source, coupling.target):
                if endpoint not in known:
                    raise ValueError(
                        f"coupling {coupling.name!r} references unknown stage "
                        f"{endpoint!r} (dangling endpoint)"
                    )
            edge = (coupling.source, coupling.target)
            if edge in seen_edges:
                raise ValueError(f"duplicate coupling {coupling.name!r}")
            seen_edges.add(edge)
            try:
                transport = transport_class(coupling.transport)
            except KeyError as exc:
                raise ValueError(
                    f"coupling {coupling.name!r}: {exc.args[0]}"
                ) from None
            if transport.uses_staging_ranks and self.coupling_staging_per_8(coupling) == 0:
                raise ValueError(
                    f"coupling {coupling.name!r}: transport {coupling.transport!r} "
                    "needs staging ranks, but its staging_ranks_per_8 is 0"
                )

        # Kahn's algorithm: any remaining edge after peeling means a cycle.
        indegree = {name: 0 for name in names}
        for coupling in self.couplings:
            indegree[coupling.target] += 1
        ready = [name for name in names if indegree[name] == 0]
        peeled = 0
        while ready:
            stage = ready.pop()
            peeled += 1
            for coupling in self.couplings:
                if coupling.source == stage:
                    indegree[coupling.target] -= 1
                    if indegree[coupling.target] == 0:
                        ready.append(coupling.target)
        if peeled != len(names):
            cyclic = sorted(n for n, d in indegree.items() if d > 0)
            raise ValueError(f"coupling graph contains a cycle through {cyclic}")

        # Core shares must resolve to at least one rank per stage.
        share_sum = 0.0
        for stage in self.stages:
            if stage.total_ranks is None:
                if not 0.0 < stage.core_share <= 1.0:
                    raise ValueError(
                        f"stage {stage.name!r} needs core_share in (0, 1] "
                        "(or an explicit total_ranks)"
                    )
                share_sum += stage.core_share
        if share_sum > 1.0 + 1e-9:
            raise ValueError(f"stage core shares sum to {share_sum:.3f} > 1")

        # Per-stage step counts must be well defined (fan-in must agree), and
        # per-coupling buffering policies must be coherent.
        for stage in self.stages:
            self.stage_steps(stage.name)
        for coupling in self.couplings:
            self.coupling_high_water_mark(coupling)

        for stage in self.stages:
            inbound = self.inbound(stage.name)
            outbound = self.outbound(stage.name)
            if stage.output_fraction != 1.0 and (not inbound or not outbound):
                raise ValueError(
                    f"stage {stage.name!r} output_fraction does not apply: it "
                    "only scales what a stage that both consumes and forwards "
                    "re-emits (sources always emit their workload's "
                    "output_bytes_per_step; sinks emit nothing)"
                )
            if not inbound or not outbound:
                continue
            # A forwarding stage re-emits once per fully consumed step, so a
            # rank with no producers on some inbound coupling would starve its
            # consumers downstream.
            for coupling in inbound:
                if self.modelled_ranks(stage.name) > self.modelled_ranks(coupling.source):
                    raise ValueError(
                        f"forwarding stage {stage.name!r} models more ranks than "
                        f"its producer stage {coupling.source!r}; shrink "
                        "representative_ranks so every rank has a producer"
                    )
                if issubclass(transport_class(coupling.transport), NullTransport):
                    raise ValueError(
                        f"coupling {coupling.name!r} uses the no-coupling "
                        f"transport but stage {stage.name!r} must forward "
                        "data downstream"
                    )

    # -- lookups -------------------------------------------------------------
    def stage(self, name: str) -> StageSpec:
        """The stage spec named ``name`` (KeyError when absent)."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r}")

    def inbound(self, name: str) -> List[CouplingSpec]:
        """Couplings delivering data *into* stage ``name`` (spec order)."""
        return [c for c in self.couplings if c.target == name]

    def outbound(self, name: str) -> List[CouplingSpec]:
        """Couplings carrying stage ``name``'s output (spec order)."""
        return [c for c in self.couplings if c.source == name]

    @property
    def sources(self) -> List[StageSpec]:
        """Stages with no inbound coupling (the simulations)."""
        return [s for s in self.stages if not self.inbound(s.name)]

    @property
    def sinks(self) -> List[StageSpec]:
        """Stages with no outbound coupling (the terminal analyses)."""
        return [s for s in self.stages if not self.outbound(s.name)]

    # -- derived sizes -------------------------------------------------------
    def resolved_total_ranks(self, name: str) -> int:
        """Full-job rank count of a stage (explicit, or from its core share)."""
        stage = self.stage(name)
        if stage.total_ranks is not None:
            return stage.total_ranks
        return max(1, int(round(self.total_cores * stage.core_share)))

    def modelled_ranks(self, name: str) -> int:
        """Ranks of the stage actually simulated."""
        stage = self.stage(name)
        return min(stage.representative_ranks, self.resolved_total_ranks(name))

    def _memo(self, attr: str) -> Dict[str, int]:
        """A lazily created per-instance memo.

        The spec is frozen, so derived graph walks are safe to cache for the
        instance's lifetime.
        """
        cache = self.__dict__.get(attr)
        if cache is None:
            cache = {}
            object.__setattr__(self, attr, cache)
        return cache

    def stage_steps(self, name: str) -> int:
        """Steps stage ``name`` executes (sources) or consumes (everyone else)."""
        return self._stage_steps(name, self._memo("_steps_memo"))

    def _stage_steps(self, name: str, memo: Dict[str, int]) -> int:
        # Memoised per call: the naive recursion is exponential in diamond
        # (fan-out-then-fan-in) depth.
        if name in memo:
            return memo[name]
        inbound = self.inbound(name)
        if not inbound:
            if self.steps is not None:
                result = self.steps
            else:
                result = self.stage(name).workload.steps
        else:
            steps = {self._stage_steps(c.source, memo) for c in inbound}
            if len(steps) != 1:
                raise ValueError(
                    f"inbound couplings of stage {name!r} disagree on step counts "
                    f"({sorted(steps)}); fan-in stages need matching producers"
                )
            result = steps.pop()
        memo[name] = result
        return result

    def stage_output_bytes_per_step(self, name: str) -> int:
        """Bytes one rank of stage ``name`` emits into each outbound coupling per step."""
        return self._stage_output_bytes_per_step(
            name, self._memo("_output_memo"), self.modelled_ranks
        )

    def represented_stage_output_bytes_per_step(self, name: str) -> int:
        """Like :meth:`stage_output_bytes_per_step` but for the *full* job.

        Uses the represented (total) rank counts instead of the modelled
        subset, for scale-sensitive models (e.g. Decaf's element-count
        overflow) that must size the real stream, not the simulated one.
        """
        return self._stage_output_bytes_per_step(
            name, self._memo("_total_output_memo"), self.resolved_total_ranks
        )

    def _stage_output_bytes_per_step(self, name: str, memo, ranks_of) -> int:
        if name in memo:
            return memo[name]
        inbound = self.inbound(name)
        stage = self.stage(name)
        if not inbound:
            result = stage.workload.output_bytes_per_step
        else:
            total_in = sum(
                self._stage_output_bytes_per_step(c.source, memo, ranks_of)
                * ranks_of(c.source)
                for c in inbound
            )
            result = max(1, int(stage.output_fraction * total_in / ranks_of(name)))
        memo[name] = result
        return result

    def coupling_block_bytes(self, coupling: CouplingSpec) -> int:
        """Effective block size of a coupling (never larger than one step's output)."""
        block = coupling.block_bytes if coupling.block_bytes is not None else self.block_bytes
        return min(block, self.stage_output_bytes_per_step(coupling.source))

    def stage_block_bytes(self, name: str) -> int:
        """Block size governing a stage's per-step compute cost."""
        outbound = self.outbound(name)
        if outbound:
            return min(self.coupling_block_bytes(c) for c in outbound)
        return min(self.block_bytes, self.stage_output_bytes_per_step(name))

    def coupling_staging_per_8(self, coupling: CouplingSpec) -> int:
        """Staging ranks per 8 source ranks for a coupling (with the default)."""
        if coupling.staging_ranks_per_8 is not None:
            return coupling.staging_ranks_per_8
        return self.staging_ranks_per_8_sim

    def coupling_staging_ranks(self, coupling: CouplingSpec) -> int:
        """Modelled staging/link ranks dedicated to one coupling."""
        per_8 = self.coupling_staging_per_8(coupling)
        ranks = (self.modelled_ranks(coupling.source) * per_8) // 8
        if per_8 > 0:
            ranks = max(1, ranks)
        return ranks

    def coupling_buffer_blocks(self, coupling: CouplingSpec) -> int:
        """Producer-buffer capacity of a coupling (with the pipeline default)."""
        blocks = (
            coupling.producer_buffer_blocks
            if coupling.producer_buffer_blocks is not None
            else self.producer_buffer_blocks
        )
        return blocks

    def coupling_high_water_mark(self, coupling: CouplingSpec) -> int:
        """Work-stealing high-water mark of a coupling (validated against capacity)."""
        hwm = (
            coupling.high_water_mark
            if coupling.high_water_mark is not None
            else min(self.high_water_mark, self.coupling_buffer_blocks(coupling))
        )
        if not 0 <= hwm <= self.coupling_buffer_blocks(coupling):
            raise ValueError(
                f"coupling {coupling.name!r}: high_water_mark {hwm} outside "
                f"[0, {self.coupling_buffer_blocks(coupling)}]"
            )
        return hwm

    def replace(self, **changes) -> "PipelineSpec":
        """A copy of the pipeline spec with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

