"""The two-application case config: one simulation coupled to one analysis.

Sweep stores key its results by its field hash (``config_hash``), so it stays
a case type of its own; it runs as the two-stage pipeline that
:meth:`WorkflowConfig.to_pipeline` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.apps.costs import WorkloadModel
from repro.cluster.spec import ClusterSpec

if TYPE_CHECKING:
    from repro.workflow.pipeline import PipelineSpec

__all__ = ["WorkflowConfig", "MiB"]

MiB = 1024 * 1024


@dataclass(frozen=True)
class WorkflowConfig:
    """Everything needed to run one coupled simulation + analysis workflow.

    The paper's convention for core counts is followed: of ``total_cores``,
    ``sim_core_fraction`` go to the simulation application and the rest to the
    analysis application; staging resources (DataSpaces/DIMES servers, Decaf
    link processes) are allocated *in addition*, as they are in Table 1.
    """

    workload: WorkloadModel
    cluster: ClusterSpec
    transport: str = "zipper"
    #: Total cores of the represented job (simulation + analysis).
    total_cores: int = 384
    #: Fraction of ``total_cores`` devoted to the simulation application.
    sim_core_fraction: float = 2.0 / 3.0
    #: Number of simulation ranks actually simulated (representative subset).
    representative_sim_ranks: int = 8
    #: Number of analysis ranks actually simulated.  ``None`` keeps the same
    #: producer:consumer ratio as the full job.
    representative_analysis_ranks: Optional[int] = None
    #: Modelled ranks placed per modelled node (their NIC share is scaled to
    #: this many cores of a real node).
    ranks_per_modelled_node: int = 4
    #: Fine-grain block size used by Zipper (baselines ship one step at a time).
    block_bytes: int = 1 * MiB
    #: Producer-buffer capacity in blocks, and the work-stealing high-water
    #: mark.  The buffer must comfortably hold more than one step's worth of
    #: blocks, otherwise every step ends in an artificial stall.
    producer_buffer_blocks: int = 64
    high_water_mark: int = 48
    #: Enable Zipper's concurrent message+file transfer optimisation.
    concurrent_transfer: bool = True
    #: Preserve mode (persist all computed results).
    preserve: bool = False
    #: Override the workload's number of steps (``None`` keeps the workload value).
    steps: Optional[int] = None
    #: Collect a full trace (needed for the trace figures; adds overhead).
    trace: bool = True
    #: Use deterministic service times (tests) or realistic jitter (benchmarks).
    deterministic: bool = True
    seed: int = 1
    #: Number of staging ranks per 8 simulation ranks (DataSpaces/DIMES servers,
    #: Decaf link processes); transports that need none ignore it, and those
    #: that need them reject 0.
    staging_ranks_per_8_sim: int = 1
    #: Free-form label carried into results.
    label: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.total_cores <= 1:
            raise ValueError("total_cores must be at least 2")
        if not 0.0 < self.sim_core_fraction < 1.0:
            raise ValueError("sim_core_fraction must lie in (0, 1)")
        if self.representative_sim_ranks <= 0:
            raise ValueError("representative_sim_ranks must be positive")
        if (
            self.representative_analysis_ranks is not None
            and self.representative_analysis_ranks <= 0
        ):
            raise ValueError("representative_analysis_ranks must be positive")
        if self.ranks_per_modelled_node <= 0:
            raise ValueError("ranks_per_modelled_node must be positive")
        if self.ranks_per_modelled_node > self.cluster.node.cores:
            raise ValueError(
                "ranks_per_modelled_node cannot exceed the node's core count"
            )
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
        if self.staging_ranks_per_8_sim == 0:
            # The pipeline rejects a staging transport with no staging ranks;
            # build it now, so the error comes here and not at run time.
            self.to_pipeline()

    # -- derived job sizes -------------------------------------------------
    @property
    def total_sim_ranks(self) -> int:
        """Simulation ranks of the full represented job."""
        return max(1, int(round(self.total_cores * self.sim_core_fraction)))

    @property
    def total_analysis_ranks(self) -> int:
        """Analysis ranks of the full represented job."""
        return max(1, self.total_cores - self.total_sim_ranks)

    @property
    def sim_ranks(self) -> int:
        """Modelled simulation ranks."""
        return min(self.representative_sim_ranks, self.total_sim_ranks)

    @property
    def analysis_ranks(self) -> int:
        """Modelled analysis ranks."""
        if self.representative_analysis_ranks is not None:
            return min(self.representative_analysis_ranks, self.total_analysis_ranks)
        ratio = self.total_analysis_ranks / self.total_sim_ranks
        return max(1, int(round(self.sim_ranks * ratio)))

    @property
    def num_steps(self) -> int:
        """Steps actually run (the explicit override or the workload's count)."""
        return self.steps if self.steps is not None else self.workload.steps

    @property
    def effective_block_bytes(self) -> int:
        """Block size actually used (never larger than one step's output)."""
        return min(self.block_bytes, self.workload.output_bytes_per_step)

    def replace(self, **changes) -> "WorkflowConfig":
        """A copy of the config with ``changes`` applied."""
        return replace(self, **changes)

    def to_pipeline(self) -> "PipelineSpec":
        """The equivalent two-stage :class:`~repro.workflow.pipeline.PipelineSpec`.

        A ``simulation`` stage feeds an ``analysis`` stage over the config's
        transport; ``extras`` become the coupling's transport options.
        """
        from repro.workflow.pipeline import CouplingSpec, PipelineSpec, StageSpec

        simulation = StageSpec(
            name="simulation",
            workload=self.workload,
            representative_ranks=self.sim_ranks,
            total_ranks=self.total_sim_ranks,
            role="producer",
        )
        analysis = StageSpec(
            name="analysis",
            workload=self.workload,
            representative_ranks=self.analysis_ranks,
            total_ranks=self.total_analysis_ranks,
            role="analysis",
        )
        coupling = CouplingSpec(
            source="simulation",
            target="analysis",
            transport=self.transport,
            transport_options=dict(self.extras),
            block_bytes=self.block_bytes,
            producer_buffer_blocks=self.producer_buffer_blocks,
            high_water_mark=self.high_water_mark,
            staging_ranks_per_8=self.staging_ranks_per_8_sim,
        )
        return PipelineSpec(
            stages=(simulation, analysis),
            couplings=(coupling,),
            cluster=self.cluster,
            total_cores=self.total_cores,
            ranks_per_modelled_node=self.ranks_per_modelled_node,
            block_bytes=self.block_bytes,
            producer_buffer_blocks=self.producer_buffer_blocks,
            high_water_mark=self.high_water_mark,
            concurrent_transfer=self.concurrent_transfer,
            preserve=self.preserve,
            steps=self.num_steps,
            trace=self.trace,
            deterministic=self.deterministic,
            seed=self.seed,
            staging_ranks_per_8_sim=self.staging_ranks_per_8_sim,
            label=self.label,
        )
