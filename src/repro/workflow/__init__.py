"""Simulated scientific workflows: stage graphs coupled through I/O transports.

This package glues together the cluster substrate (:mod:`repro.cluster`), the
simulated MPI layer (:mod:`repro.simmpi`), workload cost models
(:mod:`repro.apps.costs`) and the I/O transports (:mod:`repro.transports`)
into one executable workflow run — the thing every figure in the paper's
evaluation measures.

Workflows are declared as a :class:`PipelineSpec`: a validated DAG of
:class:`StageSpec` nodes (one per application) joined by :class:`CouplingSpec`
edges, each edge with its own transport, block size and buffering policy.
:func:`run_pipeline` (or :class:`PipelineRunner`) executes the graph and
returns a :class:`WorkflowResult` with end-to-end time, per-stage and
per-coupling breakdowns, stall/lock/barrier accounting, network counters and,
when requested, a full trace.

The paper's two-application runs are described by a :class:`WorkflowConfig`.
Sweep stores key results by its field hash, so it stays a case type of its
own; it runs as the two-stage pipeline it builds,
``run_pipeline(config.to_pipeline())``.

The resource split between stages may be made *elastic* by attaching an
:class:`~repro.elastic.policy.ElasticPolicy` to the spec (``elastic=...``):
an in-simulation controller then resizes stage core allocations and leases
coupling bandwidth at policy epochs, and the decisions taken are returned on
the result as a rebalance timeline (see :mod:`repro.elastic`).

Large jobs are simulated with a *representative subset* of ranks per stage
(:class:`StageSpec.representative_ranks`); per-rank resource shares and
collective costs are derived from the full job size so that weak-scaling
behaviour (Figures 14–18) is preserved.
"""

from repro.workflow.config import WorkflowConfig
from repro.workflow.context import CouplingContext, PipelineContext
from repro.workflow.pipeline import CouplingSpec, PipelineSpec, StageSpec
from repro.workflow.result import WorkflowResult, StageBreakdown
from repro.workflow.runner import PipelineRunner, pipeline_simulation_only_time, run_pipeline

__all__ = [
    "WorkflowConfig",
    "CouplingContext",
    "PipelineContext",
    "StageSpec",
    "CouplingSpec",
    "PipelineSpec",
    "WorkflowResult",
    "StageBreakdown",
    "PipelineRunner",
    "run_pipeline",
    "pipeline_simulation_only_time",
]
