"""Analytical performance models of the coupled workflows.

Two layers:

* :mod:`repro.perfmodel.zipper` — the paper's Section 4.4 two-application
  estimator (``T_t2s = max(T_comp, T_transfer, T_analysis[, T_store])``) and
  the Figure 11 makespan/schedule helpers;
* :mod:`repro.perfmodel.pipeline` — the generalization to arbitrary
  :class:`~repro.workflow.pipeline.PipelineSpec` stage graphs: per-stage
  throughput and per-coupling transfer time as a function of core split,
  bandwidth share and rank count, with priors from the workload cost models
  and online EWMA calibration (:mod:`repro.perfmodel.calibration`) from the
  elastic monitor's epoch counters.

The model-driven elastic policies (:mod:`repro.elastic.model_driven`) are
built on the pipeline layer; ``docs/perf-model.md`` maps every equation to
its symbol here.
"""

from repro.perfmodel.calibration import CalibrationBank, EwmaEstimate
from repro.perfmodel.pipeline import PipelinePerfModel, baseline_cores, proportional_fill
from repro.perfmodel.zipper import (
    PerformanceModel,
    StageTimes,
    pipeline_makespan,
    pipeline_schedule,
    sequential_makespan,
)

__all__ = [
    "StageTimes",
    "PerformanceModel",
    "sequential_makespan",
    "pipeline_makespan",
    "pipeline_schedule",
    "EwmaEstimate",
    "CalibrationBank",
    "PipelinePerfModel",
    "baseline_cores",
    "proportional_fill",
]
