"""Workflow configurations for every table and figure of the paper's evaluation.

Each figure's scenario grid is declared as a :class:`~repro.sweep.spec.SweepSpec`
(``figureN_spec``) built from :class:`~repro.sweep.spec.ParamGrid` axes —
transports × core counts × block sizes × preserve modes.  Benchmark drivers
pass a spec straight to :func:`~repro.sweep.runner.run_labelled`, and
``spec.cases()`` lists its labelled cases.  Scale knobs default to laptop-friendly
values — fewer steps and less data per rank than the paper — while the
structural parameters (core counts, producer:consumer ratio, block sizes,
machine presets) stay faithful, so the *shape* of every result is preserved.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.apps.costs import MiB, cfd_workload, lammps_workload, synthetic_workload
from repro.cluster.presets import bridges, stampede2
from repro.elastic import ElasticPolicy, ModelDrivenPolicy
from repro.sweep.spec import ParamGrid, SweepSpec
from repro.workflow.config import WorkflowConfig
from repro.workflow.pipeline import CouplingSpec, PipelineSpec, StageSpec

__all__ = [
    "FIGURE2_TRANSPORTS",
    "SCALABILITY_CORE_COUNTS",
    "SCALABILITY_TRANSPORTS",
    "SYNTHETIC_SCALING_CORES",
    "figure2_spec",
    "figure12_spec",
    "figure13_spec",
    "figure14_spec",
    "figure16_spec",
    "figure18_spec",
    "FAULT_CHECKPOINT_INTERVALS",
    "default_fault_plan",
    "elastic_burst_pipeline",
    "elastic_default_policy",
    "elastic_vs_static_spec",
    "fault_recovery_spec",
    "model_driven_default_policy",
    "model_vs_threshold_spec",
    "pipeline_chain",
    "pipeline_fanout",
    "pipeline_shapes_spec",
    "tenant_contention_spec",
    "trace_config",
]

#: The seven transport methods of Figure 2 plus the two reference bars.
FIGURE2_TRANSPORTS: Tuple[str, ...] = (
    "adios+dataspaces",
    "adios+dimes",
    "mpiio",
    "flexpath",
    "decaf",
    "dataspaces",
    "dimes",
)

#: Core counts of the weak-scaling experiments (Figures 16 and 18).
SCALABILITY_CORE_COUNTS: Tuple[int, ...] = (204, 408, 816, 1632, 3264, 6528, 13056)

#: Transports compared in the weak-scaling experiments.
SCALABILITY_TRANSPORTS: Tuple[str, ...] = ("mpiio", "flexpath", "decaf", "zipper", "none")

#: Core counts of the concurrent-transfer experiments (Figures 14 and 15).
SYNTHETIC_SCALING_CORES: Tuple[int, ...] = (84, 168, 336, 588, 1176, 2352)

#: Block sizes of the performance-model validation (Figures 12 and 13).
PERF_MODEL_BLOCK_BYTES: Tuple[int, ...] = (1 * MiB, 8 * MiB)

#: Synthetic producer complexities of Figures 12-15.
SYNTHETIC_COMPLEXITIES: Tuple[str, ...] = ("O(n)", "O(nlogn)", "O(n^1.5)")


def figure2_spec(steps: int = 30, representative_sim_ranks: int = 8) -> SweepSpec:
    """The Bridges CFD workflow of Table 1 under each of the seven transports.

    Table 1: 256 simulation processes, 128 analysis processes, 100 time steps,
    16 MiB of output per process per step (400 GB moved in total).
    """
    base = WorkflowConfig(
        workload=cfd_workload(steps=steps),
        cluster=bridges(),
        total_cores=384,
        sim_core_fraction=256 / 384,
        representative_sim_ranks=representative_sim_ranks,
        steps=steps,
        trace=False,
        label="figure2",
    )
    grid = ParamGrid(
        base,
        axes=[("transport", FIGURE2_TRANSPORTS + ("zipper", "none"))],
        label="{transport}",
    )
    return SweepSpec("figure2", grids=[grid])


def _perf_model_spec(
    name: str, data_per_rank: int, preserve: bool, steps_cap: Optional[int]
) -> SweepSpec:
    base = WorkflowConfig(
        workload=synthetic_workload("O(n)", 1 * MiB, data_per_rank=data_per_rank),
        cluster=bridges(),
        transport="zipper",
        total_cores=2352,
        sim_core_fraction=1568 / 2352,
        representative_sim_ranks=8,
        preserve=preserve,
        trace=False,
    )

    def derive(params):
        workload = synthetic_workload(
            params["complexity"], params["block"], data_per_rank=data_per_rank
        )
        if steps_cap is not None:
            workload = workload.replace(steps=min(workload.steps, steps_cap))
        return {"workload": workload, "block_bytes": params["block"]}

    grid = ParamGrid(
        base,
        axes=[("block", PERF_MODEL_BLOCK_BYTES), ("complexity", SYNTHETIC_COMPLEXITIES)],
        label=lambda p: f"{p['complexity']}/{p['block'] // MiB}MB",
        derive=derive,
    )
    return SweepSpec(name, grids=[grid])


def figure12_spec(data_per_rank: int = 256 * MiB, steps_cap: int = 512) -> SweepSpec:
    """Performance-model validation, No-Preserve mode (Figure 12).

    The paper uses 1,568 simulation cores + 784 analysis cores, 2 GiB of data
    per simulation core, and block sizes of 1 MB and 8 MB for each of the
    three synthetic applications; ``data_per_rank`` scales the per-rank volume
    down for laptop runs.
    """
    return _perf_model_spec("figure12", data_per_rank, False, steps_cap)


def figure13_spec(data_per_rank: int = 256 * MiB, steps_cap: int = 512) -> SweepSpec:
    """Performance-model validation, Preserve mode (Figure 13)."""
    return _perf_model_spec("figure13", data_per_rank, True, steps_cap)


def figure14_spec(
    data_per_rank: int = 256 * MiB,
    core_counts: Iterable[int] = SYNTHETIC_SCALING_CORES,
) -> SweepSpec:
    """Concurrent message+file transfer optimisation (Figures 14 and 15).

    For each synthetic application and core count, two configurations are
    produced: the message-passing-only baseline and the concurrent (work
    stealing) optimisation.
    """
    base = WorkflowConfig(
        workload=synthetic_workload("O(n)", 1 * MiB, data_per_rank=data_per_rank),
        cluster=bridges(),
        transport="zipper",
        sim_core_fraction=2.0 / 3.0,
        representative_sim_ranks=8,
        block_bytes=1 * MiB,
        trace=False,
    )
    grid = ParamGrid(
        base,
        axes=[
            ("complexity", SYNTHETIC_COMPLEXITIES),
            ("total_cores", tuple(core_counts)),
            ("concurrent_transfer", (False, True)),
        ],
        label=lambda p: (
            f"{p['complexity']}/{p['total_cores']}/"
            f"{'concurrent' if p['concurrent_transfer'] else 'mpi-only'}"
        ),
        derive=lambda p: {
            "workload": synthetic_workload(
                p["complexity"], 1 * MiB, data_per_rank=data_per_rank
            )
        },
    )
    return SweepSpec("figure14", grids=[grid])


def _scalability_spec(
    name: str,
    workload_factory,
    steps: int,
    core_counts: Iterable[int],
    transports: Tuple[str, ...],
) -> SweepSpec:
    workload = workload_factory(steps=steps)
    base = WorkflowConfig(
        workload=workload,
        cluster=stampede2(),
        sim_core_fraction=2.0 / 3.0,
        representative_sim_ranks=8,
        steps=steps,
        trace=False,
    )
    grid = ParamGrid(
        base,
        axes=[("total_cores", tuple(core_counts)), ("transport", transports)],
        label=lambda p, _name=workload.name: f"{_name}/{p['total_cores']}/{p['transport']}",
    )
    return SweepSpec(name, grids=[grid])


def figure16_spec(
    steps: int = 30,
    core_counts: Iterable[int] = SCALABILITY_CORE_COUNTS,
    transports: Tuple[str, ...] = SCALABILITY_TRANSPORTS,
) -> SweepSpec:
    """CFD weak scaling on Stampede2 (Figure 16): MPI-IO, Flexpath, Decaf, Zipper, none."""
    return _scalability_spec("figure16", cfd_workload, steps, core_counts, transports)


def figure18_spec(
    steps: int = 30,
    core_counts: Iterable[int] = SCALABILITY_CORE_COUNTS,
    transports: Tuple[str, ...] = SCALABILITY_TRANSPORTS,
) -> SweepSpec:
    """LAMMPS weak scaling on Stampede2 (Figure 18)."""
    return _scalability_spec("figure18", lammps_workload, steps, core_counts, transports)


# -- multi-stage pipeline scenario families -----------------------------------
def pipeline_chain(
    total_cores: int = 384,
    steps: int = 8,
    representative_sim_ranks: int = 8,
    sim_to_analysis: str = "zipper",
    analysis_to_viz: str = "dimes",
    trace: bool = False,
) -> PipelineSpec:
    """Three-stage chain: CFD simulation → n-th moment analysis → visualization.

    The analysis reduces the raw field to 1/16 of its volume (the moments) and
    streams that reduction to a lightweight rendering stage; the two couplings
    may use *different* transports, which is the whole point of the
    stage-graph API.
    """
    workload = cfd_workload(steps=steps)
    viz_workload = workload.replace(
        analysis_seconds_per_byte=workload.analysis_seconds_per_byte * 4.0
    )
    return PipelineSpec(
        stages=(
            StageSpec(
                "simulation",
                workload,
                representative_ranks=representative_sim_ranks,
                total_ranks=max(2, (total_cores * 2) // 3),
                role="producer",
            ),
            StageSpec(
                "analysis",
                workload,
                representative_ranks=max(1, representative_sim_ranks // 2),
                total_ranks=max(1, total_cores // 4),
                role="analysis",
                output_fraction=1.0 / 16.0,
            ),
            StageSpec(
                "viz",
                viz_workload,
                representative_ranks=max(1, representative_sim_ranks // 4),
                total_ranks=max(1, total_cores // 12),
                role="visualization",
            ),
        ),
        couplings=(
            CouplingSpec("simulation", "analysis", transport=sim_to_analysis),
            CouplingSpec("analysis", "viz", transport=analysis_to_viz),
        ),
        cluster=bridges(),
        total_cores=total_cores,
        steps=steps,
        trace=trace,
        label=f"chain/{total_cores}",
    )


def pipeline_fanout(
    total_cores: int = 384,
    steps: int = 8,
    representative_sim_ranks: int = 8,
    moments_transport: str = "zipper",
    msd_transport: str = "flexpath",
    trace: bool = False,
) -> PipelineSpec:
    """Fan-out: one simulation feeding two concurrent analyses.

    The statistics branch (n-th moments) and the MSD branch consume the same
    output stream over independent couplings with independent transports —
    the ensembles/fan-out scenario the two-application runner could not express.
    """
    workload = cfd_workload(steps=steps)
    # Only the MSD workload's analysis cost matters here: as a sink stage its
    # consumed stream is sized by the simulation (coupling source), not by
    # its own output_bytes_per_step.
    msd_workload = lammps_workload(steps=steps)
    return PipelineSpec(
        stages=(
            StageSpec(
                "simulation",
                workload,
                representative_ranks=representative_sim_ranks,
                total_ranks=max(2, (total_cores * 2) // 3),
                role="producer",
            ),
            StageSpec(
                "statistics",
                workload,
                representative_ranks=max(1, representative_sim_ranks // 2),
                total_ranks=max(1, total_cores // 6),
                role="analysis",
            ),
            StageSpec(
                "msd",
                msd_workload,
                representative_ranks=max(1, representative_sim_ranks // 4),
                total_ranks=max(1, total_cores // 6),
                role="analysis",
            ),
        ),
        couplings=(
            CouplingSpec("simulation", "statistics", transport=moments_transport),
            CouplingSpec("simulation", "msd", transport=msd_transport),
        ),
        cluster=bridges(),
        total_cores=total_cores,
        steps=steps,
        trace=trace,
        label=f"fanout/{total_cores}",
    )


#: Builders of the pipeline scenario families, addressable by shape name.
PIPELINE_SHAPES = {"chain": pipeline_chain, "fanout": pipeline_fanout}


def pipeline_shapes_spec(
    steps: int = 6,
    core_counts: Iterable[int] = (384, 768),
    representative_sim_ranks: int = 8,
) -> SweepSpec:
    """Sweep the multi-stage scenario families over graph shapes × core counts."""
    base = pipeline_chain(
        steps=steps, representative_sim_ranks=representative_sim_ranks
    )

    def derive(params):
        # Rebuild the whole graph for the shape/size: stages and couplings are
        # plain PipelineSpec fields, so sweeping graph shapes is just another
        # derive hook.
        shape = PIPELINE_SHAPES[params["shape"]](
            total_cores=params["total_cores"],
            steps=steps,
            representative_sim_ranks=representative_sim_ranks,
        )
        return {"stages": shape.stages, "couplings": shape.couplings}

    grid = ParamGrid(
        base,
        axes=[("shape", tuple(PIPELINE_SHAPES)), ("total_cores", tuple(core_counts))],
        label=lambda p: f"{p['shape']}/{p['total_cores']}",
        derive=derive,
    )
    return SweepSpec("pipelines", grids=[grid])


# -- elastic vs static core splits (bursty analytics) -------------------------
#: Static core grants to the simulation stage swept by ``elastic_vs_static_spec``
#: (out of 384 total cores; the analysis stage gets the remainder).
ELASTIC_SIM_CORE_GRANTS: Tuple[int, ...] = (128, 160, 192, 224, 256)


def elastic_default_policy(epoch_seconds: float = 0.25) -> ElasticPolicy:
    """The adaptation policy used by the elastic scenario family."""
    return ElasticPolicy(
        epoch_seconds=epoch_seconds,
        stall_threshold=0.05,
        idle_threshold=0.7,
        saturated_threshold=0.9,
        resize_fraction=0.25,
        min_stage_fraction=0.25,
    )


def elastic_burst_pipeline(
    sim_cores: int = 256,
    total_cores: int = 384,
    steps: int = 24,
    representative_sim_ranks: int = 8,
    burst_factor: float = 10.0,
    burst_period: Optional[int] = None,
    burst_length: Optional[int] = None,
    elastic: Optional[ElasticPolicy] = None,
    trace: bool = False,
) -> PipelineSpec:
    """A bursty-analytics CFD pipeline under a *static core grant*.

    The stage graph is fixed (a 2:1 simulation:analysis rank split of
    ``total_cores``); what varies is how the cores are *granted*: the
    simulation stage gets ``sim_cores`` of them and the analysis stage the
    rest, encoded as per-stage rate factors exactly like the elastic
    controller's ``"elastic"`` factor (a stage granted half its ranks' cores
    computes at half speed).  The analysis cost spikes
    ``burst_factor``-fold for ``burst_length`` steps at the end of every
    ``burst_period``-step window — the in-situ-rendering/checkpoint pattern
    no fixed split serves well: any grant large enough for the bursts
    starves the simulation between them.

    With ``elastic`` set, the run starts from the same grant and the
    controller re-splits the cores at every policy epoch.
    """
    sim_ranks = (total_cores * 2) // 3
    analysis_ranks = total_cores - sim_ranks
    if not 0 < sim_cores < total_cores:
        raise ValueError("sim_cores must lie strictly between 0 and total_cores")
    if burst_period is None:
        burst_period = min(6, max(2, steps // 2))
    if burst_length is None:
        burst_length = max(1, burst_period // 3)
    f_sim = sim_cores / sim_ranks
    f_analysis = (total_cores - sim_cores) / analysis_ranks
    base = cfd_workload(steps=steps)
    sim_workload = base.replace(sim_step_seconds=base.sim_step_seconds / f_sim)
    analysis_workload = base.replace(
        analysis_seconds_per_byte=base.analysis_seconds_per_byte / f_analysis,
        analysis_burst_factor=burst_factor,
        analysis_burst_period=burst_period,
        analysis_burst_length=burst_length,
    )
    return PipelineSpec(
        stages=(
            StageSpec(
                "simulation",
                sim_workload,
                representative_ranks=representative_sim_ranks,
                total_ranks=sim_ranks,
                role="producer",
                # The grant is encoded in the workload rate factors above;
                # telling the controller makes it move (and conserve) the
                # granted cores rather than rank units.
                granted_cores=float(sim_cores),
            ),
            StageSpec(
                "analysis",
                analysis_workload,
                representative_ranks=max(1, representative_sim_ranks // 2),
                total_ranks=analysis_ranks,
                role="analysis",
                granted_cores=float(total_cores - sim_cores),
            ),
        ),
        couplings=(CouplingSpec("simulation", "analysis", transport="zipper"),),
        cluster=bridges(),
        total_cores=total_cores,
        steps=steps,
        trace=trace,
        # A one-step producer buffer and no file-path stealing, so the
        # burst-induced backlog is visible to the monitor instead of being
        # absorbed by deep buffering.
        producer_buffer_blocks=16,
        high_water_mark=16,
        concurrent_transfer=False,
        elastic=elastic,
        label=f"elastic-burst/{sim_cores}",
    )


def _bursty_grant_grid(
    name: str,
    mode_policies: Dict[str, Optional[ElasticPolicy]],
    steps: int,
    total_cores: int,
    sim_core_grants: Optional[Iterable[int]],
    representative_sim_ranks: int,
    burst_factor: float,
) -> SweepSpec:
    """Grants × modes on the bursty-analytics pipeline (shared grid builder).

    ``mode_policies`` maps each mode label to the elastic policy it runs
    under (``None`` = static); both headline elastic sweeps
    (:func:`elastic_vs_static_spec`, :func:`model_vs_threshold_spec`) are
    instances of this grid.
    """
    if sim_core_grants is None:
        if total_cores == 384:
            sim_core_grants = ELASTIC_SIM_CORE_GRANTS
        else:
            # The same grant fractions (1/3 .. 2/3 of the cores), re-scaled.
            sim_core_grants = tuple(
                max(1, (total_cores * grant) // 384)
                for grant in ELASTIC_SIM_CORE_GRANTS
            )
    base = elastic_burst_pipeline(
        # The base must be a valid grant for *this* total (the default 256
        # would fail validation for small totals); every case's derive hook
        # replaces the stages anyway.
        sim_cores=max(1, (total_cores * 2) // 3),
        steps=steps,
        total_cores=total_cores,
        representative_sim_ranks=representative_sim_ranks,
        burst_factor=burst_factor,
    )

    def derive(params):
        shape = elastic_burst_pipeline(
            sim_cores=params["grant"],
            total_cores=total_cores,
            steps=steps,
            representative_sim_ranks=representative_sim_ranks,
            burst_factor=burst_factor,
            elastic=mode_policies[params["mode"]],
        )
        return {
            "stages": shape.stages,
            "couplings": shape.couplings,
            "elastic": shape.elastic,
        }

    grid = ParamGrid(
        base,
        axes=[("mode", tuple(mode_policies)), ("grant", tuple(sim_core_grants))],
        label=lambda p: f"{p['mode']}/{p['grant']}",
        derive=derive,
    )
    return SweepSpec(name, grids=[grid])


def elastic_vs_static_spec(
    steps: int = 24,
    total_cores: int = 384,
    sim_core_grants: Optional[Iterable[int]] = None,
    representative_sim_ranks: int = 8,
    burst_factor: float = 10.0,
    epoch_seconds: float = 0.25,
) -> SweepSpec:
    """Static core grants × {static, elastic} on the bursty-analytics pipeline.

    The headline comparison of the elastic layer (``python -m repro.sweep
    elastic``): for every static grant the grid runs the fixed split and the
    same split with the elastic controller enabled.  The elastic runs beat
    the *best* static grant because the bursts make the optimal split
    time-varying (asserted, with fixed seeds, in ``tests/test_elastic.py``).
    """
    return _bursty_grant_grid(
        "elastic",
        {"static": None, "elastic": elastic_default_policy(epoch_seconds=epoch_seconds)},
        steps=steps,
        total_cores=total_cores,
        sim_core_grants=sim_core_grants,
        representative_sim_ranks=representative_sim_ranks,
        burst_factor=burst_factor,
    )


def model_driven_default_policy(epoch_seconds: float = 0.15) -> ModelDrivenPolicy:
    """The model-driven policy used by the ``elastic-model`` scenario family.

    Tuned on the bursty-analytics grid: a pure proportional approach to the
    perf model's target (``kp=1``), fast calibration (``smoothing=0.7``) and
    a wide hysteresis dead band (10% of the cores), which is what lets the
    predictive controller match the threshold policy's makespans with a
    fraction of its rebalance events.
    """
    return ModelDrivenPolicy(
        epoch_seconds=epoch_seconds,
        proportional_gain=1.0,
        integral_gain=0.0,
        derivative_gain=0.0,
        deadband_fraction=0.1,
        smoothing=0.7,
        resize_fraction=0.5,
    )


def model_vs_threshold_spec(
    steps: int = 24,
    total_cores: int = 384,
    sim_core_grants: Optional[Iterable[int]] = None,
    representative_sim_ranks: int = 8,
    burst_factor: float = 10.0,
) -> SweepSpec:
    """Threshold vs model-driven elastic policies on the bursty-analytics grid.

    The headline comparison of the model-driven layer (``python -m
    repro.sweep elastic-model``): for every static grant the grid runs the
    same bursty pipeline once under the threshold
    :class:`~repro.elastic.ElasticPolicy` and once under the predictive
    :class:`~repro.elastic.ModelDrivenPolicy`.  With the default grid the
    model-driven runs match or beat every threshold makespan while issuing
    strictly fewer :class:`~repro.elastic.RebalanceEvent`\\ s (asserted, with
    fixed seeds, in ``tests/test_elastic_model.py``).
    """
    return _bursty_grant_grid(
        "elastic-model",
        {
            "threshold": elastic_default_policy(),
            "model": model_driven_default_policy(),
        },
        steps=steps,
        total_cores=total_cores,
        sim_core_grants=sim_core_grants,
        representative_sim_ranks=representative_sim_ranks,
        burst_factor=burst_factor,
    )


#: Checkpoint intervals (steps) swept by the fault-recovery grid.
FAULT_CHECKPOINT_INTERVALS: Tuple[int, ...] = (1, 2, 4, 8)


def default_fault_plan(
    horizon: float, label: str = "fault-recovery", seed: int = 11
) -> "FaultPlan":
    """The seeded fault schedule of the fault-recovery grid.

    Two simulation-node crashes, one straggler window, one link degradation
    and one transport restart, all drawn inside ``horizon`` simulated
    seconds from the label-derived stream — the same plan for every grid
    case, so elastic-vs-static and per-checkpoint comparisons see the
    identical fault schedule.
    """
    from repro.faults import FaultPlan

    return FaultPlan.seeded(
        f"{label}/{seed}",
        ("simulation",),
        horizon=horizon,
        couplings=("simulation->analysis",),
        crashes=2,
        stragglers=1,
        degradations=1,
        restarts=1,
        slowdown=4.0,
        degrade_scale=0.25,
        recovery_seconds=0.25,
        seed=seed,
    )


def fault_recovery_spec(
    steps: int = 24,
    total_cores: int = 384,
    sim_cores: Optional[int] = None,
    checkpoint_intervals: Iterable[Optional[int]] = FAULT_CHECKPOINT_INTERVALS,
    representative_sim_ranks: int = 8,
    burst_factor: float = 10.0,
    seed: int = 11,
) -> SweepSpec:
    """Checkpoint intervals × {static, elastic} under a seeded fault plan.

    The fault axis of the evaluation (``python -m repro.sweep faults``): the
    bursty-analytics pipeline at one fixed grant, crossed with checkpoint
    intervals for the simulation stage and with the static/elastic modes,
    every case replaying the *same* :func:`default_fault_plan` schedule.
    ``benchmarks/bench_faults.py`` renders the two derived figures:
    time-to-recover vs checkpoint interval and elastic vs static makespan
    under faults.
    """
    from repro.workflow.runner import pipeline_simulation_only_time

    if sim_cores is None:
        sim_cores = max(1, (total_cores * 2) // 3)
    base = elastic_burst_pipeline(
        sim_cores=sim_cores,
        total_cores=total_cores,
        steps=steps,
        representative_sim_ranks=representative_sim_ranks,
        burst_factor=burst_factor,
    )
    # The fault window covers the simulation-only span of the *shared* base
    # pipeline, so the plan is identical for every mode/interval case.
    plan = default_fault_plan(pipeline_simulation_only_time(base), seed=seed)
    modes: Dict[str, Optional[ElasticPolicy]] = {
        "static": None,
        "elastic": elastic_default_policy(),
    }

    def derive(params):
        shape = elastic_burst_pipeline(
            sim_cores=sim_cores,
            total_cores=total_cores,
            steps=steps,
            representative_sim_ranks=representative_sim_ranks,
            burst_factor=burst_factor,
            elastic=modes[params["mode"]],
        )
        interval = params["interval"]
        stages = tuple(
            stage.replace(checkpoint_interval=interval)
            if stage.name == "simulation"
            else stage
            for stage in shape.stages
        )
        return {
            "stages": stages,
            "couplings": shape.couplings,
            "elastic": shape.elastic,
            "faults": plan,
        }

    grid = ParamGrid(
        base,
        axes=[("mode", tuple(modes)), ("interval", tuple(checkpoint_intervals))],
        label=lambda p: (
            f"{p['mode']}/ckpt-{p['interval'] if p['interval'] is not None else 'none'}"
        ),
        derive=derive,
    )
    return SweepSpec("faults", grids=[grid])


def tenant_contention_spec(
    steps: int = 8,
    capacity_cores: int = 384,
    burst_jobs: int = 4,
    epoch_seconds: float = 0.25,
    seed: int = 23,
) -> SweepSpec:
    """Co-scheduling policies × arrival patterns on one contended facility.

    The multi-tenant axis of the evaluation (``python -m repro.sweep
    tenants``): a deliberately *heterogeneous* queue — one long, heavy
    ``batch`` job holding most of the facility from time zero, plus a
    ``burst`` tenant's stream of short, light jobs arriving shortly after —
    crossed with the two co-scheduling policies and with bursty vs Poisson
    arrivals.  The shape is the classic head-of-line case: under ``fcfs``
    the short jobs cannot start until the batch job releases its cores
    (their demand exceeds the free remainder), inflating their slowdowns,
    while ``fair`` water-fills the capacity across everyone — so weighted
    fair share wins on aggregate slowdown for the contended bursty grid
    (asserted, with fixed seeds, in ``benchmarks/bench_tenants.py``).
    """
    from repro.tenants.spec import ArrivalProcess, JobSpec, TenantSpec, job_queue
    from repro.workflow.runner import pipeline_simulation_only_time

    batch_cores = (capacity_cores * 5) // 6
    burst_cores = capacity_cores // 3
    batch_pipeline = elastic_burst_pipeline(
        sim_cores=(batch_cores * 2) // 3,
        total_cores=batch_cores,
        steps=steps * 3,
        representative_sim_ranks=8,
    )
    burst_pipeline = elastic_burst_pipeline(
        sim_cores=(burst_cores * 2) // 3,
        total_cores=burst_cores,
        steps=steps,
        representative_sim_ranks=4,
    )
    batch_job = JobSpec(
        name="batch/0", tenant="batch", pipeline=batch_pipeline, arrival=0.0, weight=1.0
    )
    # Arrivals land early in the batch job's simulation-only span, so the
    # short jobs always contend with it rather than trickling in after.
    span = pipeline_simulation_only_time(batch_pipeline)
    arrival_processes = {
        "bursty": ArrivalProcess.bursty(
            count=burst_jobs,
            rate=burst_jobs / (0.4 * span),
            burst_size=max(1, burst_jobs // 2),
            start=0.05 * span,
        ),
        "poisson": ArrivalProcess.poisson(
            count=burst_jobs, rate=burst_jobs / (0.4 * span), start=0.05 * span
        ),
    }

    def derive(params):
        process = arrival_processes[params["arrivals"]]
        jobs = (batch_job,) + job_queue(
            "burst", burst_pipeline, process, weight=1.0, seed=seed
        )
        return {"jobs": jobs}

    base = TenantSpec(
        jobs=(batch_job,),
        policy="fair",
        capacity_cores=capacity_cores,
        epoch_seconds=epoch_seconds,
        seed=seed,
    )
    grid = ParamGrid(
        base,
        axes=[("policy", ("fcfs", "fair")), ("arrivals", ("bursty", "poisson"))],
        label="{policy}/{arrivals}",
        derive=derive,
    )
    return SweepSpec("tenants", grids=[grid])


def trace_config(
    transport: str,
    workload_name: str = "cfd",
    total_cores: int = 204,
    steps: int = 12,
    machine: str = "stampede2",
) -> WorkflowConfig:
    """A small traced run used by the trace figures (4, 5, 6, 17 and 19)."""
    workload = cfd_workload(steps=steps) if workload_name == "cfd" else lammps_workload(steps=steps)
    cluster = stampede2() if machine == "stampede2" else bridges()
    return WorkflowConfig(
        workload=workload,
        cluster=cluster,
        transport=transport,
        total_cores=total_cores,
        representative_sim_ranks=4,
        steps=steps,
        trace=True,
        label=f"trace/{workload_name}/{transport}/{total_cores}",
    )

