"""Multi-tenant co-scheduling: the contention figure and the identity gate.

Regenerates the tenant layer's evaluation on one shared 384-core facility.
Every scenario replays the *same* heterogeneous job queue — one long heavy
``batch`` job holding most of the facility from time zero plus a ``burst``
tenant's short light jobs arriving shortly after — so the policy comparison
differs only in how the facility is partitioned.  The two figures:

* **fair share vs FCFS on the contended grid** — under ``fcfs`` the short
  jobs' demand exceeds the free remainder and they block behind the batch
  job (head-of-line), inflating their slowdowns; ``fair`` water-fills the
  capacity across the active set, so it wins on aggregate slowdown, mean
  wait and Jain fairness for both arrival patterns;
* **the solo identity gate** — a tenant's job run alone through the tenant
  layer must reproduce the dedicated (pre-tenant) engine's result payload
  byte for byte, which pins the layer's overhead at exactly zero modelled
  events.
"""

from __future__ import annotations

import json

from conftest import bench_steps, bench_workers

from repro.bench import format_table
from repro.bench.experiments import tenant_contention_spec
from repro.sweep import run_labelled
from repro.sweep.store import result_payload
from repro.tenants import TenantScheduler, TenantSpec
from repro.workflow.runner import run_pipeline


def run_tenant_grid(steps: int):
    return run_labelled(tenant_contention_spec(steps=steps), workers=bench_workers())


def solo_payloads(steps: int):
    """Per-tenant ``(through the tenant layer, dedicated engine)`` payloads.

    Takes one representative pipeline per tenant from the contention grid,
    runs it as a single arrival-at-zero job on an exactly-fitting facility,
    and flattens both results through the sweep store's serialiser so the
    comparison covers every recorded field (stats, breakdowns, event counts).
    """
    pairs = {}
    for case in tenant_contention_spec(steps=steps).cases():
        if case.label != "fair/bursty":
            continue
        spec = case.config
        for job in spec.jobs:
            if job.tenant in pairs:
                continue
            solo = TenantSpec(
                jobs=(job.replace(arrival=0.0),),
                policy=spec.policy,
                capacity_cores=0,
                epoch_seconds=spec.epoch_seconds,
                label=f"solo/{job.tenant}",
            )
            scheduler = TenantScheduler(solo)
            scheduler.run()
            via_tenants = scheduler.job_results[solo.jobs[0].name]
            dedicated = run_pipeline(job.pipeline)
            pairs[job.tenant] = (
                json.dumps(result_payload(via_tenants), sort_keys=True),
                json.dumps(result_payload(dedicated), sort_keys=True),
            )
    return pairs


def test_fair_share_beats_fcfs_on_contended_grid(benchmark, report):
    steps = bench_steps(8)
    results = benchmark.pedantic(run_tenant_grid, args=(steps,), rounds=1, iterations=1)

    rows = []
    for label, result in sorted(results.items()):
        rows.append(
            [
                label,
                round(result.stats["aggregate_slowdown"], 3),
                round(result.stats["fairness_jain"], 3),
                round(result.stats["mean_wait"], 2),
                round(result.end_to_end_time, 2),
            ]
        )
    report(
        format_table(
            ["scenario", "aggregate slowdown", "Jain index", "mean wait (s)", "makespan (s)"],
            rows,
            title=(
                f"Fair share vs FCFS on one contended facility ({steps} steps): "
                "identical job queue per arrival pattern"
            ),
        )
    )

    for result in results.values():
        assert not result.failed
    # The short jobs cannot start under FCFS until the batch job releases
    # its cores, so fair share wins the aggregate for both arrival patterns
    # (the bursty column is the paper-style head-of-line figure).
    for arrivals in ("bursty", "poisson"):
        fcfs = results[f"fcfs/{arrivals}"].stats
        fair = results[f"fair/{arrivals}"].stats
        assert fair["aggregate_slowdown"] < fcfs["aggregate_slowdown"]
        assert fair["mean_wait"] < fcfs["mean_wait"]
        assert fair["fairness_jain"] >= fcfs["fairness_jain"]


def test_solo_tenant_runs_bit_identical_to_dedicated_engine(benchmark, report):
    steps = bench_steps(8)
    pairs = benchmark.pedantic(solo_payloads, args=(steps,), rounds=1, iterations=1)

    rows = []
    for tenant, (via_tenants, dedicated) in sorted(pairs.items()):
        events = json.loads(via_tenants)["stats"]["events_processed"]
        rows.append(
            [tenant, int(events), len(via_tenants), via_tenants == dedicated]
        )
    report(
        format_table(
            ["tenant", "events processed", "payload bytes", "bit-identical"],
            rows,
            title=(
                f"Solo tenant runs vs the dedicated engine ({steps} steps): "
                "serialised result payloads must match byte for byte"
            ),
        )
    )

    assert pairs
    for tenant, (via_tenants, dedicated) in pairs.items():
        assert via_tenants == dedicated, f"tenant {tenant} diverged from dedicated run"
