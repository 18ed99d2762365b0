"""One fresh interpreter of the benchmark: set up a workload, run its passes.

Started by ``run.py``; writes one JSON document to ``--result``.  With
``--setup-only`` it stops after set-up (a set-up time sample).  Otherwise it
runs the pass count that ``--seconds`` buys at the workload's nominal pass
time, untraced, or with ``--trace 1`` as one plain pass, sampled passes
(sampler + spans) and one counted pass (call counters).  Set-up and
untraced passes are timed at the reference speed of ``hostspeed.py``;
traced passes in host seconds.
"""

from __future__ import annotations

# Bound before the program is imported: the sanitizer wraps ``time.*``.
from time import perf_counter  # isort: skip

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
from layers import COUNT_METRICS, Counters, Sampler, Spans  # noqa: E402
from stats import median  # noqa: E402
from workloads import WORKLOADS, PassResult, Workload  # noqa: E402


def pass_count(seconds: float, nominal_pass_s: float) -> int:
    """Passes a run of ``seconds`` buys; fixed by the workload, not measured."""
    return max(1, round(seconds / nominal_pass_s))


#: Reference ticks taken before and after set-up, to find its host speed.
SETUP_TICKS = 10


def set_up(workload: Workload) -> Dict[str, float]:
    """Set the workload up; its phases in seconds at the reference speed."""
    before = hostspeed.sample(SETUP_TICKS)
    start = perf_counter()
    workload.load()
    loaded = perf_counter()
    workload.expand()
    expanded = perf_counter()
    workload.warm()
    warmed = perf_counter()
    after = hostspeed.sample(SETUP_TICKS)
    factor = hostspeed.REFERENCE_TICK_S / median(before + after)
    return {
        "import_s": (loaded - start) * factor,
        "expand_s": (expanded - loaded) * factor,
        "warm_s": (warmed - expanded) * factor,
    }


def traced_passes(workload: Workload, passes: int, spans_path: Path):
    """One plain pass, sampled passes (sampler + spans), one counted pass.

    Returns (every pass, layer metrics).
    """
    plain = workload.run_pass()
    sampler = Sampler()
    spans = Spans()
    sampled: List[PassResult] = []
    for index in range(max(1, passes - 2)):
        spans.parent = f"pass-{index}"
        spans.install()
        sampler.start()
        try:
            sampled.append(workload.run_pass())
        finally:
            sampler.stop()
            spans.remove()
    counters = Counters()
    counters.install()
    try:
        counted = workload.run_pass()
    finally:
        counters.remove()
    spans.write(spans_path)

    metrics: Dict[str, float] = {}
    cpu = median([p.cpu for p in sampled])
    for layer, frac in sampler.fractions().items():
        metrics[f"{layer}.self_frac"] = frac
        metrics[f"{layer}.self_s"] = frac * cpu
    metrics["sampler.ended_frac"] = sampler.ended_frac()
    metrics.update({key: float(counters.counts[key]) for key in COUNT_METRICS})
    events = counted.summary()["events"]
    metrics["simcore.events"] = float(events)
    dispatches = metrics["simcore.dispatches"]
    metrics["simcore.elided_frac"] = 1.0 - dispatches / events if dispatches and events else 0.0

    def median_ms(name: str) -> float:
        values = spans.durations(name)
        return median(values) * 1e3 if values else 0.0

    metrics["sweep.store_write_s"] = sum(spans.durations("store_write")) / len(sampled)
    metrics["sweep.resume_s"] = plain.extra.get("resume_s", 0.0)
    metrics["sweep.parent_cpu_frac"] = plain.cpu / plain.wall
    metrics["campaign.lease_rtt_ms"] = median_ms("lease")
    metrics["campaign.results_rtt_ms"] = median_ms("results")
    metrics["campaign.handle_results_ms"] = median_ms("handle_results")
    metrics["campaign.overhead_ms_per_case"] = plain.extra.get("overhead_s_per_case", 0.0) * 1e3
    metrics["trace.overhead_ratio"] = median([p.wall for p in sampled]) / plain.wall
    return [plain, *sampled, counted], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir, reference=not args.trace)
    report: Dict[str, object] = {"setup": set_up(workload)}
    try:
        if not args.setup_only:
            passes = pass_count(args.seconds, workload.nominal_pass_s)
            if args.trace:
                results, report["layers"] = traced_passes(workload, passes, args.spans)
            else:
                results = [workload.run_pass() for _ in range(passes)]
            report["passes"] = [result.summary() for result in results]
            report["elapsed"] = [e for result in results for e in result.elapsed]
            report["problems"] = workload.verify(results[-1])
    finally:
        workload.close()
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_mb"] = max(usage_self, usage_children) / 1024.0
    args.result.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
