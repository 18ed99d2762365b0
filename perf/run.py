"""Run the repository benchmark and print every metric by name with its unit.

    python3 perf/run.py --workload figures --seed 0 --seconds 10 --trace 0

Each workload runs in fresh interpreters (``child.py``): two that only set
up, then one that sets up and runs the timed passes.  ``setup_s`` is the
median set-up of the three.  With ``--trace 0`` the end-to-end metrics are
reported, with ``--trace 1`` the per-layer metrics (see ``README.md``).
Set-up and untraced times are given at the reference speed of
``hostspeed.py``, which cancels the host's own speed drift.

Outputs are checked on every run: no case may crash, every pass must repeat
the first one exactly, and the events processed, the modelled failures and
the payload digests must equal ``expected.json``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import COUNT_METRICS, LAYERS  # noqa: E402
from stats import median, quantile  # noqa: E402

WORKLOAD_NAMES = ("figures", "control", "instrumented", "sweep", "campaign")

#: End-to-end metrics: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "scenarios_per_s": "1/s",
    "events_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_frac": "frac" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "count" for name in COUNT_METRICS},
    "simcore.elided_frac": "frac",
    "sweep.store_write_s": "s",
    "sweep.resume_s": "s",
    "sweep.parent_cpu_frac": "frac",
    "campaign.lease_rtt_ms": "ms",
    "campaign.results_rtt_ms": "ms",
    "campaign.handle_results_ms": "ms",
    "campaign.overhead_ms_per_case": "ms",
    "setup.import_s": "s",
    "setup.expand_s": "s",
    "setup.warm_s": "s",
    "trace.overhead_ratio": "ratio",
    "sampler.ended_frac": "frac",
}

SETUP_SAMPLES = 3
#: Budget of one workload run, all of its interpreters together.
RUN_TIMEOUT_S = 170


def run_child(args: List[str], result: Path, deadline: float) -> Dict[str, object]:
    """Run ``child.py`` in its own session; kill the whole group at ``deadline``."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args, "--result", str(result)],
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"benchmark run exceeded {RUN_TIMEOUT_S}s")
    if code != 0:
        raise SystemExit(f"benchmark child failed with exit code {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def check(workload: str, seed: int, child: Dict[str, object]) -> List[str]:
    """Every correctness problem of one run (empty when the outputs are right)."""
    problems = list(child["problems"])
    passes = child["passes"]
    first = passes[0]
    for index, summary in enumerate(passes):
        problems += summary["problems"]
        for key in ("cases", "events", "failures", "digest"):
            if summary[key] != first[key]:
                problems.append(f"pass {index} {key} differs from pass 0")
    if any(summary["crashed"] for summary in passes):
        problems.append("cases crashed")
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))[workload]
    # Jittered grids make events and payloads depend on the seed; the case
    # count and the modelled failures (Decaf overflowing at scale) do not.
    checks = {"cases": expected["cases"], "failures": expected["failures"]}
    if seed == 0:
        checks.update(expected["seed0"])
    for key, value in checks.items():
        if first[key] != value:
            problems.append(f"{key} is {first[key]!r}, expected {value!r}")
    return problems


def end_to_end(child: Dict[str, object], setup: List[float]) -> Dict[str, float]:
    passes = child["passes"]
    wall = median([p["wall"] for p in passes])
    cases = passes[0]["cases"]
    elapsed = child["elapsed"]
    return {
        "setup_s": median(setup),
        "wall_s": wall,
        "scenarios_per_s": cases / wall,
        "events_per_s": passes[0]["events"] / wall,
        "case_p50_ms": quantile(elapsed, 0.5) * 1e3,
        "case_p90_ms": quantile(elapsed, 0.9) * 1e3,
        "peak_rss_mb": child["peak_rss_mb"],
    }


def per_layer(child: Dict[str, object], setups: List[Dict[str, float]]) -> Dict[str, float]:
    metrics = dict(child["layers"])
    for phase in ("import_s", "expand_s", "warm_s"):
        metrics[f"setup.{phase}"] = median([s[phase] for s in setups])
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int) -> Tuple[Dict, Dict]:
    """Set up and measure one workload; returns (result line, details)."""
    work = ROOT / ".perf_work"
    workdir = work / f"{name}-{os.getpid()}"
    spans = work / f"spans-{name}-seed{seed}.jsonl"
    common = ["--workload", name, "--seed", str(seed)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        # Every child gets its own directory: a warm-up store left behind
        # by another child would resume instead of warming up.
        setups = [
            run_child(
                common + ["--setup-only", "--workdir", str(workdir / f"setup-{i}")],
                workdir / f"setup-{i}.json",
                deadline,
            )["setup"]
            for i in range(SETUP_SAMPLES - 1)
        ]
        child = run_child(
            common
            + ["--seconds", str(seconds), "--trace", str(trace)]
            + ["--workdir", str(workdir / "run")]
            + ["--spans", str(spans)],
            workdir / "run.json",
            deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(child["setup"])
    problems = check(name, seed, child)
    if trace:
        values, units = per_layer(child, setups), PER_LAYER
    else:
        values, units = end_to_end(child, [sum(s.values()) for s in setups]), END_TO_END
    passes = child["passes"]
    line = {
        "correct": not problems,
        "attempted": sum(p["cases"] for p in passes),
        "failed": sum(p["crashed"] for p in passes),
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "samples": len(child["elapsed"]),
        "walls": [p["wall"] for p in passes],
        "host_walls": [p["host_wall"] for p in passes],
        "events": passes[0]["events"],
        "failures": passes[0]["failures"],
        "digest": passes[0]["digest"],
        "spans": str(spans),
        "problems": problems,
    }
    return line, details


def report(name: str, line: Dict, details: Dict) -> None:
    """Human-readable metric lines (standard output, before the JSON line)."""
    print(
        f"# {name}: seed {details['seed']}, {details['passes']} passes, "
        f"{details['samples']} case samples, events {details['events']}"
    )
    for metric, entry in line["metrics"].items():
        suffix = ""
        if metric == "wall_s":
            host = median(details["host_walls"])
            suffix = f"  (median of {details['passes']} passes; {host:.6g} s of host time)"
        elif metric.startswith("case_p"):
            suffix = f"  (Harrell-Davis, n={details['samples']})"
        elif metric == "setup_s" or metric.startswith("setup."):
            suffix = f"  (median of {SETUP_SAMPLES} fresh interpreters)"
        print(f"{name}.{metric} = {entry['value']:.6g} {entry['unit']}{suffix}")
    if details["trace"]:
        print(f"# {name}: spans written to {details['spans']}")
    for problem in details["problems"]:
        print(f"# {name}: INCORRECT: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append each run's details as a JSON line")
    args = parser.parse_args(argv)

    names = args.workload or list(WORKLOAD_NAMES)
    lines = []
    for name in names:
        line, details = run_workload(name, args.seed, args.seconds, args.trace)
        report(name, line, details)
        if args.out is not None:
            with args.out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({**details, **line}, sort_keys=True) + "\n")
        lines.append((name, line))

    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {
                f"{name}.{metric}": entry
                for name, line in lines
                for metric, entry in line["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
