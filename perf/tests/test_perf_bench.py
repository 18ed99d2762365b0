"""Fast checks of the benchmark's own code: statistics, names, rules, attribution."""

from __future__ import annotations

import json
import math
import os
import sys
import sysconfig
import threading
import time
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]
E2E_NAMES = [m["name"] for m in BENCH["end_to_end"]]
LAYER_NAMES = [m["name"] for m in BENCH["per_layer"]]


# -- statistics ---------------------------------------------------------------
def test_quantiles_are_smooth_estimates_and_summary_counts_samples():
    values = [float(v) for v in range(1, 102)]  # 1..101
    assert stats.quantile(values, 0.5) == pytest.approx(51.0)
    assert stats.quantile(values, 0.9) == pytest.approx(91.0, abs=0.6)
    assert stats.quantile([7.0], 0.9) == 7.0
    # A gap at the median: the estimate sits between the clusters instead
    # of jumping to whichever cluster holds the middle rank.
    gapped = [10.0] * 50 + [20.0] * 51
    assert 14.0 < stats.quantile(gapped, 0.5) < 16.0
    assert stats.summary([3.0, 1.0, 2.0])["n"] == 3
    with pytest.raises(ValueError):
        stats.quantile([], 0.5)


def test_quartiles_match_the_standard_library():
    import statistics

    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == [q1, _q2, q3]
    assert stats.iqr_frac(values) == pytest.approx((q3 - q1) / statistics.median(values))


# -- host speed -----------------------------------------------------------------
def test_units_are_scaled_by_the_speed_of_the_ticks_around_them():
    ref = hostspeed.REFERENCE_TICK_S
    meter = hostspeed.HostMeter()
    # Ten units of 1 s; the host runs at half speed for the last five, and
    # one tick in the first half is hit by a preemption.
    meter.units = [1.0] * 5 + [2.0] * 5 + [0.5]
    meter.ticks = [ref, ref, 9 * ref, ref, ref] + [2 * ref] * 5
    scaled = meter.scaled()
    assert scaled[:3] == pytest.approx([1.0] * 3)
    assert scaled[-3:] == pytest.approx([1.0, 1.0, 0.25])  # stop() ends a unit without a tick
    assert sum(scaled) == pytest.approx(10.25, rel=0.1)
    traced = hostspeed.HostMeter(reference=False)
    traced.units, traced.ticks = [1.0, 2.0], [0.0]
    assert traced.scaled() == [1.0, 2.0]


def test_the_reference_loop_is_fixed_work_the_program_heap_cannot_slow():
    import gc

    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()
        checksum = hostspeed.reference_loop()
        assert gc.get_count() == before  # no object the collector tracks
    finally:
        if enabled:
            gc.enable()
    assert isinstance(checksum, int)
    meter = hostspeed.HostMeter()
    meter.start()
    meter.tick()
    meter.stop()
    assert len(meter.units) == 2 and len(meter.ticks) == 1 and meter.ticks[0] > 0


# -- names and limits -----------------------------------------------------------
def test_metric_names_follow_the_naming_rule():
    for name in E2E_NAMES + LAYER_NAMES + WORKLOAD_NAMES:
        assert stats.METRIC_NAME.match(name), name
    for bad in ("", "-lead", "has space", "slash/name", "x" * 65):
        assert not stats.METRIC_NAME.match(bad), bad


def test_benchmark_json_matches_what_run_reports():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert WORKLOAD_NAMES == list(run.WORKLOAD_NAMES)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_benchmark_stays_within_its_limits():
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    names = WORKLOAD_NAMES + E2E_NAMES + LAYER_NAMES
    assert len(set(E2E_NAMES + LAYER_NAMES)) == len(E2E_NAMES) + len(LAYER_NAMES)
    assert len(set(WORKLOAD_NAMES)) == len(WORKLOAD_NAMES) and all(len(n) <= 64 for n in names)


def test_every_moves_entry_names_existing_metrics_and_workloads():
    for metrics, moves, on, flat_on in layers.MOVES:
        for pattern in metrics:
            prefix = pattern[:-1] if pattern.endswith("*") else None
            assert any(
                name == pattern or (prefix is not None and name.startswith(prefix))
                for name in LAYER_NAMES
            ), pattern
        assert set(moves) <= set(E2E_NAMES)
        assert set(on) | set(flat_on) <= set(WORKLOAD_NAMES)


def test_every_workload_expands_to_its_recorded_case_count(tmp_path):
    import workloads

    expected = json.loads((PERF / "expected.json").read_text(encoding="utf-8"))
    assert set(workloads.WORKLOADS) == set(WORKLOAD_NAMES) == set(expected)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(seed=3, workdir=tmp_path)
        workload.expand()
        assert len(workload.cases) == expected[name]["cases"], name


# -- the decision rule ------------------------------------------------------------
BOUND = 0.25


def _samples(center: float, spread: float, n: int = 10):
    return [center * (1 + spread * ((i % 5) - 2) / 4) for i in range(n)]


def test_identical_runs_are_flat():
    runs = _samples(6.0, 0.02)
    assert compare.verdict(runs, list(runs), "lower", BOUND)["verdict"] == "flat"
    counts = [5.0] * 10
    assert compare.verdict(counts, list(counts), "lower", math.inf)["verdict"] == "flat"


def test_a_resolved_twenty_percent_slowdown_is_a_regression_inside_the_bound():
    parent = _samples(6.0, 0.02)
    row = compare.verdict(parent, [v * 1.2 for v in parent], "lower", BOUND)
    assert row["verdict"] == "regression" and row["worse_frac"] == pytest.approx(0.2)
    assert row["losses"] == 10
    throughput = [1 / v for v in parent]
    slower = [v / 1.2 for v in throughput]
    assert compare.verdict(throughput, slower, "higher", BOUND)["verdict"] == "regression"
    # Too few pairs to resolve it, and inside the bound: not judged.
    assert compare.verdict(parent[:5], [v * 1.2 for v in parent[:5]], "lower", BOUND)["verdict"] == "flat"
    # Past the bound it is a regression however few pairs there are.
    assert compare.verdict(parent[:5], [v * 1.3 for v in parent[:5]], "lower", BOUND)["verdict"] == "regression"


def test_pairs_cancel_drift_that_hits_both_sides():
    drift = [1.0, 1.15, 0.95, 1.1, 1.0, 1.2, 0.97, 1.05, 1.12, 1.0]
    parent = [6.0 * d for d in drift]
    change = [6.0 * 1.05 * d for d in drift]
    row = compare.verdict(parent, change, "lower", BOUND)
    assert row["worse_frac"] == pytest.approx(0.05)
    # 5% worse in every pair, but inside the parent's own 13% spread.
    assert row["losses"] == 10 and row["verdict"] == "flat"


def test_wide_spread_is_unresolved_and_a_clean_win_is_a_gain():
    parent = _samples(6.0, 0.02)
    noisy = _samples(6.0, 1.2)
    assert compare.verdict(parent, noisy, "lower", BOUND)["verdict"] == "unresolved"
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", BOUND)["verdict"] == "gain"
    assert compare.verdict(parent[:5], faster[:5], "lower", BOUND)["verdict"] == "flat"


def test_digests_must_match_per_seed():
    parent = [{"workload": "figures", "seed": 0, "digest": "a"}]
    assert compare.digest_problems(parent, [{"workload": "figures", "seed": 0, "digest": "a"}]) == []
    assert compare.digest_problems(parent, [{"workload": "figures", "seed": 0, "digest": "b"}])
    assert compare.digest_problems(parent, [{"workload": "figures", "seed": 1, "digest": "b"}]) == []


# -- sampler attribution ----------------------------------------------------------
Code = namedtuple("Code", "co_filename co_name")


def _frame(path: str, name: str = "f", back=None):
    return SimpleNamespace(f_code=Code(path, name), f_back=back)


STDLIB = sysconfig.get_paths()["stdlib"]
REPRO = str(ROOT / "src" / "repro")


def test_stdlib_work_is_charged_to_its_repro_caller():
    sampler = layers.Sampler()
    outer = _frame(os.path.join(REPRO, "sweep", "runner.py"))
    store = _frame(os.path.join(REPRO, "sweep", "store.py"), back=outer)
    encoder = _frame(os.path.join(STDLIB, "json", "encoder.py"), "encode", back=store)
    assert sampler.charge(encoder) == "sweep"
    kernel = _frame(os.path.join(REPRO, "simcore", "engine.py"), back=outer)
    assert sampler.charge(_frame(os.path.join(STDLIB, "heapq.py"), back=kernel)) == "simcore"
    assert sampler.charge(_frame(os.path.join(REPRO, "sanitize.py"), back=kernel)) == "sanitize"
    assert sampler.charge(_frame(os.path.join(REPRO, "bench", "experiments.py"))) == "other"
    assert sampler.charge(_frame(str(PERF / "child.py"))) == "other"
    # Pool and server threads hold no repro frame: their stdlib package's owner.
    pool = _frame(os.path.join(STDLIB, "multiprocessing", "pool.py"), "_handle_results")
    assert sampler.charge(_frame(os.path.join(STDLIB, "pickle.py"), back=pool)) == "sweep"
    fractions = layers.Sampler().fractions()
    assert set(fractions) == set(layers.LAYERS) and sum(fractions.values()) == 0


def _spin_in(filename: str):
    """A CPU-bound function whose code reads as if it lived in ``filename``."""
    namespace = {"clock": time.thread_time}
    source = "def spin(seconds):\n    end = clock() + seconds\n    while clock() < end:\n        pass\n"
    exec(compile(source, filename, "exec"), namespace)
    return namespace["spin"]


def test_worker_threads_cpu_is_charged_once_to_their_own_layer():
    # The main thread only waits; signal handlers run there, not in the
    # workers.  Four threads at a time (more than the cores), first long
    # ones, then short ones that end well within one 4 ms sample.  A CPU
    # second charged twice or lost breaks the total.
    spin = _spin_in(os.path.join(REPRO, "sweep", "pool.py"))
    batches = [[0.05] * 4] + [[0.001] * 4] * 25
    sampler = layers.Sampler()
    original_run = threading.Thread.run
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = time.process_time()
        sampler.start()
        for batch in batches:
            threads = [threading.Thread(target=spin, args=(seconds,)) for seconds in batch]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            for thread in threads:
                while thread.is_alive() and time.monotonic() < deadline:
                    thread.join(0.005)
                assert not thread.is_alive()
    finally:
        sampler.stop()
        sys.setswitchinterval(switch)
    used = time.process_time() - start
    assert threading.Thread.run is original_run
    assert sum(sampler.seconds.values()) == pytest.approx(used, rel=0.1)
    assert sampler.fractions()["sweep"] > 0.8
    assert sampler.ended_frac() < 0.05
