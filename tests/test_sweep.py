"""Tests of the parallel scenario-sweep engine (grids, runner, store)."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time

import pytest

from repro.apps.costs import MiB, cfd_workload
from repro.bench.experiments import (
    FIGURE2_TRANSPORTS,
    SCALABILITY_CORE_COUNTS,
    figure2_spec,
    figure12_spec,
    figure13_spec,
    figure14_spec,
    figure16_spec,
)
from repro.cluster.presets import laptop, stampede2
from repro.sweep import (
    ParamGrid,
    ResultStore,
    SweepCase,
    SweepRunner,
    SweepSpec,
    config_hash,
    derive_case_seed,
    run_cases,
)
from repro.sweep.runner import run_config
from repro.workflow import WorkflowConfig


def small_config(**overrides) -> WorkflowConfig:
    defaults = dict(
        workload=cfd_workload(steps=2),
        cluster=laptop(),
        transport="zipper",
        total_cores=16,
        representative_sim_ranks=2,
        steps=2,
        trace=False,
    )
    defaults.update(overrides)
    return WorkflowConfig(**defaults)


class TestParamGrid:
    def test_product_order_leftmost_slowest(self):
        grid = ParamGrid(
            small_config(),
            axes=[("total_cores", (16, 32)), ("transport", ("zipper", "none"))],
            label="{total_cores}/{transport}",
        )
        labels = [case.label for case in grid]
        assert labels == ["16/zipper", "16/none", "32/zipper", "32/none"]
        assert len(grid) == 4

    def test_axis_values_applied_to_configs(self):
        grid = ParamGrid(
            small_config(),
            axes={"block_bytes": (1 * MiB, 2 * MiB)},
            label=lambda p: f"{p['block_bytes'] // MiB}MB",
        )
        cases = list(grid)
        assert [c.config.block_bytes for c in cases] == [1 * MiB, 2 * MiB]
        # The case label is copied into the config for results to carry.
        assert [c.config.label for c in cases] == ["1MB", "2MB"]

    def test_machine_axis_resolves_presets(self):
        grid = ParamGrid(
            small_config(),
            axes=[("machine", ("laptop", "stampede2"))],
            label="{machine}",
        )
        clusters = [case.config.cluster for case in grid]
        assert clusters == [laptop(), stampede2()]

    def test_unknown_machine_rejected(self):
        grid = ParamGrid(small_config(), axes=[("machine", ("atlantis",))], label="{machine}")
        with pytest.raises(ValueError, match="unknown machine"):
            list(grid)

    def test_non_config_axis_requires_derive(self):
        with pytest.raises(ValueError, match="derive"):
            ParamGrid(small_config(), axes=[("complexity", ("O(n)",))], label="{complexity}")

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            ParamGrid(small_config(), axes=[("transport", ())], label="{transport}")

    def test_derive_consumes_virtual_axes(self):
        grid = ParamGrid(
            small_config(),
            axes=[("doubled", (1, 2))],
            label="x{doubled}",
            derive=lambda p: {"steps": 2 * p["doubled"]},
        )
        assert [c.config.steps for c in grid] == [2, 4]

    def test_derive_output_typos_are_rejected(self):
        grid = ParamGrid(
            small_config(),
            axes=[("block", (1 * MiB,))],
            label="{block}",
            derive=lambda p: {"block_byte": p["block"]},  # typo'd field name
        )
        with pytest.raises(ValueError, match="block_byte"):
            list(grid)


class TestSweepSpec:
    def test_duplicate_labels_rejected(self):
        spec = SweepSpec("dup", cases=[("a", small_config()), ("a", small_config())])
        with pytest.raises(ValueError, match="duplicate"):
            spec.cases()


class TestLegacyGridParity:
    """The declarative grids must reproduce the hand-rolled loops label-for-label."""

    def test_figure2_labels(self):
        labels = [case.label for case in figure2_spec(steps=3).cases()]
        assert labels == list(FIGURE2_TRANSPORTS) + ["zipper", "none"]

    def test_figure12_labels_and_fields(self):
        expected = [
            "O(n)/1MB",
            "O(nlogn)/1MB",
            "O(n^1.5)/1MB",
            "O(n)/8MB",
            "O(nlogn)/8MB",
            "O(n^1.5)/8MB",
        ]
        cases = figure12_spec(data_per_rank=16 * MiB).cases()
        assert [case.label for case in cases] == expected
        assert all(not case.config.preserve for case in cases)
        assert [case.config.block_bytes for case in cases[:3]] == [1 * MiB] * 3
        assert [case.config.block_bytes for case in cases[3:]] == [8 * MiB] * 3

    def test_figure13_is_preserve_mode(self):
        cases = figure13_spec(data_per_rank=16 * MiB).cases()
        assert all(case.config.preserve for case in cases)

    def test_figure14_labels_pair_modes(self):
        cases = figure14_spec(data_per_rank=16 * MiB, core_counts=(84, 168)).cases()
        expected = [
            f"{complexity}/{cores}/{mode}"
            for complexity in ("O(n)", "O(nlogn)", "O(n^1.5)")
            for cores in (84, 168)
            for mode in ("mpi-only", "concurrent")
        ]
        assert [case.label for case in cases] == expected
        by_label = {case.label: case.config for case in cases}
        assert by_label["O(n)/84/concurrent"].concurrent_transfer
        assert not by_label["O(n)/84/mpi-only"].concurrent_transfer

    def test_figure16_labels(self):
        expected = [
            f"cfd/{cores}/{transport}"
            for cores in SCALABILITY_CORE_COUNTS
            for transport in ("mpiio", "flexpath", "decaf", "zipper", "none")
        ]
        assert [case.label for case in figure16_spec(steps=3).cases()] == expected


class TestConfigHash:
    def test_stable_for_equal_configs(self):
        assert config_hash(small_config()) == config_hash(small_config())

    def test_changes_with_any_parameter(self):
        base = small_config()
        assert config_hash(base) != config_hash(base.replace(block_bytes=2 * MiB))
        assert config_hash(base) != config_hash(base.replace(transport="none"))

    def test_case_seed_is_label_dependent_and_stable(self):
        assert derive_case_seed(1, "a") == derive_case_seed(1, "a")
        assert derive_case_seed(1, "a") != derive_case_seed(1, "b")
        assert derive_case_seed(1, "a") != derive_case_seed(2, "a")

    def test_case_seed_values_are_pinned(self):
        # Stored records carry these seeds; a change would re-run every case.
        assert derive_case_seed(1, "a") == 2101915313
        assert derive_case_seed(2, "figure2/zipper") == 613344319


def _downsized_figure16() -> SweepSpec:
    """A small Figure-16 grid that still contains Decaf's modelled crash."""
    return figure16_spec(steps=3, core_counts=(204, 13056), transports=("decaf", "zipper", "none"))


def _assert_same_results(a, b):
    assert set(a) == set(b)
    for label in a:
        ra, rb = a[label], b[label]
        assert ra.failed == rb.failed
        if ra.failed:
            assert math.isnan(ra.end_to_end_time) and math.isnan(rb.end_to_end_time)
        else:
            assert ra.end_to_end_time == rb.end_to_end_time
        assert ra.breakdown == rb.breakdown
        assert ra.stats == rb.stats
        assert ra.xmit_wait == rb.xmit_wait


class TestSweepRunner:
    def test_parallel_equals_serial_deterministic(self):
        spec = _downsized_figure16()
        serial = SweepRunner(workers=0, trace=False).run_labelled(spec)
        parallel = SweepRunner(workers=4, trace=False).run_labelled(spec)
        assert len(serial) == 6
        _assert_same_results(serial, parallel)
        # The modelled Decaf overflow surfaces as a failed record, not a crash.
        assert serial["cfd/13056/decaf"].failed
        assert not serial["cfd/204/decaf"].failed

    def test_crash_is_isolated_to_its_record(self):
        # The unknown transport makes the workflow runner raise outright —
        # unlike a modelled TransportFault — which must not kill the sweep.
        cases = [
            SweepCase("good", small_config()),
            SweepCase("bad", small_config(transport="no-such-transport")),
        ]
        records = run_cases(cases)
        by_label = {r.label: r for r in records}
        assert by_label["good"].ok and by_label["good"].result is not None
        assert not by_label["bad"].ok
        assert "no-such-transport" in by_label["bad"].error
        assert by_label["bad"].failed

    def test_run_labelled_raises_on_crashed_case(self):
        # The dict-returning convenience must fail loudly, not drop the label.
        cases = [("bad", small_config(transport="no-such-transport"))]
        with pytest.raises(RuntimeError, match="no-such-transport"):
            SweepRunner(workers=0).run_labelled(cases)

    def test_figure_specs_disable_tracing(self):
        # Sweeps pickle results across the pool; traces would dominate that.
        for case in _downsized_figure16().cases():
            assert not case.config.trace

    def test_progress_callback_sees_every_case(self):
        seen = []
        runner = SweepRunner(
            workers=0, trace=False, progress=lambda rec, done, total: seen.append((rec.label, done, total))
        )
        runner.run([("only", small_config())])
        assert seen == [("only", 1, 1)]

    def test_reseed_is_deterministic_but_per_label(self):
        records = run_cases(
            [("a", small_config()), ("b", small_config())], workers=0, trace=False
        )
        seeds = {r.label: r.seed for r in records}
        assert seeds["a"] != seeds["b"]
        again = run_cases([("a", small_config())], workers=0, trace=False)
        assert again[0].seed == seeds["a"]


class TestResultStoreResume:
    def test_resume_skips_completed_runs(self, tmp_path):
        store_path = tmp_path / "sweep.jsonl"
        spec = _downsized_figure16()

        first = SweepRunner(workers=0, store=ResultStore(store_path), trace=False).run(spec)
        assert all(not r.skipped for r in first)
        lines_after_first = store_path.read_text().count("\n")
        assert lines_after_first == len(first)

        second = SweepRunner(workers=0, store=ResultStore(store_path), trace=False).run(spec)
        assert all(r.skipped for r in second)
        assert store_path.read_text().count("\n") == lines_after_first
        # Skipped records surface the stored summary, including failures.
        by_label = {r.label: r for r in second}
        assert by_label["cfd/13056/decaf"].failed
        assert by_label["cfd/204/zipper"].summary["end_to_end_time"] > 0

    def test_changed_config_is_rerun(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        SweepRunner(workers=0, store=store, trace=False).run([("case", small_config())])
        changed = [("case", small_config(total_cores=32))]
        records = SweepRunner(workers=0, store=store, trace=False).run(changed)
        assert not records[0].skipped

    def test_corrupt_trailing_line_is_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        SweepRunner(workers=0, store=store, trace=False).run([("case", small_config())])
        with store.path.open("a") as fh:
            fh.write('{"label": "truncated", "config_')
        assert len(store.load()) == 1
        assert {label for label, _ in store.completed_keys()} == {"case"}

    def test_store_may_be_given_as_a_path(self, tmp_path):
        store_path = tmp_path / "sweep.jsonl"
        cases = [("case", small_config())]
        runner = SweepRunner(workers=0, store=store_path, trace=False)
        assert isinstance(runner.store, ResultStore)
        [first] = runner.run(cases)
        assert not first.skipped
        [resumed] = SweepRunner(workers=0, store=store_path, trace=False).run(cases)
        assert resumed.skipped
        assert resumed.summary["end_to_end_time"] == first.result.end_to_end_time

    def test_errored_records_are_retried(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        store.append({"label": "case", "config_hash": "deadbeef", "ok": False})
        assert store.completed_keys() == set()

    def test_payload_roundtrips_through_json(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        [record] = SweepRunner(workers=0, store=store, trace=False).run(
            [("case", small_config())]
        )
        [loaded] = store.load()
        assert loaded["label"] == "case"
        assert loaded["end_to_end_time"] == pytest.approx(record.result.end_to_end_time)
        assert json.dumps(loaded)  # stays JSON-serialisable

    def test_resume_heals_a_tear_inside_a_fault_timeline(self, tmp_path):
        """A line torn mid-``faults`` array re-runs and re-persists the scenario.

        The fault timeline is the longest nested payload field, so a crash
        mid-write is likeliest to land inside it; the torn record must not
        count as completed, and the resumed store's timeline must equal a
        fresh run's exactly.
        """
        from repro.bench.experiments import fault_recovery_spec

        cases = fault_recovery_spec(steps=6, checkpoint_intervals=(1, 4)).cases()[:3]
        store_path = tmp_path / "faults.jsonl"

        first = SweepRunner(workers=0, store=ResultStore(store_path), trace=False).run(cases)
        assert all(r.ok and not r.skipped for r in first)
        lines = store_path.read_text().splitlines()
        cut = lines[-1].index('"faults"') + len('"faults": [{')
        store_path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:cut])

        second = SweepRunner(workers=0, store=ResultStore(store_path), trace=False).run(cases)
        assert [r.label for r in second if not r.skipped] == [cases[-1].label]
        healed = ResultStore(store_path).get(
            cases[-1].label, next(r for r in second if not r.skipped).config_hash
        )
        fresh = SweepRunner(workers=0, trace=False).run([cases[-1]])[0]
        from repro.sweep.store import result_payload

        assert healed["faults"] == result_payload(fresh.result)["faults"]
        assert healed["faults"]  # the scenario really persisted a timeline

    def test_resume_heals_a_tear_inside_a_job_timeline(self, tmp_path):
        """A line torn mid-``jobs`` array re-runs and re-persists the scenario.

        The multi-tenant job timeline is the tenant records' longest nested
        payload field (queued/admitted/share/completed per job), so it gets
        the same torn-tail treatment as the fault timeline: the torn record
        must not count as completed, and the resumed store's timeline must
        equal a fresh run's exactly.
        """
        from repro.bench.experiments import tenant_contention_spec

        cases = tenant_contention_spec(steps=3).cases()[:2]
        store_path = tmp_path / "tenants.jsonl"

        first = SweepRunner(workers=0, store=ResultStore(store_path), trace=False).run(cases)
        assert all(r.ok and not r.skipped for r in first)
        lines = store_path.read_text().splitlines()
        cut = lines[-1].index('"jobs"') + len('"jobs": [{')
        store_path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:cut])

        second = SweepRunner(workers=0, store=ResultStore(store_path), trace=False).run(cases)
        assert [r.label for r in second if not r.skipped] == [cases[-1].label]
        healed = ResultStore(store_path).get(
            cases[-1].label, next(r for r in second if not r.skipped).config_hash
        )
        fresh = SweepRunner(workers=0, trace=False).run([cases[-1]])[0]
        from repro.sweep.store import result_payload

        assert healed["jobs"] == result_payload(fresh.result)["jobs"]
        assert healed["jobs"]  # the scenario really persisted a timeline


class TestBatchWriter:
    def payloads(self, n):
        return [{"label": f"case-{i}", "config_hash": f"h{i}", "ok": True} for i in range(n)]

    def test_batch_appends_one_record_per_line(self, tmp_path):
        store = ResultStore(tmp_path / "batch.jsonl")
        with store.batch(flush_every=4) as writer:
            for payload in self.payloads(10):
                writer.append(payload)
            assert writer.appended == 10
        assert len(store.load()) == 10

    def test_flush_every_bounds_what_a_crash_loses(self, tmp_path):
        store = ResultStore(tmp_path / "batch.jsonl")
        writer = store.batch(flush_every=4).__enter__()
        for payload in self.payloads(10):
            writer.append(payload)
        # Inspect the on-disk file while the handle is still open — what a
        # hard crash at this instant would leave behind.  Exactly the two
        # full flush batches (8 records) are durable; the 2 records buffered
        # since the last flush are not yet.
        on_disk = [r["label"] for r in store.iter_records()]
        assert on_disk == [f"case-{i}" for i in range(8)]
        writer.close()
        assert len(store.load()) == 10

    def test_a_flush_and_an_append_each_open_the_file_once(self, tmp_path, monkeypatch):
        import builtins
        import io

        store = ResultStore(tmp_path / "batch.jsonl")
        first, second, third = self.payloads(3)
        store.append(first)
        with store.path.open("a") as fh:
            fh.write('{"label": "torn", "config_')
        opened = []
        real_open = io.open

        def spy(file, *args, **kwargs):
            if str(file) == str(store.path):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", spy)
        monkeypatch.setattr(builtins, "open", spy)
        with store.batch(flush_every=1) as writer:
            writer.append(second)
            assert len(opened) == 1
        store.append(third)
        assert len(opened) == 2
        # The flush healed the torn tail first.
        assert [r["label"] for r in store.load()] == ["case-0", "case-1", "case-2"]

    def test_resume_after_mid_batch_crash_reruns_only_the_lost_tail(self, tmp_path):
        """The satellite invariant: (label, config-hash) resume survives a crash."""
        store_path = tmp_path / "sweep.jsonl"
        cases = [(f"case-{i}", small_config(seed=i + 1)) for i in range(6)]

        # A full run, buffered through the runner's batch writer.
        runner = SweepRunner(workers=0, store=ResultStore(store_path), trace=False)
        runner.store_flush_every = 2
        first = runner.run(cases)
        assert all(r.ok and not r.skipped for r in first)

        # Simulate the crash: drop the final record entirely (lost buffer)
        # and leave a torn, half-written JSON line behind it.
        lines = store_path.read_text().splitlines()
        store_path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        )

        second = SweepRunner(workers=0, store=ResultStore(store_path), trace=False).run(cases)
        skipped = [r.label for r in second if r.skipped]
        rerun = [r.label for r in second if not r.skipped]
        assert skipped == [f"case-{i}" for i in range(5)]
        assert rerun == ["case-5"]
        # After the resume the store is whole again: every key completed.
        keys = ResultStore(store_path).completed_keys()
        assert {label for label, _ in keys} == {f"case-{i}" for i in range(6)}


class TestRepeatedDispatch:
    """One runner and one store kept across ``run()`` calls.

    The runner keeps each case's prepared case and the store its resume
    index between calls; whatever changes the store file in between must
    still be seen.
    """

    def cases(self, n=4):
        return [SweepCase(f"case-{i}", small_config(seed=i + 1)) for i in range(n)]

    def runner(self, tmp_path):
        # The store file exists, so the index is kept from the first run on.
        path = tmp_path / "sweep.jsonl"
        path.touch()
        return SweepRunner(workers=0, store=ResultStore(path), trace=False)

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        """Count the calls of ``owner.name`` for the rest of the test."""
        calls = []
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return calls

    def test_second_run_hashes_and_parses_nothing(self, tmp_path, monkeypatch):
        import repro.sweep.spec as spec_module

        cases = self.cases()
        runner = self.runner(tmp_path)
        assert not any(r.skipped for r in runner.run(cases))
        hashes = self.count_calls(monkeypatch, spec_module, "config_hash")
        parses = self.count_calls(monkeypatch, json, "loads")
        assert all(r.skipped for r in runner.run(cases))
        assert (hashes, parses) == ([], [])

    def test_a_store_the_run_creates_is_not_parsed(self, tmp_path, monkeypatch):
        # No index is kept for a missing file, so its writer parses nothing.
        parses = self.count_calls(monkeypatch, json, "loads")
        store = ResultStore(tmp_path / "new.jsonl")
        SweepRunner(workers=0, store=store, trace=False).run(self.cases())
        assert parses == []

    def test_records_another_store_appends_are_skipped(self, tmp_path):
        cases = self.cases()
        runner = self.runner(tmp_path)
        runner.run(cases[:2])
        other = SweepRunner(workers=0, store=ResultStore(runner.store.path), trace=False)
        other.run(cases[2:])
        assert all(r.skipped for r in runner.run(cases))

    # The first progress call comes from a skip, before the writer opens;
    # the second from a run case, while the writer holds the file open.
    @pytest.mark.parametrize("when", [1, 2], ids=["before-writer-opens", "while-writing"])
    def test_append_during_a_run_is_seen_by_the_next(self, tmp_path, when):
        cases = self.cases()
        runner = self.runner(tmp_path)
        runner.run(cases[:1])
        other = ResultStore(runner.store.path)

        def append_once(record, done, total):
            if done == when:
                other.append({"label": "elsewhere", "config_hash": "h", "ok": True})

        runner.progress = append_once
        runner.run(cases)
        assert ("elsewhere", "h") in runner.store.completed_keys()

    def test_append_during_the_index_read_is_seen_by_the_next(self, tmp_path, monkeypatch):
        runner = self.runner(tmp_path)
        runner.run(self.cases(1))
        store, other = runner.store, ResultStore(runner.store.path)
        real_iter = ResultStore.iter_records

        def racing_iter(self, heal=True):
            yield from real_iter(self, heal)
            if self is store:
                other.append({"label": "elsewhere", "config_hash": "h", "ok": True})

        monkeypatch.setattr(ResultStore, "iter_records", racing_iter)
        os.utime(store.path, ns=(0, 0))  # moves the signature: the next read rebuilds
        assert ("elsewhere", "h") not in store.completed_keys()
        monkeypatch.setattr(ResultStore, "iter_records", real_iter)
        assert ("elsewhere", "h") in store.completed_keys()

    def test_healed_torn_tail_keeps_the_index(self, tmp_path, monkeypatch):
        cases = self.cases()
        runner = self.runner(tmp_path)
        runner.run(cases[:2])
        with runner.store.path.open("a") as fh:
            fh.write('{"label": "torn", "config_')
        assert [r.skipped for r in runner.run(cases)] == [True, True, False, False]
        parses = self.count_calls(monkeypatch, json, "loads")
        assert all(r.skipped for r in runner.run(cases))
        assert parses == []

    def test_rewrite_that_drops_records_reruns_them(self, tmp_path):
        cases = self.cases()
        runner = self.runner(tmp_path)
        runner.run(cases)
        path = runner.store.path
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        records = runner.run(cases)
        assert [r.skipped for r in records] == [True, True, False, False]
        assert len(runner.store.load()) == 4

    def test_deleted_store_reruns_every_case(self, tmp_path):
        cases = self.cases()
        runner = self.runner(tmp_path)
        runner.run(cases)
        runner.store.path.unlink()
        assert not any(r.skipped for r in runner.run(cases))
        assert all(r.skipped for r in runner.run(cases))

    def test_corrupt_line_written_between_runs_is_quarantined(self, tmp_path):
        import warnings

        cases = self.cases()
        runner = self.runner(tmp_path)
        runner.run(cases)
        path = runner.store.path
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + ["GARBAGE not json"] + lines[2:]) + "\n")
        with pytest.warns(RuntimeWarning, match="quarantined 1"):
            records = runner.run(cases)
        assert all(r.skipped for r in records)
        assert runner.store.quarantine_path.read_text() == "GARBAGE not json\n"
        assert path.read_text().splitlines() == lines
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(r.skipped for r in runner.run(cases))

    def test_editing_a_skipped_summary_does_not_reach_the_next_run(self, tmp_path):
        cases = self.cases(1)
        runner = self.runner(tmp_path)
        runner.run(cases)
        [skipped] = runner.run(cases)
        stored = runner.store.get(skipped.label, skipped.config_hash)
        assert skipped.summary == stored
        skipped.summary["end_to_end_time"] = -1.0
        del skipped.summary["transport"]
        [again] = runner.run(cases)
        assert again.skipped
        assert again.summary == stored

    def test_changed_trace_prepares_the_cases_again(self, tmp_path):
        cases = self.cases(2)
        runner = self.runner(tmp_path)
        first = runner.run(cases)
        runner.trace = True
        traced = runner.run(cases)
        assert not any(r.skipped for r in traced)
        assert all(r.result.tracer is not None for r in traced)
        assert {r.config_hash for r in traced}.isdisjoint(r.config_hash for r in first)
        runner.trace = False
        again = runner.run(cases)
        assert all(r.skipped for r in again)
        assert [r.config_hash for r in again] == [r.config_hash for r in first]


class TestPersistentPool:
    def test_pool_survives_across_runs_and_close_releases_it(self):
        runner = SweepRunner(workers=2, trace=False)
        try:
            cases = [(f"a-{i}", small_config(seed=i + 1)) for i in range(3)]
            first = runner.run(cases)
            pool = runner._pool
            assert pool is not None  # created on first parallel dispatch
            second = runner.run([(f"b-{i}", small_config(seed=i + 9)) for i in range(3)])
            assert runner._pool is pool  # warm workers reused, not respawned
            assert all(r.ok for r in first + second)
        finally:
            runner.close()
        assert runner._pool is None

    def test_context_manager_closes_the_pool(self):
        with SweepRunner(workers=2, trace=False) as runner:
            records = runner.run([(f"c-{i}", small_config(seed=i + 1)) for i in range(2)])
            assert all(r.ok for r in records)
        assert runner._pool is None

    def test_serial_runner_never_creates_a_pool(self):
        with SweepRunner(workers=0, trace=False) as runner:
            runner.run([("case", small_config())])
            assert runner._pool is None


class TestErrorClassification:
    def test_transient_vs_permanent_taxonomy(self):
        from repro.sweep import classify_error

        assert classify_error(OSError("disk")) == "transient"
        assert classify_error(MemoryError()) == "transient"
        assert classify_error(ConnectionResetError()) == "transient"  # OSError subclass
        assert classify_error(ValueError("bad config")) == "permanent"
        assert classify_error(KeyError("field")) == "permanent"

    def test_crashed_record_carries_its_kind(self):
        records = run_cases([("bad", small_config(transport="no-such-transport"))])
        assert records[0].error_kind == "permanent"
        assert records[0].payload()["error_kind"] == "permanent"

    def test_successful_payload_has_no_error_kind_field(self):
        records = run_cases([("good", small_config())])
        assert "error_kind" not in records[0].payload()


def _hang_or_run(config):
    """Stand-in for ``run_config``: hang on the sentinel config, else run."""
    import threading

    if config.total_cores == 17:  # the sentinel "hung scenario"
        threading.Event().wait(120)
    return run_config(config)


def _exit_or_run(config):
    """Stand-in for ``run_config``: die without reporting on the sentinel."""
    import os

    if config.total_cores == 17:
        os._exit(3)
    return run_config(config)


class TestCaseTimeout:
    """The per-case timeout satellite: hung scenarios die, the sweep lives."""

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError, match="case_timeout_seconds"):
            SweepRunner(case_timeout_seconds=0)
        with pytest.raises(ValueError, match="case_timeout_seconds"):
            SweepRunner(case_timeout_seconds=float("nan"))

    def test_hung_case_is_killed_and_recorded(self, monkeypatch):
        import repro.sweep.runner as runner_module

        # Children are forked, so patching the parent's module reaches them.
        monkeypatch.setattr(runner_module, "run_config", _hang_or_run)
        runner = SweepRunner(workers=2, trace=False, case_timeout_seconds=1.0)
        cases = [("hung", small_config(total_cores=17))] + [
            (f"good-{i}", small_config(seed=i + 1)) for i in range(3)
        ]
        records = {r.label: r for r in runner.run(cases)}
        assert len(records) == 4  # the slot was replenished, nothing stalled
        assert not records["hung"].ok
        assert records["hung"].error_kind == "timeout"
        assert "killed" in records["hung"].error
        assert all(records[f"good-{i}"].ok for i in range(3))

    def test_worker_death_is_recorded_as_lost(self, monkeypatch):
        import repro.sweep.runner as runner_module

        monkeypatch.setattr(runner_module, "run_config", _exit_or_run)
        runner = SweepRunner(workers=0, trace=False, case_timeout_seconds=30.0)
        records = {
            r.label: r
            for r in runner.run(
                [("dies", small_config(total_cores=17)), ("good", small_config())]
            )
        }
        assert not records["dies"].ok
        assert records["dies"].error_kind == "lost"
        assert "exit code 3" in records["dies"].error
        assert records["good"].ok

    def test_a_record_sent_before_the_deadline_check_wins(self, monkeypatch):
        import multiprocessing.connection

        real_wait = multiprocessing.connection.wait
        late = []

        def late_wait(object_list, timeout=None):
            # The first wait comes back empty-handed long after the 50 ms
            # deadline, by when the child has sent its record and exited.
            if not late:
                late.append(timeout)
                time.sleep(2.0)
                return []
            return real_wait(object_list, timeout)

        monkeypatch.setattr(multiprocessing.connection, "wait", late_wait)
        runner = SweepRunner(workers=0, trace=False, case_timeout_seconds=0.05)
        [record] = runner.run([("late", small_config())])
        assert late
        assert record.ok and record.error_kind == ""
        assert record.result is not None

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="reads child pids from /proc"
    )
    def test_a_hung_child_outlives_a_killed_parent_by_at_most_its_grace(self):
        import signal
        import subprocess
        import sys
        from pathlib import Path

        from repro.sweep.runner import _CHILD_GRACE_SECONDS

        timeout = 2.0
        parent_code = (
            "import threading\n"
            "import repro.sweep.runner as runner_module\n"
            "from repro.bench.experiments import figure2_spec\n"
            "case = next(iter(figure2_spec(steps=1).cases()))\n"
            "runner_module.run_config = lambda config: threading.Event().wait(120)\n"
            f"runner_module.SweepRunner(workers=0, trace=False, case_timeout_seconds={timeout})"
            ".run([case])\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", parent_code], env=dict(os.environ, PYTHONPATH="src")
        )

        def children():
            pids = []
            for task in Path(f"/proc/{parent.pid}/task").glob("*"):
                try:
                    pids += (task / "children").read_text().split()
                except OSError:
                    pass
            return pids

        try:
            give_up = time.monotonic() + 20.0
            while not children() and time.monotonic() < give_up:
                time.sleep(0.05)
            [child] = children()
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait()

        def state():
            try:
                return Path(f"/proc/{child}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except OSError:
                return None  # gone

        # Reaping the orphan is up to its new parent, so a zombie counts as gone.
        give_up = time.monotonic() + timeout + _CHILD_GRACE_SECONDS + 5.0
        while state() not in (None, "Z") and time.monotonic() < give_up:
            time.sleep(0.1)
        if state() not in (None, "Z"):
            os.kill(int(child), signal.SIGKILL)
            pytest.fail(f"the case child {child} outlived its killed parent")

    def test_timeout_path_matches_pool_results(self):
        cases = [(f"case-{i}", small_config(seed=i + 1)) for i in range(3)]
        plain = {r.label: r for r in SweepRunner(workers=0, trace=False).run(cases)}
        timed = {
            r.label: r
            for r in SweepRunner(
                workers=2, trace=False, case_timeout_seconds=60.0
            ).run(cases)
        }
        for label in plain:
            assert timed[label].ok
            assert timed[label].result.stats == plain[label].result.stats


class TestPoolInterruptCleanup:
    """An interrupted or killed run leaves no pool worker or case child behind."""

    def test_interrupt_during_pool_run_releases_the_pool(self):
        class Interrupt(KeyboardInterrupt):
            pass

        def interrupt(record, done, total):
            raise Interrupt()

        runner = SweepRunner(workers=2, trace=False, progress=interrupt)
        cases = [(f"case-{i}", small_config(seed=i + 1)) for i in range(4)]
        with pytest.raises(Interrupt):
            runner.run(cases)
        # The pool was terminated, not leaked: no live pool remains.
        assert runner._pool is None

    def test_interrupt_during_timeout_run_kills_children(self):
        class Interrupt(KeyboardInterrupt):
            pass

        def interrupt(record, done, total):
            raise Interrupt()

        runner = SweepRunner(
            workers=2, trace=False, progress=interrupt, case_timeout_seconds=60.0
        )
        cases = [(f"case-{i}", small_config(seed=i + 1)) for i in range(4)]
        with pytest.raises(Interrupt):
            runner.run(cases)
        # Every child was killed and joined, none left running or unreaped.
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    def test_pool_workers_of_a_killed_parent_exit(self, tmp_path):
        import signal
        import subprocess
        import sys
        from pathlib import Path

        # Each case records its worker's pid and takes 0.5 s, so both
        # workers are mid-case, with more cases queued, when the parent dies.
        parent_code = (
            "import os, threading\n"
            "import repro.sweep.runner as runner_module\n"
            "from repro.bench.experiments import figure2_spec\n"
            "config = next(iter(figure2_spec(steps=1).cases())).config\n"
            "def slow(config):\n"
            f"    open(os.path.join({str(tmp_path)!r}, str(os.getpid())), 'w').close()\n"
            "    threading.Event().wait(0.5)\n"
            "runner_module.run_config = slow\n"
            "cases = [(f'case-{i}', config) for i in range(40)]\n"
            "runner_module.SweepRunner(workers=2, trace=False).run(cases)\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", parent_code], env=dict(os.environ, PYTHONPATH="src")
        )
        try:
            give_up = time.monotonic() + 20.0
            while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < give_up:
                time.sleep(0.05)
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait()
        workers = sorted(path.name for path in tmp_path.iterdir())
        assert len(workers) == 2, workers

        def state(pid):
            try:
                return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except OSError:
                return None  # gone

        # Reaping an orphan is up to its new parent, so a zombie counts as gone.
        give_up = time.monotonic() + 5.0
        while any(state(pid) not in (None, "Z") for pid in workers):
            if time.monotonic() > give_up:
                for pid in workers:
                    if state(pid) not in (None, "Z"):
                        os.kill(int(pid), signal.SIGKILL)
                pytest.fail(f"pool workers {workers} outlived their killed parent")
            time.sleep(0.05)


class TestQuarantine:
    """The mid-file corruption satellite: bad lines move aside, loudly."""

    def payload(self, label):
        return {"label": label, "config_hash": f"h-{label}", "ok": True}

    def test_mid_file_corruption_is_quarantined_with_warning(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        store.append(self.payload("a"))
        with store.path.open("a") as fh:
            fh.write("GARBAGE not json\n")
            fh.write('["a", "list", "not", "a", "record"]\n')
        store.append(self.payload("b"))

        with pytest.warns(RuntimeWarning, match="quarantined 2"):
            records = store.load()
        assert [r["label"] for r in records] == ["a", "b"]
        quarantined = store.quarantine_path.read_text().splitlines()
        assert quarantined == ["GARBAGE not json", '["a", "list", "not", "a", "record"]']

    def test_healed_store_reads_clean_afterwards(self, tmp_path):
        import warnings

        store = ResultStore(tmp_path / "sweep.jsonl")
        store.append(self.payload("a"))
        with store.path.open("a") as fh:
            fh.write("GARBAGE\n")
        with pytest.warns(RuntimeWarning):
            store.load()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [r["label"] for r in store.load()] == ["a"]
        assert "GARBAGE" not in store.path.read_text()

    def test_torn_tail_is_not_quarantined(self, tmp_path):
        import warnings

        store = ResultStore(tmp_path / "sweep.jsonl")
        store.append(self.payload("a"))
        with store.path.open("a") as fh:
            fh.write('{"label": "torn", "config_')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [r["label"] for r in store.load()] == ["a"]
        assert not store.quarantine_path.exists()
        # The next writer heals the tear, exactly as before.
        store.append(self.payload("b"))
        assert [r["label"] for r in store.iter_records(heal=False)] == ["a", "b"]

    def test_heal_false_leaves_the_file_untouched(self, tmp_path):
        import warnings

        store = ResultStore(tmp_path / "sweep.jsonl")
        store.append(self.payload("a"))
        with store.path.open("a") as fh:
            fh.write("GARBAGE\n")
        before = store.path.read_text()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(list(store.iter_records(heal=False))) == 1
        assert store.path.read_text() == before

    def test_open_batch_writer_survives_a_quarantine(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        store.append(self.payload("a"))
        with store.path.open("a") as fh:
            fh.write("GARBAGE\n")
        with store.batch(flush_every=1) as writer:
            writer.append(self.payload("b"))
            with pytest.warns(RuntimeWarning, match="quarantined 1"):
                ResultStore(store.path).load()
            writer.append(self.payload("c"))
        assert [r["label"] for r in store.load()] == ["a", "b", "c"]


class TestCanonicalView:
    """The byte-identity machinery distributed campaigns are checked against."""

    def test_latest_ok_record_wins_per_key(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append({"label": "a", "config_hash": "h", "ok": False, "error": "x"})
        store.append({"label": "a", "config_hash": "h", "ok": True, "value": 1})
        store.append({"label": "a", "config_hash": "h", "ok": False, "error": "y"})
        [record] = store.canonical_records()
        assert record["ok"] and record["value"] == 1

    def test_volatile_fields_are_dropped(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(
            {
                "label": "a", "config_hash": "h", "ok": True, "value": 1,
                "elapsed": 1.23, "worker": "w0", "shard": "L1", "attempt": 2,
            }
        )
        [record] = store.canonical_records()
        assert record == {"label": "a", "config_hash": "h", "ok": True, "value": 1}

    def test_bytes_are_order_and_provenance_independent(self, tmp_path):
        one = ResultStore(tmp_path / "one.jsonl")
        two = ResultStore(tmp_path / "two.jsonl")
        one.append({"label": "a", "config_hash": "h", "ok": True, "v": 1, "elapsed": 0.5})
        one.append({"label": "b", "config_hash": "h", "ok": True, "v": 2, "elapsed": 0.6})
        two.append({"label": "b", "config_hash": "h", "ok": True, "v": 2, "worker": "w9"})
        two.append({"label": "a", "config_hash": "h", "ok": False, "v": 0})
        two.append({"label": "a", "config_hash": "h", "ok": True, "v": 1, "attempt": 2})
        assert one.canonical_bytes() == two.canonical_bytes()
        assert one.canonical_bytes()  # not trivially empty

    def test_merge_from_skips_completed_keys(self, tmp_path):
        target = ResultStore(tmp_path / "target.jsonl")
        source = ResultStore(tmp_path / "source.jsonl")
        target.append({"label": "a", "config_hash": "h", "ok": True, "v": 1})
        source.append({"label": "a", "config_hash": "h", "ok": True, "v": 99})
        source.append({"label": "b", "config_hash": "h", "ok": False, "error": "x"})
        source.append({"label": "c", "config_hash": "h", "ok": True, "v": 3})
        assert target.merge_from(source) == 2
        merged = {r["label"]: r for r in target.canonical_records()}
        assert merged["a"]["v"] == 1  # the completed key was not overwritten
        assert not merged["b"]["ok"]  # failures worth retrying are carried over
        assert merged["c"]["v"] == 3


class TestCli:
    """``python -m repro.sweep``: the ``--profile`` path runs one case through ``run_config``."""

    @pytest.mark.parametrize("figure", ["figure2", "pipelines", "tenants"])
    def test_profile_runs_the_first_case(self, figure, capsys):
        from repro.sweep.cli import _parser, build_spec, main

        argv = [figure, "--steps", "2", "--sim-ranks", "2", "--profile"]
        assert main(argv) == 0
        [line] = [
            line for line in capsys.readouterr().out.splitlines() if "events_processed=" in line
        ]
        printed = float(line.split("events_processed=")[1].split()[0])
        first = build_spec(_parser().parse_args(argv)).cases()[0]
        assert printed == run_config(first.config).stats["events_processed"]
