"""Tests of the distributed campaign layer (board, protocol, end-to-end)."""

from __future__ import annotations

import collections
import http.client
import json
import socket
import sys
import threading
import urllib.request

import pytest

from repro.campaign import (
    BackoffPolicy,
    Campaign,
    CampaignWorker,
    CoordinatorClient,
    CoordinatorServer,
    CoordinatorUnreachable,
    WorkBoard,
    campaign_cases,
    resolve_spec,
    spec_descriptor,
)
from repro.sweep import ResultStore, SweepRunner
from repro.sweep.cli import FIGURES
from repro.sweep.spec import SweepCase


class FakeClock:
    """Injectable monotonic clock for deterministic lease-expiry tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _board(n=4, **kwargs) -> WorkBoard:
    clock = kwargs.pop("clock", FakeClock())
    cases = [(f"case-{i}", f"hash-{i}") for i in range(n)]
    return WorkBoard(cases, clock=clock, **kwargs)


class TestBackoffPolicy:
    def test_schedule_is_deterministic_across_instances(self):
        a = BackoffPolicy(seed=7).schedule("case", 5)
        b = BackoffPolicy(seed=7).schedule("case", 5)
        assert a == b

    def test_delays_grow_and_cap(self):
        policy = BackoffPolicy(base_seconds=1.0, multiplier=2.0, cap_seconds=4.0, jitter=0.0)
        assert policy.schedule("x", 4) == [1.0, 2.0, 4.0, 4.0]

    def test_jitter_stays_within_bounds_and_decorrelates_labels(self):
        policy = BackoffPolicy(base_seconds=1.0, multiplier=1.0, jitter=0.25)
        delays = {label: policy.delay(label, 1) for label in ("a", "b", "c", "d")}
        assert all(0.75 <= d <= 1.25 for d in delays.values())
        assert len(set(delays.values())) > 1

    def test_jitter_values_are_pinned(self):
        assert BackoffPolicy(seed=7).delay("case", 3) == 0.8342465

    def test_seed_changes_the_schedule(self):
        assert BackoffPolicy(seed=1).schedule("x", 3) != BackoffPolicy(seed=2).schedule("x", 3)


class TestWorkBoard:
    def test_leases_hand_out_shards_in_spec_order(self):
        board = _board(5, shard_size=2)
        first = board.lease("w1")
        second = board.lease("w2")
        assert first.indices == (0, 1) and second.indices == (2, 3)
        assert not first.speculative
        assert board.counts()["leased"] == 4

    def test_expired_lease_is_reclaimed_and_reissued(self):
        clock = FakeClock()
        board = _board(2, shard_size=2, lease_seconds=10.0, clock=clock)
        first = board.lease("w1")
        clock.advance(10.1)
        second = board.lease("w2")
        assert second is not None and not second.speculative
        assert second.indices == first.indices
        assert board.leases_expired == 1
        assert first.lease_id not in board.leases

    def test_heartbeat_extends_the_deadline(self):
        clock = FakeClock()
        board = _board(2, shard_size=2, lease_seconds=10.0, clock=clock)
        lease = board.lease("w1")
        clock.advance(9.0)
        assert board.heartbeat(lease.lease_id)
        clock.advance(9.0)
        assert board.reclaim_expired() == []
        assert lease.lease_id in board.leases

    def test_heartbeat_of_unknown_lease_says_abandon(self):
        assert not _board().heartbeat("L999999")

    def test_idle_worker_steals_a_speculative_duplicate(self):
        board = _board(2, shard_size=2)
        primary = board.lease("w1")
        stolen = board.lease("w2")
        assert stolen.speculative and stolen.origin == primary.lease_id
        assert stolen.indices == primary.indices
        assert board.leases_stolen == 1
        # The straggler's lease is not duplicated twice.
        assert board.lease("w3") is None

    def test_own_lease_is_not_stolen(self):
        board = _board(2, shard_size=2)
        board.lease("w1")
        assert board.lease("w1") is None

    def test_first_result_wins_and_duplicate_is_dropped(self):
        board = _board(1, shard_size=1)
        board.lease("w1")
        board.lease("w2")  # speculative copy
        assert board.record_result("case-0", "hash-0", ok=True) == "done"
        assert board.record_result("case-0", "hash-0", ok=True) == "duplicate"
        # A failure reported after the success is dropped too: no retry.
        assert board.record_result("case-0", "hash-0", False, "transient") == "duplicate"
        assert board.retries_scheduled == 0
        assert board.duplicates_dropped == 2
        assert board.complete

    def test_transient_failure_retries_after_backoff(self):
        clock = FakeClock()
        board = _board(
            1,
            shard_size=1,
            clock=clock,
            backoff=BackoffPolicy(base_seconds=2.0, jitter=0.0),
        )
        board.lease("w1")
        action = board.record_result("case-0", "hash-0", ok=False, error_kind="transient")
        assert action == "retry"
        assert board.retries_scheduled == 1
        # Backoff holds the case: nothing leasable until the delay passes.
        for lease_id in list(board.leases):
            board.release(lease_id)
        assert board.lease("w2") is None
        assert board.next_retry_in() == pytest.approx(2.0)
        clock.advance(2.1)
        assert board.lease("w2") is not None

    def test_attempt_budget_exhaustion_poisons(self):
        clock = FakeClock()
        board = _board(
            1,
            shard_size=1,
            max_attempts=2,
            clock=clock,
            backoff=BackoffPolicy(base_seconds=0.0, jitter=0.0),
        )
        board.lease("w1")
        assert board.record_result("case-0", "hash-0", False, "timeout") == "retry"
        board.lease("w1")
        assert board.record_result("case-0", "hash-0", False, "timeout") == "poisoned"
        assert board.complete
        assert board.poisoned() == [("case-0", "hash-0", "timeout")]

    def test_permanent_failure_poisons_immediately(self):
        board = _board(1, shard_size=1, max_attempts=5)
        board.lease("w1")
        assert board.record_result("case-0", "hash-0", False, "permanent") == "poisoned"
        assert board.poisoned() == [("case-0", "hash-0", "permanent")]

    def test_unknown_key_is_reported(self):
        assert _board().record_result("nope", "nope", True) == "unknown"

    def test_resume_seeding_marks_entries(self):
        board = _board(3)
        assert board.mark_done("case-0", "hash-0")
        assert board.mark_poisoned("case-1", "hash-1")
        board.restore_attempts("case-2", "hash-2", 2)
        counts = board.counts()
        assert counts["done"] == 1 and counts["poisoned"] == 1
        assert board.entries[2].attempts == 2
        assert not board.mark_done("missing", "missing")

    def test_duplicate_case_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WorkBoard([("a", "h"), ("a", "h")])

    def test_nan_lease_seconds_rejected(self):
        # A NaN deadline never expires, so a dead worker's shard would
        # never be reclaimed.
        with pytest.raises(ValueError, match="lease_seconds"):
            _board(2, lease_seconds=float("nan"))

    def test_snapshot_is_json_safe_and_complete(self):
        import json

        board = _board(2, shard_size=1)
        board.lease("w1")
        board.record_result("case-0", "hash-0", True)
        snapshot = board.snapshot()
        assert json.dumps(snapshot)
        assert snapshot["counts"]["done"] == 1
        assert snapshot["counters"]["leases_issued"] == 1


def _tiny_descriptor():
    return spec_descriptor("figure2", steps=2, sim_ranks=2)


class TestProtocol:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figure"):
            spec_descriptor("figure99")

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="knob"):
            spec_descriptor("figure2", step=3)

    def test_version_mismatch_rejected(self):
        descriptor = _tiny_descriptor()
        descriptor["version"] = 999
        with pytest.raises(ValueError, match="version"):
            resolve_spec(descriptor)

    @pytest.mark.parametrize("figure", FIGURES)
    def test_default_descriptor_names_the_sweep_cli_default_grid(self, figure):
        from repro.sweep.cli import _parser, build_spec

        local = [case.key for case in build_spec(_parser().parse_args([figure])).cases()]
        remote = [case.key for case in resolve_spec(spec_descriptor(figure)).cases()]
        assert local and local == remote

    def test_both_sides_expand_the_same_grid(self):
        first = [(c.label, c.config_digest) for c in campaign_cases(_tiny_descriptor())]
        second = [(c.label, c.config_digest) for c in campaign_cases(_tiny_descriptor())]
        assert first == second and len(first) == 9

    def test_unreachable_coordinator_raises_typed_error(self):
        client = CoordinatorClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(CoordinatorUnreachable):
            client.status()


def _serial_baseline(tmp_path):
    """The single-host store a campaign's canonical view must reproduce."""
    store = ResultStore(tmp_path / "serial.jsonl")
    SweepRunner(workers=0, store=store, trace=False).run(resolve_spec(_tiny_descriptor()))
    return store


def _run_campaign(campaign, worker_count=2, **worker_kwargs):
    """Drive a campaign to completion with in-process worker threads."""
    with CoordinatorServer(campaign) as server:
        workers = [
            CampaignWorker(server.url, name=f"t{i}", **worker_kwargs)
            for i in range(worker_count)
        ]
        threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
    return workers


class TestCampaignEndToEnd:
    def test_campaign_store_matches_single_host_run(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        campaign = Campaign(_tiny_descriptor(), store, shard_size=2, lease_seconds=10.0)
        _run_campaign(campaign)
        assert campaign.board.counts()["done"] == 9
        assert store.canonical_bytes() == _serial_baseline(tmp_path).canonical_bytes()

    def test_transient_failures_retry_and_converge(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        campaign = Campaign(
            _tiny_descriptor(),
            store,
            shard_size=2,
            lease_seconds=10.0,
            backoff=BackoffPolicy(base_seconds=0.01, jitter=0.0),
        )
        failed_once = set()
        guard = threading.Lock()

        def fail_first_attempt(label: str) -> None:
            with guard:
                if label not in failed_once:
                    failed_once.add(label)
                    raise OSError(f"injected transient fault in {label}")

        # Spy on the board: the coordinator calls it under its lock, so the
        # recorded actions are in merge order.
        failure_actions = []
        record_result = campaign.board.record_result

        def spy(label, config_hash, ok, error_kind=""):
            action = record_result(label, config_hash, ok, error_kind)
            if not ok:
                failure_actions.append(action)
            return action

        campaign.board.record_result = spy
        _run_campaign(campaign, failure_hook=fail_first_attempt)
        assert campaign.board.counts() == {
            "total": 9, "pending": 0, "leased": 0, "done": 9, "poisoned": 0,
        }
        # Every injected failure reaches the board.  It schedules a retry,
        # unless an idle worker's speculative copy of the case reported
        # success first: then the failure is a dropped duplicate (first
        # result wins) and no retry is due.
        assert len(failure_actions) == 9
        assert set(failure_actions) <= {"retry", "duplicate"}
        assert failure_actions.count("retry") == campaign.board.retries_scheduled
        if "duplicate" in failure_actions:
            assert campaign.board.leases_stolen > 0
        # Failed attempts never shadow the retry that succeeded.
        assert store.canonical_bytes() == _serial_baseline(tmp_path).canonical_bytes()

    def test_permanent_failure_is_poisoned_not_retried(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        campaign = Campaign(_tiny_descriptor(), store, shard_size=2, lease_seconds=10.0)
        victim = campaign.cases[0].label

        def always_crash(label: str) -> None:
            if label == victim:
                raise ValueError("deterministic scenario bug")

        _run_campaign(campaign, failure_hook=always_crash)
        counts = campaign.board.counts()
        assert counts["done"] == 8 and counts["poisoned"] == 1
        assert campaign.board.retries_scheduled == 0
        poison = [r for r in store.load() if r.get("poisoned")]
        assert len(poison) == 1
        assert poison[0]["label"] == victim
        assert poison[0]["error_kind"] == "permanent"
        assert poison[0]["attempt"] == 1

    def test_resume_skips_stored_records(self, tmp_path):
        serial = _serial_baseline(tmp_path)
        partial = ResultStore(tmp_path / "partial.jsonl")
        for record in serial.load()[:4]:
            partial.append(record)

        campaign = Campaign(_tiny_descriptor(), partial, shard_size=2, lease_seconds=10.0)
        assert campaign.board.counts()["done"] == 4
        workers = _run_campaign(campaign, worker_count=1)
        assert campaign.board.counts()["done"] == 9
        assert workers[0].cases_run == 5  # only the missing cases re-ran
        assert partial.canonical_bytes() == serial.canonical_bytes()

    def test_fully_stored_campaign_is_complete_at_boot(self, tmp_path):
        serial = _serial_baseline(tmp_path)
        campaign = Campaign(_tiny_descriptor(), serial)
        assert campaign.complete

    def test_coordinator_restart_midway_resumes_same_port(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        campaign = Campaign(_tiny_descriptor(), store, shard_size=1, lease_seconds=3.0)
        server = CoordinatorServer(campaign).start()
        port = server.httpd.server_address[1]
        url = server.url

        worker = CampaignWorker(url, name="survivor", throttle_seconds=0.05,
                                give_up_seconds=30.0)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()

        # Let a few records land, then kill the coordinator mid-campaign.
        pacer = threading.Event()
        while campaign.records_merged < 2 and thread.is_alive():
            pacer.wait(0.02)
        server.stop()
        merged_before = campaign.records_merged
        assert merged_before >= 2

        # A fresh coordinator on the same port resumes from the store alone.
        revived = Campaign(_tiny_descriptor(), store, shard_size=1, lease_seconds=3.0)
        assert revived.board.counts()["done"] >= merged_before
        with CoordinatorServer(revived, port=port):
            thread.join(60)
        assert not thread.is_alive()
        assert revived.board.counts()["done"] == 9
        assert store.canonical_bytes() == _serial_baseline(tmp_path).canonical_bytes()

    def test_nan_safety_knobs_rejected(self, tmp_path):
        """A NaN timeout or budget never runs out, so each one is refused."""
        nan = float("nan")
        with pytest.raises(ValueError, match="case_timeout_seconds"):
            Campaign(_tiny_descriptor(), tmp_path / "c.jsonl", case_timeout_seconds=nan)
        with pytest.raises(ValueError, match="give_up_seconds"):
            CampaignWorker("http://127.0.0.1:9", give_up_seconds=nan)
        campaign = Campaign(_tiny_descriptor(), _serial_baseline(tmp_path))
        with CoordinatorServer(campaign) as server:
            with pytest.raises(ValueError, match="timeout"):
                server.serve_until_complete(timeout=nan)

    def test_spec_drift_aborts_the_worker_loudly(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        campaign = Campaign(_tiny_descriptor(), store, shard_size=2)
        # Simulate version skew: the coordinator leases an identity the
        # worker's locally expanded grid does not contain.
        campaign.cases[0] = SweepCase("tampered", campaign.cases[0].config)
        with CoordinatorServer(campaign) as server:
            with pytest.raises(RuntimeError, match="spec drift"):
                CampaignWorker(server.url, name="drifted").run()
        assert store.load() == []


def _spy_accepts(monkeypatch, server):
    """Record each connection the coordinator accepts from now on."""
    accepted = []
    real = server.httpd.process_request

    def spy(request, client_address):
        accepted.append(request)
        real(request, client_address)

    monkeypatch.setattr(server.httpd, "process_request", spy)
    return accepted


def _spy_requests(monkeypatch, server):
    """Count the requests the coordinator serves from now on, by path."""
    served = collections.Counter()
    handler = server.httpd.RequestHandlerClass
    for verb in ("do_GET", "do_POST"):
        real = getattr(handler, verb)

        def spy(self, real=real):
            served[self.path] += 1
            real(self)

        monkeypatch.setattr(handler, verb, spy)
    return served


class TestRequests:
    """A worker sends one ``/spec``, one ``/lease`` per shard, one ``/results`` per case."""

    def test_one_results_request_per_case_and_one_lease_per_shard(
        self, tmp_path, monkeypatch
    ):
        campaign = Campaign(_tiny_descriptor(), tmp_path / "c.jsonl", shard_size=2)
        with CoordinatorServer(campaign) as server:
            served = _spy_requests(monkeypatch, server)
            stats = CampaignWorker(server.url, name="solo").run()
        assert stats == {
            "cases_run": 9, "cases_failed": 0, "records_sent": 9, "leases_taken": 5,
        }
        # No /results request only retires a shard, and no /lease only
        # learns ``complete``: the last record's answer says it.
        assert served == {"/spec": 1, "/lease": 5, "/results": 9}
        assert campaign.board.leases == {}
        assert campaign.board.counts()["done"] == 9

    def test_a_retire_request_without_records_still_releases_its_lease(self, tmp_path):
        campaign = Campaign(_tiny_descriptor(), tmp_path / "c.jsonl", shard_size=2)
        with CoordinatorServer(campaign) as server:
            client = CoordinatorClient(server.url)
            try:
                lease_id = client.lease("older-worker")["lease_id"]
                answer = client.results("older-worker", lease_id, [], done=True)
            finally:
                client.close()
        assert answer == {"ok": True, "accepted": 0, "dropped": 0, "complete": False}
        assert campaign.board.leases == {}
        assert campaign.board.counts()["pending"] == 9


class TestConnection:
    """Each client keeps one HTTP/1.1 connection to the coordinator."""

    def test_a_worker_makes_every_request_on_one_connection(self, tmp_path, monkeypatch):
        campaign = Campaign(_tiny_descriptor(), tmp_path / "c.jsonl", shard_size=2)
        with CoordinatorServer(campaign) as server:
            accepted = _spy_accepts(monkeypatch, server)
            stats = CampaignWorker(server.url, name="solo").run()
        assert stats["leases_taken"] == 5 and stats["cases_run"] == 9
        assert len(accepted) == 1

    def test_the_coordinator_turns_nagle_off(self, tmp_path, monkeypatch):
        campaign = Campaign(_tiny_descriptor(), tmp_path / "c.jsonl")
        with CoordinatorServer(campaign) as server:
            accepted = _spy_accepts(monkeypatch, server)
            client = CoordinatorClient(server.url)
            try:
                client.status()
                [connection] = accepted
                assert connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            finally:
                client.close()

    def test_threads_share_one_client(self, tmp_path, monkeypatch):
        campaign = Campaign(_tiny_descriptor(), tmp_path / "c.jsonl", shard_size=2)
        lease_id = campaign.handle_lease("stress")["lease_id"]
        beats = []
        real_heartbeat = campaign.handle_heartbeat

        def counted(worker, lease):
            beats.append(worker)
            return real_heartbeat(worker, lease)

        campaign.handle_heartbeat = counted
        answers = []
        with CoordinatorServer(campaign) as server:
            accepted = _spy_accepts(monkeypatch, server)
            client = CoordinatorClient(server.url)

            def beat(name):
                for _ in range(50):
                    answers.append(client.heartbeat(name, lease_id))

            # More threads than a small host has cores, switching as often
            # as the interpreter allows, all on one connection.
            threads = [
                threading.Thread(target=beat, args=(f"t{i}",), daemon=True) for i in range(4)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(interval)
                client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [{"ok": True}] * 200
        assert len(beats) == 200
        assert len(accepted) == 1

    def test_a_restarted_coordinator_costs_one_retry(self, tmp_path):
        store = tmp_path / "c.jsonl"
        server = CoordinatorServer(Campaign(_tiny_descriptor(), store)).start()
        port = server.httpd.server_address[1]
        worker = CampaignWorker(server.url, name="w", give_up_seconds=5.0)
        calls = []

        def status():
            calls.append(len(calls))
            return worker.client.status()

        try:
            assert worker._call(status)["counts"]["total"] == 9
            server.stop()
            with CoordinatorServer(Campaign(_tiny_descriptor(), store), port=port):
                assert worker._call(status)["counts"]["total"] == 9
        finally:
            worker.client.close()
            server.stop()
        # The severed connection fails once; the retry reconnects.
        assert calls == [0, 1, 2]

    def test_a_one_shot_client_still_works(self, tmp_path):
        campaign = Campaign(_tiny_descriptor(), tmp_path / "c.jsonl")
        with CoordinatorServer(campaign) as server:
            # urllib asks for ``Connection: close`` and gets it.
            with urllib.request.urlopen(server.url + "/status", timeout=10) as response:
                assert response.headers["Connection"] == "close"
                assert json.loads(response.read())["counts"]["total"] == 9

    def test_a_bad_body_closes_the_connection(self, tmp_path):
        campaign = Campaign(_tiny_descriptor(), tmp_path / "c.jsonl")
        with CoordinatorServer(campaign) as server:
            connection = http.client.HTTPConnection(*server.httpd.server_address[:2])
            try:
                # The server cannot tell where this body ends.
                connection.request("POST", "/lease", b"{}", {"Content-Length": "x"})
                response = connection.getresponse()
                response.read()
            finally:
                connection.close()
        assert response.status == 400
        assert response.headers["Connection"] == "close"

    def test_a_negative_content_length_is_refused_at_once(self, tmp_path):
        campaign = Campaign(_tiny_descriptor(), tmp_path / "c.jsonl")
        with CoordinatorServer(campaign) as server:
            # A timeout, not a hang, if the server waits for the peer to close.
            connection = http.client.HTTPConnection(
                *server.httpd.server_address[:2], timeout=3
            )
            try:
                connection.request("POST", "/lease", b"{}", {"Content-Length": "-1"})
                response = connection.getresponse()
                response.read()
            finally:
                connection.close()
        assert response.status == 400
        assert response.headers["Connection"] == "close"
        assert campaign.board.leases_issued == 0

    def test_only_http_urls_are_accepted(self):
        with pytest.raises(ValueError, match="http://host"):
            CoordinatorClient("127.0.0.1:8765")


class TestCampaignCLI:
    def test_sweep_cli_dispatches_campaign_subcommand(self):
        from repro.sweep.cli import main

        assert main(["campaign", "status", "http://127.0.0.1:9"]) == 3

    def test_serve_times_out_with_exit_code_5(self, tmp_path, capsys):
        from repro.campaign.cli import main

        code = main([
            "serve", "figure2", "--steps", "2", "--sim-ranks", "2",
            "--store", str(tmp_path / "c.jsonl"), "--max-seconds", "0.3",
        ])
        assert code == 5
        captured = capsys.readouterr()
        assert "listening on" in captured.out
        assert "timed out" in captured.err

    def test_serve_resume_of_complete_store_exits_clean(self, tmp_path, capsys):
        from repro.campaign.cli import main

        serial = _serial_baseline(tmp_path)
        code = main([
            "serve", "figure2", "--steps", "2", "--sim-ranks", "2",
            "--store", str(serial.path),
        ])
        assert code == 0
        assert "done=9 poisoned=0" in capsys.readouterr().out

    def test_status_of_live_coordinator(self, tmp_path, capsys):
        from repro.campaign.cli import main

        campaign = Campaign(_tiny_descriptor(), tmp_path / "c.jsonl")
        with CoordinatorServer(campaign) as server:
            assert main(["status", server.url]) == 0
        out = capsys.readouterr().out
        assert "0/9 done" in out and "9 pending" in out
