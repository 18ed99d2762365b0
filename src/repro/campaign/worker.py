"""Campaign worker: lease shards, run cases, stream records, heartbeat.

A :class:`CampaignWorker` is deliberately stateless between shards — all
durable state lives in the coordinator's store.  It joins by fetching the
campaign's spec descriptor, expands the *same* prepared case list locally
(see :func:`~repro.campaign.protocol.campaign_cases`), and then loops:
lease a shard, execute its cases one by one, and stream each record back
the moment it exists, so a worker killed mid-shard loses at most the case
it was running.  Every ``/results`` request carries one case: the shard's
last record goes with ``done``, which retires the lease, and the worker
stops once an answer says the campaign is ``complete``.

Robustness behaviours:

* **Heartbeats** — a daemon pump extends the lease at a third of its
  deadline; a heartbeat answered ``ok=false`` means the coordinator
  reclaimed the shard (this worker straggled and someone stole the work),
  so the rest of the shard is abandoned rather than raced redundantly, and
  nothing more is sent for it.
* **Coordinator outages** — every call retries
  :class:`~repro.campaign.protocol.CoordinatorUnreachable` with capped
  backoff for up to ``give_up_seconds``, reconnecting on each try; a
  coordinator restart is therefore invisible to workers apart from the
  pause.  A record still undelivered after that raises.
* **Spec drift** — each leased case's ``(label, config_hash)`` is checked
  against the locally expanded grid; any mismatch (version skew between
  hosts) aborts the worker loudly, mid-shard too, before it can pollute
  the store.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Dict, Optional

from repro.campaign.protocol import CoordinatorClient, CoordinatorUnreachable, campaign_cases
from repro.sweep.runner import SweepRecord, SweepRunner, classify_error

__all__ = ["CampaignWorker"]


class CampaignWorker:
    """Run leased shards of a campaign against a coordinator URL.

    Parameters
    ----------
    url:
        The coordinator's base URL (``http://host:port``).
    name:
        Worker identity shown in leases and stamped on records; defaults to
        ``<hostname>-<pid>``.
    throttle_seconds:
        Pause before each case — a test/demo knob that widens the window in
        which chaos harnesses can kill a worker mid-shard.
    give_up_seconds:
        Total budget for retrying an unreachable coordinator before the
        worker gives up and raises.
    failure_hook:
        Optional callable invoked with each case label before execution;
        an exception it raises is recorded as that case's failure (test
        seam for deterministic fault injection without subprocess games).
    """

    def __init__(
        self,
        url: str,
        name: Optional[str] = None,
        *,
        throttle_seconds: float = 0.0,
        give_up_seconds: float = 60.0,
        failure_hook: Optional[Callable[[str], None]] = None,
    ):
        if not give_up_seconds >= 0:  # NaN would retry a dead coordinator forever
            raise ValueError("give_up_seconds must be non-negative")
        self.client = CoordinatorClient(url)
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.throttle_seconds = float(throttle_seconds)
        self.give_up_seconds = float(give_up_seconds)
        self.failure_hook = failure_hook
        #: Set by the heartbeat pump when the coordinator reclaimed our lease.
        self._abandoned = threading.Event()
        # Lifetime statistics, returned by :meth:`run`.
        self.cases_run = 0
        self.cases_failed = 0
        self.records_sent = 0
        self.leases_taken = 0

    # -- transport with outage tolerance ------------------------------------
    def _call(self, call: Callable[[], Dict[str, object]]) -> Dict[str, object]:
        """Invoke one client call, riding out coordinator outages.

        Retries :class:`CoordinatorUnreachable` with capped exponential
        pauses until ``give_up_seconds`` of cumulative waiting is spent,
        then re-raises — a worker should survive a coordinator restart but
        not spin forever against a dead campaign.
        """
        waited = 0.0
        pause = 0.1
        while True:
            try:
                return call()
            except CoordinatorUnreachable:
                if waited >= self.give_up_seconds:
                    raise
                time.sleep(pause)
                waited += pause
                pause = min(2.0, pause * 2.0)

    # -- heartbeat pump ------------------------------------------------------
    def _pump_heartbeats(self, lease_id: str, interval: float, done: threading.Event) -> None:
        while not done.wait(interval):
            try:
                answer = self.client.heartbeat(self.name, lease_id)
            except CoordinatorUnreachable:
                continue  # outage: the retry loop in _call covers real work
            if not answer.get("ok", False):
                self._abandoned.set()
                return

    # -- execution -----------------------------------------------------------
    def _run_case(self, runner: SweepRunner, case) -> Dict[str, object]:
        """Execute one prepared case and return its store payload."""
        if self.failure_hook is not None:
            try:
                self.failure_hook(case.label)
            except Exception as exc:  # noqa: BLE001 - injected fault becomes the record
                record = SweepRecord(
                    label=case.label,
                    config_hash=case.config_digest,
                    seed=case.config.seed,
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    error_kind=classify_error(exc),
                )
                return record.payload()
        record = runner.run([case])[0]
        return record.payload()

    def run(self) -> Dict[str, int]:
        """Work the campaign until an answer says it is complete.

        Returns the lifetime counters.  A worker that finishes a shard
        learns ``complete`` from its last ``/results`` answer; one with
        nothing left to lease learns it from ``/lease``.  Raises
        :class:`CoordinatorUnreachable` if the coordinator stays down past
        ``give_up_seconds``, and ``RuntimeError`` on spec drift.  The
        client's connection is closed on the way out either way.
        """
        try:
            self._work()
        finally:
            self.client.close()
        return {
            "cases_run": self.cases_run,
            "cases_failed": self.cases_failed,
            "records_sent": self.records_sent,
            "leases_taken": self.leases_taken,
        }

    def _work(self) -> None:
        """Lease, run and report shards until an answer says ``complete``."""
        spec = self._call(self.client.spec)
        descriptor = spec.get("descriptor")
        if not isinstance(descriptor, dict):
            raise RuntimeError("coordinator /spec returned no descriptor")
        cases = campaign_cases(descriptor)
        timeout = spec.get("case_timeout_seconds")
        # Cases arrive already prepared (reseeded, traces off); running them
        # through a reseeding runner would derive different configs than the
        # coordinator hashed, so preparation is disabled here.
        runner = SweepRunner(
            workers=0,
            reseed=False,
            trace=None,
            case_timeout_seconds=float(timeout) if timeout is not None else None,
        )

        while True:
            answer = self._call(lambda: self.client.lease(self.name))
            status = answer.get("status")
            if status == "complete":
                return
            if status == "wait":
                time.sleep(float(answer.get("retry_after", 0.5)))
                continue
            if status != "lease":
                raise RuntimeError(f"unexpected /lease response: {answer!r}")

            lease_id = str(answer["lease_id"])
            deadline = float(answer.get("deadline_seconds", 30.0))
            shard = answer.get("cases", [])
            self.leases_taken += 1
            self._abandoned.clear()
            pump_done = threading.Event()
            pump = threading.Thread(
                target=self._pump_heartbeats,
                args=(lease_id, max(0.05, deadline / 3.0), pump_done),
                name=f"heartbeat-{lease_id}",
                daemon=True,
            )
            pump.start()
            try:
                for position, leased in enumerate(shard, 1):
                    if self._abandoned.is_set():
                        break
                    index = int(leased["index"])
                    if index < 0 or index >= len(cases):
                        raise RuntimeError(
                            f"spec drift: leased case index {index} is outside "
                            f"this host's {len(cases)}-case grid"
                        )
                    case = cases[index]
                    if (case.label, case.config_digest) != (
                        leased.get("label"),
                        leased.get("config_hash"),
                    ):
                        raise RuntimeError(
                            "spec drift: leased case "
                            f"({leased.get('label')!r}, {leased.get('config_hash')!r}) "
                            f"does not match local case ({case.label!r}, "
                            f"{case.config_digest!r}) at index {index}; "
                            "coordinator and worker disagree on the grid"
                        )
                    if self.throttle_seconds > 0:
                        time.sleep(self.throttle_seconds)
                        if self._abandoned.is_set():
                            break
                    payload = self._run_case(runner, case)
                    self.cases_run += 1
                    if not payload.get("ok", True):
                        self.cases_failed += 1
                    # The shard's last record retires its lease.  An
                    # abandoned shard sends nothing more: its lease is gone.
                    done = position == len(shard)
                    answer = self._call(
                        lambda: self.client.results(self.name, lease_id, [payload], done)
                    )
                    self.records_sent += 1
            finally:
                pump_done.set()
                pump.join()
            # The last record's answer, or the lease's if none was sent.
            if answer.get("complete"):
                return
