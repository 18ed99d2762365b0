"""Lease-based work accounting for distributed sweep campaigns.

The :class:`WorkBoard` is the coordinator's authoritative scheduling state:
every case of a prepared :class:`~repro.sweep.spec.SweepSpec` is one entry
that moves ``pending -> leased -> done`` (or ``poisoned``).  Workers claim
shards of pending cases as time-limited :class:`Lease`\\ s and keep them
alive with heartbeats; a lease whose deadline passes is *reclaimed* and its
unfinished cases become leasable again, so a crashed or hung worker can
never strand its shard.  When nothing is pending but leases are still in
flight, an idle worker is handed a *speculative* duplicate of the
longest-held lease (work-stealing from the straggler) — whichever copy
reports a case first wins and the duplicate record is dropped.

Failures follow the :func:`~repro.sweep.runner.classify_error` taxonomy:
retryable kinds (``transient``, ``timeout``, ``lost``) are redispatched
after a deterministic exponential :class:`BackoffPolicy` delay until the
per-case attempt budget is spent, then the case is **poisoned** — recorded
and never retried, so a crashing scenario consumes its budget instead of
wedging the campaign.  ``permanent`` failures are poisoned immediately.

The board is pure in-memory bookkeeping (persistence is the result store's
job — see :mod:`repro.campaign.coordinator`) and is not thread-safe; the
coordinator guards it with one lock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.simcore.rng import stable_hash

__all__ = ["BackoffPolicy", "CaseEntry", "Lease", "WorkBoard"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential retry backoff with deterministic, label-seeded jitter.

    ``delay(label, attempt)`` grows as ``base * multiplier**(attempt-1)`` up
    to ``cap_seconds``, scaled by a jitter factor in ``[1-jitter, 1+jitter]``
    derived from a stable hash of ``(seed, label, attempt)`` — so retries of
    different cases decorrelate (no thundering herd after a coordinator
    restart) while the whole schedule stays reproducible for tests and
    post-mortems.
    """

    base_seconds: float = 0.25
    multiplier: float = 2.0
    cap_seconds: float = 8.0
    jitter: float = 0.25
    seed: int = 0

    def delay(self, label: str, attempt: int) -> float:
        """Seconds to hold back the ``attempt``-th retry of ``label``."""
        power = max(0, int(attempt) - 1)
        raw = min(self.cap_seconds, self.base_seconds * self.multiplier**power)
        if self.jitter <= 0:
            return raw
        frac = (stable_hash(f"{self.seed}:{label}:{attempt}") % 1_000_000) / 1_000_000.0
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * frac)

    def schedule(self, label: str, attempts: int) -> List[float]:
        """The full delay sequence for ``attempts`` retries of one case."""
        return [self.delay(label, attempt) for attempt in range(1, attempts + 1)]


class CaseEntry:
    """Scheduling state of one sweep case on the board."""

    __slots__ = (
        "index",
        "label",
        "config_hash",
        "status",
        "attempts",
        "not_before",
        "last_error_kind",
    )

    def __init__(self, index: int, label: str, config_hash: str):
        self.index = index
        self.label = label
        self.config_hash = config_hash
        #: ``pending`` | ``leased`` | ``done`` | ``poisoned``.
        self.status = "pending"
        #: Failed executions so far (the attempt budget counts these).
        self.attempts = 0
        #: Earliest clock instant the case may be leased again (backoff).
        self.not_before = 0.0
        self.last_error_kind = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CaseEntry {self.index} {self.label!r} {self.status}>"


@dataclass
class Lease:
    """One worker's time-limited claim on a shard of case indices."""

    lease_id: str
    worker: str
    indices: Tuple[int, ...]
    deadline: float
    issued_at: float
    #: Set on a work-stealing duplicate of another live lease.
    speculative: bool = False
    #: The duplicated lease's id (speculative leases only).
    origin: Optional[str] = None


class WorkBoard:
    """Lease, retry and poison accounting over one campaign's case list.

    Parameters
    ----------
    cases:
        The prepared case identities, as ``(label, config_hash)`` pairs in
        spec order (see :func:`~repro.sweep.runner.prepare_cases`).
    shard_size:
        Most cases handed out per lease.
    lease_seconds:
        Lease lifetime; heartbeats extend the deadline by this much.
    max_attempts:
        Failed executions a case may accumulate before it is poisoned.
    backoff:
        Retry-delay policy (defaults to :class:`BackoffPolicy`'s defaults).
    clock:
        Monotonic time source, injectable for tests.
    """

    #: ``error_kind`` values worth retrying; anything else poisons at once.
    RETRYABLE_KINDS = frozenset({"", "transient", "timeout", "lost"})

    def __init__(
        self,
        cases: Sequence[Tuple[str, str]],
        *,
        shard_size: int = 4,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        backoff: Optional[BackoffPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        if not lease_seconds > 0:  # NaN too: a NaN deadline never expires
            raise ValueError("lease_seconds must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.shard_size = int(shard_size)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self._clock = clock
        self.entries: List[CaseEntry] = [
            CaseEntry(index, label, digest) for index, (label, digest) in enumerate(cases)
        ]
        self._by_key: Dict[Tuple[str, str], CaseEntry] = {
            (entry.label, entry.config_hash): entry for entry in self.entries
        }
        if len(self._by_key) != len(self.entries):
            raise ValueError("duplicate (label, config_hash) keys in the case list")
        self.leases: Dict[str, Lease] = {}
        self._lease_counter = 0
        # Campaign-lifetime counters, surfaced by /status.
        self.leases_issued = 0
        self.leases_expired = 0
        self.leases_stolen = 0
        self.duplicates_dropped = 0
        self.retries_scheduled = 0

    # -- resume seeding ----------------------------------------------------
    def mark_done(self, label: str, config_hash: str) -> bool:
        """Mark a case completed (resume from a store); ``False`` if unknown."""
        entry = self._by_key.get((label, config_hash))
        if entry is None:
            return False
        entry.status = "done"
        return True

    def mark_poisoned(self, label: str, config_hash: str) -> bool:
        """Mark a case poisoned (resume from a store); ``False`` if unknown."""
        entry = self._by_key.get((label, config_hash))
        if entry is None:
            return False
        if entry.status != "done":
            entry.status = "poisoned"
        return True

    def restore_attempts(self, label: str, config_hash: str, attempts: int) -> None:
        """Restore a case's failure count from stored attempt stamps."""
        entry = self._by_key.get((label, config_hash))
        if entry is not None and attempts > entry.attempts:
            entry.attempts = int(attempts)

    # -- leasing -----------------------------------------------------------
    def _live_cover(self, index: int) -> bool:
        """Whether any live lease still claims ``index``."""
        return any(index in lease.indices for lease in self.leases.values())

    def _release_indices(self, lease: Lease) -> None:
        for index in lease.indices:
            entry = self.entries[index]
            if entry.status == "leased" and not self._live_cover(index):
                entry.status = "pending"

    def reclaim_expired(self) -> List[Lease]:
        """Drop every lease past its deadline and free its unfinished cases."""
        now = self._clock()
        expired = [lease for lease in self.leases.values() if lease.deadline <= now]
        for lease in expired:
            del self.leases[lease.lease_id]
            self.leases_expired += 1
            self._release_indices(lease)
        return expired

    def _issue(
        self, worker: str, indices: Tuple[int, ...], speculative: bool, origin: Optional[str]
    ) -> Lease:
        now = self._clock()
        self._lease_counter += 1
        lease = Lease(
            lease_id=f"L{self._lease_counter:06d}",
            worker=worker,
            indices=indices,
            deadline=now + self.lease_seconds,
            issued_at=now,
            speculative=speculative,
            origin=origin,
        )
        self.leases[lease.lease_id] = lease
        for index in indices:
            self.entries[index].status = "leased"
        self.leases_issued += 1
        if speculative:
            self.leases_stolen += 1
        return lease

    def lease(self, worker: str) -> Optional[Lease]:
        """Claim the next shard for ``worker`` (or steal one; ``None`` = wait).

        Expired leases are reclaimed first.  Pending cases whose backoff
        window has passed are handed out in spec order, up to
        ``shard_size`` per lease.  With nothing pending, the longest-held
        live lease of *another* worker that has no duplicate yet is copied
        speculatively.  ``None`` means there is genuinely nothing to run
        right now (everything done, poisoned, backoff-delayed, or already
        doubly leased).
        """
        self.reclaim_expired()
        now = self._clock()
        ready = [
            entry.index
            for entry in self.entries
            if entry.status == "pending" and entry.not_before <= now
        ]
        if ready:
            return self._issue(worker, tuple(ready[: self.shard_size]), False, None)
        duplicated = {lease.origin for lease in self.leases.values() if lease.origin}
        candidates = []
        for lease in self.leases.values():
            if lease.speculative or lease.worker == worker or lease.lease_id in duplicated:
                continue
            unfinished = tuple(
                index for index in lease.indices if self.entries[index].status == "leased"
            )
            if unfinished:
                candidates.append((lease.issued_at, lease.lease_id, unfinished))
        if not candidates:
            return None
        candidates.sort()
        _issued_at, origin_id, unfinished = candidates[0]
        return self._issue(worker, unfinished, True, origin_id)

    def heartbeat(self, lease_id: str) -> bool:
        """Extend a live lease's deadline; ``False`` if it is gone (abandon)."""
        lease = self.leases.get(lease_id)
        if lease is None:
            return False
        lease.deadline = self._clock() + self.lease_seconds
        return True

    def release(self, lease_id: str) -> None:
        """Retire a lease (worker finished or abandoned its shard)."""
        lease = self.leases.pop(lease_id, None)
        if lease is not None:
            self._release_indices(lease)

    def next_retry_in(self) -> Optional[float]:
        """Seconds until the earliest backoff-delayed case becomes leasable."""
        now = self._clock()
        waits = [
            entry.not_before - now
            for entry in self.entries
            if entry.status == "pending" and entry.not_before > now
        ]
        return min(waits) if waits else None

    # -- results -----------------------------------------------------------
    def record_result(
        self, label: str, config_hash: str, ok: bool, error_kind: str = ""
    ) -> str:
        """Account one reported execution; returns the action taken.

        ``"done"`` — first successful report, record it.  ``"retry"`` — a
        retryable failure with budget left, redispatched after backoff.
        ``"poisoned"`` — the failure exhausted the budget (or is permanent);
        record it as poison.  ``"duplicate"`` — a slower speculative copy of
        an already-recorded case, drop it.  ``"unknown"`` — the key is not
        part of this campaign.
        """
        entry = self._by_key.get((label, config_hash))
        if entry is None:
            return "unknown"
        if entry.status == "done":
            self.duplicates_dropped += 1
            return "duplicate"
        if ok:
            entry.status = "done"
            return "done"
        if entry.status == "poisoned":
            self.duplicates_dropped += 1
            return "duplicate"
        entry.attempts += 1
        entry.last_error_kind = error_kind
        if error_kind not in self.RETRYABLE_KINDS or entry.attempts >= self.max_attempts:
            entry.status = "poisoned"
            return "poisoned"
        entry.status = "pending"
        entry.not_before = self._clock() + self.backoff.delay(label, entry.attempts)
        self.retries_scheduled += 1
        return "retry"

    # -- introspection -----------------------------------------------------
    @property
    def complete(self) -> bool:
        """Whether every case is done or poisoned (nothing left to run)."""
        return all(entry.status in ("done", "poisoned") for entry in self.entries)

    def counts(self) -> Dict[str, int]:
        """Entry counts by status, plus the total."""
        out = {"total": len(self.entries), "pending": 0, "leased": 0, "done": 0, "poisoned": 0}
        for entry in self.entries:
            out[entry.status] += 1
        return out

    def poisoned(self) -> List[Tuple[str, str, str]]:
        """The quarantined cases as ``(label, config_hash, last_error_kind)``."""
        return [
            (entry.label, entry.config_hash, entry.last_error_kind)
            for entry in self.entries
            if entry.status == "poisoned"
        ]

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe status summary (counts, live leases, lifetime counters)."""
        now = self._clock()
        return {
            "counts": self.counts(),
            "complete": self.complete,
            "leases": [
                {
                    "lease_id": lease.lease_id,
                    "worker": lease.worker,
                    "cases": len(lease.indices),
                    "expires_in": round(lease.deadline - now, 3),
                    "speculative": lease.speculative,
                }
                for _, lease in sorted(self.leases.items())
            ],
            "counters": {
                "leases_issued": self.leases_issued,
                "leases_expired": self.leases_expired,
                "leases_stolen": self.leases_stolen,
                "retries_scheduled": self.retries_scheduled,
                "duplicates_dropped": self.duplicates_dropped,
            },
            "poisoned": [
                {"label": label, "config_hash": digest, "error_kind": kind}
                for label, digest, kind in self.poisoned()
            ],
        }
