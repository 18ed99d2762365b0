"""JSON-lines persistence for sweep results, with resume support.

Each completed scenario is appended as one self-contained JSON object, so a
store survives crashes mid-sweep (at worst the final, partially written line
is discarded on load).  A record carries the resume key ``(label, config_hash)``
plus a flat summary of the :class:`~repro.workflow.result.WorkflowResult` —
enough to feed :mod:`repro.bench.report` tables without re-running anything.
Traces are deliberately not persisted; re-run the single scenario of interest
with ``trace=True`` to regenerate one.

The full record schema — including the per-stage/per-coupling breakdowns and
the elastic rebalance timeline — is documented in ``docs/sweep-format.md``,
as is the in-memory resume index a store keeps between runs.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple, Union

from repro.workflow.result import WorkflowResult

__all__ = ["BatchWriter", "ResultStore", "VOLATILE_KEYS", "result_payload"]

#: Record fields excluded from the canonical merged view: wall-clock noise
#: (``elapsed``) and the campaign provenance stamps (``shard``/``attempt``/
#: ``worker``/``poisoned``) that a single-host run never writes.  Dropping
#: them makes a distributed campaign's canonical bytes comparable to a
#: single-host sweep of the same spec (see ``docs/campaigns.md``).
VOLATILE_KEYS: FrozenSet[str] = frozenset(
    {"elapsed", "shard", "attempt", "worker", "poisoned"}
)


#: Resume key of a record: ``(label, config_hash)``.
Key = Tuple[str, str]
#: ``(st_dev, st_ino, st_size, st_mtime_ns)`` of a store file.
Signature = Tuple[int, int, int, int]


def _signature(path: Path) -> Optional[Signature]:
    """The file's identity, size and modification time; ``None`` if missing."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _append_text(path: Path, text: str) -> int:
    """Append ``text`` to the file in one open; returns the bytes written.

    A file that ends in a half-written line (a crash artefact) first gets a
    newline: appending straight after the torn line would concatenate the
    new record onto it and corrupt both, while the newline turns the torn
    tail into an ignorable corrupt line.
    """
    data = text.encode("utf-8")
    with path.open("a+b") as fh:
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                data = b"\n" + data
        fh.write(data)
    return len(data)


def _index_record(index: Dict[Key, Dict[str, object]], record: Dict[str, object]) -> None:
    """File ``record`` under its resume key unless it crashed (a re-run retries it)."""
    if record.get("ok", True):
        index[(str(record["label"]), str(record.get("config_hash", "")))] = record


def result_payload(result: WorkflowResult) -> Dict[str, object]:
    """Flatten a workflow result into the JSON-safe summary stored per line."""
    payload: Dict[str, object] = {
        "transport": result.transport,
        "end_to_end_time": result.end_to_end_time,
        "simulation_only_time": result.simulation_only_time,
        "breakdown": result.breakdown.as_dict(),
        "stats": {k: float(v) for k, v in result.stats.items()},
        "xmit_wait": result.xmit_wait,
        "total_cores": result.total_cores,
        "block_bytes": result.block_bytes,
        "failed": result.failed,
        "failure_reason": result.failure_reason,
    }
    if result.stage_breakdowns:
        payload["stages"] = {
            name: breakdown.as_dict()
            for name, breakdown in result.stage_breakdowns.items()
        }
    if result.coupling_transports:
        payload["couplings"] = dict(result.coupling_transports)
        payload["coupling_stats"] = {
            name: {k: float(v) for k, v in stats.items()}
            for name, stats in result.coupling_stats.items()
        }
        payload["coupling_block_bytes"] = dict(result.coupling_block_bytes)
    if result.rebalances:
        # The elastic controller's decision timeline, in decision order;
        # RebalanceEvent.from_dict rebuilds the events on load.
        payload["rebalances"] = [event.as_dict() for event in result.rebalances]
    if result.stage_assist_ranks:
        # Lifetime spawn census of the rank-elastic stages (the per-epoch
        # counts are on the rebalance timeline's rank_spawn/rank_retire
        # events).
        payload["stage_assist_ranks"] = {
            name: int(count) for name, count in result.stage_assist_ranks.items()
        }
    if result.faults:
        # The fault injector's applied timeline, in time order;
        # FaultEvent.from_dict rebuilds the events on load.
        payload["faults"] = [event.as_dict() for event in result.faults]
    if result.jobs:
        # The tenant scheduler's job timeline, in time order;
        # JobEvent.from_dict rebuilds the events on load.
        payload["jobs"] = [event.as_dict() for event in result.jobs]
    return payload


class ResultStore:
    """Append-only JSONL store of sweep records keyed by ``(label, config_hash)``."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        #: The resume index and the file signature it is valid for.
        self._index: Optional[Dict[Key, Dict[str, object]]] = None
        self._index_signature: Optional[Signature] = None

    def __repr__(self) -> str:
        return f"<ResultStore {str(self.path)!r}>"

    @property
    def quarantine_path(self) -> Path:
        """Where corrupt mid-file lines are moved (``<store>.quarantine``)."""
        return self.path.with_name(self.path.name + ".quarantine")

    # -- reading -----------------------------------------------------------
    def iter_records(self, heal: bool = True) -> Iterator[Dict[str, object]]:
        """Yield every intact record in file order.

        Two kinds of damage are tolerated rather than raised:

        * A **torn tail** — the final line lacks its newline (the writer
          crashed mid-append).  It is skipped here and healed by the next
          writer, exactly as before.
        * A **corrupt mid-file line** — a complete line that is not valid
          JSON or not a record (e.g. a partial disk write that a later
          append ran past).  With ``heal`` (the default) such lines are
          moved to :attr:`quarantine_path` with a warning and the store file
          is rewritten without them, so resume keeps working and the
          corruption is preserved for inspection instead of silently
          shadowing records on every read.

        Healing happens when the iterator is exhausted; an abandoned partial
        iteration quarantines nothing.
        """
        if not self.path.exists():
            return
        # Partial disk writes can tear multi-byte sequences, so decode
        # permissively: a mangled line is quarantined as a unit either way.
        raw = self.path.read_text(encoding="utf-8", errors="replace")
        lines = raw.split("\n")
        torn_tail = bool(lines and lines[-1] != "")
        if lines and lines[-1] == "":
            lines.pop()
        corrupt: List[int] = []
        for lineno, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            record: object = None
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                record = None
            if isinstance(record, dict) and "label" in record:
                yield record
            elif not (torn_tail and lineno == len(lines) - 1):
                corrupt.append(lineno)
        if heal and corrupt:
            self._quarantine(lines, corrupt, torn_tail)

    def _quarantine(self, lines: List[str], corrupt: List[int], torn_tail: bool) -> None:
        """Move corrupt mid-file lines aside and rewrite the store without them."""
        bad = set(corrupt)
        with self.quarantine_path.open("a", encoding="utf-8") as fh:
            for lineno in corrupt:
                fh.write(lines[lineno] + "\n")
        keep = [line for lineno, line in enumerate(lines) if lineno not in bad]
        text = "\n".join(keep)
        if keep and not torn_tail:
            text += "\n"
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self.path)
        warnings.warn(
            f"{self.path}: quarantined {len(corrupt)} corrupt mid-file "
            f"record(s) into {self.quarantine_path.name}",
            RuntimeWarning,
            stacklevel=3,
        )

    def load(self) -> List[Dict[str, object]]:
        """Every intact record as a list (see :meth:`iter_records`)."""
        return list(self.iter_records())

    def resume_index(self) -> Mapping[Key, Dict[str, object]]:
        """The latest ``ok`` record per resume key, kept between calls.

        Built by :meth:`iter_records`, so torn tails are skipped and corrupt
        lines quarantined as on any read.  The index is trusted while the
        file's ``(st_dev, st_ino, st_size, st_mtime_ns)`` signature equals
        the one taken before the read that built it; a read during which the
        file changed is not kept.  This store's own :class:`BatchWriter`
        extends the index with what it writes; any other change to the file
        (another writer's append, a rewrite or truncation, a quarantine, a
        deletion) forces a rebuild.  A missing file is an empty index that
        is not kept, so a store that a run creates holds none of its records
        in memory until a later read builds the index from the file.

        The records are shared with the index: copy one before editing it.
        """
        signature = _signature(self.path)
        if self._index is not None and signature == self._index_signature:
            return MappingProxyType(self._index)
        index: Dict[Key, Dict[str, object]] = {}
        for record in self.iter_records():
            _index_record(index, record)
        kept = signature is not None and _signature(self.path) == signature
        self._index = index if kept else None
        self._index_signature = signature
        return MappingProxyType(index)

    def completed_keys(self) -> Set[Tuple[str, str]]:
        """Resume keys of every scenario already recorded as executed.

        Scenarios recorded as *errored* (the worker crashed, as opposed to a
        modelled :class:`~repro.transports.base.TransportFault` failure) are
        not treated as completed, so a re-run retries them.
        """
        return set(self.resume_index())

    def get(self, label: str, config_hash: str) -> Optional[Dict[str, object]]:
        """The most recent record for a resume key, or ``None``."""
        found: Optional[Dict[str, object]] = None
        for record in self.iter_records():
            if record.get("label") == label and record.get("config_hash") == config_hash:
                found = record
        return found

    # -- canonical view and merging ----------------------------------------
    def canonical_records(
        self, volatile: FrozenSet[str] = VOLATILE_KEYS
    ) -> List[Dict[str, object]]:
        """The store's order- and provenance-independent merged record set.

        One record per resume key — the latest ``ok`` record if any (an
        earlier failed attempt never shadows the retry that succeeded), else
        the latest record — sorted by key, with the ``volatile`` fields
        dropped.  Two stores that executed the same scenarios hold equal
        canonical records regardless of completion order, retries, or which
        host ran which shard.
        """
        latest: Dict[Tuple[str, str], Dict[str, object]] = {}
        for record in self.iter_records():
            key = (str(record.get("label")), str(record.get("config_hash", "")))
            previous = latest.get(key)
            if (
                previous is None
                or record.get("ok", True)
                or not previous.get("ok", True)
            ):
                latest[key] = record
        return [
            {k: v for k, v in latest[key].items() if k not in volatile}
            for key in sorted(latest)
        ]

    def canonical_bytes(self, volatile: FrozenSet[str] = VOLATILE_KEYS) -> bytes:
        """The canonical record set serialised as deterministic JSONL bytes.

        This is the byte-identity artefact of ``docs/campaigns.md``: a
        distributed campaign's store and a single-host sweep's store of the
        same spec serialise to equal bytes here.
        """
        lines = [
            json.dumps(record, sort_keys=True)
            for record in self.canonical_records(volatile)
        ]
        return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")

    def merge_from(self, other: "ResultStore") -> int:
        """Append ``other``'s records this store has no completed result for.

        The offline counterpart of the campaign coordinator's streaming
        merge: completed keys are never duplicated, failed attempts of keys
        already completed here are dropped, and everything else (including
        failures worth retrying) is appended verbatim.  Returns the number
        of records appended.
        """
        done = self.completed_keys()
        appended = 0
        for record in other.iter_records():
            key = (str(record.get("label")), str(record.get("config_hash", "")))
            if key in done:
                continue
            self.append(record)
            appended += 1
            if record.get("ok", True):
                done.add(key)
        return appended

    # -- writing -----------------------------------------------------------
    def append(self, record: Dict[str, object]) -> None:
        """Append one already-flattened record as a single JSON line.

        Opens, writes and closes the file per call (healing a torn tail
        first) — maximally crash-safe but slow for high-rate producers;
        batch writers should use :meth:`batch`.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _append_text(self.path, json.dumps(record, sort_keys=True) + "\n")

    def batch(self, flush_every: int = 16) -> "BatchWriter":
        """A buffered appender that writes ``flush_every`` records per open.

        Use as a context manager; records are flushed to disk every
        ``flush_every`` appends and on exit, so a crash mid-batch loses at
        most the records buffered since the last flush — every line that
        *did* reach the file is intact, which is all resume needs (the
        lost scenarios simply re-run).
        """
        return BatchWriter(self, flush_every=flush_every)


class BatchWriter:
    """Buffered batch-append handle of one :class:`ResultStore`.

    The JSONL contract is unchanged: one self-contained record per line,
    append-only.  What changes is the write path — records are buffered and
    every ``flush_every`` of them go out in one open and write instead of
    one per record.  No file handle is held between flushes, so a store
    file that a quarantine rewrote meanwhile receives the later lines; like
    :meth:`ResultStore.append`, each flush first heals a torn tail.

    When the store's resume index matched the file as the writer opened, the
    writer parses each completed record it writes and adds it to the index
    on :meth:`close` — provided the file then grew by exactly the bytes the
    writer wrote, healing newlines included.  Otherwise it drops the index.
    """

    def __init__(self, store: ResultStore, flush_every: int = 16):
        if flush_every <= 0:
            raise ValueError("flush_every must be positive")
        self.store = store
        self.flush_every = flush_every
        self.appended = 0
        #: Lines not yet written, or ``None`` while the writer is not open.
        self._pending: Optional[List[str]] = None
        #: Records written for the index, or ``None`` when not extending it.
        self._added: Optional[Dict[Key, Dict[str, object]]] = None
        #: ``(st_dev, st_ino, st_size)`` the file must show at close.
        self._expect: Tuple[int, int, int] = (0, 0, 0)

    def __enter__(self) -> "BatchWriter":
        store = self.store
        store.path.parent.mkdir(parents=True, exist_ok=True)
        self._pending = []
        indexed = store._index_signature  # never None while an index is kept
        if store._index is not None and _signature(store.path) == indexed:
            self._added = {}
            self._expect = indexed[:3]
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def append(self, record: Dict[str, object]) -> None:
        """Buffer one already-flattened record (flushed every ``flush_every``)."""
        if self._pending is None:
            raise RuntimeError("batch writer is not open; use it as a context manager")
        line = json.dumps(record, sort_keys=True) + "\n"
        self._pending.append(line)
        if self._added is not None and "label" in record:
            # Parse what was written, so the index holds what a re-read would.
            _index_record(self._added, json.loads(line))
        self.appended += 1
        if len(self._pending) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Append the buffered records to the file, healing a torn tail first."""
        if not self._pending:
            return
        written = _append_text(self.store.path, "".join(self._pending))
        self._pending.clear()
        dev, ino, size = self._expect
        self._expect = (dev, ino, size + written)

    def close(self) -> None:
        """Flush, then settle the index (idempotent)."""
        if self._pending is None:
            return
        self.flush()
        self._pending = None
        store, added, self._added = self.store, self._added, None
        signature = _signature(store.path)
        if (
            added is not None
            and store._index is not None
            and signature is not None
            and signature[:3] == self._expect
        ):
            store._index.update(added)
            store._index_signature = signature
        else:
            store._index = None
