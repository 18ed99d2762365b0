"""Fan sweep cases out over worker processes, with isolation and resume.

The runner executes every :class:`~repro.sweep.spec.SweepCase` of a spec —
serially in-process (``workers=0``) or across a ``multiprocessing`` pool —
and yields one :class:`SweepRecord` per case.  Each case runs through
:func:`run_config`, the one dispatch over the case config types.  Guarantees:

* **Determinism** — each case gets a seed derived from its base seed and its
  label (not from its position or its worker), so parallel and serial runs of
  the same sweep produce identical results under ``deterministic=True``.
* **Failure isolation** — a modelled :class:`~repro.transports.base.TransportFault`
  yields a result with ``failed=True`` (as the paper reports Decaf's overflow),
  and an outright crash in one scenario yields an errored record; neither
  kills the rest of the sweep.
* **Resume** — with a :class:`~repro.sweep.store.ResultStore` (or a path)
  attached, scenarios whose ``(label, config-hash)`` key is already recorded
  are skipped and their stored summary is surfaced instead of being re-run.
  The per-case work is done once: a case dispatched again reuses its
  prepared (reseeded) case and cached hash, and the store keeps its resume
  index in memory between runs (see ``docs/sweep-format.md``).
* **Warm workers** — the process pool persists across :meth:`SweepRunner.run`
  calls, so grid families dispatched through one runner reuse already-forked
  workers instead of paying pool start-up per grid; cases are dispatched in
  chunks through ``imap_unordered``.  Call :meth:`SweepRunner.close` (or use
  the runner as a context manager) to release the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.simcore.rng import stable_hash
from repro.sweep.spec import AnyConfig, SweepCase, SweepSpec
from repro.sweep.store import ResultStore, result_payload
from repro.tenants.spec import TenantSpec
from repro.workflow.config import WorkflowConfig
from repro.workflow.result import WorkflowResult

__all__ = [
    "SweepRecord",
    "SweepRunner",
    "classify_error",
    "derive_case_seed",
    "prepare_cases",
    "run_cases",
    "run_config",
    "run_labelled",
]

#: Anything accepted as the work list of a sweep run.
Cases = Union[SweepSpec, Sequence[SweepCase], Sequence[Tuple[str, AnyConfig]]]

ProgressCallback = Callable[["SweepRecord", int, int], None]


def derive_case_seed(base_seed: int, label: str) -> int:
    """Per-case seed, stable across runs and independent of execution order."""
    return (int(base_seed) ^ stable_hash(label)) % (2**31 - 1) + 1


#: Exception families worth retrying: the environment (not the scenario)
#: failed, so a later attempt on a healthy host can succeed.  ``OSError``
#: covers the I/O, connection and timeout hierarchy since Python 3.3.
_TRANSIENT_EXCEPTIONS = (OSError, MemoryError, EOFError, BrokenPipeError)


def classify_error(exc: BaseException) -> str:
    """Classify a crash as ``"transient"`` (retryable) or ``"permanent"``.

    Deterministic scenarios fail deterministically: a ``ValueError`` from a
    config will raise again on every retry, so it is permanent, while
    resource exhaustion and I/O faults are properties of the host that ran
    the case.  Campaign schedulers retry transient records with backoff and
    quarantine permanent ones immediately (see ``docs/campaigns.md``).
    """
    return "transient" if isinstance(exc, _TRANSIENT_EXCEPTIONS) else "permanent"


@dataclass
class SweepRecord:
    """Outcome of one sweep case.

    ``ok`` is False only when the scenario *crashed* (an unexpected exception
    escaped the workflow runner); a modelled transport fault is a successful
    record whose result has ``failed=True``.
    """

    label: str
    config_hash: str
    seed: int
    ok: bool = True
    skipped: bool = False
    error: str = ""
    #: Failure classification for crashed records: ``"transient"`` (retry
    #: may succeed), ``"permanent"`` (deterministic crash), ``"timeout"``
    #: (killed past ``case_timeout_seconds``) or ``"lost"`` (the worker
    #: process died without reporting).  Empty for successful records.
    error_kind: str = ""
    elapsed: float = 0.0
    result: Optional[WorkflowResult] = None
    #: Stored summary for records resumed from a result store.
    summary: Dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Whether the scenario is unusable (crashed or modelled failure)."""
        if not self.ok:
            return True
        if self.result is not None:
            return self.result.failed
        return bool(self.summary.get("failed", False))

    def payload(self) -> Dict[str, object]:
        """The JSON-safe line written to a result store."""
        record: Dict[str, object] = {
            "label": self.label,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "ok": self.ok,
            "error": self.error,
            "elapsed": self.elapsed,
        }
        if self.error_kind:
            record["error_kind"] = self.error_kind
        if self.result is not None:
            record.update(result_payload(self.result))
        return record


def run_config(config: AnyConfig) -> WorkflowResult:
    """Run one case's configuration, whatever its type.

    The one dispatch over case types: a :class:`TenantSpec` runs on its
    shared facility, a two-application :class:`WorkflowConfig` as the
    two-stage pipeline it builds, and a pipeline spec as itself.
    """
    from repro.tenants.scheduler import run_tenants
    from repro.workflow.runner import run_pipeline

    if isinstance(config, TenantSpec):
        return run_tenants(config)
    if isinstance(config, WorkflowConfig):
        config = config.to_pipeline()
    return run_pipeline(config)


def _execute_case(payload: Tuple[int, str, str, AnyConfig]) -> Tuple[int, SweepRecord]:
    """Run one case; module-level so worker processes can unpickle it."""
    index, label, digest, config = payload
    record = SweepRecord(label=label, config_hash=digest, seed=config.seed)
    start = time.perf_counter()
    try:
        record.result = run_config(config)
    except Exception as exc:  # noqa: BLE001 - one bad scenario must not kill the sweep
        record.ok = False
        record.error = traceback.format_exc(limit=8)
        record.error_kind = classify_error(exc)
    record.elapsed = time.perf_counter() - start
    return index, record


#: Seconds a timed case child lives past its case timeout before its own
#: deadline ends it, so that a live parent's kill always lands first.
_CHILD_GRACE_SECONDS = 1.0


def _execute_case_to_pipe(
    payload: Tuple[int, str, str, AnyConfig], sender, timeout: float
) -> None:
    """Child-process entry of the timed path: run one case, send its record.

    The child first arms its own deadline, ``timeout`` plus a grace: the
    default SIGALRM action ends it even when its parent was killed and can
    no longer kill it.
    """
    import signal

    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    signal.setitimer(signal.ITIMER_REAL, timeout + _CHILD_GRACE_SECONDS)
    sender.send(_execute_case(payload)[1])


def prepare_cases(
    cases: Cases, reseed: bool = True, trace: Optional[bool] = None
) -> List[SweepCase]:
    """The exact case list a :class:`SweepRunner` with these settings executes.

    Applies the runner's per-case preparation (label-derived reseeding and
    the sweep-wide trace override) without running anything.  Campaign
    coordinators and workers both shard over this list so their resume keys
    and records match a single-host run byte for byte.
    """
    runner = SweepRunner(workers=0, reseed=reseed, trace=trace)
    return [runner._prepare(case) for case in runner._as_cases(cases)]


class SweepRunner:
    """Execute a sweep, optionally across a process pool and against a store.

    Parameters
    ----------
    workers:
        ``0`` (or ``1``) runs in-process and serially; ``n > 1`` fans out over
        an ``n``-process pool.  ``None`` uses the machine's CPU count.
    store:
        Optional :class:`ResultStore`, or the path of one, recording every
        executed case and providing resume.  Each case is prepared and hashed
        once: dispatching the same :class:`SweepCase` objects again reuses
        them, and the store's in-memory resume index replaces a re-read of
        the file.
    reseed:
        Derive a per-case seed from the config's seed and the case label
        (default).  Disable to run every case with its config's seed verbatim.
    trace:
        ``None`` leaves each config's ``trace`` flag untouched; ``True`` /
        ``False`` overrides it sweep-wide (sweeps default the flag off via the
        bench specs, since traces dominate pickling and memory cost).
    progress:
        Callback ``(record, done, total)`` invoked as records arrive
        (completion order under a pool, case order when serial).
    case_timeout_seconds:
        Wall-clock budget per case.  A case still running past it is
        *killed* and recorded as a failed record with
        ``error_kind="timeout"``, and its slot is immediately replenished —
        one hung scenario can no longer stall the whole sweep.  Enforcing a
        kill requires process isolation, so with a timeout set every case
        runs in a fresh child process (even at ``workers=0``, where one
        child runs at a time) instead of through the persistent pool.
    """

    def __init__(
        self,
        workers: Optional[int] = 0,
        store: Union[ResultStore, str, os.PathLike, None] = None,
        reseed: bool = True,
        trace: Optional[bool] = None,
        progress: Optional[ProgressCallback] = None,
        case_timeout_seconds: Optional[float] = None,
    ):
        if workers is None:
            workers = multiprocessing.cpu_count()
        if workers < 0:
            raise ValueError("workers must be non-negative")
        # NaN too: a NaN deadline never passes.
        if case_timeout_seconds is not None and not case_timeout_seconds > 0:
            raise ValueError("case_timeout_seconds must be positive")
        self.case_timeout_seconds = case_timeout_seconds
        self.workers = int(workers)
        self.store = ResultStore(store) if isinstance(store, (str, os.PathLike)) else store
        self.reseed = reseed
        self.trace = trace
        self.progress = progress
        #: Records flushed to the store after this many buffered appends.
        self.store_flush_every = 16
        self._pool = None
        self._pool_size = 0

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self, size_hint: int):
        """The persistent worker pool, created on first parallel dispatch.

        Sized at ``min(workers, size_hint)`` so a small dispatch does not
        fork idle workers; a warm pool is reused as long as it is big enough
        for the new dispatch, and grown (recreated) when a later, larger
        grid arrives.
        """
        desired = min(self.workers, max(1, size_hint))
        if self._pool is not None and self._pool_size < desired:
            self.close()
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=desired)
            self._pool_size = desired
        return self._pool

    def close(self) -> None:
        """Release the persistent worker pool (idempotent; runner stays usable)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_size = 0

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # noqa: D105 - best-effort cleanup
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter may be shutting down
            pass

    # -- preparation -------------------------------------------------------
    @staticmethod
    def _as_cases(cases: Cases) -> List[SweepCase]:
        if isinstance(cases, SweepSpec):
            return cases.cases()
        out: List[SweepCase] = []
        for case in cases:
            out.append(case if isinstance(case, SweepCase) else SweepCase(*case))
        return out

    def _prepare(self, case: SweepCase) -> SweepCase:
        """The case as this runner executes it: reseeded, trace overridden.

        The result is cached on ``case`` under the runner's ``(reseed,
        trace)``, so a case dispatched again keeps its prepared case and that
        case's cached digest; other settings prepare it again.
        """
        cached = case._prepared
        if cached is not None and cached[0] == self.reseed and cached[1] == self.trace:
            return cached[2] or case
        config = case.config
        changes: Dict[str, object] = {}
        if self.trace is not None and config.trace != self.trace:
            changes["trace"] = self.trace
        if self.reseed:
            seed = derive_case_seed(config.seed, case.label)
            if seed != config.seed:
                changes["seed"] = seed
        prepared = SweepCase(case.label, config.replace(**changes)) if changes else None
        case._prepared = (self.reseed, self.trace, prepared)
        return prepared or case

    # -- execution ---------------------------------------------------------
    def run(self, cases: Cases) -> List[SweepRecord]:
        """Run (or resume) the sweep; records are returned in case order."""
        prepared = [self._prepare(case) for case in self._as_cases(cases)]
        total = len(prepared)
        done = 0
        records: List[Optional[SweepRecord]] = [None] * total

        # The latest intact record per resume key (crashed records are
        # excluded so a re-run retries them).
        stored = self.store.resume_index() if self.store is not None else {}

        pending: List[Tuple[int, str, str, AnyConfig]] = []
        for index, case in enumerate(prepared):
            digest = case.config_digest
            summary = stored.get((case.label, digest))
            if summary is not None:
                # A copy: the store's index outlives this run.
                record = SweepRecord(
                    label=case.label,
                    config_hash=digest,
                    seed=case.config.seed,
                    skipped=True,
                    summary=dict(summary),
                )
                records[index] = record
                done += 1
                if self.progress is not None:
                    self.progress(record, done, total)
            else:
                pending.append((index, case.label, digest, case.config))

        writer = (
            self.store.batch(flush_every=self.store_flush_every)
            if self.store is not None
            else None
        )

        def _collect(index: int, record: SweepRecord) -> None:
            nonlocal done
            records[index] = record
            done += 1
            if writer is not None and not record.skipped:
                writer.append(record.payload())
            if self.progress is not None:
                self.progress(record, done, total)

        try:
            if writer is not None:
                writer.__enter__()
            if self.case_timeout_seconds is not None and pending:
                self._run_with_timeout(pending, _collect)
            elif self.workers > 1 and len(pending) > 1:
                # Chunked dispatch over the persistent pool: one IPC round per
                # chunk instead of per case, sized so every worker still gets
                # several chunks for load balancing.
                chunksize = max(1, len(pending) // (self.workers * 4))
                pool = self._ensure_pool(len(pending))
                try:
                    for index, record in pool.imap_unordered(
                        _execute_case, pending, chunksize=chunksize
                    ):
                        _collect(index, record)
                except BaseException:
                    # A transport error inside a case is captured in its
                    # record; reaching here means the pool itself broke
                    # (unpicklable case, dead worker) or the parent is being
                    # torn down (KeyboardInterrupt) — terminate the workers
                    # now rather than leaking them, and start the next run()
                    # from a clean pool.
                    self.close()
                    raise
            else:
                for payload in pending:
                    index, record = _execute_case(payload)
                    _collect(index, record)
        finally:
            if writer is not None:
                writer.close()

        return [r for r in records if r is not None]

    def _run_with_timeout(
        self,
        pending: List[Tuple[int, str, str, AnyConfig]],
        collect: Callable[[int, SweepRecord], None],
    ) -> None:
        """Run cases in killable child processes under the per-case deadline.

        Up to ``max(1, workers)`` children run at once.  Each executes one
        case and sends its record back over its own one-way pipe, and the
        parent waits on the open pipes until the nearest deadline.  A pipe
        that reads end-of-file instead of a record means its child died
        without reporting (OOM-killed, crashed interpreter): the case is
        recorded as ``lost``.  A child past ``case_timeout_seconds`` whose
        pipe still holds no record is killed and the case recorded as a
        ``timeout``.  Either way the slot is replenished with the next
        pending case.
        """
        # Imported here: only this path needs it, and every module loaded
        # with the runner adds to the resident size of in-process runs.
        from multiprocessing.connection import wait

        limit = max(1, self.workers)
        timeout = float(self.case_timeout_seconds or 0.0)
        todo = pending[::-1]
        # receiving end -> (process, payload, deadline)
        active: Dict[object, Tuple[object, Tuple[int, str, str, AnyConfig], float]] = {}

        def _fail_record(payload, kind: str, message: str) -> SweepRecord:
            _index, label, digest, config = payload
            return SweepRecord(
                label=label,
                config_hash=digest,
                seed=config.seed,
                ok=False,
                error=message,
                error_kind=kind,
                elapsed=timeout if kind == "timeout" else 0.0,
            )

        def _finish(reader, record: SweepRecord) -> None:
            proc, payload, _deadline = active.pop(reader)
            proc.join()
            reader.close()
            collect(payload[0], record)

        def _receive(reader) -> None:
            try:
                record = reader.recv()
            except EOFError:
                proc, payload, _deadline = active[reader]
                proc.join()
                record = _fail_record(
                    payload,
                    "lost",
                    f"lost: worker process died with exit code {proc.exitcode} "
                    "before reporting a record",
                )
            _finish(reader, record)

        try:
            while todo or active:
                # Replenish: keep `limit` children running while work remains.
                while todo and len(active) < limit:
                    payload = todo.pop()
                    reader, sender = multiprocessing.Pipe(duplex=False)
                    proc = multiprocessing.Process(
                        target=_execute_case_to_pipe,
                        args=(payload, sender, timeout),
                        daemon=True,
                    )
                    proc.start()
                    sender.close()  # the child holds the only sending end
                    active[reader] = (proc, payload, time.monotonic() + timeout)

                nearest = min(deadline for _, _, deadline in active.values())
                for reader in wait(list(active), max(0.0, nearest - time.monotonic())):
                    _receive(reader)

                now = time.monotonic()
                for reader, (proc, payload, deadline) in list(active.items()):
                    if now < deadline:
                        continue
                    if reader.poll():  # a record sent before the deadline wins
                        _receive(reader)
                        continue
                    proc.kill()
                    _finish(
                        reader,
                        _fail_record(
                            payload,
                            "timeout",
                            f"timeout: case exceeded {timeout:g}s and was killed",
                        ),
                    )
        except BaseException:
            for reader, (proc, _payload, _deadline) in active.items():
                proc.kill()
                proc.join()
                reader.close()
            raise

    def run_labelled(self, cases: Cases) -> Dict[str, WorkflowResult]:
        """Run the sweep and return ``{label: WorkflowResult}`` per executed case.

        A case that *crashed* (as opposed to a modelled transport fault, which
        yields a result with ``failed=True``) raises here with its captured
        traceback — callers of this convenience index the dict by label, and a
        silently missing key would bury the real error.  Skipped (resumed)
        cases carry no in-memory result and are omitted; use :meth:`run` when
        the per-record status matters.
        """
        records = self.run(cases)
        crashed = [r for r in records if not r.ok]
        if crashed:
            raise RuntimeError(
                f"{len(crashed)} sweep case(s) crashed; first was "
                f"{crashed[0].label!r}:\n{crashed[0].error}"
            )
        return {
            record.label: record.result
            for record in records
            if record.result is not None
        }


def run_cases(cases: Cases, workers: int = 0, **kwargs) -> List[SweepRecord]:
    """One-shot convenience around :class:`SweepRunner.run`."""
    return SweepRunner(workers=workers, **kwargs).run(cases)


def run_labelled(cases: Cases, workers: int = 0, **kwargs) -> Dict[str, WorkflowResult]:
    """One-shot convenience around :class:`SweepRunner.run_labelled`."""
    return SweepRunner(workers=workers, **kwargs).run_labelled(cases)
