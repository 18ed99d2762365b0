"""Per-layer measurement from outside the program: a sampler, counters, spans.

* :class:`Sampler` - a ``SIGPROF`` timer on process CPU.  At each sample,
  every thread's CPU since the previous sample is charged to the innermost
  frame of its stack that belongs to a ``repro.<layer>`` package, so stdlib
  work counts against its repro caller.  cProfile is not used: its per-call
  cost skews time towards call-heavy layers.
* :class:`Counters` - counting wrappers installed on public entry points for
  one pass and removed after it; the counts are model properties and repeat
  exactly.
* :class:`Spans` - timed spans around the layer boundaries the benchmark can
  see (store writes, coordinator round trips), kept in memory and written as
  JSONL at the end.

Nothing here edits the program's files: wrappers are set on classes at run
time and the originals are put back.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import sysconfig
import threading
from collections import Counter
from pathlib import Path
# Bound before the program is imported: the sanitizer wraps ``time.*``.
from time import clock_gettime, perf_counter, process_time, pthread_getcpuclockid
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: CPU seconds between two ``SIGPROF`` samples; the kernel rounds it up to
#: its scheduler tick.
SAMPLE_INTERVAL_S = 0.001

#: Layers a sample can be charged to; ``other`` is the interpreter, the
#: benchmark itself and repro packages off the simulation path.
LAYERS: Tuple[str, ...] = (
    "simcore",
    "cluster",
    "simmpi",
    "transports",
    "workflow",
    "elastic",
    "perfmodel",
    "faults",
    "tenants",
    "trace",
    "sanitize",
    "apps",
    "sweep",
    "campaign",
    "other",
)

#: Exact counts per counted pass.
COUNT_METRICS: Tuple[str, ...] = (
    "simcore.events",
    "simcore.dispatches",
    "cluster.transfers",
    "cluster.pfs_ops",
    "cluster.computes",
    "cluster.batches",
    "cluster.batch_declines",
    "transports.puts",
    "simmpi.messages",
)

#: Which end-to-end metrics each layer metric should move, on which
#: workloads, and where it should stay flat, written down before measuring:
#: ``(layer metrics, moves, on, predicted flat on)``; ``x.*`` is a prefix.
MOVES: Tuple[Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]], ...] = (
    (
        ("simcore.*", "cluster.transfers", "workflow.self_s"),
        ("wall_s", "events_per_s", "case_p90_ms"),
        ("figures", "control"),
        ("campaign",),
    ),
    (("cluster.batches", "cluster.batch_declines"), ("wall_s",), ("figures",), ("control", "instrumented")),
    (("transports.*", "simmpi.*"), ("wall_s",), ("figures",), ("campaign",)),
    (
        ("elastic.self_s", "perfmodel.self_s", "faults.self_s", "tenants.self_s"),
        ("wall_s",),
        ("control",),
        ("figures",),
    ),
    (("sanitize.self_s", "trace.self_s"), ("wall_s", "peak_rss_mb"), ("instrumented",), ("figures",)),
    (("sweep.*",), ("scenarios_per_s",), ("sweep",), ("figures",)),
    (("campaign.*",), ("wall_s",), ("campaign",), ("figures", "control", "instrumented", "sweep")),
    (("setup.*",), ("setup_s",), ("figures", "control", "instrumented", "sweep", "campaign"), ()),
)

#: Stdlib packages that, in these workloads, only one layer drives: the
#: sweep runner owns the only process pool and the coordinator the only
#: HTTP server.  Their threads hold no repro frame of their own.
STDLIB_OWNERS = {"multiprocessing": "sweep", "http": "campaign", "socketserver.py": "campaign"}

_STDLIB = os.path.realpath(sysconfig.get_paths()["stdlib"]) + os.sep


def layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` if no layer owns it.

    ``src/repro/<pkg>/...`` maps to ``<pkg>`` when it is one of
    :data:`LAYERS` and to ``other`` for the remaining repro packages;
    ``repro/sanitize.py`` is the sanitize layer; stdlib files listed in
    :data:`STDLIB_OWNERS` map to their owner.
    """
    path = os.path.realpath(filename)
    marker = os.sep + "repro" + os.sep
    cut = path.rfind(marker)
    if cut >= 0 and os.sep + "src" + os.sep in path[: cut + 1]:
        rest = path[cut + len(marker):]
        package = rest.split(os.sep, 1)[0]
        if package.endswith(".py"):
            package = package[:-3]
        return package if package in LAYERS else "other"
    if path.startswith(_STDLIB):
        top = path[len(_STDLIB):].split(os.sep, 1)[0]
        owner = STDLIB_OWNERS.get(top)
        if owner is not None:
            return "@" + owner  # owned stdlib: used only when no repro frame is found
    return None


class _Patches:
    """Class attributes replaced for one pass, restored by :meth:`remove`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def wrap(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make(original))

    def remove(self) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()


class Sampler(_Patches):
    """Statistical self time per layer from ``ITIMER_PROF`` samples.

    CPython runs signal handlers only in the main thread, between bytecodes,
    and timer expirations that arrive before the handler runs merge into
    one; the kernel also delivers at most one per scheduler tick (4 ms at
    250 Hz).  So a sample does not stand for a fixed amount of CPU, nor for
    the thread it interrupted.  Each sample instead charges every live
    thread the CPU its own clock advanced since the previous sample, to the
    layer of that thread's stack.  A thread started while sampling charges
    its last unsampled CPU as it ends, to the layer of its target: request
    threads of the coordinator often live less than one tick.  Whatever CPU
    is still left over at a sample (threads that ended unseen) is charged
    to the main thread's stack and counted in :attr:`ended`.
    """

    def __init__(self):
        super().__init__()
        #: CPU seconds charged to each layer.
        self.seconds: Counter = Counter()
        #: CPU seconds no live or ending thread accounted for.
        self.ended = 0.0
        self._cpu = 0.0
        #: Last reading of each thread's CPU clock, keyed by the clock id:
        #: unlike thread idents, it is not reused by the next thread.
        self._threads: Dict[int, float] = {}
        #: Held while a reading of ``_threads`` is turned into a charge, so
        #: an ending thread and the handler never charge the same CPU twice.
        self._lock = threading.Lock()
        self._sampling = False
        self._layers: Dict[object, Optional[str]] = {}

    def _layer(self, code) -> Optional[str]:
        try:
            return self._layers[code]
        except KeyError:
            layer = self._layers[code] = layer_of_file(code.co_filename)
            return layer

    def charge(self, frame) -> str:
        """The layer a stack is charged to (innermost repro frame wins)."""
        owner = None
        while frame is not None:
            layer = self._layer(frame.f_code)
            if layer is not None:
                if layer[0] != "@":
                    return layer
                owner = owner or layer[1:]
            frame = frame.f_back
        return owner or "other"

    def _spent(self, ident: int) -> float:
        """CPU seconds of thread ``ident`` since its last reading (``_lock`` held)."""
        clock = pthread_getcpuclockid(ident)
        used = clock_gettime(clock)
        spent = used - self._threads.get(clock, 0.0)
        self._threads[clock] = used
        return spent

    def _read_threads(self) -> List[Tuple[object, float]]:
        """``(stack, CPU seconds since the last reading)`` of each live thread.

        Called with the GIL and ``_lock`` held, so no listed thread can exit
        before its clock is read.
        """
        readings = []
        for ident, stack in sys._current_frames().items():
            try:
                readings.append((stack, self._spent(ident)))
            except OSError:
                continue
        return readings

    def _on_signal(self, _signum, frame) -> None:
        # Runs inside simulation steps too: use no clock the sanitizer
        # guards (these were bound before it) and no RNG.  Handlers nest,
        # so never wait for the lock: readings are cumulative, and the next
        # sample charges what this one skips.
        if not self._lock.acquire(blocking=False):
            return
        try:
            now = process_time()
            left, self._cpu = now - self._cpu, now
            for stack, spent in self._read_threads():
                self.seconds[self.charge(stack)] += spent
                left -= spent
            if left > 0:
                self.seconds[self.charge(frame)] += left
                self.ended += left
        finally:
            self._lock.release()

    def _charging_at_exit(self, run: Callable) -> Callable:
        sampler = self

        def charged_run(thread):
            target = getattr(thread, "_target", None)  # ``run`` deletes it
            try:
                run(thread)
            finally:
                code = getattr(target, "__code__", None)
                layer = (sampler._layer(code) if code is not None else None) or "other"
                with sampler._lock:
                    if sampler._sampling:
                        spent = sampler._spent(threading.get_ident())
                        sampler.seconds[layer.lstrip("@")] += spent
                        # The next sample's process reading includes it.
                        sampler._cpu += spent

        return charged_run

    def start(self) -> None:
        with self._lock:
            self._read_threads()  # CPU spent before the pass is not charged
            self._cpu = process_time()
            self._sampling = True
        self.wrap(threading.Thread, "run", self._charging_at_exit)
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.remove()
        with self._lock:
            self._sampling = False

    def fractions(self) -> Dict[str, float]:
        """Share of charged CPU per layer (every layer present, summing to 1)."""
        total = sum(self.seconds.values())
        return {layer: (self.seconds[layer] / total if total else 0.0) for layer in LAYERS}

    def ended_frac(self) -> float:
        """Share of the charged CPU that came from threads that ended between samples."""
        total = sum(self.seconds.values())
        return self.ended / total if total else 0.0


def _transport_classes() -> Iterator[type]:
    from repro.transports import Transport

    todo = list(Transport.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        yield cls


class Counters(_Patches):
    """Exact call counts on the kernel, cluster, transport and MPI entry points."""

    def __init__(self) -> None:
        super().__init__()
        self.counts: Counter = Counter()

    def _counting(self, key: str) -> Callable[[Callable], Callable]:
        counts = self.counts

        def make(original: Callable) -> Callable:
            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return counted

        return make

    def _batching(self, original: Callable) -> Callable:
        counts = self.counts

        def counted_batch(*args, **kwargs):
            counts["cluster.batches"] += 1
            elapsed = yield from original(*args, **kwargs)
            if elapsed is None:
                counts["cluster.batch_declines"] += 1
            return elapsed

        return counted_batch

    def install(self) -> None:
        from repro.cluster.network import Network
        from repro.cluster.node import ComputeNode
        from repro.cluster.pfs import ParallelFileSystem
        from repro.simcore.engine import Environment
        from repro.simmpi.comm import Communicator

        self.wrap(Environment, "step", self._counting("simcore.dispatches"))
        self.wrap(Network, "transfer", self._counting("cluster.transfers"))
        self.wrap(ParallelFileSystem, "write", self._counting("cluster.pfs_ops"))
        self.wrap(ParallelFileSystem, "read", self._counting("cluster.pfs_ops"))
        self.wrap(ComputeNode, "compute", self._counting("cluster.computes"))
        self.wrap(ComputeNode, "compute_batch", self._batching)
        self.wrap(Communicator, "send", self._counting("simmpi.messages"))
        for cls in _transport_classes():
            if "producer_put" in cls.__dict__:
                self.wrap(cls, "producer_put", self._counting("transports.puts"))


class Spans(_Patches):
    """Timed boundary spans, keyed by the case label where there is one."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[Dict[str, object]] = []
        self.parent = ""

    def _timed(self, name: str, span_id: Callable[..., str]) -> Callable[[Callable], Callable]:
        spans = self.spans

        def make(original: Callable) -> Callable:
            def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    spans.append(
                        {
                            "name": name,
                            "id": span_id(*args, **kwargs),
                            "parent": self.parent,
                            "start": start,
                            "end": perf_counter(),
                        }
                    )

            return timed

        return make

    def install(self) -> None:
        from repro.campaign.coordinator import Campaign
        from repro.campaign.protocol import CoordinatorClient
        from repro.sweep.store import BatchWriter, ResultStore

        def record_label(_self, record, *rest, **kw):
            return str(record.get("label", ""))

        def first_label(_self, _worker, lease_id, records, *rest, **kw):
            return str(records[0].get("label", "")) if records else str(lease_id)

        def nothing(*args, **kwargs):
            return ""

        self.wrap(BatchWriter, "append", self._timed("store_write", record_label))
        self.wrap(BatchWriter, "close", self._timed("store_write", nothing))
        self.wrap(ResultStore, "append", self._timed("store_write", record_label))
        self.wrap(CoordinatorClient, "lease", self._timed("lease", nothing))
        self.wrap(CoordinatorClient, "results", self._timed("results", first_label))
        self.wrap(Campaign, "handle_results", self._timed("handle_results", first_label))

    def durations(self, name: str) -> List[float]:
        return [float(s["end"]) - float(s["start"]) for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
