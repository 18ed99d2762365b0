"""The benchmark's five workloads, driven only through the program's public APIs.

Every workload builds its cases from a seed, warms up, then runs timed
*passes* over a fixed amount of work.  A pass returns the canonical store
payloads of its cases (``VOLATILE_KEYS`` dropped, as
``ResultStore.canonical_records`` does) and a sha256 over
``ResultStore.canonical_bytes``, so every workload is checked the same way:
the events it processed, which cases failed as the model says they must,
and the digest.  A pass's times are taken with a :class:`HostMeter`: its
units are the cases of a serial workload and of ``campaign``, and the
dispatches of ``sweep``; every time is reported at the reference speed
(``hostspeed.py``).

Why these five (see ``README.md`` for the layer each one stresses):

* ``figures`` - every paper grid at default scale, serial, in-process: the
  result users wait for.  Compute coalescing on; no control layer.
* ``control`` - elastic, model-driven, fault and tenant grids: every control
  layer fires and compute coalescing never does.
* ``instrumented`` - the same kernel with tracing and the sanitizer on.
* ``sweep`` - ~1,150 tiny cases through a 2-process pool into a JSONL store,
  then a resume pass in which every case skips: dispatch and store cost.
* ``campaign`` - coordinator + one worker over localhost HTTP: protocol cost.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import process_time
from typing import Dict, List, Sequence, Tuple

from hostspeed import HostMeter

#: Downsizing knobs of the ``python -m repro.sweep`` grids that the sweep and
#: campaign workloads run (about 3 ms of simulation per case).
SMALL_GRID = {"steps": 2, "sim_ranks": 2, "data_mib": 8}

#: Label replicas of the sweep workload's grids (distinct labels reseed).
SWEEP_REPLICAS = 10


def canonical_digest(records: Sequence[Dict[str, object]]) -> str:
    """sha256 over records in ``ResultStore.canonical_bytes`` form, for runs without a store."""
    keyed = sorted(records, key=lambda r: (str(r.get("label")), str(r.get("config_hash", ""))))
    blob = "".join(json.dumps(record, sort_keys=True) + "\n" for record in keyed)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def store_digest(stores) -> str:
    """sha256 over the ``canonical_bytes`` of each store, in order."""
    digest = hashlib.sha256()
    for store in stores:
        digest.update(store.canonical_bytes())
    return digest.hexdigest()


@dataclass
class PassResult:
    """What one timed pass did, measured from outside the program."""

    #: Seconds of the pass at the reference speed.
    wall: float
    #: Host seconds of the pass, reference ticks excluded.
    host_wall: float
    #: CPU seconds of the driving process (all its threads) during the pass.
    cpu: float
    #: Seconds of each executed case (``SweepRecord.elapsed``) at the
    #: reference speed of its unit.
    elapsed: List[float]
    #: Canonical payload of each executed case.
    records: List[Dict[str, object]]
    #: sha256 of the canonical payloads.
    digest: str
    #: Boundary timings the workload takes itself (seconds).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Correctness problems found inside the pass.
    problems: List[str] = field(default_factory=list)

    def summary(self) -> Dict[str, object]:
        """JSON-safe digest of the pass: counts, failures and payload hashes."""
        ok = [r for r in self.records if r.get("ok", True)]
        return {
            "wall": self.wall,
            "host_wall": self.host_wall,
            "cases": len(self.records),
            "events": sum(int(float(r["stats"]["events_processed"])) for r in ok),
            "failures": sorted(str(r["label"]) for r in ok if r.get("failed")),
            "crashed": len(self.records) - len(ok),
            "digest": self.digest,
            "problems": list(self.problems),
        }


def _canonical(payload: Dict[str, object]) -> Dict[str, object]:
    from repro.sweep.store import VOLATILE_KEYS

    return {k: v for k, v in payload.items() if k not in VOLATILE_KEYS}


def _offset_seeds(cases, seed: int):
    """Shift every case's base seed by ``seed`` (the runner reseeds by label after)."""
    from repro.sweep.spec import SweepCase

    if not seed:
        return list(cases)
    return [SweepCase(c.label, c.config.replace(seed=c.config.seed + seed)) for c in cases]


def _small_spec(figure: str):
    from repro.campaign.protocol import resolve_spec, spec_descriptor

    return resolve_spec(spec_descriptor(figure, **SMALL_GRID))


class Workload:
    """One named workload: set-up in three timed phases, then timed passes."""

    name = ""
    #: Seconds of one pass at the reference speed, as measured when the
    #: benchmark was defined; fixes the pass count for a run length, so both
    #: sides of a comparison do the same work.
    nominal_pass_s = 1.0

    def __init__(self, seed: int, workdir: Path, reference: bool = True):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        #: Tick the reference loop between units (off in traced runs).
        self.reference = reference
        self.cases: list = []

    def load(self) -> None:
        """Import the program (``setup.import_s``)."""
        import repro.bench.experiments  # noqa: F401
        import repro.sweep.runner  # noqa: F401

    def expand(self) -> None:
        """Build the case list (``setup.expand_s``)."""

    def warm(self) -> None:
        """Start pools and servers and warm caches (``setup.warm_s``)."""

    def run_pass(self) -> PassResult:
        """One timed pass over the workload's cases."""
        raise NotImplementedError

    def verify(self, last: PassResult) -> List[str]:
        """Checks beyond the pass digests; returns the problems found."""
        return []

    def close(self) -> None:
        """Stop pools and servers."""


class SerialWorkload(Workload):
    """Grids run serially in-process through one ``SweepRunner``."""

    #: ``trace`` override of the runner (``None`` keeps each case's flag).
    trace_override = False
    #: ``repro.bench.experiments`` spec functions, one grid each.
    specs: Tuple[str, ...] = ()

    def grids(self) -> List[list]:
        """The workload's case lists, one per grid."""
        from repro.bench import experiments as ex

        return [getattr(ex, spec)().cases() for spec in self.specs]

    def expand(self) -> None:
        self._grids = [_offset_seeds(grid, self.seed) for grid in self.grids()]
        self.cases = [case for grid in self._grids for case in grid]

    def warm(self) -> None:
        from repro.sweep.runner import SweepRunner

        self.runner = SweepRunner(workers=0, trace=self.trace_override)
        self.runner.run([grid[0] for grid in self._grids])

    def run_pass(self) -> PassResult:
        # One unit per case: the runner reports each finished case, in order.
        meter = HostMeter(self.reference)
        self.runner.progress = lambda _record, _done, _total: meter.tick()
        cpu = process_time()
        meter.start()
        records = self.runner.run(self.cases)
        meter.stop()
        cpu = process_time() - cpu
        self.runner.progress = None
        factors = meter.factors()
        canonical = [_canonical(r.payload()) for r in records]
        return PassResult(
            wall=sum(meter.scaled()),
            host_wall=sum(meter.units),
            cpu=cpu,
            elapsed=[r.elapsed * f for r, f in zip(records, factors)],
            records=canonical,
            digest=canonical_digest(canonical),
        )


class Figures(SerialWorkload):
    name = "figures"
    nominal_pass_s = 7.0
    specs = (
        "figure2_spec",
        "figure12_spec",
        "figure13_spec",
        "figure14_spec",
        "figure16_spec",
        "figure18_spec",
    )


class Control(SerialWorkload):
    name = "control"
    nominal_pass_s = 2.9
    specs = (
        "elastic_vs_static_spec",
        "model_vs_threshold_spec",
        "fault_recovery_spec",
        "tenant_contention_spec",
    )


class Instrumented(SerialWorkload):
    name = "instrumented"
    nominal_pass_s = 3.1
    trace_override = None

    def grids(self) -> List[list]:
        from repro.bench import experiments as ex
        from repro.sweep.spec import SweepCase

        shapes = ex.pipeline_shapes_spec(steps=48, core_counts=(384, 768, 1536)).cases()
        return [
            [SweepCase(f"{c.label}#trace", c.config.replace(trace=True)) for c in shapes],
            [SweepCase(f"{c.label}#sanitize", c.config.replace(sanitize=True)) for c in shapes],
            [
                SweepCase(f"figure2/{c.label}#trace", c.config.replace(trace=True))
                for c in ex.figure2_spec().cases()
            ],
        ]


class Sweep(Workload):
    name = "sweep"
    nominal_pass_s = 2.8
    workers = 2

    def load(self) -> None:
        super().load()
        import repro.campaign.protocol  # noqa: F401

    def expand(self) -> None:
        from repro.sweep.spec import SweepCase

        base = [
            case
            for figure in ("figure14", "figure16", "figure18", "figure2")
            for case in _small_spec(figure).cases()
        ]
        self._groups = [
            _offset_seeds([SweepCase(f"{case.label}#r{k}", case.config) for case in base], self.seed)
            for k in range(SWEEP_REPLICAS)
        ]
        self.cases = [case for group in self._groups for case in group]
        self._passes = 0

    def warm(self) -> None:
        from repro.sweep.runner import SweepRunner
        from repro.sweep.store import ResultStore

        self.runner = SweepRunner(workers=self.workers)
        self.runner.store = ResultStore(self.workdir / "sweep-warm.jsonl")
        self.runner.run(self.cases[:32])
        self.runner.run(self.cases[:32])

    def run_pass(self) -> PassResult:
        from repro.sweep.store import ResultStore

        self._passes += 1
        store = ResultStore(self.workdir / f"sweep-{self._passes}.jsonl")
        self.runner.store = store
        # One unit per replica's dispatch, then the resume pass over all of
        # them.  The pool is idle during a tick, so the tick sees the host
        # the way a serial workload's does.
        meter = HostMeter(self.reference)
        records, factors = [], []
        cpu = process_time()
        meter.start()
        for group in self._groups:
            records += self.runner.run(group)
            meter.tick()
        resumed = self.runner.run(self.cases)
        meter.stop()
        cpu = process_time() - cpu
        scaled = meter.scaled()
        for group, factor in zip(self._groups, meter.factors()):
            factors += [factor] * len(group)
        problems = []
        skipped = sum(1 for r in resumed if r.skipped)
        if skipped != len(self.cases):
            problems.append(f"resume re-ran {len(self.cases) - skipped} case(s)")
        result = PassResult(
            wall=sum(scaled),
            host_wall=sum(meter.units),
            cpu=cpu,
            elapsed=[r.elapsed * f for r, f in zip(records, factors)],
            records=store.canonical_records(),
            digest=store_digest([store]),
            extra={"resume_s": scaled[-1]},
            problems=problems,
        )
        store.path.unlink()
        return result

    def close(self) -> None:
        self.runner.close()


class CampaignWorkload(Workload):
    name = "campaign"
    nominal_pass_s = 0.68
    figures = ("figure14", "figure16", "figure18")

    def load(self) -> None:
        super().load()
        import repro.campaign.coordinator  # noqa: F401
        import repro.campaign.worker  # noqa: F401

    def expand(self) -> None:
        from repro.campaign.protocol import campaign_cases, spec_descriptor

        # The protocol carries no seed: a descriptor names its grid exactly,
        # so this workload's inputs are the same for every seed.
        self.descriptors = [spec_descriptor(f, **SMALL_GRID) for f in self.figures]
        self.cases = [c for d in self.descriptors for c in campaign_cases(d)]
        self._passes = 0
        self._stoppers: List[threading.Thread] = []

    def _stop_later(self, server) -> None:
        # Shutdown waits out the poll interval of ``serve_forever`` (up to
        # 0.5 s) with the server already idle: it overlaps the next campaign
        # instead of being timed or waited for.
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        self._stoppers.append(stopper)

    def _campaign(self, descriptor, store_name: str, meter: HostMeter):
        """Run one campaign to completion; returns (cpu, store, server).

        The worker calls its ``failure_hook`` before each case, so ``meter``
        gets one unit for the start-up and one per case: case ``k`` ends in
        unit ``k + 1``, with the results request that follows it.
        """
        from repro.campaign.coordinator import Campaign, CoordinatorServer
        from repro.campaign.worker import CampaignWorker
        from repro.sweep.store import ResultStore

        store = ResultStore(self.workdir / store_name)
        cpu = process_time()
        meter.start()
        server = CoordinatorServer(Campaign(descriptor, store)).start()
        CampaignWorker(
            server.url, name="bench-worker", failure_hook=lambda _label: meter.tick()
        ).run()
        meter.tick()
        return process_time() - cpu, store, server

    def warm(self) -> None:
        from repro.campaign.protocol import spec_descriptor

        _c, _store, server = self._campaign(
            spec_descriptor("figure2", **SMALL_GRID), "campaign-warm.jsonl", HostMeter(False)
        )
        self._stop_later(server)

    def run_pass(self) -> PassResult:
        self._passes += 1
        meter = HostMeter(self.reference)
        cpu = 0.0
        #: Per executed case, in run order: (host seconds, its unit in ``meter``).
        timed: List[Tuple[float, int]] = []
        records: List[Dict[str, object]] = []
        stores = []
        problems = []
        for descriptor in self.descriptors:
            first = len(meter.units) + 1
            used, store, server = self._campaign(
                descriptor, f"campaign-{self._passes}-{descriptor['figure']}.jsonl", meter
            )
            cpu += used
            self._stop_later(server)
            # One worker appends results in the order it ran the cases.
            ran = [float(r["elapsed"]) for r in store.iter_records()]
            if len(meter.units) != first + len(ran):
                problems.append(f"{descriptor['figure']}: cases and timed units differ")
            timed += [(seconds, first + k) for k, seconds in enumerate(ran)]
            records.extend(store.canonical_records())
            stores.append(store)
        digest = store_digest(stores)
        for store in stores:
            store.path.unlink()
        wall = sum(meter.scaled())
        factors = meter.factors()
        elapsed = [seconds * factors[unit] for seconds, unit in timed]
        return PassResult(
            wall=wall,
            host_wall=sum(meter.units),
            cpu=cpu,
            elapsed=elapsed,
            records=records,
            digest=digest,
            # Host time per case outside case execution: the protocol's cost.
            extra={"overhead_s_per_case": (wall - sum(elapsed)) / len(records)},
            problems=problems,
        )

    def verify(self, last: PassResult) -> List[str]:
        """The campaign stores must hold exactly what a serial sweep writes."""
        from repro.campaign.protocol import resolve_spec
        from repro.sweep.runner import SweepRunner
        from repro.sweep.store import ResultStore

        stores = []
        for descriptor in self.descriptors:
            store = ResultStore(self.workdir / f"serial-{descriptor['figure']}.jsonl")
            SweepRunner(workers=0, store=store, trace=False).run(resolve_spec(descriptor))
            stores.append(store)
        serial = store_digest(stores)
        for store in stores:
            store.path.unlink()
        if serial != last.digest:
            return ["campaign stores differ from a serial sweep of the same grids"]
        return []

    def close(self) -> None:
        for stopper in self._stoppers:
            stopper.join()


WORKLOADS = {
    cls.name: cls for cls in (Figures, Control, Instrumented, Sweep, CampaignWorkload)
}
