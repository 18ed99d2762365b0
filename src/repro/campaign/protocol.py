"""Wire protocol shared by the campaign coordinator and its workers.

Everything on the wire is JSON over HTTP/1.1 (stdlib only: ``http.server``
on the coordinator, ``http.client`` here).  Each :class:`CoordinatorClient`
keeps one persistent connection, so a worker's requests share one TCP
connection and one coordinator thread.  Configurations never travel:
a campaign is identified by a small **spec descriptor** — the figure name
plus the CLI downsizing knobs — and both sides expand it independently
through :func:`repro.sweep.cli.build_spec` and prepare it with
:func:`repro.sweep.runner.prepare_cases`.  The deterministic grids make
both expansions identical, which the worker verifies case by case against
the ``(label, config_hash)`` identities the coordinator leases out; a
mismatch (version skew between hosts) aborts loudly instead of corrupting
the store.

Endpoints (all responses are JSON bodies with HTTP 200):

===========  ======  ====================================================
``/spec``    GET     descriptor + execution knobs for joining workers
``/status``  GET     board snapshot, store path, worker census
``/lease``   POST    ``{worker}`` -> a shard lease, ``wait`` or ``complete``
``/heartbeat``  POST ``{worker, lease_id}`` -> ``{ok}`` (``false`` = abandon)
``/results`` POST    ``{worker, lease_id, records, done}`` -> merge ack
===========  ======  ====================================================

A worker sends each record in its own ``/results`` request and sets
``done`` on its shard's last record, which retires the lease once the
record is merged.  The answer's ``complete`` field tells it when the
campaign has nothing left to run, so it sends no ``/results`` request
without a record and no ``/lease`` request once an answer said
``complete``.  A ``done`` request with no records still retires a lease.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import urllib.parse
from typing import Dict, List, Optional

__all__ = [
    "CoordinatorClient",
    "CoordinatorUnreachable",
    "DESCRIPTOR_KNOBS",
    "PROTOCOL_VERSION",
    "add_descriptor_arguments",
    "campaign_cases",
    "resolve_spec",
    "spec_descriptor",
]

#: Bumped on incompatible wire or sharding changes; both sides check it.
PROTOCOL_VERSION = 1

#: Descriptor knobs and their defaults.  The ``repro.sweep`` and campaign
#: ``serve`` parsers both add them through :func:`add_descriptor_arguments`,
#: so a descriptor names the same grid a local sweep would run.
DESCRIPTOR_KNOBS: Dict[str, object] = {
    "steps": 4,
    "steps_cap": 64,
    "sim_ranks": 4,
    "data_mib": 32,
    "cores": "",
}

_KNOB_HELP: Dict[str, str] = {
    "steps": "workflow steps per scenario",
    "steps_cap": "step cap for figure12/13",
    "sim_ranks": "representative simulation ranks",
    "data_mib": "per-rank MiB for the synthetic figures",
    "cores": (
        "comma-separated core counts (figure14/16/18 and pipelines); "
        "elastic, elastic-model, faults and tenants accept a single value"
    ),
}


def add_descriptor_arguments(parser: argparse.ArgumentParser) -> None:
    """Add one ``--<knob>`` option per :data:`DESCRIPTOR_KNOBS` entry."""
    for knob, default in DESCRIPTOR_KNOBS.items():
        parser.add_argument(
            "--" + knob.replace("_", "-"),
            type=type(default),
            default=default,
            help=_KNOB_HELP[knob],
        )


def spec_descriptor(figure: str, **knobs: object) -> Dict[str, object]:
    """A self-contained, JSON-safe description of one figure sweep.

    ``figure`` must be one of :data:`repro.sweep.cli.FIGURES`; ``knobs``
    may override any :data:`DESCRIPTOR_KNOBS` entry (unknown knobs are
    rejected so typos cannot silently shard a different grid).
    """
    from repro.sweep.cli import FIGURES

    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; known: {list(FIGURES)}")
    unknown = sorted(set(knobs) - set(DESCRIPTOR_KNOBS))
    if unknown:
        raise ValueError(f"unknown descriptor knob(s) {unknown}; known: {sorted(DESCRIPTOR_KNOBS)}")
    descriptor: Dict[str, object] = {"version": PROTOCOL_VERSION, "figure": figure}
    descriptor.update(DESCRIPTOR_KNOBS)
    descriptor.update(knobs)
    return descriptor


def resolve_spec(descriptor: Dict[str, object]):
    """Expand a descriptor into the :class:`~repro.sweep.spec.SweepSpec` it names."""
    from repro.sweep.cli import build_spec

    version = descriptor.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ValueError(
            f"campaign protocol version mismatch: descriptor has {version}, "
            f"this host speaks {PROTOCOL_VERSION}"
        )
    namespace = argparse.Namespace(figure=descriptor["figure"])
    for knob, default in DESCRIPTOR_KNOBS.items():
        setattr(namespace, knob, descriptor.get(knob, default))
    return build_spec(namespace)


def campaign_cases(descriptor: Dict[str, object]):
    """The prepared, shard-addressable case list both sides agree on.

    Preparation matches a plain ``python -m repro.sweep`` run (label-derived
    reseeding, traces off), so the records a campaign merges are the records
    a single-host sweep of the same descriptor would write.
    """
    from repro.sweep.runner import prepare_cases

    return prepare_cases(resolve_spec(descriptor), reseed=True, trace=False)


class CoordinatorUnreachable(RuntimeError):
    """The coordinator did not answer (down, restarting, or unreachable)."""


class CoordinatorClient:
    """Typed JSON client for the coordinator's endpoints.

    Requests travel over one persistent HTTP/1.1 connection, opened by the
    first request and shared under a lock by every thread that uses the
    client (a worker's main loop and its heartbeat pump).  A transport
    error closes the connection and raises :class:`CoordinatorUnreachable`;
    the next request opens a new one, so a caller that retries rides out a
    coordinator restart.  An HTTP status other than 200 or a body that is
    not a JSON object raises ``RuntimeError`` (a protocol bug, not worth
    retrying).
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"coordinator URL must be http://host[:port], got {base_url!r}")
        self._address = (parts.hostname, parts.port or 80)
        self._prefix = parts.path
        self._lock = threading.Lock()
        self._connection: Optional[http.client.HTTPConnection] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CoordinatorClient {self.base_url!r}>"

    def close(self) -> None:
        """Close the connection (idempotent); a later request opens a new one."""
        with self._lock:
            self._disconnect()

    def _disconnect(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _request(
        self, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """One JSON round trip: GET (``payload=None``) or POST ``payload``."""
        url = self.base_url + path
        method, body, headers = "GET", None, {}
        if payload is not None:
            method = "POST"
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        with self._lock:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    *self._address, timeout=self.timeout
                )
            try:
                self._connection.request(method, self._prefix + path, body, headers)
                response = self._connection.getresponse()
                raw = response.read()
            except (http.client.HTTPException, OSError) as exc:
                self._disconnect()
                raise CoordinatorUnreachable(f"{url}: {exc}") from exc
        if response.status != 200:
            raise RuntimeError(f"{url}: HTTP {response.status} {response.reason}")
        decoded = json.loads(raw.decode("utf-8"))
        if not isinstance(decoded, dict):
            raise RuntimeError(f"{url}: expected a JSON object, got {type(decoded).__name__}")
        return decoded

    def spec(self) -> Dict[str, object]:
        """The campaign's descriptor and execution knobs."""
        return self._request("/spec")

    def status(self) -> Dict[str, object]:
        """The coordinator's live status snapshot."""
        return self._request("/status")

    def lease(self, worker: str) -> Dict[str, object]:
        """Request the next shard lease for ``worker``."""
        return self._request("/lease", {"worker": worker})

    def heartbeat(self, worker: str, lease_id: str) -> Dict[str, object]:
        """Keep a lease alive; ``{"ok": false}`` means it was reclaimed."""
        return self._request("/heartbeat", {"worker": worker, "lease_id": lease_id})

    def results(
        self,
        worker: str,
        lease_id: str,
        records: List[Dict[str, object]],
        done: bool = False,
    ) -> Dict[str, object]:
        """Send record payloads back; ``done`` retires the lease after the merge.

        The answer's ``complete`` says whether every case of the campaign is
        done or poisoned.
        """
        return self._request(
            "/results",
            {"worker": worker, "lease_id": lease_id, "records": records, "done": done},
        )
