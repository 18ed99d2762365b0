"""Campaign coordinator: lease shards out, merge results, survive restarts.

The coordinator owns two things: a :class:`~repro.campaign.lease.WorkBoard`
(in-memory scheduling state) and the campaign's durable
:class:`~repro.sweep.store.ResultStore`.  Workers interact with it only
through the JSON endpoints of :mod:`repro.campaign.protocol`, served by a
stdlib ``ThreadingHTTPServer`` — no third-party web framework.  The server
speaks HTTP/1.1 keep-alive, so one thread serves each worker's connection.

**Crash safety is store-shaped.**  Every accepted record is appended to the
JSONL store before the worker gets its acknowledgement, and the board is
rebuilt from the store at construction: completed keys are marked done,
poison markers stay poisoned, and stamped attempt counts are restored, so a
coordinator killed at any instant resumes exactly where the store says it
was.  Leases are deliberately *not* persisted — after a restart they simply
re-expire on the workers' heartbeats and the unfinished cases are re-issued.

**Merging is dedup-on-append.**  The board decides per reported record
whether it is the first completion (append), a retryable failure (append +
backoff redispatch), poison (append with a ``poisoned`` stamp) or a
duplicate from a speculative/reclaimed copy (drop), so the store holds one
authoritative success per case no matter how many workers raced it — which
is what makes the canonical store byte-identical to a single-host sweep
(see ``docs/campaigns.md``).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

from repro.campaign.lease import BackoffPolicy, WorkBoard
from repro.campaign.protocol import PROTOCOL_VERSION, campaign_cases
from repro.sweep.store import ResultStore

__all__ = ["Campaign", "CoordinatorServer"]


class Campaign:
    """Scheduling state plus durable store of one distributed sweep.

    Parameters
    ----------
    descriptor:
        The spec descriptor (see :func:`~repro.campaign.protocol.spec_descriptor`)
        naming the grid to run.
    store:
        The campaign's result store (path or :class:`ResultStore`); existing
        records seed the board, so pointing a fresh coordinator at a partial
        store *is* the resume path.
    shard_size / lease_seconds / max_attempts / backoff:
        Work-distribution knobs, forwarded to the :class:`WorkBoard`.
    case_timeout_seconds:
        Per-case wall-clock budget workers must enforce (``None`` disables);
        advertised through ``/spec`` so every worker applies the same limit.
    """

    def __init__(
        self,
        descriptor: Dict[str, object],
        store: Union[ResultStore, str, Path],
        *,
        shard_size: int = 4,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        backoff: Optional[BackoffPolicy] = None,
        case_timeout_seconds: Optional[float] = None,
    ):
        # NaN too: workers would run under a deadline that never passes.
        if case_timeout_seconds is not None and not case_timeout_seconds > 0:
            raise ValueError("case_timeout_seconds must be positive")
        self.descriptor = dict(descriptor)
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.case_timeout_seconds = case_timeout_seconds
        self.lease_seconds = float(lease_seconds)
        self.cases = campaign_cases(self.descriptor)
        self.board = WorkBoard(
            [(case.label, case.config_digest) for case in self.cases],
            shard_size=shard_size,
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
            backoff=backoff,
        )
        self.lock = threading.Lock()
        #: worker name -> wall-clock instant of its last request (census only).
        self.workers_seen: Dict[str, float] = {}
        self.records_merged = 0
        self._resume()

    # -- resume ------------------------------------------------------------
    def _resume(self) -> None:
        """Seed the board from whatever the store already holds."""
        for record in self.store.iter_records():
            label = str(record.get("label"))
            digest = str(record.get("config_hash", ""))
            if record.get("poisoned"):
                self.board.mark_poisoned(label, digest)
            elif record.get("ok", True):
                self.board.mark_done(label, digest)
            else:
                # A failed attempt from a previous incarnation: keep its
                # budget spent so restarts cannot retry a case forever.
                self.board.restore_attempts(label, digest, int(record.get("attempt", 1)))

    # -- endpoint handlers -------------------------------------------------
    def _note_worker(self, worker: str) -> None:
        if worker:
            self.workers_seen[worker] = time.time()

    def handle_spec(self) -> Dict[str, object]:
        """``GET /spec`` — everything a joining worker needs."""
        with self.lock:
            return {
                "version": PROTOCOL_VERSION,
                "descriptor": dict(self.descriptor),
                "lease_seconds": self.lease_seconds,
                "case_timeout_seconds": self.case_timeout_seconds,
                "total_cases": len(self.cases),
                "store": str(self.store.path),
            }

    def handle_lease(self, worker: str) -> Dict[str, object]:
        """``POST /lease`` — a shard lease, a wait hint, or completion."""
        with self.lock:
            self._note_worker(worker)
            if self.board.complete:
                return {"status": "complete", "counts": self.board.counts()}
            lease = self.board.lease(worker)
            if lease is None:
                wait = self.board.next_retry_in()
                retry_after = min(max(wait, 0.05), 5.0) if wait is not None else 0.5
                return {"status": "wait", "retry_after": round(retry_after, 3)}
            return {
                "status": "lease",
                "lease_id": lease.lease_id,
                "speculative": lease.speculative,
                "deadline_seconds": self.lease_seconds,
                "cases": [
                    {
                        "index": index,
                        "label": self.cases[index].label,
                        "config_hash": self.cases[index].config_digest,
                    }
                    for index in lease.indices
                ],
            }

    def handle_heartbeat(self, worker: str, lease_id: str) -> Dict[str, object]:
        """``POST /heartbeat`` — extend a lease (``ok=False`` means abandon)."""
        with self.lock:
            self._note_worker(worker)
            return {"ok": self.board.heartbeat(lease_id)}

    def handle_results(
        self,
        worker: str,
        lease_id: str,
        records: List[Dict[str, object]],
        done: bool,
    ) -> Dict[str, object]:
        """``POST /results`` — merge a record batch; ``done`` retires the lease.

        Records are accepted regardless of whether ``lease_id`` is still
        live (or even known — the coordinator may have restarted since the
        lease was issued): completed work is completed work.  The board
        dedupes racing copies, and every appended record is stamped with its
        provenance (``worker``, ``shard``, ``attempt``) before hitting disk.
        """
        with self.lock:
            self._note_worker(worker)
            accepted = dropped = 0
            for payload in records:
                if not isinstance(payload, dict):
                    continue
                label = str(payload.get("label"))
                digest = str(payload.get("config_hash", ""))
                action = self.board.record_result(
                    label,
                    digest,
                    bool(payload.get("ok", True)),
                    str(payload.get("error_kind", "")),
                )
                if action in ("duplicate", "unknown"):
                    dropped += 1
                    continue
                entry = self.board._by_key[(label, digest)]
                stamped = dict(payload)
                stamped["worker"] = worker
                stamped["shard"] = lease_id
                # Attempt number of *this* execution: failures already
                # counted it; a success is one past the failures so far.
                stamped["attempt"] = entry.attempts if action != "done" else entry.attempts + 1
                if action == "poisoned":
                    stamped["poisoned"] = True
                self.store.append(stamped)
                self.records_merged += 1
                accepted += 1
            if done and lease_id:
                self.board.release(lease_id)
            return {
                "ok": True,
                "accepted": accepted,
                "dropped": dropped,
                "complete": self.board.complete,
            }

    def handle_status(self) -> Dict[str, object]:
        """``GET /status`` — live board snapshot plus campaign metadata."""
        with self.lock:
            snapshot = self.board.snapshot()
            snapshot.update(
                {
                    "campaign": str(self.descriptor.get("figure")),
                    "store": str(self.store.path),
                    "records_merged": self.records_merged,
                    "workers": sorted(self.workers_seen),
                }
            )
            return snapshot

    @property
    def complete(self) -> bool:
        """Whether every case is done or poisoned."""
        with self.lock:
            return self.board.complete


class _CampaignHandler(BaseHTTPRequestHandler):
    """Routes the protocol endpoints onto a :class:`Campaign` (internal)."""

    #: Keep-alive: a client sends all of its requests over one connection
    #: (HTTP/1.0 clients and ``Connection: close`` still get one each).
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY.  A response goes out in two writes (headers, then body);
    #: with Nagle's algorithm the second waits for the client's delayed ACK,
    #: about 40 ms per round trip on a kept-alive connection.
    disable_nagle_algorithm = True

    #: Injected by :class:`CoordinatorServer`.
    campaign: Campaign

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (status lives at ``/status``)."""

    def _send(self, payload: Dict[str, object], status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length", "0") or "0")
        if length < 0:  # ``read(-1)`` would wait for the peer to hang up
            raise ValueError(f"negative Content-Length {length}")
        raw = self.rfile.read(length) if length else b"{}"
        decoded = json.loads(raw.decode("utf-8"))
        if not isinstance(decoded, dict):
            raise ValueError("request body must be a JSON object")
        return decoded

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        """Serve ``/spec`` and ``/status``."""
        if self.path == "/spec":
            self._send(self.campaign.handle_spec())
        elif self.path == "/status":
            self._send(self.campaign.handle_status())
        else:
            self._send({"error": f"unknown endpoint {self.path!r}"}, status=404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        """Serve ``/lease``, ``/heartbeat`` and ``/results``."""
        try:
            body = self._read_body()
        except (ValueError, json.JSONDecodeError) as exc:
            # The body may not have been read whole: drop the connection.
            self.close_connection = True
            self._send({"error": f"bad request body: {exc}"}, status=400)
            return
        worker = str(body.get("worker", ""))
        if self.path == "/lease":
            self._send(self.campaign.handle_lease(worker))
        elif self.path == "/heartbeat":
            self._send(self.campaign.handle_heartbeat(worker, str(body.get("lease_id", ""))))
        elif self.path == "/results":
            records = body.get("records", [])
            if not isinstance(records, list):
                self._send({"error": "records must be a list"}, status=400)
                return
            self._send(
                self.campaign.handle_results(
                    worker,
                    str(body.get("lease_id", "")),
                    records,
                    bool(body.get("done", False)),
                )
            )
        else:
            self._send({"error": f"unknown endpoint {self.path!r}"}, status=404)


class _KeepAliveServer(ThreadingHTTPServer):
    """A threading HTTP server that can sever its open connections (internal)."""

    def __init__(self, address: tuple, handler: type):
        super().__init__(address, handler)
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        """Track the connection, then serve it on its own thread."""
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        """Forget the connection, then close it."""
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def sever_connections(self) -> None:
        """Shut every open connection down, ending the threads serving them."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by the peer


class CoordinatorServer:
    """A :class:`Campaign` behind a threading HTTP server.

    ``port=0`` binds an ephemeral port; read :attr:`url` after construction.
    The server thread and the connection threads are daemons, so a process
    that never calls :meth:`stop` can still exit.
    """

    def __init__(self, campaign: Campaign, host: str = "127.0.0.1", port: int = 0):
        self.campaign = campaign
        handler = type("_BoundHandler", (_CampaignHandler,), {"campaign": campaign})
        self.httpd = _KeepAliveServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        """The coordinator's base URL (``http://host:port``)."""
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "CoordinatorServer":
        """Serve requests on a daemon thread (idempotent); returns ``self``."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                name="campaign-coordinator",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, sever open connections, release the socket (idempotent).

        Clients see their kept-alive connection closed, as they would after
        a coordinator crash, and reconnect to whichever coordinator serves
        the port next.
        """
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join()
            self._thread = None
        self.httpd.sever_connections()
        self.httpd.server_close()

    def __enter__(self) -> "CoordinatorServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

    def serve_until_complete(
        self, poll_seconds: float = 0.2, timeout: Optional[float] = None
    ) -> bool:
        """Block until the campaign completes; ``False`` on ``timeout``.

        The server keeps answering ``/status`` during and after the wait;
        call :meth:`stop` when done with it.
        """
        if timeout is not None and not timeout >= 0:  # NaN would never expire
            raise ValueError("timeout must be non-negative")
        self.start()
        pacer = threading.Event()
        deadline = time.monotonic() + timeout if timeout is not None else None
        while not self.campaign.complete:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            pacer.wait(poll_seconds)
        return True
