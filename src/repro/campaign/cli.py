"""Command-line campaign driver: ``python -m repro.sweep campaign ...``.

Three subcommands cover the whole lifecycle::

    # host A: shard figure2 into leases, serve until every case lands
    python -m repro.sweep campaign serve figure2 --steps 2 --sim-ranks 2 \\
        --store results/figure2.jsonl --port 8765

    # hosts B, C, ...: work shards until the campaign completes
    python -m repro.sweep campaign work http://hostA:8765

    # anyone: inspect live progress
    python -m repro.sweep campaign status http://hostA:8765

``serve`` is restart-safe: killing it and re-running the same command with
the same ``--store`` resumes from the records already on disk.  Exit codes:
``0`` all cases succeeded, ``4`` the campaign completed but quarantined
poison cases, ``5`` ``serve --max-seconds`` expired first.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from typing import List, Optional

from repro.campaign.coordinator import Campaign, CoordinatorServer
from repro.campaign.lease import BackoffPolicy
from repro.campaign.protocol import (
    DESCRIPTOR_KNOBS,
    CoordinatorClient,
    CoordinatorUnreachable,
    add_descriptor_arguments,
    spec_descriptor,
)
from repro.campaign.worker import CampaignWorker

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    from repro.sweep.cli import FIGURES

    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep campaign",
        description="Fault-tolerant distributed sweep campaigns (coordinator + workers).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="shard a figure sweep and coordinate workers")
    serve.add_argument("figure", choices=FIGURES, help="which figure's scenario grid to run")
    add_descriptor_arguments(serve)
    serve.add_argument("--store", required=True,
                       help="JSONL result store path (resume + durable state)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    serve.add_argument("--shard-size", type=int, default=4, help="cases per lease")
    serve.add_argument("--lease-seconds", type=float, default=30.0,
                       help="lease lifetime; heartbeats extend it")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="failed executions before a case is poisoned")
    serve.add_argument("--backoff-base", type=float, default=0.25,
                       help="first retry delay in seconds")
    serve.add_argument("--backoff-seed", type=int, default=0,
                       help="seed of the deterministic retry jitter")
    serve.add_argument("--case-timeout", type=float, default=None,
                       help="per-case wall-clock budget enforced by workers")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="give up serving after this long (exit code 5)")
    serve.add_argument("--linger-seconds", type=float, default=2.0,
                       help="keep serving this long after completion so "
                            "workers observe the campaign is done")

    work = commands.add_parser("work", help="run leased shards against a coordinator")
    work.add_argument("url", help="coordinator base URL, e.g. http://127.0.0.1:8765")
    work.add_argument("--name", default=None, help="worker identity (default host-pid)")
    work.add_argument("--throttle-seconds", type=float, default=0.0,
                      help="pause before each case (chaos-test knob)")
    work.add_argument("--give-up-seconds", type=float, default=60.0,
                      help="how long to ride out an unreachable coordinator")

    status = commands.add_parser("status", help="print a coordinator's live status")
    status.add_argument("url", help="coordinator base URL")
    status.add_argument("--json", action="store_true", help="print the raw JSON snapshot")
    return parser


def _serve(args: argparse.Namespace) -> int:
    descriptor = spec_descriptor(
        args.figure, **{knob: getattr(args, knob) for knob in DESCRIPTOR_KNOBS}
    )
    campaign = Campaign(
        descriptor,
        args.store,
        shard_size=args.shard_size,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
        backoff=BackoffPolicy(base_seconds=args.backoff_base, seed=args.backoff_seed),
        case_timeout_seconds=args.case_timeout,
    )
    counts = campaign.board.counts()
    server = CoordinatorServer(campaign, host=args.host, port=args.port)
    print(
        f"campaign {args.figure}: {counts['total']} cases "
        f"({counts['done']} done, {counts['pending']} pending) "
        f"listening on {server.url}",
        flush=True,
    )
    try:
        finished = server.serve_until_complete(timeout=args.max_seconds)
        if finished and args.linger_seconds > 0:
            # Workers polling /lease learn of completion and exit cleanly
            # instead of retrying a vanished coordinator until they give up.
            threading.Event().wait(args.linger_seconds)
    finally:
        snapshot = campaign.handle_status()
        server.stop()
    counts = snapshot["counts"]
    counters = snapshot["counters"]
    if not finished:
        print(
            f"campaign timed out after {args.max_seconds:g}s: "
            f"done={counts['done']} poisoned={counts['poisoned']} "
            f"pending={counts['pending']} leased={counts['leased']}",
            file=sys.stderr,
        )
        return 5
    print(
        f"campaign complete: done={counts['done']} poisoned={counts['poisoned']} "
        f"leases={counters['leases_issued']} stolen={counters['leases_stolen']} "
        f"retries={counters['retries_scheduled']} "
        f"duplicates={counters['duplicates_dropped']}",
        flush=True,
    )
    for poison in snapshot["poisoned"]:
        print(
            f"poisoned: {poison['label']} ({poison['error_kind'] or 'unknown'})",
            file=sys.stderr,
        )
    return 4 if counts["poisoned"] else 0


def _work(args: argparse.Namespace) -> int:
    worker = CampaignWorker(
        args.url,
        name=args.name,
        throttle_seconds=args.throttle_seconds,
        give_up_seconds=args.give_up_seconds,
    )
    print(f"worker {worker.name}: joining {args.url}", flush=True)
    try:
        stats = worker.run()
    except CoordinatorUnreachable as exc:
        print(f"worker {worker.name}: coordinator unreachable: {exc}", file=sys.stderr)
        return 3
    print(
        f"worker {worker.name}: done — leases={stats['leases_taken']} "
        f"cases={stats['cases_run']} failed={stats['cases_failed']} "
        f"records={stats['records_sent']}",
        flush=True,
    )
    return 0


def _status(args: argparse.Namespace) -> int:
    client = CoordinatorClient(args.url)
    try:
        snapshot = client.status()
    except CoordinatorUnreachable as exc:
        print(f"coordinator unreachable: {exc}", file=sys.stderr)
        return 3
    finally:
        client.close()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    counts = snapshot.get("counts", {})
    counters = snapshot.get("counters", {})
    print(
        f"campaign {snapshot.get('campaign')}: "
        f"{counts.get('done', 0)}/{counts.get('total', 0)} done, "
        f"{counts.get('leased', 0)} leased, {counts.get('pending', 0)} pending, "
        f"{counts.get('poisoned', 0)} poisoned"
    )
    print(
        f"  leases issued={counters.get('leases_issued', 0)} "
        f"expired={counters.get('leases_expired', 0)} "
        f"stolen={counters.get('leases_stolen', 0)} "
        f"retries={counters.get('retries_scheduled', 0)} "
        f"duplicates={counters.get('duplicates_dropped', 0)}"
    )
    for lease in snapshot.get("leases", []):
        kind = "speculative" if lease.get("speculative") else "primary"
        print(
            f"  lease {lease.get('lease_id')} -> {lease.get('worker')} "
            f"({lease.get('cases')} cases, {kind}, "
            f"expires in {lease.get('expires_in')}s)"
        )
    workers = snapshot.get("workers", [])
    if workers:
        print(f"  workers seen: {', '.join(str(w) for w in workers)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.sweep campaign``; returns the exit code."""
    args = _parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "work":
        return _work(args)
    return _status(args)


if __name__ == "__main__":
    raise SystemExit(main())
