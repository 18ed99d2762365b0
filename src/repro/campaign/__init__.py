"""Fault-tolerant distributed sweep campaigns.

A *campaign* runs one figure sweep across many hosts: a coordinator shards
the prepared case list into lease-based work units and workers execute
them, streaming records back into one durable
:class:`~repro.sweep.store.ResultStore`.  The package is stdlib-only and
survives worker crashes, hangs, stragglers and coordinator restarts; the
merged store's canonical view is byte-identical to a single-host run of
the same spec.  See ``docs/campaigns.md`` for the full design.

Layout:

* :mod:`repro.campaign.lease` — the :class:`WorkBoard` (leases, heartbeats,
  retry backoff, work-stealing, poison quarantine).
* :mod:`repro.campaign.protocol` — spec descriptors and the JSON-over-HTTP
  wire protocol (:class:`CoordinatorClient`).
* :mod:`repro.campaign.coordinator` — :class:`Campaign` state +
  :class:`CoordinatorServer` (stdlib ``http.server``).
* :mod:`repro.campaign.worker` — :class:`CampaignWorker` (lease, run,
  stream, heartbeat).
* :mod:`repro.campaign.cli` — ``python -m repro.sweep campaign
  serve|work|status``.
"""

from repro.campaign.coordinator import Campaign, CoordinatorServer
from repro.campaign.lease import BackoffPolicy, CaseEntry, Lease, WorkBoard
from repro.campaign.protocol import (
    PROTOCOL_VERSION,
    CoordinatorClient,
    CoordinatorUnreachable,
    campaign_cases,
    resolve_spec,
    spec_descriptor,
)
from repro.campaign.worker import CampaignWorker

__all__ = [
    "BackoffPolicy",
    "Campaign",
    "CampaignWorker",
    "CaseEntry",
    "CoordinatorClient",
    "CoordinatorServer",
    "CoordinatorUnreachable",
    "Lease",
    "PROTOCOL_VERSION",
    "WorkBoard",
    "campaign_cases",
    "resolve_spec",
    "spec_descriptor",
]
