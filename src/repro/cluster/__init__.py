"""HPC cluster substrate: nodes, network fabric, parallel file system.

This package models the two machines used in the paper's evaluation — Bridges
(Intel Haswell + Omni-Path + Lustre) and Stampede2 (KNL + Omni-Path + Lustre) —
at the level of detail the paper's analysis actually exercises:

* per-node NIC injection/ejection bandwidth and a two-level (leaf/core) switch
  fabric with FIFO link queueing, multi-path core links and a congestion
  penalty, with an ``XmitWait`` counter on every injection port
  (:mod:`repro.cluster.network`);
* a striped parallel file system with a shared aggregate bandwidth pool,
  metadata-operation latency and optional background load
  (:mod:`repro.cluster.pfs`);
* compute nodes with a pool of cores and a mutable compute rate
  (:mod:`repro.cluster.node`);
* machine presets (:mod:`repro.cluster.presets`).

Because simulating 13,056 real ranks event-by-event is not feasible in pure
Python, large-scale experiments are run with a *representative subset* of
ranks whose resource shares are derived from the full machine size (see
:class:`repro.cluster.spec.ScalingModel`); collective costs and fabric taper
are still computed from the full process count, which is what produces the
scale-dependent behaviour in the paper's Figures 14–18.
"""

from repro.cluster.spec import (
    NodeSpec,
    NetworkSpec,
    FileSystemSpec,
    ClusterSpec,
    ScalingModel,
)
from repro.cluster.network import Network, TransferResult
from repro.cluster.pfs import ParallelFileSystem, IOResult
from repro.cluster.node import RATE_OWNERS, ComputeNode
from repro.cluster.machine import Cluster
from repro.cluster.presets import bridges, stampede2, laptop

__all__ = [
    "NodeSpec",
    "NetworkSpec",
    "FileSystemSpec",
    "ClusterSpec",
    "ScalingModel",
    "Network",
    "TransferResult",
    "ParallelFileSystem",
    "IOResult",
    "ComputeNode",
    "RATE_OWNERS",
    "Cluster",
    "bridges",
    "stampede2",
    "laptop",
]
