"""Specification dataclasses describing a cluster and its scaling model."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = [
    "NodeSpec",
    "NetworkSpec",
    "FileSystemSpec",
    "ScalingModel",
    "ClusterSpec",
    "GiB",
    "MiB",
    "KiB",
]

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one compute node."""

    cores: int = 28
    #: Descriptive only: no model reads it, but ``config_hash`` covers it.
    memory_bytes: int = 128 * GiB
    #: Relative per-core compute speed used to scale application cost models
    #: (1.0 = one Bridges Haswell core; KNL cores are individually slower).
    core_speed: float = 1.0

    def __post_init__(self) -> None:
        # Float checks are written so that NaN fails them too.
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if not self.core_speed > 0:
            raise ValueError("core_speed must be positive")


@dataclass(frozen=True)
class NetworkSpec:
    """Static description of the interconnect fabric.

    The model is a two-level fat tree in the spirit of Omni-Path deployments:
    every node has one NIC port attached to a leaf switch; leaf switches are
    connected by a pool of core links.  The ratio of core-link capacity to
    aggregate injection capacity (the *taper*) is what makes congestion grow
    with scale in the large experiments.
    """

    #: Injection (and ejection) bandwidth of one node's NIC port, bytes/second.
    link_bandwidth: float = 12.5e9
    #: One-way small-message latency in seconds.
    latency: float = 2.0e-6
    #: Number of node ports per leaf switch.
    ports_per_leaf: int = 42
    #: Number of core (spine) links available per leaf switch uplink group.
    core_links_per_leaf: int = 16
    #: Bandwidth of a single core link, bytes/second.
    core_link_bandwidth: float = 12.5e9
    #: Per-message software/protocol overhead in seconds (matching, rendezvous).
    per_message_overhead: float = 5.0e-6
    #: Congestion penalty strength: effective bandwidth of a link is divided by
    #: ``1 + congestion_alpha * max(0, flows_in_flight - 1)`` capped by
    #: ``max_congestion_penalty``.  This models the throughput loss produced by
    #: credit stalls and HOL blocking under incast, which is what the dual-path
    #: optimisation relieves.
    congestion_alpha: float = 0.08
    max_congestion_penalty: float = 4.0
    #: Size of one FLIT in bytes (Omni-Path: 64-bit FLITs); used to convert
    #: waiting time into XmitWait counts as the paper's hardware counter does.
    flit_bytes: int = 8

    def __post_init__(self) -> None:
        # Float checks are written so that NaN fails them too.
        for name in ("link_bandwidth", "core_link_bandwidth"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("latency", "per_message_overhead"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        if self.ports_per_leaf <= 0 or self.core_links_per_leaf <= 0:
            raise ValueError("switch port counts must be positive")
        if not self.congestion_alpha >= 0:
            raise ValueError("congestion_alpha must be non-negative")
        if not self.max_congestion_penalty >= 1:
            raise ValueError("max_congestion_penalty must be >= 1")
        if self.flit_bytes <= 0:
            raise ValueError("flit_bytes must be positive")


@dataclass(frozen=True)
class FileSystemSpec:
    """Static description of the parallel file system (Lustre-like)."""

    #: Number of object storage targets data is striped across.
    num_osts: int = 64
    #: Sustained bandwidth of one OST available to this job, bytes/second.
    #: (Production Lustre file systems deliver far less per job than their
    #: peak: the paper's Preserve-mode experiment stores 3,136 GB in ~135 s,
    #: i.e. ≈ 23 GB/s for an 84-node job on Bridges.)
    ost_bandwidth: float = 0.5e9
    #: Maximum file-system bandwidth one client node can drive, bytes/second.
    client_node_bandwidth: float = 2.0e9
    #: Metadata operation latency (open/create/stat), seconds.
    metadata_latency: float = 1.0e-3
    #: Stripe size in bytes.
    stripe_size: int = 1 * MiB
    #: Fraction of aggregate bandwidth consumed on average by other users of
    #: the shared file system (0 = dedicated machine).
    background_load: float = 0.3
    #: Coefficient of variation of per-request service time, modelling the
    #: variability of a shared production file system (drives the MPI-IO error
    #: bars in Figure 2).
    service_cv: float = 0.25
    #: Whether file-system traffic shares the compute fabric (true on Bridges
    #: and Stampede2, where there is no separate I/O network).
    shares_fabric: bool = True
    #: Fraction of the aggregate bandwidth available to the modelled clients
    #: (used by representative-rank simulations: the modelled ranks are only a
    #: fraction of the job and are entitled to the same fraction of the job's
    #: file-system bandwidth).  Per-OST and per-client caps are not scaled.
    job_share: float = 1.0
    #: Weight of file traffic on fabric congestion relative to message traffic;
    #: < 1 because striped I/O spreads over many OST links and switch paths.
    fabric_weight: float = 0.35

    def __post_init__(self) -> None:
        # Float checks are written so that NaN fails them too.
        if self.num_osts <= 0:
            raise ValueError("num_osts must be positive")
        if not self.ost_bandwidth > 0:
            raise ValueError("ost_bandwidth must be positive")
        if not self.client_node_bandwidth > 0:
            raise ValueError("client_node_bandwidth must be positive")
        if not self.metadata_latency >= 0:
            raise ValueError("metadata_latency must be non-negative")
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")
        if not 0.0 <= self.background_load < 1.0:
            raise ValueError("background_load must be in [0, 1)")
        if not self.service_cv >= 0:
            raise ValueError("service_cv must be non-negative")
        if not 0.0 <= self.fabric_weight <= 1.0:
            raise ValueError("fabric_weight must be in [0, 1]")
        if not 0.0 < self.job_share <= 1.0:
            raise ValueError("job_share must lie in (0, 1]")

    @property
    def aggregate_bandwidth(self) -> float:
        """Total file-system bandwidth available to the modelled clients, bytes/second."""
        return (
            self.num_osts
            * self.ost_bandwidth
            * (1.0 - self.background_load)
            * self.job_share
        )


@dataclass(frozen=True)
class ScalingModel:
    """How a representative-rank simulation maps onto a full-size job.

    ``modelled_processes`` ranks are actually simulated; ``total_processes``
    is the size of the job being represented.  Per-node resources are
    unaffected (weak scaling keeps per-rank work constant); what changes with
    the full job size is:

    * the effective share of core-fabric bandwidth per simulated flow (the
      fabric taper), and
    * the cost of collective operations, which grow with ``total_processes``.
    """

    total_processes: int
    modelled_processes: int

    def __post_init__(self) -> None:
        if self.total_processes <= 0 or self.modelled_processes <= 0:
            raise ValueError("process counts must be positive")
        if self.modelled_processes > self.total_processes:
            raise ValueError("modelled_processes cannot exceed total_processes")

    @property
    def scale_factor(self) -> float:
        """How many real ranks one simulated rank stands for."""
        return self.total_processes / self.modelled_processes


@dataclass(frozen=True)
class ClusterSpec:
    """Full machine description used to instantiate a :class:`~repro.cluster.machine.Cluster`."""

    name: str
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    filesystem: FileSystemSpec = field(default_factory=FileSystemSpec)
    #: Maximum number of nodes a single job may use (Bridges: 168 ≈ 4704/28).
    max_nodes: Optional[int] = None
    #: Seed for the cluster's random streams.
    seed: int = 20180611

    def with_seed(self, seed: int) -> "ClusterSpec":
        """Return a copy of this spec with a different random seed."""
        return replace(self, seed=seed)

    def cores_per_node(self) -> int:
        """Cores on one node of this machine."""
        return self.node.cores

    def nodes_for_cores(self, cores: int) -> int:
        """Number of nodes needed to host ``cores`` cores (ceiling division)."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        return -(-cores // self.node.cores)
