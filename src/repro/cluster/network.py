"""Interconnect fabric model with port queueing, congestion and counters.

The model is intentionally lightweight — one simulation event per message —
but captures the phenomena the paper's analysis rests on:

* **Port serialisation.**  Each node has one NIC; messages leaving (entering)
  a node queue FIFO behind earlier messages at that port.  Time spent queued
  with data ready is accumulated into the ``XmitWait`` counter exactly as the
  Omni-Path counter does.
* **Fabric taper and scale.**  Traffic between nodes on different leaf
  switches passes through a per-node share of core-fabric bandwidth.  The
  share shrinks (mildly) as the *full* job size grows, which is what makes
  congestion, and therefore the benefit of Zipper's dual-path transfer, grow
  with scale (paper Figures 14/15).
* **Congestion penalty.**  The effective rate of a port degrades with the
  number of flows concurrently using it, modelling credit stalls and
  head-of-line blocking under incast.  Flows may carry a weight: parallel
  file-system traffic is spread over many OSTs and therefore loads the fabric
  with a weight < 1, which is why offloading blocks to the file path relieves
  congestion on the message path.
* **Backpressure.**  A transfer holds its source port until the data has been
  drained by the slowest stage on its path, so a congested receiver slows its
  senders — the mechanism behind the inflated ``MPI_Sendrecv`` times the paper
  observes once a staging library shares the fabric with the simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.simcore import Environment, RandomStreams
from repro.cluster.counters import CounterRegistry
from repro.cluster.spec import NetworkSpec

__all__ = ["Network", "TransferResult", "PortState"]

#: Default bandwidth of an intra-node (shared-memory) copy, bytes/second.
DEFAULT_INTRA_NODE_BANDWIDTH = 20e9


@dataclass(slots=True)
class TransferResult:
    """Outcome of a single message transfer."""

    src: int
    dst: int
    nbytes: int
    start: float
    finish: float
    queued: float  #: seconds spent waiting for the source port
    stalled: float  #: seconds the source was backpressured by downstream stages
    flow: str = "msg"

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def bandwidth(self) -> float:
        """Achieved end-to-end bandwidth in bytes/second."""
        if self.duration <= 0:
            return float("inf")
        return self.nbytes / self.duration


class PortState:
    """Mutable per-port bookkeeping: FIFO availability and weighted load."""

    __slots__ = ("name", "bandwidth", "busy_until", "load", "counters_id", "counter")

    def __init__(self, name: str, bandwidth: float, counters_id: Optional[str] = None):
        self.name = name
        self.bandwidth = float(bandwidth)
        self.busy_until = 0.0
        self.load = 0.0  # weighted number of flows currently using the port
        self.counters_id = counters_id
        #: The port's counter record, bound once by the owning Network (the
        #: registry lookup sits on the per-transfer hot path).
        self.counter = None

class Network:
    """The fabric connecting the modelled compute nodes.

    Parameters
    ----------
    env:
        Simulation environment.
    spec:
        Static fabric description.
    num_nodes:
        Number of *modelled* nodes (each gets an injection and an ejection
        port).
    total_nodes:
        Number of nodes in the full job being represented; drives the
        scale-dependent core-fabric share.  Defaults to ``num_nodes``.
    counters:
        Registry receiving per-port traffic and ``XmitWait`` counts.
    rng:
        Random streams (used only when ``jitter_cv`` > 0).
    """

    def __init__(
        self,
        env: Environment,
        spec: NetworkSpec,
        num_nodes: int,
        total_nodes: Optional[int] = None,
        counters: Optional[CounterRegistry] = None,
        rng: Optional[RandomStreams] = None,
        intra_node_bandwidth: float = DEFAULT_INTRA_NODE_BANDWIDTH,
        scale_penalty: float = 0.12,
        jitter_cv: float = 0.0,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.env = env
        self.spec = spec
        self.num_nodes = num_nodes
        self.total_nodes = int(total_nodes) if total_nodes else num_nodes
        if self.total_nodes < num_nodes:
            raise ValueError("total_nodes cannot be smaller than num_nodes")
        self.counters = counters if counters is not None else CounterRegistry()
        self.rng = rng if rng is not None else RandomStreams(0)
        self.intra_node_bandwidth = float(intra_node_bandwidth)
        self.scale_penalty = float(scale_penalty)
        self.jitter_cv = float(jitter_cv)

        # The scale-dependent factors depend only on spec and total_nodes, both
        # fixed after construction, so they are computed once: congestion_scale
        # sits on the per-transfer hot path.
        self._flits_per_second = spec.link_bandwidth / float(spec.flit_bytes)
        leaves = self.total_nodes / spec.ports_per_leaf
        self._congestion_scale = 1.0 + 0.45 * max(0.0, math.log2(max(1.0, leaves)))
        self._fabric_efficiency = 1.0 / (
            1.0 + self.scale_penalty * math.log2(max(1.0, leaves) + 1.0)
        )
        nominal_core_share = (
            spec.core_link_bandwidth * spec.core_links_per_leaf / spec.ports_per_leaf
        )
        self._core_share = (
            min(spec.link_bandwidth, nominal_core_share) * self._fabric_efficiency
        )

        self._inject: Dict[int, PortState] = {}
        self._eject: Dict[int, PortState] = {}
        self._core: Dict[int, PortState] = {}
        core_share = self._core_share
        for node in range(num_nodes):
            self._inject[node] = PortState(
                f"node{node}.tx", spec.link_bandwidth, counters_id=f"node{node}"
            )
            self._eject[node] = PortState(
                f"node{node}.rx", spec.link_bandwidth, counters_id=f"node{node}"
            )
            self._core[node] = PortState(f"node{node}.core", core_share)
            self._inject[node].counter = self.counters.port(f"node{node}")
            self._eject[node].counter = self.counters.port(f"node{node}")
        #: Leaf switch of each modelled node (static — see node_leaf), cached
        #: off the per-transfer hot path.
        self._leaf = [self.node_leaf(node) for node in range(num_nodes)]

        self.bytes_moved = 0
        self.messages_sent = 0

    # -- derived quantities ------------------------------------------------
    def congestion_scale(self) -> float:
        """Scale factor applied to the congestion penalty for large jobs.

        Grows with the number of leaf switches the represented job spans;
        jobs confined to a single leaf see no amplification.
        """
        return self._congestion_scale

    def fabric_efficiency(self) -> float:
        """Scale-dependent efficiency of the core fabric (1.0 for tiny jobs).

        Larger jobs span more leaf switches; adaptive-routing collisions and
        longer paths reduce the usable fraction of the nominal core bandwidth.
        """
        return self._fabric_efficiency

    def core_share_per_node(self) -> float:
        """Per-node share of core-fabric bandwidth, after taper and scale effects."""
        return self._core_share

    def node_leaf(self, node: int) -> int:
        """Leaf switch index hosting ``node``.

        Modelled nodes stand for a job of ``total_nodes`` nodes; they are
        mapped onto leaf switches as if spread evenly across the full job's
        allocation, so that a representative-rank simulation exercises the
        core fabric the way the full job would.
        """
        stride = self.total_nodes / self.num_nodes
        real_node = int(node * stride)
        return real_node // self.spec.ports_per_leaf

    # -- traffic -------------------------------------------------------------
    def transfer(
        self,
        src: int,
        dst: int,
        nbytes: int,
        flow: str = "msg",
        congestion_weight: float = 1.0,
        rate_scale: float = 1.0,
    ) -> Generator:
        """Simulate moving ``nbytes`` from node ``src`` to node ``dst``.

        This is a simulation process: ``yield from`` it (or wrap it with
        ``env.process``).  Returns a :class:`TransferResult`.

        ``rate_scale`` scales the bottleneck drain rate of this one transfer:
        the bandwidth-lease hook of the elastic layer uses it to let a
        coupling holding a lease of ``s`` drain at ``s`` × its fair-share
        rate (``s`` < 1 for a lender, > 1 for a borrower).  The default of
        1.0 leaves the arithmetic bit-identical to an unleased transfer.
        """
        if rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        num_nodes = self.num_nodes
        if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            self._check_node(src)
            self._check_node(dst)
        env = self.env
        spec = self.spec
        start = env.now
        self.messages_sent += 1
        self.bytes_moved += int(nbytes)

        if nbytes == 0:
            # Pure synchronisation message: latency only.
            yield env.sleep(spec.latency + spec.per_message_overhead)
            return TransferResult(src, dst, 0, start, env.now, 0.0, 0.0, flow)

        if src == dst:
            duration = spec.per_message_overhead + nbytes / self.intra_node_bandwidth
            if self.jitter_cv > 0:
                duration = self.rng.jitter("network.intra", duration, self.jitter_cv)
            yield env.sleep(duration)
            return TransferResult(src, dst, nbytes, start, env.now, 0.0, 0.0, flow)

        tx = self._inject[src]
        rx = self._eject[dst]
        leaf = self._leaf
        if leaf[src] == leaf[dst]:
            stages = (tx, rx)
        else:
            stages = (tx, self._core[src], rx)

        # Effective rates are frozen at issue time from the current loads;
        # the loads are then raised for the duration of the transfer so that
        # later flows see this one.  Per stage, a new flow sees
        # bandwidth / penalty where penalty = 1 + alpha·scale·(concurrency−1)
        # capped at max_congestion_penalty: the same instantaneous contention
        # produces more credit stalls when the job spans more leaf switches,
        # which is the scale-dependent congestion the paper measures through
        # XmitWait.
        cscale = self._congestion_scale
        alpha = spec.congestion_alpha * cscale
        max_penalty = spec.max_congestion_penalty
        bottleneck = float("inf")
        tx_rate = 0.0
        for stage in stages:
            concurrency = stage.load + congestion_weight
            penalty = 1.0 + alpha * (concurrency - 1.0) if concurrency > 1.0 else 1.0
            if penalty > max_penalty:
                penalty = max_penalty
            rate = stage.bandwidth / penalty
            if stage is tx:
                tx_rate = rate
            if rate < bottleneck:
                bottleneck = rate
        if rate_scale != 1.0:
            bottleneck *= rate_scale

        now = start
        latency = spec.latency
        tx_busy = tx.busy_until
        t_tx_start = tx_busy if tx_busy > now else now
        queued = t_tx_start - now
        t_arrive = t_tx_start + latency
        rx_busy = rx.busy_until
        t_rx_start = rx_busy if rx_busy > t_arrive else t_arrive
        # Jitter is applied to the *service* portion only, before the finish
        # time is frozen: the queueing delay is set by when the ports free, so
        # jittering it too could move finish before the predecessor's finish
        # and break the FIFO invariant.  With the jittered service folded in
        # here, busy_until, the yielded duration and the TransferResult all
        # agree on the same completion time.
        service = spec.per_message_overhead + nbytes / bottleneck
        if self.jitter_cv > 0:
            service = self.rng.jitter("network.fabric", service, self.jitter_cv)
        finish = t_rx_start + service
        duration = finish - now
        # Backpressure: the source cannot consider the message "sent" before
        # the slowest stage has drained it.
        stalled = finish - (t_tx_start + nbytes / tx_rate) - latency
        if stalled < 0.0:
            stalled = 0.0

        for stage in stages:
            stage.busy_until = finish
            stage.load += congestion_weight

        # Counters for the source and destination NIC ports (inlined
        # PortCounters.record_send/record_receive/record_wait — one message
        # each, values already validated above).
        tx_counter = tx.counter
        rx_counter = rx.counter
        tx_counter.xmit_data += int(nbytes)
        tx_counter.xmit_pkts += 1
        rx_counter.rcv_data += int(nbytes)
        rx_counter.rcv_pkts += 1
        wait = queued + stalled
        if wait > 0:
            tx_counter.xmit_wait += int(round(wait * self._flits_per_second))

        try:
            yield env.sleep(duration)
        finally:
            # Runs even when the transfer's process is interrupted or killed,
            # otherwise the port keeps phantom congestion load forever.
            for stage in stages:
                load = stage.load - congestion_weight
                stage.load = load if load > 0.0 else 0.0

        return TransferResult(src, dst, nbytes, start, env.now, queued, stalled, flow)

    def scale_node_bandwidth(self, node: int, factor: float) -> None:
        """Scale one node's port bandwidths (used for under-filled modelled nodes).

        A modelled node normally stands for ``ranks_per_modelled_node`` ranks
        of a real node; when it actually hosts fewer ranks (e.g. a single
        staging rank), its share of the real node's NIC must shrink
        accordingly, otherwise the modelled staging/link nodes would enjoy
        several times the per-rank bandwidth they have on the real machine.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        self._check_node(node)
        for ports in (self._inject, self._eject, self._core):
            ports[node].bandwidth *= factor

    def add_background_load(self, node: int, weight: float) -> None:
        """Register standing load on a node's ports (e.g. file traffic share)."""
        self._check_node(node)
        self._inject[node].load += weight
        self._eject[node].load += weight

    def remove_background_load(self, node: int, weight: float) -> None:
        self._check_node(node)
        self._inject[node].load = max(0.0, self._inject[node].load - weight)
        self._eject[node].load = max(0.0, self._eject[node].load - weight)

    # -- introspection ---------------------------------------------------
    def port_load(self, node: int) -> float:
        """Current weighted load on a node's injection port."""
        self._check_node(node)
        return self._inject[node].load

    def xmit_wait_total(self) -> int:
        """Sum of ``XmitWait`` over every modelled port."""
        return self.counters.total("XmitWait")

    # -- helpers ----------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")
