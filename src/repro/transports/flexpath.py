"""Flexpath: type-based publish/subscribe event channels.

Each simulation rank is a publisher, each analysis rank a subscriber.  A step
is published through an output epoch (open/write/close) into the publisher's
local buffer; the subscriber then sends every publisher a fetch request and
pulls the data.  Two properties drive the measured behaviour:

* all communication goes through a socket interface with no shared-memory
  fast path, so the per-node socket machinery is shared (and increasingly
  contended) by every rank on the node — the reason Flexpath collapses on
  Stampede2's 68-core KNL nodes and recovers when run one-process-per-node;
* the event-channel traffic competes directly with the simulation's own
  ``MPI_Sendrecv`` halo exchanges, inflating them (Figure 5).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator

from repro.simcore import Timeout
from repro.transports.base import Transport
from repro.transports.registry import register_transport
from repro.transports.staging import ArrivalBoard

__all__ = ["FlexpathTransport"]


@register_transport("flexpath")
class FlexpathTransport(Transport):
    """Publisher/subscriber coupling over a contended per-node socket path."""

    name = "flexpath"
    multiple_failure_domains = True
    uses_staging_ranks = False

    def __init__(
        self,
        socket_node_bandwidth: float = 4.0e9,
        socket_contention: float = 0.08,
        epoch_overhead: float = 1.0e-3,
        fetch_request_bytes: int = 512,
    ):
        # ``not x > 0`` rather than ``x <= 0``, so that NaN fails too.
        if not socket_node_bandwidth > 0:
            raise ValueError("socket_node_bandwidth must be positive")
        if not socket_contention >= 0:
            raise ValueError("socket_contention must be non-negative")
        if not epoch_overhead >= 0:
            raise ValueError("epoch_overhead must be non-negative")
        if not fetch_request_bytes >= 0:
            raise ValueError("fetch_request_bytes must be non-negative")
        #: Aggregate socket throughput of one node with a single active rank.
        self.socket_node_bandwidth = socket_node_bandwidth
        #: How quickly the per-node socket path degrades as more ranks share it.
        self.socket_contention = socket_contention
        #: Cost of one output epoch (open/write/close bookkeeping).
        self.epoch_overhead = epoch_overhead
        self.fetch_request_bytes = fetch_request_bytes
        self._board: ArrivalBoard | None = None
        self._buffered: Dict[int, Dict[int, int]] = {}

    # -- derived -------------------------------------------------------------
    def socket_rank_bandwidth(self, ctx) -> float:
        """Effective socket bandwidth available to one rank of the full job.

        The node's socket throughput is divided among the ranks per node of
        the *real* job and further degraded by the contention factor; this is
        the "no optimized support for multiple processes per node" effect the
        paper identified.
        """
        ranks_per_node = ctx.cluster.cores_per_node
        node_rate = self.socket_node_bandwidth / (
            1.0 + self.socket_contention * max(0, ranks_per_node - 1)
        )
        return node_rate / ranks_per_node

    def setup(self, ctx) -> None:
        self._board = ArrivalBoard(ctx.env, ctx.analysis_ranks)
        self._buffered = {r: {} for r in range(ctx.sim_ranks)}

    # -- producer -------------------------------------------------------------
    def producer_put(self, ctx, rank: int, step: int, nbytes: int) -> Generator:
        env = ctx.env
        node = ctx.sim_node(rank)
        # Output epoch: open, write into the local event buffer, close.
        start = env.now
        if self.epoch_overhead > 0:
            yield Timeout(env, self.epoch_overhead)
        yield from ctx.cluster.network.transfer(
            node, node, nbytes, flow="flexpath-buffer", rate_scale=ctx.bandwidth_share
        )
        ctx.sim_rank_stats[rank]["buffer_time"] += env.now - start
        self._buffered[rank][step] = nbytes
        assert self._board is not None
        self._board.deposit(ctx.consumer_of(rank), step)
        ctx.stats["events_published"] += 1

    # -- consumer ---------------------------------------------------------------
    def consumer_run(self, ctx, arank: int, analyze: Callable[[int, int], Generator]) -> Generator:
        env = ctx.env
        node = ctx.analysis_node(arank)
        assert self._board is not None
        producers = ctx.producers_of(arank)
        rank_socket_bw = self.socket_rank_bandwidth(ctx)
        for step in range(ctx.steps):
            yield from self._board.wait_until_ready(ctx, arank, step, len(producers))
            for rank in producers:
                nbytes = self._buffered[rank].pop(step, ctx.step_output_bytes())
                # Fetch request to the publisher...
                yield from ctx.cluster.network.transfer(
                    node, ctx.sim_node(rank), self.fetch_request_bytes,
                    flow="flexpath-fetch", rate_scale=ctx.bandwidth_share,
                )
                # ...followed by the data reply.  The transfer crosses the
                # fabric *and* is bounded by the publisher's share of its
                # node's socket path; event-channel traffic interferes more
                # aggressively with the application's MPI traffic than native
                # RDMA transports do, hence the higher congestion weight.
                get_start = env.now
                yield from ctx.cluster.network.transfer(
                    ctx.sim_node(rank), node, nbytes, flow="flexpath-data",
                    congestion_weight=1.5, rate_scale=ctx.bandwidth_share,
                )
                socket_time = nbytes / rank_socket_bw
                fabric_time = env.now - get_start
                if socket_time > fabric_time:
                    yield Timeout(env, socket_time - fabric_time)
                ctx.analysis_rank_stats[arank]["get_time"] += env.now - get_start
                ctx.sim_rank_stats[rank]["transfer_busy_time"] += env.now - get_start
                ctx.stats["bytes_network"] += nbytes
            yield from analyze(ctx.consumer_step_bytes(arank), step)
