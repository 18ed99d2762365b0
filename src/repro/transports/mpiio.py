"""File-based coupling through collective MPI-IO (the slowest method in Figure 2).

The simulation writes every step collectively into a shared file on the
parallel file system; the analysis discovers new steps by polling, then reads
its portion collectively.  The costs this model charges are exactly the ones
the paper identifies: the shared (and variable) file system, the N-to-1
shared-file penalty, the per-step collective synchronisation of the writers
and readers, the polling latency of the consumer, and the contention between
the ongoing writes of step ``s+1`` and the reads of step ``s``.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.transports.base import Transport
from repro.transports.registry import register_transport

__all__ = ["MPIIOTransport"]


@register_transport("mpiio")
class MPIIOTransport(Transport):
    """Shared-file collective writes plus consumer-side polling."""

    name = "mpiio"
    multiple_failure_domains = True
    uses_staging_ranks = False

    def __init__(
        self,
        shared_file_penalty: float = 0.25,
        poll_interval: float = 0.05,
    ):
        if not 0 < shared_file_penalty <= 1:
            raise ValueError("shared_file_penalty must lie in (0, 1]")
        if not poll_interval > 0:
            raise ValueError("poll_interval must be positive")
        #: Fraction of the file system's nominal rate an N-to-1 shared file
        #: achieves (extent-lock contention on the OSTs).
        self.shared_file_penalty = shared_file_penalty
        self.poll_interval = poll_interval
        self._steps_visible = 0
        self._writers_done_step = {}

    def setup(self, ctx) -> None:
        self._steps_visible = 0
        self._writers_done_step = {r: -1 for r in range(ctx.sim_ranks)}

    # -- producer --------------------------------------------------------------
    def producer_put(self, ctx, rank: int, step: int, nbytes: int) -> Generator:
        env = ctx.env
        fs = ctx.cluster.filesystem
        node = ctx.sim_node(rank)
        barrier_start = env.now
        yield from ctx.sim_comm.barrier(rank)
        ctx.sim_rank_stats[rank]["barrier_time"] += env.now - barrier_start
        # The N-to-1 shared-file penalty is applied by inflating the volume the
        # file system has to serve for this logical write.
        effective_bytes = int(nbytes / self.shared_file_penalty)
        io_start = env.now
        yield from fs.write(node, effective_bytes, rate_scale=ctx.bandwidth_share)
        ctx.sim_rank_stats[rank]["io_write_time"] += env.now - io_start
        ctx.stats["bytes_file"] += nbytes
        ctx.record_sim(rank, "io_write", io_start, step=step)
        barrier_start = env.now
        yield from ctx.sim_comm.barrier(rank)
        ctx.sim_rank_stats[rank]["barrier_time"] += env.now - barrier_start
        # Rank bookkeeping: once every writer finished step ``step`` the step
        # becomes visible to the readers (close + flush semantics).
        self._writers_done_step[rank] = step
        if all(done >= step for done in self._writers_done_step.values()):
            self._steps_visible = max(self._steps_visible, step + 1)

    # -- consumer --------------------------------------------------------------
    def consumer_run(self, ctx, arank: int, analyze: Callable[[int, int], Generator]) -> Generator:
        env = ctx.env
        fs = ctx.cluster.filesystem
        node = ctx.analysis_node(arank)
        step_bytes = ctx.consumer_step_bytes(arank)
        effective_bytes = int(step_bytes / self.shared_file_penalty)
        for step in range(ctx.steps):
            poll_start = env.now
            while self._steps_visible <= step:
                yield env.sleep(self.poll_interval)
            ctx.analysis_rank_stats[arank]["poll_time"] += env.now - poll_start
            yield from ctx.analysis_comm.barrier(arank)
            read_start = env.now
            yield from fs.read(node, effective_bytes, rate_scale=ctx.bandwidth_share)
            ctx.analysis_rank_stats[arank]["io_read_time"] += env.now - read_start
            ctx.record_analysis(arank, "io_read", read_start, step=step)
            yield from analyze(step_bytes, step)
