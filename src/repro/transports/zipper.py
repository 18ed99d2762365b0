"""The simulated distributed Zipper transport.

This is the same algorithm as the threaded runtime in :mod:`repro.core`, but
expressed as discrete-event processes so it can run inside the cluster
simulator at the paper's scales:

* every simulation rank owns a bounded producer buffer, a *sender* process and
  (when the concurrent-transfer optimisation is enabled) a *writer* process
  executing Algorithm 1's work stealing;
* every analysis rank owns a delivery queue fed by the senders (message path)
  and by a *reader* process that loads work-stolen blocks from the parallel
  file system (file path);
* there are no per-step barriers or producer/consumer interlocks — the
  analysis is driven purely by block availability, and the producer stalls
  only when its bounded buffer is completely full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator

from repro.simcore import ConditionVar, OneShotSignal, Store
from repro.transports.base import Transport
from repro.transports.registry import register_transport

__all__ = ["ZipperTransport", "BlockDescriptor"]


@dataclass(slots=True)
class BlockDescriptor:
    """Metadata of one fine-grain block travelling through the simulated runtime."""

    source_rank: int
    step: int
    index: int
    nbytes: int
    via: str = "network"  #: "network" or "file"
    eof: bool = False


class _ProducerState:
    """Per-simulation-rank runtime state (buffer + helper-process bookkeeping)."""

    def __init__(self, env, capacity: int):
        self.buffer = Store(env, capacity=capacity)
        self.above_watermark = ConditionVar(env)
        self.closed = False
        self.blocks_enqueued = 0


class _ConsumerState:
    """Per-analysis-rank runtime state (delivery, disk-read and output queues)."""

    def __init__(self, env):
        self.delivery = Store(env)
        self.disk_queue = Store(env)
        self.output_queue = Store(env)
        self.output_done = OneShotSignal(env)


@register_transport("zipper")
class ZipperTransport(Transport):
    """Fine-grain, fully asynchronous, dual-channel pipelining runtime."""

    name = "zipper"
    multiple_failure_domains = True
    uses_staging_ranks = False

    def __init__(self) -> None:
        self._producers: Dict[int, _ProducerState] = {}
        self._consumers: Dict[int, _ConsumerState] = {}
        self._expected_blocks: Dict[int, int] = {}

    # -- setup -----------------------------------------------------------------
    def setup(self, ctx) -> None:
        env = ctx.env
        capacity = ctx.producer_buffer_blocks
        for rank in range(ctx.sim_ranks):
            state = _ProducerState(env, capacity)
            self._producers[rank] = state
            env.process(self._sender_process(ctx, rank, state))
            if ctx.concurrent_transfer:
                env.process(self._writer_process(ctx, rank, state))
        for arank in range(ctx.analysis_ranks):
            cstate = _ConsumerState(env)
            self._consumers[arank] = cstate
            env.process(self._reader_process(ctx, arank, cstate))
            if ctx.preserve:
                env.process(self._output_process(ctx, arank, cstate))
            else:
                cstate.output_done.set()
            self._expected_blocks[arank] = (
                len(ctx.producers_of(arank)) * ctx.steps * ctx.blocks_per_step()
            )

    # -- producer side -----------------------------------------------------------
    def producer_put(self, ctx, rank: int, step: int, nbytes: int) -> Generator:
        state = self._producers[rank]
        blocks = max(1, -(-nbytes // ctx.block_bytes))
        block_bytes = nbytes // blocks
        stall_start = None
        env = ctx.env
        rank_stats = ctx.sim_rank_stats[rank]
        stats = ctx.stats
        buffer = state.buffer
        items = buffer.items
        hwm = ctx.high_water_mark
        note_level = ctx.note_buffer_level
        for index in range(blocks):
            desc = BlockDescriptor(rank, step, index, block_bytes)
            start = env._now
            yield buffer.put(desc)
            waited = env._now - start
            if waited > 0:
                rank_stats["stall_time"] += waited
                stats["stall_time"] += waited
                if stall_start is None:
                    stall_start = start
            state.blocks_enqueued += 1
            stats["blocks_produced"] += 1
            note_level(rank, len(items))
            if len(items) > hwm:
                state.above_watermark.notify_all()
        if stall_start is not None and ctx.tracer.enabled:
            ctx.record_sim(rank, "stall", stall_start, step=step)

    def producer_finalize(self, ctx, rank: int) -> Generator:
        state = self._producers[rank]
        state.closed = True
        yield state.buffer.put(BlockDescriptor(rank, -1, -1, 0, eof=True))
        state.above_watermark.notify_all()

    def _sender_process(self, ctx, rank: int, state: _ProducerState) -> Generator:
        env = ctx.env
        buffer = state.buffer
        items = buffer.items
        rank_stats = ctx.sim_rank_stats[rank]
        stats = ctx.stats
        arank = ctx.consumer_of(rank)
        delivery = self._consumers[arank].delivery
        network = ctx.cluster.network
        src = ctx.sim_node(rank)
        dst = ctx.analysis_node(arank)
        note_level = ctx.note_buffer_level
        while True:
            idle_start = env._now
            desc = yield buffer.get()
            note_level(rank, len(items))
            rank_stats["sender_idle_time"] += env._now - idle_start
            if desc.eof:
                yield delivery.put(desc)
                return
            busy_start = env._now
            yield from network.transfer(
                src,
                dst,
                desc.nbytes,
                flow="zipper",
                congestion_weight=1.0,
                rate_scale=ctx.bandwidth_share,
            )
            rank_stats["transfer_busy_time"] += env._now - busy_start
            stats["blocks_sent_network"] += 1
            stats["bytes_network"] += desc.nbytes
            yield delivery.put(desc)

    def _writer_process(self, ctx, rank: int, state: _ProducerState) -> Generator:
        """Algorithm 1: steal blocks onto the file path while above the high-water mark."""
        env = ctx.env
        hwm = ctx.high_water_mark
        fs = ctx.cluster.filesystem
        node = ctx.sim_node(rank)
        while True:
            if len(state.buffer.items) <= hwm:
                if state.closed:
                    return
                yield state.above_watermark.wait()
                continue
            # Steal the first (oldest) block in the buffer.
            desc = yield state.buffer.get()
            ctx.note_buffer_level(rank, len(state.buffer.items))
            if desc.eof:
                # Never consume the end-of-stream marker: hand it back for the
                # sender and stop stealing.
                yield state.buffer.put(desc)
                ctx.note_buffer_level(rank, len(state.buffer.items))
                return
            busy_start = env.now
            yield from fs.write(node, desc.nbytes, rate_scale=ctx.bandwidth_share)
            desc.via = "file"
            elapsed = env.now - busy_start
            ctx.sim_rank_stats[rank]["writer_busy_time"] += elapsed
            ctx.stats["blocks_stolen"] += 1
            ctx.stats["bytes_file"] += desc.nbytes
            arank = ctx.consumer_of(rank)
            # The block ID reaches the consumer piggybacked on the next mixed
            # message; the metadata itself is negligible, so enqueue directly.
            yield self._consumers[arank].disk_queue.put(desc)

    # -- consumer side --------------------------------------------------------------
    def _reader_process(self, ctx, arank: int, cstate: _ConsumerState) -> Generator:
        env = ctx.env
        fs = ctx.cluster.filesystem
        node = ctx.analysis_node(arank)
        while True:
            desc = yield cstate.disk_queue.get()
            if desc.eof:
                return
            start = env.now
            yield from fs.read(node, desc.nbytes, rate_scale=ctx.bandwidth_share)
            ctx.analysis_rank_stats[arank]["reader_busy_time"] += env.now - start
            yield cstate.delivery.put(desc)

    def _output_process(self, ctx, arank: int, cstate: _ConsumerState) -> Generator:
        """Preserve-mode output thread: persist blocks that are not on disk yet."""
        env = ctx.env
        fs = ctx.cluster.filesystem
        node = ctx.analysis_node(arank)
        while True:
            desc = yield cstate.output_queue.get()
            if desc.eof:
                cstate.output_done.set()
                return
            start = env.now
            yield from fs.write(node, desc.nbytes, rate_scale=ctx.bandwidth_share)
            ctx.analysis_rank_stats[arank]["output_busy_time"] += env.now - start
            ctx.stats["blocks_preserved"] += 1
            ctx.stats["bytes_preserved"] += desc.nbytes

    def consumer_run(self, ctx, arank: int, analyze: Callable[[int, int], Generator]) -> Generator:
        cstate = self._consumers[arank]
        expected = self._expected_blocks[arank]
        preserve = ctx.preserve
        analyzed = 0
        env = ctx.env
        rank_stats = ctx.analysis_rank_stats[arank]
        delivery = cstate.delivery
        while analyzed < expected:
            wait_start = env._now
            desc = yield delivery.get()
            rank_stats["wait_time"] += env._now - wait_start
            if desc.eof:
                continue
            if preserve and desc.via != "file":
                # Blocks that did not already reach the file system through the
                # work-stealing path are persisted by the output process,
                # overlapped with the analysis.
                yield cstate.output_queue.put(desc)
            yield from analyze(desc.nbytes, desc.step)
            analyzed += 1
        # Stop the reader and output processes, then wait for the Preserve-mode
        # output to be safely on storage (a block may be freed only once it has
        # been analysed *and* stored).
        yield cstate.disk_queue.put(BlockDescriptor(-1, -1, -1, 0, eof=True))
        yield cstate.output_queue.put(BlockDescriptor(-1, -1, -1, 0, eof=True))
        yield cstate.output_done.wait()
        ctx.stats[f"consumer_{arank}_blocks"] = analyzed

    def consumer_deliveries_per_step(self, ctx, arank: int) -> int:
        """Zipper delivers per fine-grain block, not per aggregated step."""
        return len(ctx.producers_of(arank)) * ctx.blocks_per_step()

    def teardown(self, ctx) -> None:
        self._producers.clear()
        self._consumers.clear()
        self._expected_blocks.clear()
