"""Shared building blocks of the staging-based baselines (DataSpaces and DIMES).

Both libraries coordinate the producer and consumer applications through a
lock service hosted on dedicated server ranks and bound the number of
outstanding time steps by a circular window of lock "slots" (the paper's
``step % num_slots`` construction).  The two classes here model those pieces:

* :class:`StagingLockService` — the metadata/lock server round trips, whose
  cost grows with the number of clients per server in the full job;
* :class:`StepWindow` — the reader/writer interlock: a producer may not write
  step ``s`` before the consumers have finished reading step ``s - num_slots``,
  which is precisely why the simulation stalls for about one step when the
  analysis is slower (Figure 4).
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.simcore import ConditionVar

__all__ = ["StagingLockService", "StepWindow", "ArrivalBoard"]


class StagingLockService:
    """Lock/metadata service hosted on the staging ranks."""

    def __init__(self, per_request_service: float = 2.0e-5, request_bytes: int = 256):
        # ``not x >= 0`` rather than ``x < 0``, so that NaN fails too.
        if not per_request_service >= 0:
            raise ValueError("per_request_service must be non-negative")
        if not request_bytes >= 0:
            raise ValueError("request_bytes must be non-negative")
        self.per_request_service = per_request_service
        self.request_bytes = request_bytes

    def _clients_per_server(self, ctx) -> float:
        servers = max(1, ctx.staging_ranks) * ctx.rank_scale_factor
        clients = ctx.total_sim_ranks + ctx.total_analysis_ranks
        return clients / servers

    def request(self, ctx, node: int, kind: str = "lock") -> Generator:
        """One round trip to the lock/metadata server from ``node``.

        The server-side service time is multiplied by the number of clients
        each server handles in the *full* job, modelling the serialisation at
        the centralised service that the paper lists among the performance
        inefficiencies.
        """
        server_node = ctx.staging_node(0) if ctx.staging_ranks else node
        # Request to the server and response back.
        yield from ctx.cluster.network.transfer(
            node, server_node, self.request_bytes, flow=f"staging-{kind}"
        )
        service = self.per_request_service * self._clients_per_server(ctx)
        if service > 0:
            yield ctx.env.timeout(service)
        yield from ctx.cluster.network.transfer(
            server_node, node, self.request_bytes, flow=f"staging-{kind}"
        )
        ctx.stats[f"{kind}_requests"] += 1


class StepWindow:
    """Reader/writer interlock over a circular window of ``num_slots`` steps."""

    def __init__(self, env, num_slots: int, num_consumers: int):
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        if num_consumers <= 0:
            raise ValueError("num_consumers must be positive")
        self.num_slots = num_slots
        self.num_consumers = num_consumers
        self._consumer_progress: Dict[int, int] = {c: 0 for c in range(num_consumers)}
        self._released = ConditionVar(env)

    @property
    def steps_consumed(self) -> int:
        """Number of steps every consumer has completely analysed."""
        return min(self._consumer_progress.values())

    def can_write(self, step: int) -> bool:
        """Whether the slot for ``step`` is free for writing."""
        return step < self.steps_consumed + self.num_slots

    def wait_for_write(self, ctx, rank: int, step: int) -> Generator:
        """Block the producer until the slot for ``step`` has been released."""
        env = ctx.env
        start = env.now
        while not self.can_write(step):
            yield self._released.wait()
        waited = env.now - start
        if waited > 0:
            ctx.sim_rank_stats[rank]["lock_wait_time"] += waited
            ctx.sim_rank_stats[rank]["stall_time"] += waited
            ctx.stats["stall_time"] += waited
            ctx.record_sim(rank, "lock", start, step=step)

    def mark_consumed(self, arank: int, step: int) -> None:
        """Record that consumer ``arank`` finished analysing ``step``."""
        self._consumer_progress[arank] = max(self._consumer_progress[arank], step + 1)
        self._released.notify_all()


class ArrivalBoard:
    """Tracks which producers have deposited each step, per consumer.

    Consumers wait on a condition variable instead of busy-polling the
    metadata service; the polling cost itself (one service round trip per
    wake-up) is charged by the caller.
    """

    def __init__(self, env, num_consumers: int):
        if num_consumers <= 0:
            raise ValueError("num_consumers must be positive")
        self._counts: Dict[int, Dict[int, int]] = {c: {} for c in range(num_consumers)}
        self._ready = {c: ConditionVar(env) for c in range(num_consumers)}

    def deposit(self, arank: int, step: int) -> None:
        """One producer finished depositing ``step`` for consumer ``arank``."""
        step_map = self._counts[arank]
        step_map[step] = step_map.get(step, 0) + 1
        self._ready[arank].notify_all()

    def arrivals(self, arank: int, step: int) -> int:
        return self._counts[arank].get(step, 0)

    def is_ready(self, arank: int, step: int, expected: int) -> bool:
        return self.arrivals(arank, step) >= expected

    def wait_until_ready(self, ctx, arank: int, step: int, expected: int) -> Generator:
        """Block consumer ``arank`` until all ``expected`` producers deposited ``step``."""
        env = ctx.env
        start = env.now
        while not self.is_ready(arank, step, expected):
            yield self._ready[arank].wait()
        waited = env.now - start
        if waited > 0:
            ctx.analysis_rank_stats[arank]["wait_time"] += waited
