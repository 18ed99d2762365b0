"""The staging transports: DataSpaces and DIMES, native and through ADIOS.

Both libraries coordinate the producer and consumer applications through a
lock service hosted on dedicated server ranks and bound the number of
outstanding time steps by a circular window of lock "slots" (the paper's
``step % num_slots`` construction).  In this model the four registered
methods run one protocol, :class:`_StagingTransport`; they differ only in
where a step's data rests between the put and the get and in a few
constants.  The protocol's pieces:

* :class:`StagingLockService` — the metadata/lock server round trips, whose
  cost grows with the number of clients per server in the full job;
* :class:`StepWindow` — the reader/writer interlock: a producer may not write
  step ``s`` before the consumers have finished reading step ``s - num_slots``,
  which is precisely why the simulation stalls for about one step when the
  analysis is slower (Figure 4);
* :class:`ArrivalBoard` — which producers have deposited each step (Flexpath
  uses it too).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Callable, Dict, Generator

from repro.simcore import ConditionVar
from repro.transports.base import Transport
from repro.transports.registry import register_transport

__all__ = [
    "StagingLockService",
    "StepWindow",
    "ArrivalBoard",
    "DataSpacesTransport",
    "ADIOSDataSpacesTransport",
    "DIMESTransport",
    "ADIOSDIMESTransport",
]


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
        servers = ctx.staging_ranks * ctx.rank_scale_factor
        clients = ctx.total_sim_ranks + ctx.total_analysis_ranks
        return clients / servers

    def request(self, ctx, node: int, kind: str = "lock") -> Generator:
        """One round trip to the lock/metadata server from ``node``.

        The server-side service time is multiplied by the number of clients
        each server handles in the *full* job, modelling the serialisation at
        the centralised service that the paper lists among the performance
        inefficiencies.
        """
        server_node = ctx.staging_node(0)
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


class _StagingTransport(Transport):
    """The lock-window protocol every staging flavour runs.

    A put waits for its step's slot, takes the write lock, moves the step's
    data to :meth:`data_node` and ends with the :attr:`put_release` request.
    A get waits until every producer of its consumer deposited the step,
    takes the read lock, pulls each producer's data from its
    :meth:`data_node` and unlocks.  ``bytes_network`` counts the hop that
    takes a step's data off the producer's node: the put when the data
    leaves that node, otherwise each pull.
    """

    multiple_failure_domains = True
    uses_staging_ranks = True

    #: Number of circular lock slots.
    num_slots = 4
    #: Extra per-operation overhead of the uniform ADIOS interface, seconds.
    interface_overhead = 0.0
    #: Flow-name prefix of the bulk transfers (``<prefix>-put``/``-get``).
    flow_prefix: str
    #: The lock-service request that registers a put's data and ends the put.
    put_release: str

    def __init__(self, lock_service: StagingLockService | None = None):
        self.locks = lock_service if lock_service is not None else StagingLockService()
        self._window: StepWindow | None = None
        self._board: ArrivalBoard | None = None

    def setup(self, ctx) -> None:
        self._window = StepWindow(ctx.env, self.num_slots, ctx.analysis_ranks)
        self._board = ArrivalBoard(ctx.env, ctx.analysis_ranks)

    @abstractmethod
    def data_node(self, ctx, rank: int) -> int:
        """The node that holds producer ``rank``'s data between put and get."""

    # -- producer -----------------------------------------------------------
    def producer_put(self, ctx, rank: int, step: int, nbytes: int) -> Generator:
        env = ctx.env
        node = ctx.sim_node(rank)
        assert self._window is not None and self._board is not None

        # lock_on_write(step % num_slots): wait for the slot, then the
        # lock-service round trip itself.
        yield from self._window.wait_for_write(ctx, rank, step)
        lock_start = env.now
        yield from self.locks.request(ctx, node, kind="lock")
        if self.interface_overhead > 0:
            yield env.timeout(self.interface_overhead)
        ctx.sim_rank_stats[rank]["lock_time"] += env.now - lock_start

        # Move the data to the node that holds it until the get.  The bulk
        # transfer honours the coupling's elastic bandwidth lease (the tiny
        # lock/metadata round trips stay unleased — they are latency-, not
        # bandwidth-bound).
        holder = self.data_node(ctx, rank)
        put_start = env.now
        yield from ctx.cluster.network.transfer(
            node,
            holder,
            nbytes,
            flow=f"{self.flow_prefix}-put",
            rate_scale=ctx.bandwidth_share,
        )
        ctx.sim_rank_stats[rank]["transfer_busy_time"] += env.now - put_start
        if holder != node:
            ctx.stats["bytes_network"] += nbytes

        yield from self.locks.request(ctx, node, kind=self.put_release)
        if self.interface_overhead > 0:
            yield env.timeout(self.interface_overhead)
        self._board.deposit(ctx.consumer_of(rank), step)

    # -- consumer -------------------------------------------------------------
    def consumer_run(self, ctx, arank: int, analyze: Callable[[int, int], Generator]) -> Generator:
        env = ctx.env
        node = ctx.analysis_node(arank)
        assert self._window is not None and self._board is not None
        producers = ctx.producers_of(arank)
        # Where each producer's data rests, and the producer's own node: a
        # pull from there is the hop that takes the data off it.
        sources = [(self.data_node(ctx, rank), ctx.sim_node(rank)) for rank in producers]
        for step in range(ctx.steps):
            # lock_on_read: wait (with one metadata query when woken) until
            # every producer of this consumer deposited its data for the step.
            yield from self._board.wait_until_ready(ctx, arank, step, len(producers))
            yield from self.locks.request(ctx, node, kind="read-poll")

            lock_start = env.now
            yield from self.locks.request(ctx, node, kind="lock")
            if self.interface_overhead > 0:
                yield env.timeout(self.interface_overhead)
            ctx.analysis_rank_stats[arank]["lock_time"] += env.now - lock_start

            for holder, producer_node in sources:
                get_start = env.now
                yield from ctx.cluster.network.transfer(
                    holder,
                    node,
                    ctx.step_output_bytes(),
                    flow=f"{self.flow_prefix}-get",
                    rate_scale=ctx.bandwidth_share,
                )
                ctx.analysis_rank_stats[arank]["get_time"] += env.now - get_start
                if holder == producer_node:
                    ctx.stats["bytes_network"] += ctx.step_output_bytes()
            yield from self.locks.request(ctx, node, kind="unlock")

            yield from analyze(ctx.consumer_step_bytes(arank), step)
            self._window.mark_consumed(arank, step)


class _DataSpaces(_StagingTransport):
    """DataSpaces: a virtual shared space hosted on dedicated staging servers.

    Every put pushes the step's data to a staging-server node over RDMA and
    updates the server-side metadata as it unlocks; every get pulls the data
    from the server node.  The extra network hop (simulation node → server
    node → analysis node) and the reader/writer interlock through the lock
    slots are what place DataSpaces behind DIMES in Figure 2.
    """

    flow_prefix = "dataspaces"
    put_release = "unlock"

    def data_node(self, ctx, rank: int) -> int:
        return ctx.staging_node(ctx.staging_target_of(rank))


class _DIMES(_StagingTransport):
    """DIMES: staging in the simulation nodes' own RDMA buffers.

    Unlike DataSpaces there are no data servers: a put is a local memory copy
    into the registered RDMA buffer, and the consumer pulls the data straight
    from the simulation node.  Metadata servers are still required to locate
    data (the ``metadata`` request that ends a put) and to provide the
    locking service, and the type-2 collective lock enforces strict
    synchronisation between the producer and consumer groups through the
    circular window of lock names — which is why Figure 4 shows the
    simulation stalled for roughly one full step whenever the analysis is
    slower.
    """

    flow_prefix = "dimes"
    put_release = "metadata"

    def data_node(self, ctx, rank: int) -> int:
        return ctx.sim_node(rank)


@register_transport("dataspaces")
class DataSpacesTransport(_DataSpaces):
    """Native DataSpaces: customised multi-slot lock strategy (lock_type=2)."""

    name = "dataspaces"


@register_transport("adios+dataspaces")
class ADIOSDataSpacesTransport(_DataSpaces):
    """DataSpaces driven through the ADIOS uniform interface (lock_type=1).

    The native fine-grained multi-lock strategy is not reachable through
    that interface, so the window degrades to a single slot and every lock
    operation pays an additional interface/metadata overhead — the ≈ 1.3x
    gap the paper measured between ADIOS/DataSpaces and native DataSpaces.
    """

    name = "adios+dataspaces"
    num_slots = 1
    interface_overhead = 3.0e-2


@register_transport("dimes")
class DIMESTransport(_DIMES):
    """Native DIMES with the customised multi-slot collective lock (lock_type=2)."""

    name = "dimes"


@register_transport("adios+dimes")
class ADIOSDIMESTransport(_DIMES):
    """DIMES driven through the ADIOS uniform interface.

    It again loses the customised multi-lock strategy (single slot plus a
    per-operation overhead), reproducing the ≈ 1.5x gap between ADIOS/DIMES
    and native DIMES in Figure 2.
    """

    name = "adios+dimes"
    num_slots = 1
    interface_overhead = 3.0e-2
