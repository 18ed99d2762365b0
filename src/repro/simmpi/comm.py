"""Simulated MPI communicator."""

from __future__ import annotations

import math
from typing import Any, Generator, List, Optional, Sequence

from repro.cluster.machine import Cluster
from repro.simcore import Event, FilterStore, SimBarrier
from repro.simcore.events import URGENT
from repro.simcore.resources import StoreGet
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message
from repro.trace import Tracer

__all__ = ["Communicator"]


class Communicator:
    """A group of ranks placed on cluster nodes, with MPI-style operations.

    Parameters
    ----------
    cluster:
        The cluster the ranks run on.
    rank_nodes:
        ``rank_nodes[r]`` is the modelled node hosting rank ``r``.
    represented_size:
        Number of ranks in the full job this communicator stands for
        (defaults to ``len(rank_nodes)``); collective costs scale with this.
    tracer:
        Optional :class:`~repro.trace.Tracer` receiving spans for the MPI calls
        (categories ``sendrecv`` and ``barrier``).
    name:
        Label used in traces and debugging output.
    """

    def __init__(
        self,
        cluster: Cluster,
        rank_nodes: Sequence[int],
        represented_size: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        name: str = "world",
    ):
        if not rank_nodes:
            raise ValueError("a communicator needs at least one rank")
        for node in rank_nodes:
            if not 0 <= node < cluster.num_nodes:
                raise ValueError(f"node {node} outside the cluster")
        self.cluster = cluster
        self.env = cluster.env
        self.network = cluster.network
        self.rank_nodes: List[int] = list(rank_nodes)
        self.represented_size = (
            int(represented_size) if represented_size else len(rank_nodes)
        )
        if self.represented_size < len(rank_nodes):
            raise ValueError("represented_size cannot be smaller than the rank count")
        self.tracer = tracer
        self.name = name
        self._mailboxes: List[FilterStore] = [
            FilterStore(self.env) for _ in rank_nodes
        ]
        self._barrier = SimBarrier(self.env, len(rank_nodes))

    # -- basic queries -----------------------------------------------------
    @property
    def size(self) -> int:
        """Number of modelled ranks."""
        return len(self.rank_nodes)

    def node_of(self, rank: int) -> int:
        """The modelled node hosting ``rank``."""
        self._check_rank(rank)
        return self.rank_nodes[rank]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")

    def _collective_latency(self) -> float:
        """Software latency of one tree-structured collective over the full job."""
        spec = self.network.spec
        depth = max(1.0, math.log2(max(2, self.represented_size)))
        return depth * (spec.latency + spec.per_message_overhead)

    # -- point to point ------------------------------------------------------
    def send(
        self,
        source: int,
        dest: int,
        nbytes: int,
        tag: int = 0,
        payload: Any = None,
        flow: str = "msg",
        congestion_weight: float = 1.0,
    ) -> Generator:
        """Blocking (eager) send: completes once the data reaches the receiver's node."""
        self._check_rank(source)
        self._check_rank(dest)
        msg = Message(source, dest, tag, nbytes, payload, sent_at=self.env.now)
        result = yield from self.network.transfer(
            self.rank_nodes[source],
            self.rank_nodes[dest],
            nbytes,
            flow=flow,
            congestion_weight=congestion_weight,
        )
        msg.delivered_at = self.env.now
        yield self._mailboxes[dest].put(msg)
        return result

    def recv(self, rank: int, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive: waits for a matching message, returns the :class:`Message`."""
        self._check_rank(rank)
        msg = yield self._mailboxes[rank].get(lambda m: m.matches(source, tag))
        return msg

    def sendrecv(
        self,
        rank: int,
        dest: int,
        send_bytes: int,
        source: int,
        recv_tag: int = 0,
        send_tag: int = 0,
    ) -> Generator:
        """``MPI_Sendrecv``: exchange with neighbours, as the LBM streaming phase does.

        Returns the received :class:`Message` once both the send and the
        receive have completed.  The traced duration of this call is what
        the paper's Figures 5 and 6 show growing once a staging library
        competes for the same NIC.

        The call drives :meth:`send` and the posted receive in the caller's
        own process.  Every event still happens at the time and in the order
        it would if the send and the receive ran as two processes joined by
        an ``AllOf``, and the events that form dispatched to no effect are
        credited, so ``events_processed`` is the same too (see
        "Process-free ``sendrecv``" in docs/performance.md).
        """
        env = self.env
        start = env._now
        send = self.send(rank, dest, send_bytes, tag=send_tag)
        queue = env._queue
        if not env._solo_callback or (
            queue and queue[0][1] == URGENT and queue[0][0] <= start
        ):
            # Code that would run ahead of the two processes' urgent
            # Initialize events: other callbacks of the current event, or
            # urgent events queued at this instant.  One urgent hop, queued
            # where the send's Initialize would be, lets it run first.
            hop = Event(env)
            hop._ok = True
            hop._value = None
            env.schedule(hop, priority=URGENT)
            yield hop
            credit = 1
        else:
            credit = 2
        # The send's first segment issues the transfer; then the receive is
        # posted.  The two Initialize events that ran them are credited,
        # less the one the urgent hop stood for.
        event = next(send)
        receive = StoreGet(self._mailboxes[rank], lambda m: m.matches(source, recv_tag))
        env.credit_events(credit)
        try:
            while True:
                event = send.send((yield event))
        except StopIteration:
            pass
        # Whichever half ended first only counted towards the AllOf.
        env.credit_events(1)
        if receive.callbacks is not None:
            yield receive
        # The later half's end, then the AllOf: two same-time hops, each
        # completed in place exactly when its queue trip would be the next
        # pop.
        for _hop in range(2):
            hop = Event(env)
            env.trigger_inplace(hop)
            yield hop
        if self.tracer is not None:
            self.tracer.record(rank, "sendrecv", start, env._now, dest=dest, source=source)
        return receive._value

    # -- collectives ---------------------------------------------------------
    def barrier(self, rank: int) -> Generator:
        """Global barrier across the communicator (cost scales with the full job)."""
        self._check_rank(rank)
        start = self.env.now
        yield self._barrier.wait()
        yield self.env.sleep(self._collective_latency())
        if self.tracer is not None:
            self.tracer.record(rank, "barrier", start, self.env.now)

    def __repr__(self) -> str:
        return (
            f"<Communicator {self.name!r} size={self.size} "
            f"represents={self.represented_size}>"
        )
