"""Decaf: dataflow coupling through dedicated link ranks.

Decaf describes the workflow as producer → link → consumer dataflow inside a
single ``MPI_COMM_WORLD``.  The behaviours that matter for performance (and
that the traces in Figures 6, 17 and 19 expose) are:

* the producer's ``put`` posts sends to the link ranks and then calls
  ``MPI_Waitall`` — the simulation stalls until the link has safely received
  the whole step;
* the link may hold only a small number of outstanding steps, and all data of
  a step must arrive at the link before any of it is forwarded, so a slow
  consumer back-pressures the producer;
* the redistribution between producer and link is described by element counts
  in 32-bit integers, which overflow for the large CFD runs (the segmentation
  faults the paper reports at 6,528+ cores) — modelled here as a
  :class:`~repro.transports.base.TransportFault`;
* being one MPI world, there is a single failure domain.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator

from repro.simcore import Container, Store
from repro.transports.base import Transport, TransportFault
from repro.transports.registry import register_transport

__all__ = ["DecafTransport"]

#: Aggregated element count (8-byte elements per step across the producer
#: application) above which Decaf's 32-bit redistribution counts overflow.
#: Chosen so the CFD workflow fails at 6,528+ cores while the LAMMPS workflow
#: (fewer elements per byte of payload) still runs at 13,056 cores, matching
#: the paper's observations.
INT_OVERFLOW_ELEMENTS = 2 ** 33


@register_transport("decaf")
class DecafTransport(Transport):
    """Producer → link → consumer dataflow with a per-step Waitall interlock."""

    name = "decaf"
    multiple_failure_domains = False
    uses_staging_ranks = True

    def __init__(
        self,
        link_buffer_steps: int = 2,
        element_bytes: int | None = None,
        serialization_seconds_per_byte: float = 1.2e-8,
    ):
        # ``not x > 0`` rather than ``x <= 0``, so that NaN fails too.
        if not link_buffer_steps > 0:
            raise ValueError("link_buffer_steps must be positive")
        if element_bytes is not None and not element_bytes > 0:
            raise ValueError("element_bytes must be positive")
        if not serialization_seconds_per_byte >= 0:
            raise ValueError("serialization_seconds_per_byte must be non-negative")
        #: How many outstanding steps a link rank may buffer per producer.
        self.link_buffer_steps = link_buffer_steps
        #: Size of one redistribution element; ``None`` takes the value from
        #: the workload model (8-byte doubles for grid fields, whole atom
        #: records for molecular dynamics).
        self.element_bytes = element_bytes
        #: Per-byte cost of Decaf's (Boost) serialisation of the put payload —
        #: the inline calls that made the TAU traces explode in Section 3.
        self.serialization_seconds_per_byte = serialization_seconds_per_byte
        self._credits: Dict[int, Container] = {}
        self._link_inbox: Dict[int, Store] = {}
        self._delivery: Dict[int, Store] = {}

    # -- fault model -----------------------------------------------------------
    def _check_overflow(self, ctx) -> None:
        element_bytes = (
            self.element_bytes
            if self.element_bytes is not None
            else getattr(ctx.workload, "element_bytes", 8)
        )
        # Size the redistribution from what the coupling actually carries per
        # step in the *full* job (mid-pipeline stages may forward a reduced or
        # aggregated stream), not from the raw workload output.
        elements_per_step = (
            ctx.total_sim_ranks * ctx.represented_step_output_bytes() / element_bytes
        )
        if elements_per_step > INT_OVERFLOW_ELEMENTS:
            raise TransportFault(
                "integer overflow in Decaf redistribution counts "
                f"({elements_per_step:.3g} elements/step)"
            )

    def setup(self, ctx) -> None:
        self._check_overflow(ctx)
        env = ctx.env
        self._credits = {
            rank: Container(env, capacity=self.link_buffer_steps, init=self.link_buffer_steps)
            for rank in range(ctx.sim_ranks)
        }
        self._delivery = {arank: Store(env) for arank in range(ctx.analysis_ranks)}
        self._link_inbox = {}
        for link in range(ctx.staging_ranks):
            self._link_inbox[link] = Store(env)
            env.process(self._link_process(ctx, link))

    def _link_of(self, ctx, rank: int) -> int:
        return rank % ctx.staging_ranks

    # -- producer ----------------------------------------------------------------
    def producer_put(self, ctx, rank: int, step: int, nbytes: int) -> Generator:
        env = ctx.env
        node = ctx.sim_node(rank)
        # Back-pressure: wait for a free slot in the link's buffer for this
        # producer (slow consumers therefore block the producers, as the paper
        # notes for Decaf).
        credit_start = env.now
        yield self._credits[rank].get(1)
        credit_wait = env.now - credit_start
        if credit_wait > 0:
            ctx.sim_rank_stats[rank]["stall_time"] += credit_wait
            ctx.stats["stall_time"] += credit_wait
            ctx.record_sim(rank, "stall", credit_start, step=step)

        # PUT: serialise the payload, send it to the link node, then
        # MPI_Waitall until it has fully arrived there.
        link = self._link_of(ctx, rank)
        link_node = ctx.staging_node(link)
        put_start = env.now
        serialization = self.serialization_seconds_per_byte * nbytes
        if serialization > 0:
            yield from ctx.cluster.node(node).compute(serialization)
        yield from ctx.cluster.network.transfer(
            node, link_node, nbytes, flow="decaf-put",
            rate_scale=ctx.bandwidth_share,
        )
        ctx.sim_rank_stats[rank]["transfer_busy_time"] += env.now - put_start
        ctx.stats["bytes_network"] += nbytes
        yield self._link_inbox[link].put((rank, step, nbytes))
        # The redistribution between the producer communicator and the link
        # communicator is a collective over the single MPI world: the step is
        # complete for everyone only when it is complete for the slowest
        # producer-to-link path.
        yield from ctx.sim_comm.barrier(rank)
        ctx.sim_rank_stats[rank]["waitall_time"] += env.now - put_start
        ctx.record_sim(rank, "waitall", put_start, step=step)

    # -- link ranks ------------------------------------------------------------------
    def _link_process(self, ctx, link: int) -> Generator:
        """One Decaf link rank: gather a full step from its producers, forward it."""
        env = ctx.env
        my_producers = [
            r for r in range(ctx.sim_ranks) if self._link_of(ctx, r) == link
        ]
        if not my_producers:
            return
        pending: Dict[int, Dict[int, int]] = {}
        expected = len(my_producers)
        total_items = ctx.steps * expected
        received = 0
        while received < total_items:
            rank, step, nbytes = yield self._link_inbox[link].get()
            received += 1
            pending.setdefault(step, {})[rank] = nbytes
            if len(pending[step]) < expected:
                continue
            # The whole step arrived at the link: forward each producer's data
            # to its consumer, then release the producers' buffer slots.
            link_node = ctx.staging_node(link)
            for prank, pbytes in sorted(pending[step].items()):
                arank = ctx.consumer_of(prank)
                yield from ctx.cluster.network.transfer(
                    link_node, ctx.analysis_node(arank), pbytes,
                    flow="decaf-forward", rate_scale=ctx.bandwidth_share,
                )
                yield self._delivery[arank].put((prank, step, pbytes))
            for prank in pending[step]:
                self._credits[prank].put(1)
            del pending[step]

    # -- consumer -----------------------------------------------------------------------
    def consumer_run(self, ctx, arank: int, analyze: Callable[[int, int], Generator]) -> Generator:
        env = ctx.env
        producers = ctx.producers_of(arank)
        expected_per_step = len(producers)
        for step in range(ctx.steps):
            got = 0
            step_bytes = 0
            wait_start = env.now
            while got < expected_per_step:
                _rank, _step, nbytes = yield self._delivery[arank].get()
                got += 1
                step_bytes += nbytes
            ctx.analysis_rank_stats[arank]["wait_time"] += env.now - wait_start
            yield from analyze(step_bytes, step)

    def teardown(self, ctx) -> None:
        self._credits.clear()
        self._link_inbox.clear()
        self._delivery.clear()
