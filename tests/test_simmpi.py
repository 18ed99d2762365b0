"""Unit tests for the simulated MPI layer."""

from __future__ import annotations

from functools import partial

import pytest

from repro.cluster import Cluster
from repro.cluster.presets import laptop
from repro.simcore import AllOf
from repro.simmpi import Communicator, Message
from repro.simmpi.message import ANY_SOURCE, ANY_TAG
from repro.trace import Tracer


@pytest.fixture
def comm_setup():
    cluster = Cluster(laptop(), num_nodes=4)
    tracer = Tracer()
    comm = Communicator(cluster, [0, 1, 2, 3], represented_size=4096, tracer=tracer)
    return cluster, comm, tracer


def _two_process_sendrecv(comm, rank, dest, send_bytes, source, recv_tag=0, send_tag=0):
    """``sendrecv`` as two processes joined by an ``AllOf``: the order reference."""
    env = comm.env
    start = env.now
    send = env.process(comm.send(rank, dest, send_bytes, tag=send_tag))
    recv = env.process(comm.recv(rank, source, tag=recv_tag))
    yield AllOf(env, [send, recv])
    if comm.tracer is not None:
        comm.tracer.record(rank, "sendrecv", start, env.now, dest=dest, source=source)
    return recv.value


#: Ring message sizes per rank: rank r sends _SIZES[r] and receives
#: _SIZES[r - 1], so some receives finish before their send and some after.
_SIZES = (64 * 1024, 1024 * 1024, 16 * 1024, 256 * 1024)
_ROUNDS = 3
#: Nodes 0-3 host the ring; the interfering traffic leaves from node 4.
_OTHER_NODE = 4


def _ring_run(reference, interferer=None, shared_start=False, sanitize=None):
    """Run ring exchanges through one ``sendrecv`` form; return what must match.

    ``interferer(network)``, if given, is started as a process after the
    ranks.  With ``shared_start``, the ranks first wait on one shared
    event, and a process waiting on it after them loads rank 0's injection
    port.  Jitter is on, so every transfer draws from the network's random
    streams.  ``sanitize`` picks the kernel as ``Environment`` does (``None``
    defers to ``REPRO_SANITIZE``).
    """
    cluster = Cluster(laptop(), num_nodes=6, deterministic=False, sanitize=sanitize)
    env, network = cluster.env, cluster.network
    comm = Communicator(cluster, [0, 1, 2, 3], represented_size=4096)
    exchange = partial(_two_process_sendrecv, comm) if reference else comm.sendrecv
    transfers = []
    issue = network.transfer

    def recorded_transfer(*args, **kwargs):
        result = yield from issue(*args, **kwargs)
        transfers.append((result.src, result.dst, result.start, result.finish, result.queued))
        return result

    network.transfer = recorded_transfer
    ends, received = [], []
    start = env.timeout(1e-3) if shared_start else None

    def rank_proc(rank):
        if start is not None:
            yield start
        for _round in range(_ROUNDS):
            msg = yield from exchange(rank, (rank + 1) % 4, _SIZES[rank], (rank - 1) % 4)
            ends.append((env.now, rank))
            received.append((rank, msg.source, msg.nbytes))

    for rank in range(4):
        env.process(rank_proc(rank))
    if interferer is not None:
        env.process(interferer(network))
    if start is not None:
        env.process(_port_loader(network, start))
    cluster.run()
    return {
        "transfers": transfers,
        "received": received,
        "ends": ends,
        "events": env.events_processed,
        "now": env.now,
        "xmit_wait": network.xmit_wait_total(),
    }


def _late_sender(network, when, sink, hops):
    """Wake at ``when``, take ``hops`` same-time hops, then send to ``sink``."""
    yield network.env.sleep_until(when)
    for _ in range(hops):
        yield network.env.sleep(0)
    yield from network.transfer(_OTHER_NODE, sink, 128 * 1024)


def _port_loader(network, start=None):
    """Load rank 0's injection port (after ``start``, if given)."""
    if start is not None:
        yield start
    yield from network.transfer(0, _OTHER_NODE, 512 * 1024)


class TestMessage:
    def test_matching(self):
        msg = Message(source=2, dest=0, tag=7, nbytes=10)
        assert msg.matches(2, 7)
        assert msg.matches(ANY_SOURCE, 7)
        assert msg.matches(2, ANY_TAG)
        assert not msg.matches(3, 7)
        assert not msg.matches(2, 8)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(source=0, dest=1, tag=0, nbytes=-1)


class TestPointToPoint:
    def test_send_recv_delivers_payload(self, comm_setup):
        cluster, comm, _ = comm_setup
        received = []

        def sender():
            yield from comm.send(0, 1, 4096, tag=3, payload={"step": 9})

        def receiver():
            msg = yield from comm.recv(1, source=0, tag=3)
            received.append(msg)

        cluster.env.process(sender())
        cluster.env.process(receiver())
        cluster.run()
        assert received[0].payload == {"step": 9}
        assert received[0].latency > 0

    def test_recv_filters_by_tag(self, comm_setup):
        cluster, comm, _ = comm_setup
        order = []

        def sender():
            yield from comm.send(0, 1, 10, tag=1, payload="first")
            yield from comm.send(0, 1, 10, tag=2, payload="second")

        def receiver():
            msg = yield from comm.recv(1, tag=2)
            order.append(msg.payload)
            msg = yield from comm.recv(1, tag=1)
            order.append(msg.payload)

        cluster.env.process(sender())
        cluster.env.process(receiver())
        cluster.run()
        assert order == ["second", "first"]

    def test_invalid_rank_rejected(self, comm_setup):
        _, comm, _ = comm_setup
        with pytest.raises(ValueError):
            comm.node_of(10)

    def test_sendrecv_traced(self, comm_setup):
        cluster, comm, tracer = comm_setup

        def rank_proc(rank):
            yield from comm.sendrecv(
                rank, (rank + 1) % comm.size, 65536, (rank - 1) % comm.size
            )

        for rank in range(comm.size):
            cluster.env.process(rank_proc(rank))
        cluster.run()
        assert len(tracer.spans_for(category="sendrecv")) == comm.size

    def test_sendrecv_returns_the_received_message(self, comm_setup):
        cluster, comm, _ = comm_setup
        received = {}

        def rank_proc(rank):
            received[rank] = yield from comm.sendrecv(
                rank, (rank + 1) % comm.size, 65536, (rank - 1) % comm.size
            )

        for rank in range(comm.size):
            cluster.env.process(rank_proc(rank))
        cluster.run()
        for rank, msg in received.items():
            assert isinstance(msg, Message)
            assert (msg.source, msg.dest, msg.nbytes) == ((rank - 1) % comm.size, rank, 65536)

    def test_sendrecv_ring_events_and_end_time_are_pinned(self, comm_setup):
        # Two ring exchanges.  events_processed counts each sendrecv as the
        # eight events of the two-process form (two Initialize events, the
        # transfer, the mailbox put, the receive, two process ends and the
        # AllOf), whether each one is dispatched, completed in place or
        # credited.
        cluster, comm, _ = comm_setup

        def rank_proc(rank):
            for _ in range(2):
                yield from comm.sendrecv(
                    rank, (rank + 1) % comm.size, 65536, (rank - 1) % comm.size
                )

        for rank in range(comm.size):
            cluster.env.process(rank_proc(rank))
        cluster.run()
        assert cluster.env.events_processed == 72
        assert cluster.env.now == pytest.approx(5.62144e-05, rel=1e-12)


class TestSendrecvOrderIdentity:
    """``sendrecv`` keeps every event of the two-process form in time and order."""

    @pytest.mark.parametrize("hops", range(5))
    def test_interferer_at_each_exchange_end(self, hops):
        # Waking at an exchange's end instant and hopping 0-4 times, the
        # interferer lands before or after the caller's resume exactly as it
        # did against the two-process form, so its send and the rank's next
        # send reach the sink's port in the same order.
        ends = _ring_run(reference=True)["ends"]
        for when, rank in sorted(set(ends)):
            interferer = partial(_late_sender, when=when, sink=(rank + 1) % 4, hops=hops)
            expected = _ring_run(reference=True, interferer=interferer)
            actual = _ring_run(reference=False, interferer=interferer)
            assert actual == expected, (when, rank)

    def test_sendrecv_from_the_first_segment(self):
        # The ranks call sendrecv before a later-created process has run its
        # first segment; that process's transfer still reaches rank 0's
        # injection port first.
        expected = _ring_run(reference=True, interferer=_port_loader)
        actual = _ring_run(reference=False, interferer=_port_loader)
        assert actual == expected
        rank0_first_send = next(t for t in expected["transfers"] if t[:2] == (0, 1))
        assert rank0_first_send[4] > 0  # queued behind the other process's transfer

    def test_sendrecv_from_one_of_several_callbacks(self):
        # The ranks resume from one shared event, and a later callback of that
        # event loads rank 0's injection port before any rank's send is
        # issued.
        expected = _ring_run(reference=True, shared_start=True)
        actual = _ring_run(reference=False, shared_start=True)
        assert actual == expected
        rank0_first_send = next(t for t in expected["transfers"] if t[:2] == (0, 1))
        assert rank0_first_send[4] > 0

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_receives_finishing_before_and_after_the_send(self, sanitize):
        expected = _ring_run(reference=True, sanitize=sanitize)
        actual = _ring_run(reference=False, sanitize=sanitize)
        assert actual == expected
        for rank, source, nbytes in actual["received"]:
            assert (source, nbytes) == ((rank - 1) % 4, _SIZES[(rank - 1) % 4])


class TestCollectives:
    def test_barrier_synchronises(self, comm_setup):
        cluster, comm, _ = comm_setup
        times = []

        def rank_proc(rank):
            yield cluster.env.timeout(float(rank))
            yield from comm.barrier(rank)
            times.append(cluster.env.now)

        for rank in range(comm.size):
            cluster.env.process(rank_proc(rank))
        cluster.run()
        assert max(times) - min(times) < 1e-9
        assert min(times) >= 3.0  # the slowest rank arrives at t=3

    def test_collective_cost_grows_with_represented_size(self):
        def barrier_time(represented):
            cluster = Cluster(laptop(), num_nodes=2)
            comm = Communicator(cluster, [0, 1], represented_size=represented)
            done = []

            def rank_proc(rank):
                yield from comm.barrier(rank)
                done.append(cluster.env.now)

            for rank in range(2):
                cluster.env.process(rank_proc(rank))
            cluster.run()
            return max(done)

        assert barrier_time(16384) > barrier_time(2)

    def test_represented_size_validation(self):
        cluster = Cluster(laptop(), num_nodes=2)
        with pytest.raises(ValueError):
            Communicator(cluster, [0, 1], represented_size=1)
        with pytest.raises(ValueError):
            Communicator(cluster, [])
        with pytest.raises(ValueError):
            Communicator(cluster, [0, 9])

