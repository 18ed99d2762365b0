"""Unit tests for the simulated MPI layer."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.cluster.presets import laptop
from repro.simmpi import Communicator, Message
from repro.simmpi.message import ANY_SOURCE, ANY_TAG
from repro.trace import Tracer


@pytest.fixture
def comm_setup():
    cluster = Cluster(laptop(), num_nodes=4)
    tracer = Tracer()
    comm = Communicator(cluster, [0, 1, 2, 3], represented_size=4096, tracer=tracer)
    return cluster, comm, tracer


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
        # Two ring exchanges: each sendrecv runs one send and one receive
        # process, and the model's event count depends on exactly that.
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

