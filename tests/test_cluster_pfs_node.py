"""Unit tests for the parallel file system and compute-node models."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ComputeNode, ParallelFileSystem
from repro.cluster.presets import laptop
from repro.cluster.spec import FileSystemSpec, NodeSpec
from repro.simcore import Environment


def make_pfs(**kwargs):
    env = Environment()
    spec = FileSystemSpec(service_cv=0.0, metadata_latency=0.0, background_load=0.0, **kwargs)
    return env, ParallelFileSystem(env, spec)


def run_io(env, gen):
    out = []

    def proc():
        r = yield from gen
        out.append(r)

    env.process(proc())
    env.run()
    return out[0]


class TestParallelFileSystem:
    def test_write_duration_bounded_by_client_cap(self):
        env, fs = make_pfs(num_osts=64, ost_bandwidth=1e9, client_node_bandwidth=2e9)
        nbytes = 200 * 1024 * 1024
        result = run_io(env, fs.write(0, nbytes))
        assert result.duration >= nbytes / 2e9 * 0.99
        assert result.op == "write"

    def test_single_stripe_bounded_by_one_ost(self):
        env, fs = make_pfs(num_osts=64, ost_bandwidth=0.5e9, client_node_bandwidth=10e9, stripe_size=1024 * 1024)
        nbytes = 1024 * 1024
        result = run_io(env, fs.write(0, nbytes))
        assert result.bandwidth <= 0.5e9 * 1.01

    def test_shared_aggregate_bandwidth(self):
        env, fs = make_pfs(num_osts=4, ost_bandwidth=1e9, client_node_bandwidth=100e9, stripe_size=1024)
        durations = []

        def writer():
            r = yield from fs.write(0, 50 * 1024 * 1024)
            durations.append(r.duration)

        for _ in range(8):
            env.process(writer())
        env.run()
        solo_env, solo_fs = make_pfs(num_osts=4, ost_bandwidth=1e9, client_node_bandwidth=100e9, stripe_size=1024)
        solo = run_io(solo_env, solo_fs.write(0, 50 * 1024 * 1024))
        assert max(durations) > solo.duration

    def test_read_and_write_accounting(self):
        env, fs = make_pfs()
        run_io(env, fs.write(0, 1000, filename="a"))
        env2 = env  # same env keeps state
        run_io(env2, fs.read(0, 400, filename="a"))
        assert fs.bytes_written == 1000
        assert fs.bytes_read == 400
        assert fs.file_size("a") == 1000
        assert fs.exists("a") and not fs.exists("b")
        assert fs.files() == {"a": 1000}

    def test_negative_bytes_rejected(self):
        env, fs = make_pfs()
        with pytest.raises(ValueError):
            run_io(env, fs.write(0, -5))

    def test_zero_byte_io_costs_only_metadata(self):
        env = Environment()
        fs = ParallelFileSystem(
            env, FileSystemSpec(metadata_latency=1e-3, service_cv=0.0, background_load=0.0)
        )
        result = run_io(env, fs.write(0, 0))
        assert result.duration == pytest.approx(1e-3)

    def test_job_share_scales_aggregate_only(self):
        full = FileSystemSpec(num_osts=10, ost_bandwidth=1e9, background_load=0.0)
        shared = FileSystemSpec(num_osts=10, ost_bandwidth=1e9, background_load=0.0, job_share=0.1)
        assert shared.aggregate_bandwidth == pytest.approx(full.aggregate_bandwidth * 0.1)


class TestComputeNode:
    def test_compute_scales_with_core_speed(self):
        env = Environment()
        fast = ComputeNode(env, 0, NodeSpec(cores=2, core_speed=2.0))
        out = []

        def proc():
            yield from fast.compute(1.0)
            out.append(env.now)

        env.process(proc())
        env.run()
        assert out == [pytest.approx(0.5)]

    def test_oversubscription_queues(self):
        env = Environment()
        node = ComputeNode(env, 0, NodeSpec(cores=1, core_speed=1.0))
        finish = []

        def proc(i):
            yield from node.compute(1.0)
            finish.append(env.now)

        env.process(proc(0))
        env.process(proc(1))
        env.run()
        assert finish == [pytest.approx(1.0), pytest.approx(2.0)]
        assert node.busy_core_seconds == pytest.approx(2.0)

    def test_negative_compute_rejected(self):
        env = Environment()
        node = ComputeNode(env, 0, NodeSpec())

        def proc():
            yield from node.compute(-1.0)

        p = env.process(proc())
        with pytest.raises(ValueError):
            env.run(p)
        # NaN work must not pass as "no work" (a ``> 0`` duration test
        # would skip it), in either entry point.
        nan = float("nan")
        for call in (node.compute(nan), node.compute_batch(nan), node.compute_batch([0.5, nan])):
            with pytest.raises(ValueError, match="non-negative"):
                env.run(env.process(call))
        assert node.busy_core_seconds == 0.0

    def test_memory_accounting(self):
        env = Environment()
        node = ComputeNode(env, 0, NodeSpec(cores=2, memory_bytes=1000))
        node.allocate_memory(400)
        env.run()
        assert node.memory_in_use == 400
        assert node.memory_free == 600
        node.free_memory(400)
        env.run()
        assert node.memory_in_use == 0


class TestClusterDeterminism:
    def test_two_identical_clusters_same_behaviour(self):
        def run_once():
            cluster = Cluster(laptop(), num_nodes=2)
            out = []

            def proc():
                r = yield from cluster.network.transfer(0, 1, 10 * 1024 * 1024)
                out.append(r.finish)
                r2 = yield from cluster.filesystem.write(0, 5 * 1024 * 1024)
                out.append(r2.finish)

            cluster.env.process(proc())
            cluster.run()
            return out

        assert run_once() == run_once()
