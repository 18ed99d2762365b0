"""Unit tests for the interconnect model and its counters."""

from __future__ import annotations

import math

import pytest

from repro.cluster import Cluster, Network
from repro.cluster.presets import bridges, laptop
from repro.cluster.spec import NetworkSpec
from repro.simcore import Environment, Interrupt, RandomStreams, Timeout


def make_network(num_nodes=4, total_nodes=None, **spec_kwargs):
    env = Environment()
    spec = NetworkSpec(**spec_kwargs)
    return env, Network(env, spec, num_nodes=num_nodes, total_nodes=total_nodes)


def run_transfer(env, net, src, dst, nbytes, **kwargs):
    results = []

    def proc():
        r = yield from net.transfer(src, dst, nbytes, **kwargs)
        results.append(r)

    env.process(proc())
    env.run()
    return results[0]


class TestTransfer:
    def test_bandwidth_bound_duration(self):
        env, net = make_network()
        nbytes = 100 * 1024 * 1024
        result = run_transfer(env, net, 0, 1, nbytes)
        expected = nbytes / net.spec.link_bandwidth
        assert result.duration == pytest.approx(expected, rel=0.05)
        assert result.bandwidth <= net.spec.link_bandwidth

    def test_zero_bytes_costs_latency_only(self):
        env, net = make_network()
        result = run_transfer(env, net, 0, 1, 0)
        assert result.duration == pytest.approx(
            net.spec.latency + net.spec.per_message_overhead
        )

    def test_intra_node_uses_memory_bandwidth(self):
        env, net = make_network()
        nbytes = 64 * 1024 * 1024
        result = run_transfer(env, net, 2, 2, nbytes)
        assert result.duration < nbytes / net.spec.link_bandwidth

    def test_negative_bytes_rejected(self):
        env, net = make_network()
        with pytest.raises(ValueError):
            run_transfer(env, net, 0, 1, -1)

    def test_unknown_node_rejected(self):
        env, net = make_network(num_nodes=2)
        with pytest.raises(ValueError):
            run_transfer(env, net, 0, 5, 10)

    @pytest.mark.parametrize("weight", [float("nan"), -1.0])
    def test_nan_or_negative_congestion_weight_rejected(self, weight):
        # Such a flow used to run: a NaN weight hid the port's load from other
        # flows and a negative one made later flows finish too early.
        env, net = make_network()
        with pytest.raises(ValueError, match="congestion_weight"):
            run_transfer(env, net, 0, 1, 1024 * 1024, congestion_weight=weight)
        assert net.port_load(0) == 0.0

    def test_zero_congestion_weight_is_legal(self):
        env, net = make_network()
        result = run_transfer(env, net, 0, 1, 1024 * 1024, congestion_weight=0.0)
        assert result.duration > 0
        assert net.port_load(0) == 0.0

    def test_nan_rate_scale_rejected(self):
        env, net = make_network()
        with pytest.raises(ValueError, match="rate_scale"):
            run_transfer(env, net, 0, 1, 1024 * 1024, rate_scale=float("nan"))
        # The ports were left alone: a later transfer is unaffected.
        result = run_transfer(env, net, 0, 1, 1024 * 1024)
        assert result.queued == 0.0
        assert math.isfinite(result.finish)

    @pytest.mark.parametrize("weight", [float("nan"), -1.0])
    def test_nan_or_negative_background_load_rejected(self, weight):
        _, net = make_network()
        with pytest.raises(ValueError, match="weight"):
            net.add_background_load(0, weight)
        assert net.port_load(0) == 0.0
        # A rejected removal leaves the standing load as it was.
        net.add_background_load(0, 1.0)
        with pytest.raises(ValueError, match="weight"):
            net.remove_background_load(0, weight)
        assert net.port_load(0) == 1.0

    def test_fifo_queueing_at_source_port(self):
        env, net = make_network()
        results = []

        def sender(i):
            r = yield from net.transfer(0, 1, 50 * 1024 * 1024)
            results.append((i, r))

        for i in range(3):
            env.process(sender(i))
        env.run()
        queued = [r.queued for _, r in results]
        # The later messages wait behind the first at the shared source NIC.
        assert queued[0] == pytest.approx(0.0)
        assert queued[1] > 0 and queued[2] > queued[1]

    def test_congestion_reduces_bandwidth(self):
        env, net = make_network(congestion_alpha=0.5, max_congestion_penalty=8.0)
        # Eight concurrent incast flows into node 3.
        results = []

        def sender(src):
            r = yield from net.transfer(src, 3, 20 * 1024 * 1024)
            results.append(r)

        for src in range(3):
            env.process(sender(src))
        env.run()
        solo_env, solo_net = make_network(congestion_alpha=0.5, max_congestion_penalty=8.0)
        solo = run_transfer(solo_env, solo_net, 0, 3, 20 * 1024 * 1024)
        assert max(r.duration for r in results) > solo.duration


class TestScaleEffects:
    def test_fabric_efficiency_declines_with_job_size(self):
        _, small = make_network(num_nodes=4, total_nodes=4)
        _, large = make_network(num_nodes=4, total_nodes=2000)
        assert large.fabric_efficiency() < small.fabric_efficiency()
        assert 0 < large.fabric_efficiency() <= 1.0

    def test_congestion_scale_grows_with_job_size(self):
        _, small = make_network(num_nodes=4, total_nodes=4)
        _, large = make_network(num_nodes=4, total_nodes=2000)
        assert small.congestion_scale() == pytest.approx(1.0)
        assert large.congestion_scale() > small.congestion_scale()

    def test_core_share_never_exceeds_link_bandwidth(self):
        _, net = make_network(num_nodes=4, total_nodes=500)
        assert net.core_share_per_node() <= net.spec.link_bandwidth

    def test_modelled_nodes_spread_over_leaves(self):
        _, net = make_network(num_nodes=4, total_nodes=500, ports_per_leaf=42)
        leaves = {net.node_leaf(n) for n in range(4)}
        assert len(leaves) > 1

    def test_total_nodes_cannot_be_smaller_than_modelled(self):
        env = Environment()
        with pytest.raises(ValueError):
            Network(env, NetworkSpec(), num_nodes=8, total_nodes=4)

    def test_scale_node_bandwidth(self):
        env, net = make_network()
        before = run_transfer(env, net, 0, 1, 10 * 1024 * 1024).duration
        env2, net2 = make_network()
        net2.scale_node_bandwidth(0, 0.5)
        after = run_transfer(env2, net2, 0, 1, 10 * 1024 * 1024).duration
        assert after > before
        with pytest.raises(ValueError):
            net2.scale_node_bandwidth(0, 0.0)


class TestCounters:
    def test_xmitwait_accumulates_when_queued(self):
        env, net = make_network()

        def sender():
            yield from net.transfer(0, 1, 100 * 1024 * 1024)

        for _ in range(4):
            env.process(sender())
        env.run()
        assert net.xmit_wait_total() > 0

    def test_xmit_wait_is_charged_to_the_source_injection_port(self):
        env, net = make_network()

        def sender():
            yield from net.transfer(0, 1, 100 * 1024 * 1024)

        for _ in range(4):
            env.process(sender())
        env.run()
        charged = net._inject[0].xmit_wait
        assert charged > 0
        assert net.xmit_wait_total() == charged
        others = [port.xmit_wait for port in net._eject.values()]
        others += [port.xmit_wait for port in net._core.values()]
        others += [net._inject[node].xmit_wait for node in (1, 2, 3)]
        assert others == [0] * len(others)

    def test_local_and_empty_transfers_charge_no_xmit_wait(self):
        env, net = make_network()
        run_transfer(env, net, 2, 2, 10 * 1024 * 1024)
        run_transfer(env, net, 1, 3, 0)
        assert net.xmit_wait_total() == 0

    def test_background_load_slows_transfers(self):
        env1, net1 = make_network(congestion_alpha=0.5)
        base = run_transfer(env1, net1, 0, 1, 50 * 1024 * 1024).duration
        env2, net2 = make_network(congestion_alpha=0.5)
        net2.add_background_load(0, 5.0)
        loaded = run_transfer(env2, net2, 0, 1, 50 * 1024 * 1024).duration
        assert loaded > base
        net2.remove_background_load(0, 5.0)
        assert net2.port_load(0) == pytest.approx(0.0)


class TestClusterFacade:
    def test_cluster_builds_components(self):
        cluster = Cluster(laptop(), num_nodes=2)
        assert cluster.network.num_nodes == 2
        assert cluster.filesystem is not None
        assert len(cluster.nodes) == 2
        assert cluster.total_cores == 2 * laptop().node.cores

    def test_max_nodes_enforced(self):
        with pytest.raises(ValueError):
            Cluster(bridges(), num_nodes=4, total_nodes=1000)

    def test_node_of_rank(self):
        cluster = Cluster(laptop(), num_nodes=2)
        assert cluster.node_of_rank(0, ranks_per_node=2) == 0
        assert cluster.node_of_rank(2, ranks_per_node=2) == 1
        with pytest.raises(ValueError):
            cluster.node_of_rank(0, ranks_per_node=0)


class TestTransferRobustness:
    """Regression tests for the port-load leak and the jitter bookkeeping bug."""

    def test_interrupted_transfer_restores_port_load(self):
        env, net = make_network()
        nbytes = 100 * 1024 * 1024  # ~8 ms on the fabric: plenty to interrupt

        def victim():
            try:
                yield from net.transfer(0, 1, nbytes)
            except Interrupt:
                pass

        proc = env.process(victim())

        def killer():
            yield Timeout(env, 1e-4)
            proc.interrupt("link failure")

        env.process(killer())
        env.run()
        # The cleanup after the yield must run even on interrupt, otherwise
        # the port keeps phantom congestion load forever.
        assert net.port_load(0) == pytest.approx(0.0)
        assert net.port_load(1) == pytest.approx(0.0)

    def test_failed_transfer_process_restores_port_load(self):
        env, net = make_network()

        def doomed():
            try:
                yield from net.transfer(0, 1, 100 * 1024 * 1024)
            except Interrupt:
                raise RuntimeError("rank died mid-transfer")

        proc = env.process(doomed())

        def killer():
            yield Timeout(env, 1e-4)
            proc.interrupt("nic reset")

        env.process(killer())
        with pytest.raises(RuntimeError, match="rank died"):
            env.run()
        assert net.port_load(0) == pytest.approx(0.0)

    def test_jittered_transfer_keeps_port_bookkeeping_consistent(self):
        env = Environment()
        net = Network(
            env,
            NetworkSpec(),
            num_nodes=4,
            rng=RandomStreams(7),
            jitter_cv=0.5,
        )
        result = run_transfer(env, net, 0, 1, 32 * 1024 * 1024)
        # The jitter draw must be folded in before the finish time is frozen,
        # so the FIFO availability of every stage agrees with simulated time.
        assert result.finish == env.now
        assert net._inject[0].busy_until == pytest.approx(result.finish)
        assert net._eject[1].busy_until == pytest.approx(result.finish)

    def test_jitter_actually_perturbs_durations(self):
        base = run_transfer(*make_network(), 0, 1, 32 * 1024 * 1024)
        env = Environment()
        net = Network(env, NetworkSpec(), num_nodes=4, rng=RandomStreams(7), jitter_cv=0.5)
        jittered = run_transfer(env, net, 0, 1, 32 * 1024 * 1024)
        assert jittered.duration != base.duration

    @pytest.mark.parametrize("seed", range(16))
    def test_queued_senders_keep_fifo_order_under_jitter(self, seed):
        env = Environment()
        net = Network(env, NetworkSpec(), num_nodes=4, rng=RandomStreams(seed), jitter_cv=0.5)
        results = []

        def sender(i):
            r = yield from net.transfer(0, 1, 16 * 1024 * 1024)
            results.append((i, r))

        for i in range(4):
            env.process(sender(i))
        env.run()
        ordered = [r for _, r in sorted(results)]
        # Only the service time is jittered, never the queueing delay, so a
        # later message can never finish before the one it queued behind —
        # for any seed, not just a lucky one.
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.finish >= earlier.finish
            assert later.queued > 0
