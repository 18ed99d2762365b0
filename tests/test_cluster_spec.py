"""Unit tests for cluster specifications and machine presets."""

from __future__ import annotations

import pytest

from repro.cluster import FileSystemSpec, NetworkSpec, NodeSpec
from repro.cluster.presets import bridges, laptop, stampede2
from repro.cluster.spec import GiB


class TestNodeSpec:
    def test_defaults_valid(self):
        spec = NodeSpec()
        assert spec.cores == 28
        assert spec.memory_bytes == 128 * GiB

    @pytest.mark.parametrize(
        "field,value",
        [("cores", 0), ("memory_bytes", 0), ("core_speed", 0.0), ("core_speed", float("nan"))],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            NodeSpec(**{field: value})


class TestNetworkSpec:
    def test_defaults_valid(self):
        spec = NetworkSpec()
        assert spec.link_bandwidth > 0
        assert spec.flit_bytes == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_bandwidth": -1},
            {"ports_per_leaf": 0},
            {"core_links_per_leaf": 0},
            {"congestion_alpha": -0.1},
            {"max_congestion_penalty": 0.5},
            {"flit_bytes": 0},
            {"latency": -1e-6},
            # NaN fails every comparison, so each check must reject it.
            {"link_bandwidth": float("nan")},
            {"core_link_bandwidth": float("nan")},
            {"latency": float("nan")},
            {"per_message_overhead": float("nan")},
            {"congestion_alpha": float("nan")},
            {"max_congestion_penalty": float("nan")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkSpec(**kwargs)


class TestFileSystemSpec:
    def test_aggregate_bandwidth(self):
        spec = FileSystemSpec(num_osts=10, ost_bandwidth=1e9, background_load=0.5, job_share=0.5)
        assert spec.aggregate_bandwidth == pytest.approx(10 * 1e9 * 0.5 * 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_osts": 0},
            {"ost_bandwidth": 0},
            {"client_node_bandwidth": 0},
            {"background_load": 1.0},
            {"background_load": -0.1},
            {"stripe_size": 0},
            {"fabric_weight": 1.5},
            {"job_share": 0.0},
            {"service_cv": -1.0},
            # NaN fails every comparison, so each check must reject it.
            {"ost_bandwidth": float("nan")},
            {"client_node_bandwidth": float("nan")},
            {"metadata_latency": float("nan")},
            {"service_cv": float("nan")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FileSystemSpec(**kwargs)


class TestClusterSpec:
    def test_nodes_for_cores(self):
        spec = bridges()
        assert spec.nodes_for_cores(1) == 1
        assert spec.nodes_for_cores(28) == 1
        assert spec.nodes_for_cores(29) == 2
        assert spec.nodes_for_cores(13056 // 2) == pytest.approx(234, abs=1)

    def test_nodes_for_cores_invalid(self):
        with pytest.raises(ValueError):
            bridges().nodes_for_cores(0)

    def test_with_seed(self):
        spec = bridges()
        assert spec.with_seed(99).seed == 99
        assert spec.seed != 99 or spec.with_seed(99) is not spec


class TestPresets:
    def test_bridges_matches_paper_description(self):
        spec = bridges()
        assert spec.node.cores == 28                      # 2x 14-core Haswell
        assert spec.node.memory_bytes == 128 * GiB
        assert spec.max_nodes == 168                      # 4,704-core job limit
        assert spec.network.link_bandwidth == pytest.approx(12.5e9)

    def test_stampede2_matches_paper_description(self):
        spec = stampede2()
        assert spec.node.cores == 68                      # KNL
        assert spec.node.memory_bytes == 96 * GiB
        assert spec.node.core_speed < 1.0                 # slower per core than Haswell
        assert spec.max_nodes == 4200

    def test_laptop_is_small(self):
        spec = laptop()
        assert spec.node.cores <= 8
        assert spec.filesystem.background_load == 0.0

    def test_presets_have_distinct_names(self):
        assert len({bridges().name, stampede2().name, laptop().name}) == 3
