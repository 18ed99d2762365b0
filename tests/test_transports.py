"""Tests for the transport registry and the behavioural properties of each transport."""

from __future__ import annotations

import pytest

from repro.apps.costs import MiB, cfd_workload, lammps_workload
from repro.cluster.network import Network
from repro.transports import (
    DecafTransport,
    FlexpathTransport,
    MPIIOTransport,
    TransportFault,
    available_transports,
    create_transport,
)
from repro.transports.registry import canonical_name
from repro.transports.staging import StagingLockService
from repro.workflow import WorkflowConfig, run_pipeline
from repro.workflow.runner import PipelineRunner


class TestRegistry:
    def test_all_paper_methods_available(self):
        names = available_transports()
        for required in (
            "mpiio",
            "dataspaces",
            "adios+dataspaces",
            "dimes",
            "adios+dimes",
            "flexpath",
            "decaf",
            "zipper",
            "none",
        ):
            assert required in names

    def test_aliases(self):
        assert canonical_name("ADIOS/DataSpaces") == "adios+dataspaces"
        assert canonical_name("native DIMES") == "dimes"
        assert canonical_name("MPI-IO") == "mpiio"
        assert type(create_transport("Simulation-Only")).__name__ == "NullTransport"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            create_transport("carrier-pigeon")

    def test_failure_domain_metadata(self):
        assert create_transport("decaf").multiple_failure_domains is False
        assert create_transport("dataspaces").multiple_failure_domains is True
        assert create_transport("dataspaces").uses_staging_ranks is True
        assert create_transport("zipper").uses_staging_ranks is False


class TestTransportParameterValidation:
    """Options arrive from outside the program, so NaN must fail every check."""

    def test_mpiio(self):
        with pytest.raises(ValueError):
            MPIIOTransport(shared_file_penalty=0.0)
        with pytest.raises(ValueError):
            MPIIOTransport(poll_interval=0.0)
        with pytest.raises(ValueError):
            MPIIOTransport(poll_interval=float("nan"))

    def test_flexpath(self):
        with pytest.raises(ValueError):
            FlexpathTransport(socket_node_bandwidth=0)
        with pytest.raises(ValueError):
            FlexpathTransport(socket_contention=-1)
        with pytest.raises(ValueError):
            FlexpathTransport(socket_node_bandwidth=float("nan"))
        with pytest.raises(ValueError):
            FlexpathTransport(socket_contention=float("nan"))
        with pytest.raises(ValueError):
            FlexpathTransport(epoch_overhead=float("nan"))
        with pytest.raises(ValueError):
            FlexpathTransport(fetch_request_bytes=-1)

    def test_decaf(self):
        with pytest.raises(ValueError):
            DecafTransport(link_buffer_steps=0)
        with pytest.raises(ValueError):
            DecafTransport(element_bytes=0)
        with pytest.raises(ValueError):
            DecafTransport(serialization_seconds_per_byte=-1)
        with pytest.raises(ValueError):
            DecafTransport(element_bytes=float("nan"))
        with pytest.raises(ValueError):
            DecafTransport(serialization_seconds_per_byte=float("nan"))

    def test_staging_lock_service(self):
        with pytest.raises(ValueError):
            StagingLockService(per_request_service=float("nan"))
        with pytest.raises(ValueError):
            StagingLockService(request_bytes=-1)


@pytest.fixture(scope="module")
def quick_results(request):
    """One small CFD run per transport, shared across the behavioural tests."""
    from repro.cluster.presets import bridges

    base = WorkflowConfig(
        workload=cfd_workload(steps=5),
        cluster=bridges(),
        total_cores=384,
        representative_sim_ranks=8,
        steps=5,
    )
    transports = (
        "none",
        "zipper",
        "decaf",
        "flexpath",
        "mpiio",
        "dimes",
        "adios+dimes",
        "dataspaces",
        "adios+dataspaces",
    )
    return {t: run_pipeline(base.replace(transport=t).to_pipeline()) for t in transports}


class TestTransportBehaviour:
    def test_all_transports_complete(self, quick_results):
        for name, result in quick_results.items():
            assert not result.failed, name
            assert result.end_to_end_time > 0

    def test_all_analysis_ranks_receive_all_steps(self, quick_results):
        for name, result in quick_results.items():
            if name == "none":
                continue
            for arank, stats in result.analysis_rank_stats.items():
                assert stats.get("analysis_time", 0.0) > 0, (name, arank)

    def test_every_coupling_is_slower_than_simulation_only(self, quick_results):
        floor = quick_results["none"].end_to_end_time
        for name, result in quick_results.items():
            if name == "none":
                continue
            assert result.end_to_end_time >= floor * 0.999, name

    def test_zipper_is_the_fastest_coupling(self, quick_results):
        zipper = quick_results["zipper"].end_to_end_time
        for name, result in quick_results.items():
            if name in ("zipper", "none"):
                continue
            assert zipper <= result.end_to_end_time * 1.001, name

    def test_mpiio_is_the_slowest(self, quick_results):
        slowest = max(
            (r.end_to_end_time, n) for n, r in quick_results.items() if n != "none"
        )
        assert slowest[1] == "mpiio"

    def test_adios_interface_is_slower_than_native(self, quick_results):
        assert (
            quick_results["adios+dataspaces"].end_to_end_time
            >= quick_results["dataspaces"].end_to_end_time * 0.999
        )
        assert (
            quick_results["adios+dimes"].end_to_end_time
            >= quick_results["dimes"].end_to_end_time * 0.999
        )

    def test_mpiio_moves_data_through_the_file_system(self, quick_results):
        assert quick_results["mpiio"].stats.get("bytes_file", 0) > 0

    def test_decaf_records_waitall_time(self, quick_results):
        stats = quick_results["decaf"].sim_rank_stats[0]
        assert stats.get("waitall_time", 0.0) > 0

    def test_zipper_produces_expected_block_count(self, quick_results):
        result = quick_results["zipper"]
        # 8 modelled ranks x 5 steps x 16 blocks (16 MiB output / 1 MiB blocks)
        assert result.stats.get("blocks_produced") == 8 * 5 * 16


#: Figure 2's staging cases at 3 steps and 4 representative simulation ranks
#: (two analysis ranks of two producers each), run as configured (not
#: reseeded): end-to-end time, events and lock-service requests, as recorded
#: when DataSpaces and DIMES still had separate implementations.
STAGING_PINS = {
    "dataspaces": (
        2.1425987909120003, 493, {"lock": 18, "unlock": 18, "read-poll": 6}
    ),
    "adios+dataspaces": (
        2.5476189333247974, 539, {"lock": 18, "unlock": 18, "read-poll": 6}
    ),
    "dimes": (
        1.5602777043328, 493, {"lock": 18, "metadata": 12, "read-poll": 6, "unlock": 6}
    ),
    "adios+dimes": (
        1.8059626059391996, 539, {"lock": 18, "metadata": 12, "read-poll": 6, "unlock": 6}
    ),
}


@pytest.fixture(scope="module")
def figure2_configs():
    from repro.bench.experiments import figure2_spec

    cases = figure2_spec(steps=3, representative_sim_ranks=4).cases()
    return {case.label: case.config for case in cases}


class TestStagingPins:
    """The four staging names share one protocol; their results stay put."""

    @pytest.mark.parametrize("name", list(STAGING_PINS))
    def test_results_match_the_recorded_pins(self, name, figure2_configs):
        end_to_end, events, requests = STAGING_PINS[name]
        result = PipelineRunner(figure2_configs[name].to_pipeline()).run()
        assert result.end_to_end_time == end_to_end
        assert result.stats["events_processed"] == events
        # 4 producers x 3 steps x 16 MiB, each counted once.
        assert result.stats["bytes_network"] == 4 * 3 * 16 * MiB == 201_326_592
        counted = {
            key[: -len("_requests")]: value
            for key, value in result.stats.items()
            if key.endswith("_requests")
        }
        assert counted == requests

    @pytest.mark.parametrize(
        "name,put_release,bytes_before_pulls",
        [
            ("dataspaces", "unlock", 4 * 16 * MiB),
            ("adios+dataspaces", "unlock", 4 * 16 * MiB),
            ("dimes", "metadata", 0),
            ("adios+dimes", "metadata", 0),
        ],
    )
    def test_bytes_network_counts_the_hop_off_the_producer_node(
        self, name, put_release, bytes_before_pulls, figure2_configs, monkeypatch
    ):
        """DataSpaces counts at the put (to a server); DIMES at each pull."""
        runner = PipelineRunner(figure2_configs[name].to_pipeline())
        stats = runner.ctx.couplings[0].stats
        at_first_pull = []
        real_transfer = Network.transfer

        def spy(self, *args, **kwargs):
            if str(kwargs.get("flow", "")).endswith("-get") and not at_first_pull:
                at_first_pull.append(dict(stats))
            return real_transfer(self, *args, **kwargs)

        monkeypatch.setattr(Network, "transfer", spy)
        runner.run()
        [seen] = at_first_pull
        # Every producer's first put ended (with its release request) ...
        assert seen[f"{put_release}_requests"] == 4
        # ... and no pull has started yet.
        assert seen.get("bytes_network", 0.0) == bytes_before_pulls


#: The figure 2 transports that need dedicated staging ranks.
NEEDS_STAGING = ("dataspaces", "adios+dataspaces", "dimes", "adios+dimes", "decaf")


class TestZeroStagingRanks:
    """A transport that needs staging ranks refuses a coupling without any."""

    def test_the_staging_names_are_the_ones_that_need_staging_ranks(self, figure2_configs):
        from repro.transports.registry import transport_class

        needs = {
            label
            for label, config in figure2_configs.items()
            if transport_class(config.transport).uses_staging_ranks
        }
        assert needs == set(NEEDS_STAGING)

    @pytest.mark.parametrize("name", NEEDS_STAGING)
    def test_config_without_staging_ranks_is_rejected(self, name, figure2_configs):
        with pytest.raises(ValueError, match="coupling 'simulation->analysis'.*staging ranks"):
            figure2_configs[name].replace(staging_ranks_per_8_sim=0)

    @pytest.mark.parametrize("name", NEEDS_STAGING)
    def test_pipeline_without_staging_ranks_is_rejected(self, name, figure2_configs):
        pipeline = figure2_configs[name].to_pipeline()
        [coupling] = pipeline.couplings
        with pytest.raises(ValueError, match="coupling 'simulation->analysis'.*staging ranks"):
            pipeline.replace(couplings=(coupling.replace(staging_ranks_per_8=0),))
        # The coupling's own setting is what counts, not the pipeline default.
        with pytest.raises(ValueError, match="staging ranks"):
            pipeline.replace(
                staging_ranks_per_8_sim=0,
                couplings=(coupling.replace(staging_ranks_per_8=None),),
            )
        pipeline.replace(staging_ranks_per_8_sim=0)

    def test_the_others_run_without_staging_ranks(self, figure2_configs):
        others = sorted(set(figure2_configs) - set(NEEDS_STAGING))
        assert others == ["flexpath", "mpiio", "none", "zipper"]
        for name in others:
            config = figure2_configs[name].replace(staging_ranks_per_8_sim=0)
            assert not run_pipeline(config.to_pipeline()).failed


class TestDecafIntegerOverflow:
    def _config(self, workload, cores):
        from repro.cluster.presets import stampede2

        return WorkflowConfig(
            workload=workload,
            cluster=stampede2(),
            transport="decaf",
            total_cores=cores,
            representative_sim_ranks=4,
            steps=3,
        )

    def test_cfd_overflows_at_large_scale(self):
        result = run_pipeline(self._config(cfd_workload(steps=3), 6528).to_pipeline())
        assert result.failed
        assert "overflow" in result.failure_reason

    def test_cfd_fine_at_moderate_scale(self):
        result = run_pipeline(self._config(cfd_workload(steps=3), 3264).to_pipeline())
        assert not result.failed

    def test_lammps_never_overflows(self):
        result = run_pipeline(self._config(lammps_workload(steps=3), 13056).to_pipeline())
        assert not result.failed

    def test_fault_is_a_transport_fault(self):
        transport = DecafTransport()

        class FakeWorkload:
            output_bytes_per_step = 64 * MiB
            element_bytes = 8

        class FakeCtx:
            total_sim_ranks = 10_000
            workload = FakeWorkload()

            def represented_step_output_bytes(self):
                return self.workload.output_bytes_per_step

        with pytest.raises(TransportFault):
            transport._check_overflow(FakeCtx())
