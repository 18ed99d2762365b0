"""Unit and property tests for the analytical performance model (Section 4.4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel import (
    PerformanceModel,
    StageTimes,
    pipeline_makespan,
    pipeline_schedule,
    sequential_makespan,
)

GiB = 1024**3
MiB = 1024**2


def paper_model(**overrides):
    """The Figure 12 configuration: 1,568 sim cores, 784 analysis cores, 3,136 GB."""
    defaults = dict(
        P=1568,
        Q=784,
        total_data=3136 * GiB,
        block_size=1 * MiB,
        stage=StageTimes(compute=0.001, transfer=0.019, analysis=0.006),
    )
    defaults.update(overrides)
    return PerformanceModel(**defaults)


class TestPerformanceModel:
    def test_block_accounting(self):
        model = paper_model()
        assert model.num_blocks == 3136 * 1024
        assert model.blocks_per_simulation_core == pytest.approx(2048)
        assert model.blocks_per_analysis_core == pytest.approx(4096)

    def test_t2s_is_max_of_stages(self):
        model = paper_model()
        breakdown = model.breakdown()
        assert model.time_to_solution() == pytest.approx(
            max(breakdown["simulation"], breakdown["transfer"], breakdown["analysis"])
        )

    def test_dominant_stage_switches_with_compute_cost(self):
        transfer_bound = paper_model(stage=StageTimes(0.001, 0.019, 0.006))
        compute_bound = paper_model(stage=StageTimes(0.031, 0.019, 0.006))
        analysis_bound = paper_model(stage=StageTimes(0.001, 0.002, 0.011))
        assert transfer_bound.dominant_stage() == "transfer"
        assert compute_bound.dominant_stage() == "simulation"
        assert analysis_bound.dominant_stage() == "analysis"

    def test_preserve_mode_adds_store_stage(self):
        no_preserve = paper_model()
        preserve = paper_model(preserve=True, filesystem_bandwidth=23e9)
        assert preserve.time_to_solution() >= no_preserve.time_to_solution()
        assert preserve.dominant_stage() == "store"
        # 3,136 GiB at 23 GB/s is ≈ 146 s, matching Figure 13's ~135-145 s bars.
        assert preserve.store_time == pytest.approx(3136 * GiB / 23e9)

    def test_store_stage_ignored_without_preserve(self):
        assert paper_model().store_time == 0.0

    def test_relative_error(self):
        model = paper_model()
        assert model.relative_error(model.time_to_solution()) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            model.relative_error(0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"P": 0},
            {"Q": 0},
            {"total_data": 0},
            {"block_size": 0},
            {"filesystem_bandwidth": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            paper_model(**kwargs)

    def test_stage_times_validation(self):
        with pytest.raises(ValueError):
            StageTimes(-0.1, 0, 0)


class TestPipelineFormulas:
    def test_known_values(self):
        assert sequential_makespan(10, [1.0, 2.0]) == pytest.approx(30.0)
        assert pipeline_makespan(10, [1.0, 2.0]) == pytest.approx(3.0 + 9 * 2.0)

    def test_single_block_equivalence(self):
        times = [0.5, 1.5, 0.25]
        assert pipeline_makespan(1, times) == pytest.approx(sequential_makespan(1, times))

    def test_validation(self):
        with pytest.raises(ValueError):
            pipeline_makespan(0, [1.0])
        with pytest.raises(ValueError):
            sequential_makespan(-1, [1.0])
        with pytest.raises(ValueError):
            pipeline_schedule(2, [1.0], stage_names=["a", "b"])

    @given(
        st.integers(1, 200),
        st.lists(st.floats(0.001, 10.0), min_size=1, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_pipeline_never_slower_than_sequential(self, nblocks, times):
        assert pipeline_makespan(nblocks, times) <= sequential_makespan(nblocks, times) + 1e-9

    @given(
        st.integers(2, 100),
        st.lists(st.floats(0.001, 5.0), min_size=2, max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_pipeline_bounded_below_by_slowest_stage(self, nblocks, times):
        lower = nblocks * max(times)
        assert pipeline_makespan(nblocks, times) >= lower - 1e-9

    @given(st.integers(1, 50), st.lists(st.floats(0.01, 2.0), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_schedule_consistency(self, nblocks, times):
        schedule = pipeline_schedule(nblocks, times)
        # The schedule's total span equals the closed-form makespan.
        end = max(interval[1] for entry in schedule for interval in entry.values())
        assert end == pytest.approx(pipeline_makespan(nblocks, times))
        # Within each block the stages are ordered; within each stage the
        # blocks never overlap.
        for entry in schedule:
            intervals = list(entry.values())
            for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
                assert s1 >= e0 - 1e-12
        nstages = len(times)
        for stage_idx in range(nstages):
            stage_name = f"stage{stage_idx}"
            windows = sorted(entry[stage_name] for entry in schedule)
            for (s0, e0), (s1, e1) in zip(windows, windows[1:]):
                assert s1 >= e0 - 1e-12
