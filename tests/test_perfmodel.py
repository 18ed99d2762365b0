"""Tests for the analytical pipeline performance model and its calibration."""

from __future__ import annotations

import pytest

from repro.bench.experiments import elastic_burst_pipeline
from repro.elastic.monitor import CouplingHealth, EpochHealth, StageHealth
from repro.perfmodel import (
    CalibrationBank,
    EwmaEstimate,
    PipelinePerfModel,
    baseline_cores,
    proportional_fill,
)


def burst_model(**kwargs):
    """A perf model over the bursty-analytics two-stage pipeline."""
    return PipelinePerfModel(elastic_burst_pipeline(steps=12), **kwargs)


def health_for(model, *, busy, progress, duration=0.25, bytes_moved=None):
    """Build a synthetic EpochHealth over the model's pipeline."""
    stages = {
        name: StageHealth(
            name,
            busy_fraction=busy[name],
            stall_fraction=0.0,
            work_fraction=busy[name],
            progress_steps=progress[name],
        )
        for name in busy
    }
    couplings = {}
    for coupling in model.pipeline.couplings:
        moved = (
            bytes_moved[coupling.name]
            if bytes_moved is not None
            else model.coupling_bytes_per_step[coupling.name]
        )
        couplings[coupling.name] = CouplingHealth(
            coupling.name, stall_fraction=0.0, bytes_moved=moved, buffer_level=0.0
        )
    return EpochHealth(time=duration, duration=duration, stages=stages, couplings=couplings)


# -- calibration primitives ---------------------------------------------------
class TestEwmaEstimate:
    def test_prior_participates_in_blend(self):
        est = EwmaEstimate(10.0, smoothing=0.5)
        assert not est.calibrated
        assert est.observe(20.0) == pytest.approx(15.0)
        assert est.observe(20.0) == pytest.approx(17.5)
        assert est.calibrated and est.observations == 2

    def test_smoothing_one_tracks_instantly(self):
        est = EwmaEstimate(10.0, smoothing=1.0)
        assert est.observe(3.0) == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "kwargs", [{"prior": -1.0}, {"prior": 1.0, "smoothing": 0.0}, {"prior": 1.0, "smoothing": 1.5}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EwmaEstimate(**kwargs)

    def test_negative_observation_rejected(self):
        with pytest.raises(ValueError):
            EwmaEstimate(1.0).observe(-0.5)


class TestCalibrationBank:
    def test_named_estimates(self):
        bank = CalibrationBank({"a": 1.0, "b": 2.0}, smoothing=0.5)
        assert "a" in bank and "missing" not in bank
        bank.observe("a", 3.0)
        assert bank.value("a") == pytest.approx(2.0)
        assert bank.values() == {"a": pytest.approx(2.0), "b": 2.0}


# -- the floor-aware proportional split ---------------------------------------
class TestProportionalFill:
    def test_plain_proportional(self):
        split = proportional_fill(300.0, {"x": 2.0, "y": 1.0}, {})
        assert split == {"x": pytest.approx(200.0), "y": pytest.approx(100.0)}

    def test_floor_pins_and_redistributes(self):
        split = proportional_fill(300.0, {"x": 10.0, "y": 0.1}, {"y": 50.0})
        assert split["y"] == pytest.approx(50.0)
        assert split["x"] == pytest.approx(250.0)

    def test_ceiling_pins_and_redistributes(self):
        split = proportional_fill(
            300.0, {"x": 10.0, "y": 0.1}, {}, ceilings={"x": 180.0}
        )
        assert split["x"] == pytest.approx(180.0)
        assert split["y"] == pytest.approx(120.0)

    def test_total_is_conserved(self):
        split = proportional_fill(
            4.0, {"a": 3.0, "b": 1.0, "c": 1.0}, {n: 0.5 for n in "abc"}
        )
        assert sum(split.values()) == pytest.approx(4.0)
        assert min(split.values()) >= 0.5 - 1e-9

    def test_simultaneous_floor_and_ceiling_violations_conserve_total(self):
        """One dominant weight pushing everyone else under their floor must
        not lose the slack freed by the dominant key's ceiling (regression:
        pinning floor violators against pre-ceiling shares dropped 0.5)."""
        split = proportional_fill(
            4.0,
            {"a": 8.0, "b": 0.4, "c": 0.4, "d": 0.4},
            {n: 0.5 for n in "abcd"},
            ceilings={n: 2.0 for n in "abcd"},
        )
        assert sum(split.values()) == pytest.approx(4.0)
        assert split["a"] == pytest.approx(2.0)
        for name in "bcd":
            assert split[name] == pytest.approx(2.0 / 3.0)

    def test_zero_weights_split_evenly(self):
        split = proportional_fill(10.0, {"a": 0.0, "b": 0.0}, {})
        assert split == {"a": pytest.approx(5.0), "b": pytest.approx(5.0)}

    def test_unsatisfiable_floors_rejected(self):
        with pytest.raises(ValueError):
            proportional_fill(1.0, {"a": 1.0, "b": 1.0}, {"a": 2.0, "b": 2.0})


# -- the pipeline model --------------------------------------------------------
class TestPriors:
    def test_baseline_uses_granted_cores(self):
        pipeline = elastic_burst_pipeline(sim_cores=128, steps=12)
        assert baseline_cores(pipeline) == {"simulation": 128.0, "analysis": 256.0}

    def test_prior_predictions_are_finite_and_positive(self):
        model = burst_model()
        for stage in ("simulation", "analysis"):
            assert 0.0 < model.stage_step_time(stage) < float("inf")
            assert model.stage_throughput(stage) > 0.0
        assert 0.0 < model.coupling_step_time("simulation->analysis") < float("inf")
        assert model.bottleneck() in {"simulation", "analysis", "simulation->analysis"}

    def test_more_cores_mean_faster_stage(self):
        model = burst_model()
        assert model.stage_step_time("analysis", cores=256.0) < model.stage_step_time(
            "analysis", cores=128.0
        )

    def test_rank_factor_scales_capacity(self):
        model = burst_model()
        base = model.stage_step_time("analysis")
        assert model.stage_step_time("analysis", rank_factor=1.5) == pytest.approx(
            base / 1.5
        )

    def test_more_share_means_faster_coupling(self):
        model = burst_model()
        assert model.coupling_step_time(
            "simulation->analysis", share=2.0
        ) == pytest.approx(model.coupling_step_time("simulation->analysis") / 2.0)


class TestCalibration:
    def test_observation_moves_work_towards_measurement(self):
        model = burst_model(smoothing=0.5)
        prior = model.work_per_step.value("analysis")
        # One epoch in which the analysis burned its full allocation for a
        # quarter of a step of progress: w_hat = 1.0 * 0.25 * 384 / 0.25.
        health = health_for(
            model,
            busy={"simulation": 0.5, "analysis": 1.0},
            progress={"simulation": 0.25, "analysis": 0.25},
        )
        model.observe(health, {"simulation": 256.0, "analysis": 128.0}, {"simulation->analysis": 1.0})
        measured = 1.0 * 0.25 * 128.0 / 0.25
        assert model.work_per_step.value("analysis") == pytest.approx(
            0.5 * prior + 0.5 * measured
        )
        assert model.epochs_observed == 1

    def test_zero_duration_epoch_is_a_no_op(self):
        model = burst_model()
        before = dict(model.work_per_step.values())
        health = health_for(
            model,
            busy={"simulation": 1.0, "analysis": 1.0},
            progress={"simulation": 1.0, "analysis": 1.0},
            duration=0.0,
        )
        model.observe(health, model.baseline, {"simulation->analysis": 1.0})
        assert model.work_per_step.values() == before
        assert model.epochs_observed == 0

    def test_no_progress_epoch_teaches_nothing(self):
        model = burst_model()
        before = dict(model.work_per_step.values())
        health = health_for(
            model,
            busy={"simulation": 1.0, "analysis": 1.0},
            progress={"simulation": 0.0, "analysis": 0.0},
            bytes_moved={"simulation->analysis": 0.0},
        )
        model.observe(health, model.baseline, {"simulation->analysis": 1.0})
        assert model.work_per_step.values() == before

    def test_idle_stage_epoch_teaches_nothing(self):
        model = burst_model()
        before = model.work_per_step.value("analysis")
        health = health_for(
            model,
            busy={"simulation": 1.0, "analysis": 0.0},
            progress={"simulation": 1.0, "analysis": 1.0},
        )
        model.observe(health, model.baseline, {"simulation->analysis": 1.0})
        assert model.work_per_step.value("analysis") == before

    def test_bandwidth_calibrates_per_unit_share(self):
        model = burst_model(smoothing=1.0)
        name = "simulation->analysis"
        moved = model.coupling_bytes_per_step[name]
        health = health_for(
            model,
            busy={"simulation": 0.5, "analysis": 0.5},
            progress={"simulation": 1.0, "analysis": 1.0},
            bytes_moved={name: moved},
        )
        model.observe(health, model.baseline, {name: 0.5})
        # moved bytes over duration 0.25 at share 0.5.
        assert model.unit_bandwidth.value(name) == pytest.approx(moved / 0.25 / 0.5)


class TestInverseProblems:
    def test_optimal_split_proportional_to_work(self):
        model = burst_model()
        split = model.optimal_core_split(
            model.baseline, ["simulation", "analysis"], {"simulation": 64.0, "analysis": 32.0}
        )
        assert sum(split.values()) == pytest.approx(384.0)
        w = model.work_per_step
        assert split["simulation"] / split["analysis"] == pytest.approx(
            w.value("simulation") / w.value("analysis")
        )

    def test_non_resizable_stages_keep_their_holding(self):
        model = burst_model()
        split = model.optimal_core_split(model.baseline, ["analysis"], {"analysis": 32.0})
        assert split["simulation"] == model.baseline["simulation"]
        assert split["analysis"] == model.baseline["analysis"]

    def test_equalized_split_balances_predicted_step_times(self):
        model = burst_model()
        split = model.optimal_core_split(
            model.baseline, ["simulation", "analysis"], {"simulation": 1.0, "analysis": 1.0}
        )
        assert model.stage_step_time(
            "simulation", split["simulation"]
        ) == pytest.approx(model.stage_step_time("analysis", split["analysis"]))

    def test_single_leasable_coupling_keeps_shares(self):
        model = burst_model()
        shares = {"simulation->analysis": 1.0}
        assert model.optimal_bandwidth_shares(
            shares, ["simulation->analysis"], 0.5, 2.0
        ) == shares


# -- where the Section 4.4 model is exported -----------------------------------
class TestPackageExports:
    def test_package_exports_both_layers(self):
        import repro.perfmodel as pm

        assert pm.PerformanceModel is not None
        assert pm.PipelinePerfModel is not None
