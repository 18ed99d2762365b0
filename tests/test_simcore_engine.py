"""Unit tests for the simulation environment / event loop."""

from __future__ import annotations

import pytest

from repro import sanitize
from repro.simcore import Environment, SimulationError, Timeout
from repro.simcore.engine import EmptySchedule


class TestClock:
    def test_starts_at_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_time(self, env):
        log = []

        def ticker(env):
            while True:
                yield Timeout(env, 1.0)
                log.append(env.now)

        env.process(ticker(env))
        env.run(until=3.5)
        assert log == [1.0, 2.0, 3.0]
        assert env.now == pytest.approx(3.5)

    def test_run_until_past_time_raises(self, env):
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    @pytest.mark.parametrize("loop", ["run", "run_bounded"])
    def test_nan_stop_time_rejected(self, env, loop):
        # A ``stop < now`` check lets NaN through: run() then pins the clock
        # to NaN and run_bounded() ignores its bound.
        last = env.timeout(5.0)
        env.run(until=1.0)
        with pytest.raises(SimulationError, match="invalid"):
            if loop == "run":
                env.run(until=float("nan"))
            else:
                env.run_bounded(last, float("nan"))
        assert env.now == 1.0
        assert env.run_bounded(last, 10.0) is True
        assert env.now == 5.0

    def test_run_drains_queue(self, env):
        done = []

        def proc(env):
            yield Timeout(env, 2)
            done.append(True)

        env.process(proc(env))
        env.run()
        assert done == [True]
        with pytest.raises(EmptySchedule):
            env.step()

    def test_run_until_untriggered_event_with_empty_schedule_raises(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            env.run(until=ev)


class TestStep:
    def test_step_empty_schedule_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_events_processed_counter(self, env):
        for delay in (1, 2, 3):
            Timeout(env, delay)
        env.run()
        assert env.events_processed == 3

    def test_priority_orders_same_time_events(self, env):
        order = []

        def proc(env):
            # The Initialize event is URGENT and must run before a NORMAL
            # timeout scheduled at the same instant.
            order.append("proc-started")
            yield Timeout(env, 1)

        t = Timeout(env, 0.0)
        t.add_callback(lambda e: order.append("timeout"))
        env.process(proc(env))
        env.run()
        assert order[0] == "proc-started"

    def test_negative_delay_rejected(self, env):
        # NaN compares false against everything: a ``delay < 0`` check lets
        # it through and the heap then orders events by a NaN time.
        env.run(until=1.0)
        for bad in (-0.1, float("nan")):
            with pytest.raises(SimulationError, match="invalid"):
                env.schedule(env.event(), delay=bad)
            with pytest.raises(SimulationError, match="invalid"):
                env.sleep(bad)
            with pytest.raises(SimulationError, match="invalid"):
                env.sleep_until(env.now + bad)
            with pytest.raises(SimulationError, match="invalid"):
                Timeout(env, bad)
        assert env.now == 1.0
        with pytest.raises(EmptySchedule):
            env.step()


class TestStepIsTheOnlyDispatch:
    """Every run loop dispatches through ``Environment.step``.

    The benchmark counts dispatches by wrapping ``Environment.step``; a run
    loop (or a sanitized step) that bypassed it would read zero.
    """

    @staticmethod
    def _model(env):
        def worker(env, delay):
            for _ in range(3):
                yield Timeout(env, delay)

        procs = [env.process(worker(env, delay)) for delay in (0.5, 1.0, 1.5)]
        return procs[-1]

    @pytest.mark.parametrize("sanitized", [False, True], ids=["plain", "sanitized"])
    @pytest.mark.parametrize("mode", ["drain", "until_time", "until_event", "bounded"])
    def test_dispatch_count_equals_events_processed(self, monkeypatch, sanitized, mode):
        calls = []
        original = Environment.step

        def counted(environment):
            calls.append(environment)
            return original(environment)

        monkeypatch.setattr(Environment, "step", counted)
        env = Environment(sanitize=sanitized)
        try:
            assert env.sanitize is sanitized
            last = self._model(env)
            if mode == "drain":
                env.run()
            elif mode == "until_time":
                env.run(until=2.0)
            elif mode == "until_event":
                env.run(until=last)
            else:
                assert env.run_bounded(last, 2.0) is False
                assert env.run_bounded(last, 10.0) is True
        finally:
            sanitize.uninstall_guards()
        assert env.events_processed > 0
        assert len(calls) == env.events_processed
        assert all(caller is env for caller in calls)


class TestDeterminism:
    def test_same_model_same_timeline(self):
        def build_and_run():
            env = Environment()
            log = []

            def worker(env, wid):
                for i in range(3):
                    yield Timeout(env, 0.5 * (wid + 1))
                    log.append((round(env.now, 6), wid, i))

            for wid in range(4):
                env.process(worker(env, wid))
            env.run()
            return log

        assert build_and_run() == build_and_run()

    def test_helpers_create_bound_objects(self, env):
        assert env.event().env is env
        assert env.timeout(1.0).env is env
