"""Unit tests for the event primitives of the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.simcore import (
    AllOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)


class TestEvent:
    def test_initial_state(self, env):
        ev = Event(env)
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = Event(env).value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = Event(env).ok

    def test_succeed_sets_value(self, env):
        ev = Event(env).succeed(42)
        assert ev.triggered and ev.ok and ev.value == 42

    def test_succeed_twice_raises(self, env):
        ev = Event(env).succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(SimulationError):
            Event(env).fail("not an exception")  # type: ignore[arg-type]

    def test_fail_sets_exception_value(self, env):
        exc = ValueError("boom")
        ev = Event(env).fail(exc)
        ev.defuse()
        assert ev.triggered and not ev.ok and ev.value is exc

    def test_callbacks_run_on_processing(self, env):
        ev = Event(env)
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed("x")
        env.run()
        assert seen == ["x"]
        assert ev.processed

    def test_add_callback_after_processing_raises(self, env):
        ev = Event(env).succeed()
        env.run()
        with pytest.raises(SimulationError):
            ev.add_callback(lambda e: None)


class TestTimeout:
    def test_fires_at_delay(self, env):
        times = []

        def proc(env):
            yield Timeout(env, 2.5)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [2.5]

    def test_negative_delay_raises(self, env):
        with pytest.raises(SimulationError):
            Timeout(env, -1.0)

    def test_carries_value(self, env):
        values = []

        def proc(env):
            got = yield Timeout(env, 1.0, value="payload")
            values.append(got)

        env.process(proc(env))
        env.run()
        assert values == ["payload"]

    def test_zero_delay_allowed(self, env):
        t = Timeout(env, 0.0)
        env.run()
        assert t.processed


class TestProcess:
    def test_return_value_becomes_event_value(self, env):
        def proc(env):
            yield Timeout(env, 1)
            return "done"

        p = env.process(proc(env))
        assert env.run(p) == "done"

    def test_requires_generator(self, env):
        with pytest.raises(SimulationError):
            Process(env, lambda: None)  # type: ignore[arg-type]

    def test_yielding_non_event_fails_process(self, env):
        def proc(env):
            yield 42

        p = env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run(p)

    def test_exception_propagates_to_runner(self, env):
        def proc(env):
            yield Timeout(env, 1)
            raise RuntimeError("app bug")

        p = env.process(proc(env))
        with pytest.raises(RuntimeError, match="app bug"):
            env.run(p)

    def test_exception_can_be_caught_by_waiter(self, env):
        def failing(env):
            yield Timeout(env, 1)
            raise ValueError("inner")

        def waiter(env):
            try:
                yield env.process(failing(env))
            except ValueError as exc:
                return f"caught {exc}"

        w = env.process(waiter(env))
        assert env.run(w) == "caught inner"

    def test_is_alive(self, env):
        def proc(env):
            yield Timeout(env, 5)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_chained_processes(self, env):
        def child(env, delay):
            yield Timeout(env, delay)
            return delay * 2

        def parent(env):
            a = yield env.process(child(env, 1.0))
            b = yield env.process(child(env, 2.0))
            return a + b

        p = env.process(parent(env))
        assert env.run(p) == 6.0
        assert env.now == pytest.approx(3.0)


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim(env):
            try:
                yield Timeout(env, 100)
            except Interrupt as i:
                causes.append(i.cause)
                return "interrupted"

        def attacker(env, victim_proc):
            yield Timeout(env, 1)
            victim_proc.interrupt(cause="stop now")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        assert env.run(v) == "interrupted"
        assert causes == ["stop now"]
        assert env.now == pytest.approx(1.0)

    def test_cannot_interrupt_self(self, env):
        def proc(env):
            p = env.active_process
            p.interrupt()
            yield Timeout(env, 1)

        p = env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run(p)

    def test_interrupting_finished_process_raises(self, env):
        def proc(env):
            yield Timeout(env, 1)

        p = env.process(proc(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestConditions:
    def test_allof_waits_for_everything(self, env):
        def proc(env):
            t1 = Timeout(env, 1, value="a")
            t2 = Timeout(env, 3, value="b")
            result = yield AllOf(env, [t1, t2])
            return sorted(result.values())

        p = env.process(proc(env))
        assert env.run(p) == ["a", "b"]
        assert env.now == pytest.approx(3.0)

    def test_allof_empty_list_triggers_immediately(self, env):
        cond = AllOf(env, [])
        assert cond.triggered

    def test_allof_propagates_failure(self, env):
        def failing(env):
            yield Timeout(env, 1)
            raise RuntimeError("nope")

        def waiter(env):
            try:
                yield AllOf(env, [env.process(failing(env)), Timeout(env, 5)])
            except RuntimeError:
                return "failed"
            return "ok"

        p = env.process(waiter(env))
        assert env.run(p) == "failed"

    def test_mixed_environment_events_rejected(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(SimulationError):
            AllOf(env1, [Timeout(env1, 1), Timeout(env2, 1)])

    def test_len(self, env):
        cond = AllOf(env, [Timeout(env, 1), Timeout(env, 2), Timeout(env, 3)])
        assert len(cond) == 3
