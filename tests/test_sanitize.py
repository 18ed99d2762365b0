"""Tests for the runtime determinism sanitizer (``repro.sanitize``).

Each trap is demonstrated on a deliberately broken fixture — a wall-clock
read mid-event, an unseeded global random draw, a set at an order-sensitive
boundary, a use-after-recycle hold, a crediting imbalance — and each has a
near-identical correct twin that must run trap-free.  A final smoke test
checks a sanitized pipeline run is bit-identical with an unsanitized one:
the sanitizer is a pure detector.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import sanitize
from repro.sanitize import SanitizerTrap
from repro.simcore import AllOf, Environment, Resource, SanitizedEnvironment, Store


@pytest.fixture(autouse=True)
def _guards_restored():
    """Leave the process clock/RNG untouched for the rest of the suite."""
    yield
    sanitize.uninstall_guards()


def _run_trapped(proc_fn, **env_kwargs):
    env = Environment(sanitize=True, **env_kwargs)
    env.process(proc_fn(env))
    with pytest.raises(SanitizerTrap) as excinfo:
        env.run()
    return str(excinfo.value)


# -- wall-clock and global-RNG guards -------------------------------------


class TestClockAndRandomGuards:
    def test_wall_clock_read_during_event_traps(self):
        def broken(env):
            yield env.sleep(1.0)
            time.perf_counter()

        message = _run_trapped(broken)
        assert "time.perf_counter()" in message
        assert "D202" in message

    def test_global_random_draw_during_event_traps(self):
        def broken(env):
            yield env.sleep(1.0)
            random.random()

        message = _run_trapped(broken)
        assert "random.random()" in message
        assert "D201" in message

    def test_guards_are_transparent_outside_event_execution(self):
        env = Environment(sanitize=True)
        assert sanitize.guards_installed()
        # The harness (pytest, the bench timer) keeps its wall clock.
        assert isinstance(time.perf_counter(), float)
        assert 0.0 <= random.random() < 1.0

        def fine(env):
            yield env.sleep(1.0)

        env.process(fine(env))
        env.run()
        assert isinstance(time.perf_counter(), float)

    def test_install_is_idempotent_and_uninstall_restores(self):
        originals = (time.perf_counter, random.random)
        sanitize.install_guards()
        patched = (time.perf_counter, random.random)
        sanitize.install_guards()
        assert (time.perf_counter, random.random) == patched
        sanitize.uninstall_guards()
        assert (time.perf_counter, random.random) == originals
        assert not sanitize.guards_installed()

    def test_direct_step_traps_a_wall_clock_read(self):
        env = Environment(sanitize=True)
        event = env.event()
        event.add_callback(lambda _event: time.perf_counter())
        event.succeed()
        with pytest.raises(SanitizerTrap, match=r"time\.perf_counter\(\)"):
            env.step()
        # The trap window closes even though the step raised.
        assert not sanitize.in_sanitized_step()
        assert isinstance(time.perf_counter(), float)

    def test_seeded_stream_randomness_stays_trap_free(self):
        from repro.simcore import RandomStreams

        streams = RandomStreams(7)

        def fine(env):
            yield env.sleep(streams.jitter("svc", 1.0, 0.1))

        env = Environment(sanitize=True)
        env.process(fine(env))
        env.run()
        assert env.now > 0.0


# -- order-sensitive boundaries -------------------------------------------


class TestOrderedBoundaries:
    def test_condition_built_from_a_set_traps(self):
        env = Environment(sanitize=True)
        events = {env.sleep(1.0), env.sleep(2.0)}
        with pytest.raises(SanitizerTrap, match="D203"):
            AllOf(env, events)

    def test_condition_built_from_a_list_is_fine(self):
        env = Environment(sanitize=True)
        done = AllOf(env, [env.sleep(1.0), env.sleep(2.0)])
        env.run(done)
        assert env.now == 2.0

    def test_check_ordered_names_the_boundary(self):
        with pytest.raises(SanitizerTrap, match="batch coalescing"):
            sanitize.check_ordered(frozenset({1, 2}), "batch coalescing")
        sanitize.check_ordered([1, 2], "batch coalescing")
        sanitize.check_ordered((1, 2), "batch coalescing")


# -- use-after-recycle poisoning ------------------------------------------


class TestUseAfterRecycle:
    def test_holding_a_store_put_past_its_yield_traps(self):
        def broken(env, store):
            ev = store.put("x")
            yield ev
            yield ev  # use-after-recycle: the event has been poisoned

        env = Environment(sanitize=True, pool_events=True)
        store = Store(env)
        env.process(broken(env, store))
        with pytest.raises(SanitizerTrap) as excinfo:
            env.run()
        assert "after recycling" in str(excinfo.value)
        assert "generation" in str(excinfo.value)

    @pytest.mark.parametrize("make", ["sleep", "get"])
    def test_holding_a_pooled_event_past_a_later_step_traps(self, make):
        def broken(env, store):
            yield store.put("x")
            ev = env.sleep(1.0) if make == "sleep" else store.get()
            yield ev
            yield env.sleep(1.0)  # a later step: ev has been recycled by now
            yield ev

        env = Environment(sanitize=True, pool_events=True)
        store = Store(env)
        env.process(broken(env, store))
        with pytest.raises(SanitizerTrap) as excinfo:
            env.run()
        name = "PooledTimeout" if make == "sleep" else "StoreGet"
        assert f"use of {name} after recycling" in str(excinfo.value)

    def test_fresh_event_per_operation_is_fine(self):
        def fine(env, store):
            yield store.put("x")
            item = yield store.get()
            assert item == "x"

        env = Environment(sanitize=True, pool_events=True)
        store = Store(env)
        env.process(fine(env, store))
        env.run()

    def test_sanitize_keeps_free_lists_empty(self):
        def fine(env, store):
            for _ in range(5):
                yield store.put("x")
                yield store.get()
                yield env.sleep(1.0)

        env = Environment(sanitize=True, pool_events=True)
        store = Store(env)
        env.process(fine(env, store))
        env.run()
        assert env._put_pool == []
        assert env._get_pool == []
        assert env._timeout_pool == []

    def test_releases_are_never_recycled(self):
        releases = []

        def fine(env, resource):
            for _ in range(4):
                req = resource.request()
                yield req
                yield env.sleep(0.1)
                release = resource.release(req)
                releases.append(release)
                yield release  # legitimate: must not trap

        env = Environment(sanitize=True, pool_events=True)
        resource = Resource(env, capacity=1)
        env.process(fine(env, resource))
        env.run()
        assert env._release_pool == []
        assert len({id(release) for release in releases}) == 4

    def test_poison_list_poisons_instead_of_pooling(self):
        event = Environment().sleep(1.0)
        pool = sanitize.PoisonList()
        pool.append(event)
        assert pool == []
        assert event._generation == 1
        assert isinstance(event._value, SanitizerTrap)

    def test_poison_event_bumps_the_generation_counter(self):
        env = Environment()
        event = env.sleep(1.0)  # PooledTimeout: carries the generation slot
        sanitize.poison_event(event)
        sanitize.poison_event(event)
        assert event._generation == 2
        assert isinstance(event._value, SanitizerTrap)
        assert event.callbacks is None


# -- crediting validation -------------------------------------------------


class TestCreditingValidation:
    def test_zero_and_negative_counts_trap(self):
        def broken(env):
            yield env.sleep(1.0)
            env.credit_events(0)

        assert "credit_events(0)" in _run_trapped(broken)

        def negative(env):
            yield env.sleep(1.0)
            env.credit_events(-2)

        assert "credit_events(-2)" in _run_trapped(negative)

    def test_non_integer_count_traps(self):
        def broken(env):
            yield env.sleep(1.0)
            env.credit_events(1.5)

        assert "credit_events(1.5)" in _run_trapped(broken)

    def test_crediting_outside_event_execution_traps(self):
        env = Environment(sanitize=True)
        with pytest.raises(SanitizerTrap, match="outside event execution"):
            env.credit_events(2)

    def test_valid_crediting_counts_like_unsanitized(self):
        def fast(env):
            yield env.sleep(1.0)
            env.credit_events(2)

        env = Environment(sanitize=True)
        env.process(fast(env))
        env.run()
        plain = Environment()
        plain.process(fast(plain))
        plain.run()
        assert env.events_processed == plain.events_processed


# -- enablement and end-to-end identity -----------------------------------


class TestEnablement:
    def test_default_enabled_reads_the_environment_variable(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize.default_enabled() is False
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert sanitize.default_enabled() is False
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.default_enabled() is True
        env = Environment()
        assert env.sanitize is True
        assert Environment(sanitize=False).sanitize is False

    def test_sanitize_flag_builds_the_subclass(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        env = Environment(5.0, pool_events=True, sanitize=True)
        assert type(env) is SanitizedEnvironment
        assert isinstance(env, Environment)
        assert (env.now, env.pool_events) == (5.0, True)
        assert type(Environment()) is Environment
        assert type(Environment(sanitize=False)) is Environment
        assert SanitizedEnvironment().sanitize is True

    def test_sanitized_run_is_bit_identical(self):
        from repro.bench.experiments import pipeline_chain
        from repro.sweep.store import result_payload
        from repro.workflow.runner import run_pipeline

        pipeline = pipeline_chain(total_cores=96, steps=2)
        sanitized = run_pipeline(pipeline.replace(sanitize=True))
        plain = run_pipeline(pipeline)
        assert result_payload(sanitized) == result_payload(plain)
