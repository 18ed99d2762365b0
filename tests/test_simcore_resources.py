"""Unit tests for resources, stores and containers."""

from __future__ import annotations

import pytest

from repro.simcore import (
    Container,
    FilterStore,
    Resource,
    SimulationError,
    Store,
    Timeout,
)


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_grant_and_queue(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(env, res, uid, hold):
            req = res.request()
            yield req
            order.append(("acquired", uid, env.now))
            yield Timeout(env, hold)
            res.release(req)

        env.process(user(env, res, "a", 2.0))
        env.process(user(env, res, "b", 1.0))
        env.run()
        assert order == [("acquired", "a", 0.0), ("acquired", "b", 2.0)]

    def test_count_and_queue_length(self, env):
        res = Resource(env, capacity=2)

        def holder(env, res):
            req = res.request()
            yield req
            yield Timeout(env, 10)
            res.release(req)

        for _ in range(3):
            env.process(holder(env, res))
        env.run(until=1.0)
        assert res.count == 2
        assert res.queue_length == 1

    def test_release_unknown_request_raises(self, env):
        res = Resource(env)
        other = Resource(env)
        req = other.request()
        env.run()
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        assert res.queue_length == 1
        second.cancel()
        assert res.queue_length == 0
        assert first.triggered


class TestStore:
    def test_fifo_order(self, env):
        store = Store(env)
        got = []

        def producer(env, store):
            for i in range(3):
                yield store.put(i)

        def consumer(env, store):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == [0, 1, 2]

    def test_bounded_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        times = []

        def producer(env, store):
            yield store.put("a")
            start = env.now
            yield store.put("b")
            times.append((start, env.now))

        def consumer(env, store):
            yield Timeout(env, 5)
            yield store.get()

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert times == [(0.0, 5.0)]

    def test_get_blocks_until_item(self, env):
        store = Store(env)
        got = []

        def consumer(env, store):
            item = yield store.get()
            got.append((item, env.now))

        def producer(env, store):
            yield Timeout(env, 3)
            yield store.put("x")

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert got == [("x", 3.0)]

    def test_len(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        env.run()
        assert len(store) == 2

    def test_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)


class TestFilterStore:
    def test_filtered_get(self, env):
        store = FilterStore(env)
        got = []

        def consumer(env, store):
            item = yield store.get(lambda x: x % 2 == 0)
            got.append(item)

        def producer(env, store):
            yield store.put(1)
            yield store.put(3)
            yield Timeout(env, 1)
            yield store.put(4)

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert got == [4]
        assert store.items == [1, 3]


class TestContainer:
    def test_level_tracking(self, env):
        c = Container(env, capacity=10, init=4)
        c.put(3)
        env.run()
        assert c.level == 7
        c.get(5)
        env.run()
        assert c.level == 2

    def test_get_blocks_until_available(self, env):
        c = Container(env, capacity=10, init=0)
        times = []

        def consumer(env, c):
            yield c.get(5)
            times.append(env.now)

        def producer(env, c):
            yield Timeout(env, 2)
            yield c.put(5)

        env.process(consumer(env, c))
        env.process(producer(env, c))
        env.run()
        assert times == [2.0]

    def test_put_blocks_at_capacity(self, env):
        c = Container(env, capacity=5, init=5)
        times = []

        def producer(env, c):
            yield c.put(2)
            times.append(env.now)

        def consumer(env, c):
            yield Timeout(env, 4)
            yield c.get(3)

        env.process(producer(env, c))
        env.process(consumer(env, c))
        env.run()
        assert times == [4.0]

    def test_validation(self, env):
        with pytest.raises(SimulationError):
            Container(env, capacity=0)
        with pytest.raises(SimulationError):
            Container(env, capacity=5, init=6)
        c = Container(env, capacity=5)
        with pytest.raises(SimulationError):
            c.put(0)
        with pytest.raises(SimulationError):
            c.get(-1)
