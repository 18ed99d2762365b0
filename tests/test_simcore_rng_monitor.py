"""Unit tests for the named random streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simcore import RandomStreams


class TestRandomStreams:
    def test_streams_are_deterministic_across_instances(self):
        a = RandomStreams(seed=7).stream("network").random(5)
        b = RandomStreams(seed=7).stream("network").random(5)
        assert np.allclose(a, b)

    def test_streams_are_independent_of_request_order(self):
        r1 = RandomStreams(seed=3)
        first_net = r1.stream("network").random(3)
        r2 = RandomStreams(seed=3)
        r2.stream("pfs").random(10)  # interleave another stream first
        second_net = r2.stream("network").random(3)
        assert np.allclose(first_net, second_net)

    def test_different_names_differ(self):
        rs = RandomStreams(seed=1)
        assert not np.allclose(rs.stream("a").random(4), rs.stream("b").random(4))

    def test_jitter_zero_cv_is_exact(self):
        assert RandomStreams(0).jitter("x", 2.5, 0.0) == 2.5

    def test_jitter_mean_is_respected(self):
        rs = RandomStreams(0)
        samples = [rs.jitter("j", 10.0, 0.2) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(10.0, rel=0.05)

    def test_jitter_validation(self):
        rs = RandomStreams(0)
        with pytest.raises(ValueError):
            rs.jitter("x", -1.0, 0.1)
        with pytest.raises(ValueError):
            rs.jitter("x", 1.0, -0.1)

    def test_contains_and_len(self):
        rs = RandomStreams(0)
        rs.stream("a")
        assert "a" in rs and "b" not in rs
        assert len(rs) == 1
