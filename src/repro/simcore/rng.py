"""Reproducible named random-number streams.

Every stochastic element of the cluster model (compute-time jitter, file-system
service-time variation, network background load) draws from its own named
stream so that adding randomness to one subsystem never perturbs another — a
standard technique for variance reduction and reproducibility in simulation
studies.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["RandomStreams", "stable_hash"]


class RandomStreams:
    """A registry of independent, deterministically seeded NumPy generators."""

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The base seed every named stream is derived from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``.

        The stream's seed is derived from the registry seed and the name via
        ``SeedSequence.spawn``-style hashing, so streams are independent and
        stable across runs and across the order in which they are requested.
        """
        if name not in self._streams:
            ss = np.random.SeedSequence([self._seed, stable_hash(name)])
            self._streams[name] = np.random.default_rng(ss)
        return self._streams[name]

    def jitter(self, name: str, mean: float, cv: float) -> float:
        """Draw one lognormal sample with the given mean and coefficient of variation.

        A convenience used by cost models: ``cv=0`` returns ``mean`` exactly
        (fully deterministic), otherwise a lognormal with the requested mean
        and relative spread is sampled from stream ``name``.
        """
        if mean < 0:
            raise ValueError("mean must be non-negative")
        if cv < 0:
            raise ValueError("cv must be non-negative")
        if mean == 0.0 or cv == 0.0:
            return float(mean)
        sigma2 = np.log1p(cv * cv)
        mu = np.log(mean) - 0.5 * sigma2
        return float(self.stream(name).lognormal(mean=mu, sigma=np.sqrt(sigma2)))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)


def stable_hash(text: str) -> int:
    """64-bit FNV-1a digest of ``text``, stable across processes and hosts.

    Python's ``hash`` of a string is salted per process; this one is not, so
    stream seeds, sweep case seeds and retry jitter derived from it repeat
    exactly on every run.  The offset basis is one digit short of the
    published 14695981039346656037; it stays, because stored case seeds and
    every seeded stream derive from it.
    """
    h = 1469598103934665603  # offset basis
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h
