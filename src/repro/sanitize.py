"""Runtime determinism sanitizer: the dynamic counterpart of ``repro.lint``.

The static analyses in :mod:`repro.lint` prove determinism and event-pooling
invariants where the dataflow lattice can see them; this module traps, *at
run time*, the violations it cannot — an unseeded global :mod:`random` draw
reached through a callback the call graph over-approximates, a wall-clock
read behind an alias, a recycled event touched by a holder the escape
analysis never saw.  It is the simulation analogue of AddressSanitizer:
cheap enough to run the CI smoke sweep under, precise enough that every trap
names the violated contract.

Enable it per environment (``Environment(sanitize=True)``) or globally for a
whole run with ``REPRO_SANITIZE=1``; either way the kernel builds a
:class:`~repro.simcore.engine.SanitizedEnvironment`, which:

* installs guards on the global :mod:`random` module and the :mod:`time`
  clock readers that raise :class:`SanitizerTrap` whenever they are called
  *while a sanitized environment is executing an event* (instance-based
  :class:`~repro.simcore.rng.RandomStreams` generators are untouched — they
  are the sanctioned randomness);
* **poisons** recyclable events instead of pooling them: its free lists are
  :class:`PoisonList` objects, which stay empty, so every allocation is
  fresh, and a processed event is marked failed with a
  :class:`SanitizerTrap` carrying a bumped generation counter — any holder
  that touches it after recycling has the trap thrown into its frame
  instead of silently observing the event's next incarnation;
* validates :meth:`~repro.simcore.engine.Environment.credit_events` calls
  (positive integer counts, only while an event is executing) so a fast
  path cannot quietly corrupt the machine-independent event count;
* rejects ``set``/``frozenset`` arguments at the order-sensitive engine
  boundaries (condition events, batch coalescing) where hash-salted
  iteration order would silently break bit-identity.

This module lives *outside* the model packages on purpose: it reads
``os.environ`` (banned in model code by rule D204) and monkey-patches
wall-clock functions (banned by D202) — it is measurement infrastructure,
not model.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = [
    "PoisonList",
    "SanitizerTrap",
    "check_ordered",
    "default_enabled",
    "guards_installed",
    "in_sanitized_step",
    "install_guards",
    "poison_event",
    "uninstall_guards",
]


class SanitizerTrap(RuntimeError):
    """A determinism contract was violated at run time.

    Raised (or delivered through the event-failure machinery) by the hooks
    this module installs.  The message always names the violated contract
    and, for use-after-recycle traps, the event's generation counter.
    """


def default_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized environments by default.

    Any value other than the empty string or ``"0"`` enables it, so
    ``REPRO_SANITIZE=1 python -m repro.sweep ...`` sanitizes a whole run
    without touching any config object.
    """
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


# -- the sanitized-step window -------------------------------------------
#: Depth of ``SanitizedEnvironment.step`` frames currently executing.  The
#: clock/random guards only trap while this is positive, so harness code
#: (pytest, the sweep runner, the bench timer) keeps its wall clock.
_stepping = 0


def enter_step() -> None:
    """Mark the start of a sanitized event execution window."""
    global _stepping
    _stepping += 1


def exit_step() -> None:
    """Mark the end of a sanitized event execution window."""
    global _stepping
    _stepping -= 1


def in_sanitized_step() -> bool:
    """``True`` while a sanitized environment is executing an event."""
    return _stepping > 0


# -- wall-clock and global-RNG guards ------------------------------------
#: ``(module, attribute)`` pairs patched by :func:`install_guards`.
_CLOCK_FUNCTIONS: Tuple[str, ...] = (
    "time",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "time_ns",
)
_RANDOM_FUNCTIONS: Tuple[str, ...] = (
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "gammavariate",
    "lognormvariate",
    "paretovariate",
    "triangular",
    "vonmisesvariate",
    "weibullvariate",
    "getrandbits",
)

#: Original callables saved by :func:`install_guards`, keyed by
#: ``("time"|"random", attribute)``.
_saved: Dict[Tuple[str, str], Callable[..., Any]] = {}


def _guard(kind: str, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap ``original`` to trap calls made from inside a sanitized step."""

    def guarded(*args: Any, **kwargs: Any) -> Any:
        """Call ``original``, or trap inside a sanitized step."""
        if _stepping > 0:
            raise SanitizerTrap(
                f"sanitizer: {kind}.{name}() called during event execution — "
                + (
                    "model randomness must flow through a seeded "
                    "RandomStreams generator (rule D201)"
                    if kind == "random"
                    else "simulated time is env.now; wall-clock reads make "
                    "results machine-dependent (rule D202)"
                )
            )
        return original(*args, **kwargs)

    guarded.__name__ = getattr(original, "__name__", name)
    return guarded


def install_guards() -> None:
    """Patch global clock/RNG entry points with sanitized-step traps.

    Idempotent; installed once per process and left in place (the wrappers
    are transparent pass-throughs outside sanitized steps).  Callers that
    bound the originals before installation (``from time import time``) are
    not intercepted — the linter's D201/D202 rules cover model code
    statically, and model code receives its modules by attribute lookup.
    """
    if _saved:
        return
    for name in _CLOCK_FUNCTIONS:
        original = getattr(time, name, None)
        if callable(original):
            _saved[("time", name)] = original
            setattr(time, name, _guard("time", name, original))
    for name in _RANDOM_FUNCTIONS:
        original = getattr(random, name, None)
        if callable(original):
            _saved[("random", name)] = original
            setattr(random, name, _guard("random", name, original))


def uninstall_guards() -> None:
    """Restore the original clock/RNG functions (test teardown helper)."""
    for (kind, name), original in _saved.items():
        module = time if kind == "time" else random
        setattr(module, name, original)
    _saved.clear()


def guards_installed() -> bool:
    """Whether :func:`install_guards` is currently in effect."""
    return bool(_saved)


# -- event poisoning (use-after-recycle) ---------------------------------
def poison_event(event: Any) -> None:
    """Mark a would-be-recycled event so any later touch traps.

    :class:`PoisonList` calls this *instead of* keeping the event, at
    exactly the points recycling would happen.  The event is left
    processed-and-failed with a :class:`SanitizerTrap` value and a
    bumped ``_generation`` counter: a holder that yields it has the trap
    thrown into its generator frame; a holder that reads ``.value`` sees the
    trap object.  Because nothing is actually pooled, every allocation stays
    fresh and the trap is a pure detector — it never changes which object a
    correct program observes.
    """
    generation = getattr(event, "_generation", 0) + 1
    event._generation = generation
    event.callbacks = None
    event._ok = False
    event._defused = False
    event._value = SanitizerTrap(
        f"sanitizer: use of {type(event).__name__} after recycling "
        f"(generation {generation}) — pooled events must not outlive their "
        "step() dispatch; see docs/static-analysis.md"
    )


class PoisonList(List[Any]):
    """A free list that never pools: :meth:`append` poisons the event instead.

    A :class:`~repro.simcore.engine.SanitizedEnvironment` holds its free
    lists in these, so the kernel's own recycling code poisons every event
    it would have pooled, and the list stays empty.
    """

    __slots__ = ()

    def append(self, event: Any, /) -> None:
        """Poison ``event`` (see :func:`poison_event`); keep nothing."""
        poison_event(event)


# -- order-sensitive boundaries ------------------------------------------
def check_ordered(values: Any, where: str) -> None:
    """Trap ``set``/``frozenset`` inputs at an order-sensitive boundary.

    Set iteration order varies across processes (hash salting); feeding one
    into anything that schedules events bakes that order into the event
    heap.  The engine calls this from its order-sensitive entry points when
    sanitizing (the static rule D203 catches the literal cases).
    """
    if isinstance(values, (set, frozenset)):
        raise SanitizerTrap(
            f"sanitizer: {where} received a {type(values).__name__}; "
            "iteration order of sets is not deterministic across processes — "
            "pass a list or tuple (rule D203)"
        )
