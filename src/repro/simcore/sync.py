"""Synchronisation primitives built on the event kernel.

These model the synchronisation mechanisms the paper's Section 3 identifies as
performance bottlenecks in the baseline transports (the reader/writer locks
of DataSpaces/DIMES, modelled as a step interlock whose waiters block on a
:class:`ConditionVar`; the global barriers of Decaf and Flexpath) and the
condition variables Zipper's own work-stealing writer thread uses
(Algorithm 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from repro.simcore.errors import SimulationError
from repro.simcore.events import Event

if TYPE_CHECKING:
    from repro.simcore.engine import Environment

__all__ = ["SimBarrier", "ConditionVar", "OneShotSignal"]


class SimBarrier:
    """A reusable barrier over ``parties`` simulated processes.

    Models the collective barriers (``MPI_Barrier``, Decaf's per-step
    ``MPI_Waitall`` interlock) whose cost the paper measures.  Each call to
    :meth:`wait` returns an event that triggers once all parties of the current
    generation have arrived.
    """

    def __init__(self, env: "Environment", parties: int):
        if parties <= 0:
            raise SimulationError("parties must be positive")
        self.env = env
        self.parties = parties
        self._arrived: List[Event] = []
        self.generations_completed = 0

    @property
    def waiting(self) -> int:
        return len(self._arrived)

    def wait(self) -> Event:
        ev = Event(self.env)
        self._arrived.append(ev)
        if len(self._arrived) >= self.parties:
            generation, self._arrived = self._arrived, []
            self.generations_completed += 1
            for waiter in generation:
                waiter.succeed(self.generations_completed)
        return ev


class ConditionVar:
    """A condition variable: processes wait for an explicit notify.

    Unlike a POSIX condition variable there is no associated mutex; the model
    code re-checks its predicate after being woken, exactly as Algorithm 1 in
    the paper does ("wait on a condition variable and release the lock").
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._waiters: List[Event] = []
        self.notifications = 0

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        ev = Event(self.env)
        self._waiters.append(ev)
        return ev

    def notify(self, n: int = 1, value: Any = None) -> int:
        """Wake up to ``n`` waiters; returns the number actually woken."""
        woken = 0
        while self._waiters and woken < n:
            self._waiters.pop(0).succeed(value)
            woken += 1
        self.notifications += woken
        return woken

    def notify_all(self, value: Any = None) -> int:
        return self.notify(len(self._waiters), value)


class OneShotSignal:
    """A latch that is set once and releases every past and future waiter.

    Used to model "end of stream" notifications (e.g. the producer application
    telling the Zipper consumer runtime that no further blocks will arrive).
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._set = False
        self._value: Any = None
        self._waiters: List[Event] = []

    @property
    def is_set(self) -> bool:
        return self._set

    def set(self, value: Any = None) -> None:
        if self._set:
            return
        self._set = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)

    def wait(self) -> Event:
        ev = Event(self.env)
        if self._set:
            ev.succeed(self._value)
        else:
            self._waiters.append(ev)
        return ev
