"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, List, Optional, Tuple

from repro import sanitize as _sanitize
from repro.sanitize import SanitizerTrap
from repro.simcore.errors import SimulationError
from repro.simcore.events import (
    Event,
    NORMAL,
    PENDING,
    Process,
    ProcessGenerator,
    Timeout,
)

__all__ = ["Environment", "SanitizedEnvironment", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised internally by :meth:`Environment.step` when no events remain."""


class Environment:
    """Holds the simulation clock and executes events in time order.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds by convention across
        this code base).
    sanitize:
        Build a :class:`SanitizedEnvironment` instead, which runs the same
        kernel with the :mod:`repro.sanitize` determinism traps armed.
        ``None`` (the default) defers to the ``REPRO_SANITIZE`` environment
        variable.

    Notes
    -----
    Ties in event time are broken first by scheduling *priority* (urgent events
    such as process initialisation and interrupts run before normal events),
    then by insertion order, which keeps the simulation fully deterministic.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_active_process",
        "_events_processed",
        "_solo_callback",
    )

    #: Whether the runtime determinism sanitizer is armed (see
    #: :class:`SanitizedEnvironment`).
    sanitize = False

    def __new__(
        cls,
        initial_time: float = 0.0,
        *,
        sanitize: Optional[bool] = None,
    ) -> "Environment":
        if cls is Environment and (
            _sanitize.default_enabled() if sanitize is None else sanitize
        ):
            return object.__new__(SanitizedEnvironment)
        return object.__new__(cls)

    def __init__(
        self,
        initial_time: float = 0.0,
        *,
        sanitize: Optional[bool] = None,
    ):
        # ``sanitize`` only chooses the class (see ``__new__``).
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        self._events_processed = 0
        # True while step() is executing the callback of an event that had
        # exactly one.  In that window, a freshly created event that (a) is
        # already triggered and (b) faces an empty same-time horizon (no
        # queued event at the current instant) is guaranteed to be the very
        # next pop with nothing running in between — so resources may
        # complete it in place (see Store._put/_get, Resource._do_request)
        # and let the creator continue synchronously, which is
        # order-identical to the queue trip.
        self._solo_callback = False

    # -- clock and bookkeeping -------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (``None`` between events)."""
        return self._active_process

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (useful for model stats)."""
        return self._events_processed

    def __repr__(self) -> str:
        return (
            f"<Environment t={self._now:.6g} queued={len(self._queue)} "
            f"processed={self._events_processed}>"
        )

    # -- event creation helpers ------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event` bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process from ``generator`` and return its event."""
        return Process(self, generator)

    def sleep(self, delay: float) -> Timeout:
        """A :class:`Timeout` firing ``delay`` from now (hot-path ``timeout``).

        The same event as :meth:`timeout` with no value, built without the
        ``__init__`` chain: the process loops of every layer sleep through
        here once per modelled step.
        """
        if not delay >= 0:
            raise SimulationError(f"invalid delay {delay!r}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = None
        event._ok = True
        event._defused = False
        event._delay = delay
        heappush(self._queue, (self._now + delay, NORMAL, next(self._eid), event))
        return event

    def sleep_until(self, when: float) -> Timeout:
        """A :class:`Timeout` firing at the *absolute* time ``when``.

        The coalescing hook: a batch fast-forward computes its exact end time
        with the same float arithmetic the per-call path would use, then jumps
        the clock straight to it — scheduling by absolute time avoids the
        ``now + (end - now)`` round trip that would break bit-identity.
        """
        if not when >= self._now:
            raise SimulationError(
                f"invalid sleep_until({when!r}): not at or after now ({self._now!r})"
            )
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = None
        event._ok = True
        event._defused = False
        event._delay = when - self._now
        heappush(self._queue, (when, NORMAL, next(self._eid), event))
        return event

    # -- fast-path accounting ---------------------------------------------
    def credit_events(self, count: int) -> None:
        """Account ``count`` events that a fast path elided.

        The engine's fast paths (core grants on guaranteed-uncontended nodes,
        compute coalescing) skip queue trips whose processing would have had
        no observable effect except advancing :attr:`events_processed`.  Each
        fast path credits exactly the events the equivalent slow path would
        have consumed, so the counter stays a *model* property — bit-stable
        for fixed seeds — rather than an engine implementation detail.
        :class:`SanitizedEnvironment` validates the count.
        """
        self._events_processed += count

    def trigger_inplace(self, event: Event, value: Any = None) -> None:
        """Trigger a freshly created event, completing it in place when safe.

        The shared trigger of the resource layer's fast paths, keeping the
        safety proof in one audited spot.  The event must be untriggered and
        callback-free (just created, no reference escaped).  When the engine
        is executing a solo callback (:attr:`_solo_callback`) and no other
        event is queued at the current instant, the event's queue trip would
        be the immediate next pop with nothing running in between — so it is
        completed in place (the elided pop is counted) and its creator
        continues synchronously, order-identical to the queued behaviour.
        Otherwise the event is scheduled normally via ``succeed``.
        """
        queue = self._queue
        if self._solo_callback and (not queue or queue[0][0] > self._now):
            event._ok = True
            event._value = value
            event.callbacks = None
            self._events_processed += 1
        else:
            event.succeed(value)

    def complete(self, event: Event) -> None:
        """Process a callback-free event in place, skipping the queue.

        For bookkeeping events that nothing can ever wait on (the event is
        triggered and completed within its creator, before any reference
        escapes), a queue trip only burns a heap slot.  The event must carry
        no callbacks and must already hold its outcome; it is marked
        processed and counted exactly as if it had been popped normally.
        """
        if event.callbacks:
            raise SimulationError("complete() requires an event with no callbacks")
        if event._value is PENDING:
            raise SimulationError("complete() requires an already-triggered event")
        event.callbacks = None
        self._events_processed += 1

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place ``event`` on the queue ``delay`` time units in the future."""
        # Hot path: every timeout, message and process resumption goes through
        # here, so the zero-delay common case skips the float comparison work.
        if delay:
            if not delay >= 0:  # written so that NaN fails too
                raise SimulationError(f"invalid delay {delay!r}")
            when = self._now + delay
        else:
            when = self._now
        heappush(self._queue, (when, priority, next(self._eid), event))

    def step(self) -> None:
        """Process exactly one event (advancing the clock to its time).

        Every event of every run loop, sanitized or not, enters here, so a
        wrapper installed on ``Environment.step`` sees each dispatch once.
        """
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        when, _prio, _eid, event = heappop(queue)

        self._now = when
        callbacks = event.callbacks
        if callbacks is None:
            raise SimulationError(f"{event!r} was scheduled twice")
        event.callbacks = None
        if callbacks:
            if len(callbacks) == 1:
                self._solo_callback = True
                try:
                    callbacks[0](event)
                finally:
                    self._solo_callback = False
            else:
                for callback in callbacks:
                    callback(event)
        self._events_processed += 1

        if not event._ok and not event._defused:
            # Nobody waited on a failed event: surface the error to the caller
            # rather than silently dropping it.
            raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until no events remain;
            * a number — run until the clock reaches that time;
            * an :class:`Event` — run until that event has been processed and
              return its value.
        """
        if until is None:
            # Drain the queue (the common whole-simulation run).
            step = self.step
            while self._queue:
                step()
            return None

        if isinstance(until, Event):
            stop_event = until
            step = self.step
            while stop_event.callbacks is not None:
                if not self._queue:
                    raise SimulationError(
                        "run(until=event) exhausted the schedule before the "
                        "event was triggered"
                    )
                step()
            if not stop_event._ok:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value

        stop_time = float(until)
        if not stop_time >= self._now:  # written so that NaN fails too
            raise SimulationError(
                f"invalid until={stop_time!r}: not at or after the current "
                f"time {self._now!r}"
            )
        queue = self._queue
        step = self.step
        while queue and queue[0][0] <= stop_time:
            step()
        self._now = stop_time
        return None

    def run_bounded(self, stop_event: Event, stop_time: float) -> bool:
        """Run until ``stop_event`` is processed or the clock passes ``stop_time``.

        The segment primitive of the tenant co-scheduling layer: a job's
        private environment is advanced epoch by epoch, stopping either at
        the job's own completion event (return ``True``) or at the facility
        epoch boundary (return ``False``), whichever the event queue reaches
        first.

        The two outcomes deliberately mirror the two ``run(until=...)``
        modes they split the difference between:

        * when ``stop_event`` is processed, the clock is left at the event's
          own time — exactly as ``run(until=event)`` leaves it — so a
          completed segment is indistinguishable from an unsegmented run
          (no post-completion events are processed, ``events_processed`` and
          ``now`` match bit for bit);
        * otherwise the queue is drained through ``stop_time`` and the clock
          is then pinned to it, exactly as ``run(until=time)`` does, so the
          next segment resumes from the boundary.

        Raises :class:`SimulationError` if the schedule empties before the
        event triggers, and re-raises the event's value if it failed —
        the same contract as ``run(until=event)``.
        """
        bound = float(stop_time)
        if not bound >= self._now:  # written so that NaN fails too
            raise SimulationError(
                f"invalid stop_time={bound!r}: not at or after the current "
                f"time {self._now!r}"
            )
        queue = self._queue
        step = self.step
        try:
            if bound == float("inf"):
                # No boundary to reach: step() alone, as run(until=event).
                while stop_event.callbacks is not None:
                    step()
            else:
                while stop_event.callbacks is not None:
                    if queue and queue[0][0] > bound:
                        self._now = bound
                        return False
                    step()
        except EmptySchedule:
            raise SimulationError(
                "run_bounded exhausted the schedule before the event was triggered"
            ) from None
        if not stop_event._ok:
            stop_event._defused = True
            raise stop_event._value
        return True


class SanitizedEnvironment(Environment):
    """An :class:`Environment` with the :mod:`repro.sanitize` traps armed.

    ``Environment(sanitize=True)``, or ``Environment()`` under
    ``REPRO_SANITIZE=1``, builds one.  It runs the same kernel with two
    differences:

    * :meth:`step` holds the trap window open around ``Environment.step``
      (``try/finally``, so a trap cannot leave it open): the clock and
      global-RNG guards raise while an event executes;
    * :meth:`credit_events` is validated.
    """

    __slots__ = ("_in_event",)

    sanitize = True

    def __init__(
        self,
        initial_time: float = 0.0,
        *,
        sanitize: Optional[bool] = None,
    ):
        super().__init__(initial_time)
        # True while step() runs: crediting is legal only in that window.
        self._in_event = False
        _sanitize.install_guards()

    def step(self) -> None:
        """Process one event through ``Environment.step`` with the traps armed.

        The call names ``Environment.step`` rather than going through
        ``super()``: it is cheaper per event, and a wrapper installed on
        ``Environment.step`` (the benchmark's dispatch counter) still sees
        every event once.
        """
        _sanitize.enter_step()
        self._in_event = True
        try:
            Environment.step(self)
        finally:
            self._in_event = False
            _sanitize.exit_step()

    def credit_events(self, count: int) -> None:
        """Account elided events, trapping any credit that would corrupt the count.

        The count must be a positive integer, credited while an event is
        executing (a fast path only ever elides queue trips from inside
        one).  Anything else traps here instead of surfacing as a
        bit-identity diff three layers up.
        """
        if count.__class__ is not int or count <= 0:
            raise SanitizerTrap(
                f"sanitizer: credit_events({count!r}) — elided-event "
                "credits must be positive ints (docs/performance.md)"
            )
        if not self._in_event:
            raise SanitizerTrap(
                "sanitizer: credit_events() outside event execution — "
                "fast paths elide queue trips only from within step()"
            )
        self._events_processed += count
