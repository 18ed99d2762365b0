"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, List, Optional, Tuple

from repro import sanitize as _sanitize
from repro.sanitize import PoisonList, SanitizerTrap
from repro.simcore.errors import SimulationError
from repro.simcore.events import (
    Event,
    NORMAL,
    PENDING,
    PooledTimeout,
    Process,
    ProcessGenerator,
    Timeout,
)
from repro.simcore.resources import Release, StoreGet, StorePut

__all__ = ["Environment", "SanitizedEnvironment", "EmptySchedule", "POOLED_EVENT_CLASSES"]

#: Upper bound on the recycled-:class:`PooledTimeout` free list.  Generous
#: enough for every rank of a large pipeline to have one sleep in flight;
#: beyond it, extra events are simply left to the garbage collector.
_TIMEOUT_POOL_LIMIT = 512

#: Upper bound on each opt-in event free list (see ``pool_events``).
_EVENT_POOL_LIMIT = 512

#: Event classes the engine recycles.  ``PooledTimeout`` is always pooled
#: (its contract is opt-in at the call site: only ``Environment.sleep`` /
#: ``sleep_until`` hand one out); the other three are pooled only under
#: ``Environment(pool_events=True)``, which the pipeline runner enables on
#: the strength of the F501 escape-analysis certificate (``python -m
#: repro.lint --flow-report``).  The lint meta-tests pin this tuple to the
#: set of classes the analysis certifies.
POOLED_EVENT_CLASSES: Tuple[str, ...] = (
    "PooledTimeout",
    "StorePut",
    "StoreGet",
    "Release",
)

#: Sentinel parked in a recycled event's ``_value`` slot while it sits on a
#: free list.  Guards against double-recycling: an escaping holder that
#: yields an already-recycled event again is skipped instead of inserting
#: the same object into the pool twice (the sanitizer turns that same
#: misuse into a hard trap).
_RECYCLED = object()


class EmptySchedule(Exception):
    """Raised internally by :meth:`Environment.step` when no events remain."""


class Environment:
    """Holds the simulation clock and executes events in time order.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds by convention across
        this code base).
    pool_events:
        Recycle :class:`~repro.simcore.resources.StorePut` /
        :class:`~repro.simcore.resources.StoreGet` /
        :class:`~repro.simcore.resources.Release` events through per-class
        free lists, exactly like the always-on :class:`PooledTimeout` pool.
        Off by default because the *public* event semantics allow holding a
        reference past processing; the pipeline runner turns it on
        (``PipelineSpec.pool_events``) under the F501 escape-analysis
        certificate that no model code does.  Bit-identical either way —
        recycling changes which Python object carries an event, never the
        event order or ``events_processed``.
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
        "_timeout_pool",
        "_solo_callback",
        "_pool_events",
        "_put_pool",
        "_get_pool",
        "_release_pool",
    )

    #: Whether the runtime determinism sanitizer is armed (see
    #: :class:`SanitizedEnvironment`).
    sanitize = False

    def __new__(
        cls,
        initial_time: float = 0.0,
        *,
        pool_events: bool = False,
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
        pool_events: bool = False,
        sanitize: Optional[bool] = None,
    ):
        # ``sanitize`` only chooses the class (see ``__new__``).
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        self._events_processed = 0
        self._timeout_pool: List[PooledTimeout] = []
        self._pool_events = bool(pool_events)
        self._put_pool: List[StorePut] = []
        self._get_pool: List[StoreGet] = []
        self._release_pool: List[Release] = []
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

    @property
    def pool_events(self) -> bool:
        """Whether Store/Release events are recycled through free lists."""
        return self._pool_events

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

    def sleep(self, delay: float) -> PooledTimeout:
        """A recycled timeout firing ``delay`` from now (hot-path ``timeout``).

        Allocation-free when the free list is warm.  The returned event obeys
        the :class:`~repro.simcore.events.PooledTimeout` contract: yield it
        immediately from exactly one process and never store or share it —
        it returns to the free list the moment it is processed.
        """
        if not delay >= 0:
            raise SimulationError(f"invalid delay {delay!r}")
        event = self._pooled_timeout()
        event._delay = delay
        heappush(self._queue, (self._now + delay, NORMAL, next(self._eid), event))
        return event

    def sleep_until(self, when: float) -> PooledTimeout:
        """A recycled timeout firing at the *absolute* time ``when``.

        The coalescing hook: a batch fast-forward computes its exact end time
        with the same float arithmetic the per-call path would use, then jumps
        the clock straight to it — scheduling by absolute time avoids the
        ``now + (end - now)`` round trip that would break bit-identity.
        """
        if not when >= self._now:
            raise SimulationError(
                f"invalid sleep_until({when!r}): not at or after now ({self._now!r})"
            )
        event = self._pooled_timeout()
        event._delay = when - self._now
        heappush(self._queue, (when, NORMAL, next(self._eid), event))
        return event

    def _pooled_timeout(self) -> PooledTimeout:
        """Pop a recycled timeout from the free list, or allocate a fresh one.

        A recycled event only needs its callback list re-armed: pooled
        timeouts are always ok/undefused and step() cleared the value when
        it returned the event to the pool.
        """
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
            event.callbacks = []
            return event
        event = PooledTimeout.__new__(PooledTimeout)
        event.env = self
        event.callbacks = []
        event._value = None
        event._ok = True
        event._defused = False
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

        if event._ok:
            cls = type(event)
            if cls is PooledTimeout:
                # Every waiter has been resumed (inside the callback loop
                # above); the event object can serve the next sleep.
                pool = self._timeout_pool
                if len(pool) < _TIMEOUT_POOL_LIMIT:
                    event._value = None
                    pool.append(event)
            elif self._pool_events:
                if cls is StorePut:
                    pool = self._put_pool
                    if len(pool) < _EVENT_POOL_LIMIT:
                        event._value = _RECYCLED
                        event.item = None
                        pool.append(event)
                elif cls is StoreGet:
                    pool = self._get_pool
                    if len(pool) < _EVENT_POOL_LIMIT:
                        event._value = _RECYCLED
                        event.filter_fn = None
                        pool.append(event)
        elif not event._defused:
            # Nobody waited on a failed event: surface the error to the caller
            # rather than silently dropping it.
            raise event._value

    def _recycle_consumed(self, event: Event) -> None:
        """Recycle an in-place-completed event its creator just consumed.

        Called by :meth:`Process._resume` (only when ``pool_events`` is on)
        for events that never took a queue trip: completed in place by
        ``trigger_inplace``/``complete`` and consumed synchronously by the
        yielding process.  At that point the creating process has read the
        value and, for the F501-certified classes, no other reference
        exists.  The ``_RECYCLED`` sentinel makes a double consume (an
        escaping holder yielding the event again) a no-op here instead of a
        pool corruption; under sanitize the free list poisons the event so
        the same misuse traps.
        """
        cls = type(event)
        if cls is StorePut:
            if event._value is _RECYCLED:
                return
            pool = self._put_pool
            if len(pool) < _EVENT_POOL_LIMIT:
                event._value = _RECYCLED
                event.item = None
                pool.append(event)
        elif cls is StoreGet:
            if event._value is _RECYCLED:
                return
            pool = self._get_pool
            if len(pool) < _EVENT_POOL_LIMIT:
                event._value = _RECYCLED
                event.filter_fn = None
                pool.append(event)

    def _recycle_release(self, release: Release) -> None:
        """Return a completed :class:`Release` to its free list immediately.

        A release's observable state after ``Resource.release`` returns is a
        constant (processed, ok, value ``None``) and the F501 certificate
        shows no call site stores one, so the object recycles at its
        creation site rather than waiting for a consumption hook.
        """
        pool = self._release_pool
        if len(pool) < _EVENT_POOL_LIMIT:
            pool.append(release)

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
        while stop_event.callbacks is not None:
            if not queue:
                raise SimulationError(
                    "run_bounded exhausted the schedule before the event "
                    "was triggered"
                )
            if queue[0][0] > bound:
                self._now = bound
                return False
            step()
        if not stop_event._ok:
            stop_event._defused = True
            raise stop_event._value
        return True


class SanitizedEnvironment(Environment):
    """An :class:`Environment` with the :mod:`repro.sanitize` traps armed.

    ``Environment(sanitize=True)``, or ``Environment()`` under
    ``REPRO_SANITIZE=1``, builds one.  It runs the same kernel with four
    differences:

    * :meth:`step` holds the trap window open around ``Environment.step``
      (``try/finally``, so a trap cannot leave it open): the clock and
      global-RNG guards raise while an event executes;
    * its free lists are :class:`~repro.sanitize.PoisonList` objects, so
      recyclable events are poisoned instead of pooled — the lists stay
      empty, every allocation is fresh, and a use after recycling traps;
    * :meth:`credit_events` is validated;
    * releases are never recycled, which keeps legitimate
      ``yield resource.release(...)`` idioms trap-free.
    """

    __slots__ = ("_in_event",)

    sanitize = True

    def __init__(
        self,
        initial_time: float = 0.0,
        *,
        pool_events: bool = False,
        sanitize: Optional[bool] = None,
    ):
        super().__init__(initial_time, pool_events=pool_events)
        # True while step() runs: crediting is legal only in that window.
        self._in_event = False
        self._timeout_pool = PoisonList()
        self._put_pool = PoisonList()
        self._get_pool = PoisonList()
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

    def _recycle_release(self, release: Release) -> None:
        """Never recycle a release: allocations stay fresh."""
