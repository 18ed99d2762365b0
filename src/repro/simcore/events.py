"""Event primitives for the discrete-event kernel.

The design follows the classic process-interaction style: model code is
written as Python generator functions ("processes") that ``yield`` events.
When a yielded event is processed by the :class:`~repro.simcore.engine.Environment`,
the process resumes with the event's value (or with an exception if the event
failed or the process was interrupted).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Iterable, List, Optional

from repro import sanitize as _sanitize
from repro.simcore.errors import Interrupt, SimulationError

if TYPE_CHECKING:
    from repro.simcore.engine import Environment

#: The generator type of a simulation process: yields events, receives their
#: values back, and may return a result (surfaced as the process's value).
ProcessGenerator = Generator["Event", Any, Any]

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "ProcessGenerator",
    "Event",
    "Timeout",
    "Initialize",
    "Interruption",
    "Process",
    "ConditionEvent",
    "AllOf",
]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

#: Scheduling priority for events that must run before same-time events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Event:
    """A single occurrence in simulated time that processes may wait on.

    An event goes through three states:

    1. *pending* — created, not yet scheduled;
    2. *triggered* — scheduled to occur at a specific simulation time with a
       value (success) or exception (failure);
    3. *processed* — the environment has reached the event's time and invoked
       its callbacks.

    Events are allocated on every timeout, message and process step of a
    simulation, so the whole hierarchy uses ``__slots__``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only valid once triggered)."""
        if self._ok is None:
            raise SimulationError("ok is not defined for untriggered events")
        return self._ok

    @property
    def value(self) -> Any:
        """The value of the event (the exception object for failed events)."""
        if self._value is PENDING:
            raise SimulationError("value is not available for untriggered events")
        return self._value

    @property
    def defused(self) -> bool:
        """Whether a failure has been acknowledged by some waiter."""
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event as handled so the environment will not re-raise."""
        self._defused = True

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined zero-delay schedule (succeed is the hottest trigger path).
        env = self.env
        heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception`` at the current time."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> "Event":
        """Copy another event's outcome onto this event and schedule it."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)
        return self

    # -- misc -----------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed."""
        if self.callbacks is None:
            raise SimulationError(f"{self!r} has already been processed")
        self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:
            raise SimulationError(f"invalid delay {delay!r}")
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    @property
    def delay(self) -> float:
        """Time units between the timeout's creation and its firing."""
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay!r} at {id(self):#x}>"


class Initialize(Event):
    """Internal event used to start a newly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        assert self.callbacks is not None  # freshly created, never processed
        self.callbacks.append(process._resume)
        env.schedule(self, priority=URGENT)


class Interruption(Event):
    """Internal event used to deliver an :class:`~repro.simcore.errors.Interrupt`."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any):
        super().__init__(process.env)
        if process.processed:
            raise SimulationError("cannot interrupt a finished process")
        if process is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        assert self.callbacks is not None  # freshly created, never processed
        self.callbacks.append(self._interrupt)
        self.env.schedule(self, priority=URGENT)

    def _interrupt(self, event: Event) -> None:
        process = self.process
        if process.processed:
            # The process finished between scheduling and delivery; drop it.
            return
        # Detach the process from whatever it is currently waiting for so the
        # original event's eventual processing does not resume it twice.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:
                pass
        process._resume(self)


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    A ``Process`` is itself an :class:`Event` that triggers when the generator
    returns (successfully, with the return value) or raises (failure).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"{generator!r} is not a generator; did you forget to call the "
                "process function?"
            )
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (``None`` if running)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Deliver an :class:`Interrupt` to this process at the current time."""
        Interruption(self, cause)

    # -- generator stepping ---------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The waiter acknowledges the failure by having it thrown
                    # into its frame.
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                break
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process yielded a non-event object {next_event!r}"
                )
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # The event has not been processed yet; park until it is.
                self._target = next_event
                next_event.callbacks.append(self._resume)
                break
            # The event was already processed: loop immediately with its value.
            event = next_event

        if self._value is not PENDING:
            self._target = None
        env._active_process = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process({name}) at {id(self):#x}>"


class ConditionEvent(Event):
    """An event that triggers when a predicate over child events is satisfied.

    The value of a ``ConditionEvent`` is a dict mapping each *triggered* child
    event to its value, in the order the children were supplied.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        if env.sanitize:
            # A condition's trigger order follows its children's schedule
            # order; building one from a set would bake hash-salted
            # iteration order into the event heap.
            _sanitize.check_ordered(events, "ConditionEvent(events=...)")
        self._evaluate = evaluate
        self._events: List[Event] = list(events)
        self._count = 0

        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if not self._events:
            self.succeed(self._collect())
            return

        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.add_callback(self._check)

    def _collect(self) -> Dict[Event, Any]:
        # Only events that have actually been *processed* contribute a value:
        # a Timeout carries its value from construction time, but it has not
        # "happened" until the clock reaches it.
        return {ev: ev._value for ev in self._events if ev.processed}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect())

    def __len__(self) -> int:
        return len(self._events)


class AllOf(ConditionEvent):
    """Triggers when *all* child events have triggered (``MPI_Waitall``-like)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda evs, count: count >= len(evs), events)
