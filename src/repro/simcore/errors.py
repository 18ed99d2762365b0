"""Exception types used throughout the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(RuntimeError):
    """Base class for all errors raised by the simulation kernel.

    Raised for misuse of the kernel API (triggering an event twice, running a
    finished environment, yielding a non-event from a process, ...).  Model
    code is encouraged to let these propagate: they indicate a bug in the
    model, not a property of the simulated system.
    """


class Interrupt(Exception):
    """Raised *inside* a process when another process interrupts it.

    The interrupting party calls :meth:`repro.simcore.events.Process.interrupt`
    with an optional ``cause``; the target process sees this exception raised
    at its current ``yield`` statement and may catch it to clean up or to react.
    No model process interrupts another today; the tests use interrupts to
    check that cleanups such as ``Network.transfer`` releasing its port load
    run when a process is cut short.
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"

