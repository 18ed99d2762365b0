"""Discrete-event simulation kernel used by the cluster substrate.

The :mod:`repro.simcore` package provides a small, dependency-free
discrete-event simulation engine in the style of SimPy.  It is the foundation
on which the HPC cluster model (:mod:`repro.cluster`), the simulated MPI layer
(:mod:`repro.simmpi`), the baseline transport models (:mod:`repro.transports`)
and the simulated Zipper runtime are built.

The kernel is deliberately compact but complete:

* :class:`Environment` — the simulation clock and event loop;
  ``Environment(sanitize=True)`` builds a :class:`SanitizedEnvironment`,
  the same kernel with the :mod:`repro.sanitize` traps armed.
* :class:`Event`, :class:`Timeout`, :class:`Process` — the event primitives.
* :class:`AllOf` — the composite event (``MPI_Waitall`` style semantics).
* :class:`Resource`, :class:`Store`, :class:`Container` — queuing resources.
* :class:`SimBarrier`, :class:`ConditionVar`, :class:`OneShotSignal` —
  synchronisation primitives (used for the collective barriers of the
  simulated MPI layer, the step interlock of DataSpaces/DIMES, and the
  producer-buffer condition variables of Zipper's work-stealing writer
  thread).
* :class:`RandomStreams` — named, reproducible random-number streams.
* :class:`PeriodicController`, :class:`CounterDeltas`, :class:`PIDSmoother` —
  periodic control-loop events, per-epoch counter deltas and PID smoothing
  (used by the elastic adaptation layer).

Example
-------
>>> from repro.simcore import Environment, Timeout
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield Timeout(env, 1.5)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[1.5]
"""

from repro.simcore.errors import (
    SimulationError,
    Interrupt,
)
from repro.simcore.events import (
    Event,
    Timeout,
    Process,
    AllOf,
    ConditionEvent,
)
from repro.simcore.engine import (
    Environment,
    SanitizedEnvironment,
    EmptySchedule,
)
from repro.simcore.resources import (
    Resource,
    Store,
    FilterStore,
    Container,
)
from repro.simcore.sync import (
    SimBarrier,
    ConditionVar,
    OneShotSignal,
)
from repro.simcore.rng import RandomStreams
from repro.simcore.control import PeriodicController, CounterDeltas, PIDSmoother

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "ConditionEvent",
    "Environment",
    "SanitizedEnvironment",
    "EmptySchedule",
    "Resource",
    "Store",
    "FilterStore",
    "Container",
    "SimBarrier",
    "ConditionVar",
    "OneShotSignal",
    "RandomStreams",
    "PeriodicController",
    "CounterDeltas",
    "PIDSmoother",
]
