"""Periodic control-loop primitives for in-simulation adaptation.

Adaptive layers (such as :mod:`repro.elastic`) need two things from the
kernel: a *periodic controller event* that wakes a decision callback at a
fixed simulated cadence, and a cheap *monitor hook* for turning the
monotonically growing counters the models maintain into per-epoch deltas.

Both are deliberately passive with respect to the simulation itself: a
:class:`PeriodicController` only schedules its own timeouts and never touches
model state, so a controller whose callback decides to do nothing leaves
every modelled quantity exactly as it would have been without the controller.
The controller counts the events it consumed (:attr:`PeriodicController.events_consumed`)
so harnesses that report event totals can subtract the instrumentation cost
and keep "no-op controller" runs bit-identical to uncontrolled ones.

A callback that *does* act may re-rate the model at any wake-up, and the
controller publishes no look-ahead of its next one.  A fast path that folds a
stretch of simulated time into one event is therefore off for the whole of a
run that has a controller (see
:attr:`~repro.workflow.runner.PipelineRunner.rates_fixed`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Mapping, Optional

from repro.simcore.engine import Environment
from repro.simcore.events import Process, Timeout

__all__ = ["PeriodicController", "CounterDeltas", "PIDSmoother"]


class PeriodicController:
    """Wake a callback every ``interval`` simulated seconds.

    Parameters
    ----------
    env:
        The simulation environment to schedule against.
    interval:
        Simulated seconds between wake-ups (must be positive).
    callback:
        ``callback(now)`` invoked at every wake-up.  Returning ``False``
        stops the controller; any other return value keeps it running.
    name:
        Purely descriptive tag used in ``repr``.

    Notes
    -----
    The controller is an ordinary simulation process: it is started with
    :meth:`start` and runs until its callback asks it to stop or the
    environment's run ends.  It consumes exactly one event per wake-up plus
    one start-up event; :attr:`events_consumed` reports that total so the
    instrumentation can be subtracted from event counts.
    """

    def __init__(
        self,
        env: Environment,
        interval: float,
        callback: Callable[[float], Optional[bool]],
        name: str = "controller",
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.interval = float(interval)
        self.callback = callback
        self.name = name
        self.wakeups = 0
        self._process: Optional[Process] = None

    def start(self) -> Process:
        """Spawn the controller process (idempotent per instance)."""
        if self._process is not None:
            raise RuntimeError(f"controller {self.name!r} already started")
        self._process = self.env.process(self._run())
        return self._process

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has been called."""
        return self._process is not None

    @property
    def events_consumed(self) -> int:
        """Events this controller has taken from the queue so far.

        One initialisation event plus one timeout per wake-up; 0 when the
        controller was never started.
        """
        if self._process is None:
            return 0
        return 1 + self.wakeups

    def _run(self) -> Generator[Timeout, Any, None]:
        while True:
            yield Timeout(self.env, self.interval)
            self.wakeups += 1
            if self.callback(self.env.now) is False:
                return

    def __repr__(self) -> str:
        return (
            f"<PeriodicController {self.name!r} interval={self.interval:g} "
            f"wakeups={self.wakeups}>"
        )


class PIDSmoother:
    """Discrete PID filter for smoothing in-simulation control actions.

    Bang-bang controllers (fixed-size step whenever a threshold trips)
    oscillate around the balance point; feeding the raw error ``e`` (target
    minus current holding) through

        ``u = kp * e + ki * Σ e·dt + kd * (e - e_prev) / dt``

    and applying ``u`` instead of a fixed step turns the step size into a
    damped approach: large when far from the target, vanishing near it.  The
    integral term is clamped to ``integral_limit`` (anti-windup) so a long
    period of unreachable targets — e.g. a floor-pinned stage — cannot store
    an arbitrarily large kick.

    The smoother is pure arithmetic: it schedules nothing and holds no
    simulation state, so controllers that never *apply* its output leave the
    simulation untouched.
    """

    __slots__ = ("kp", "ki", "kd", "integral_limit", "integral", "previous_error")

    def __init__(
        self,
        kp: float = 0.5,
        ki: float = 0.0,
        kd: float = 0.0,
        integral_limit: Optional[float] = None,
    ):
        if kp < 0 or ki < 0 or kd < 0:
            raise ValueError("PID gains must be non-negative")
        if integral_limit is not None and integral_limit <= 0:
            raise ValueError("integral_limit must be positive when given")
        self.kp = float(kp)
        self.ki = float(ki)
        self.kd = float(kd)
        self.integral_limit = integral_limit
        self.integral = 0.0
        self.previous_error: Optional[float] = None

    def update(self, error: float, dt: float = 1.0) -> float:
        """Fold one error sample in and return the smoothed control output."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.integral += error * dt
        if self.integral_limit is not None:
            self.integral = max(-self.integral_limit, min(self.integral_limit, self.integral))
        derivative = 0.0
        if self.kd > 0 and self.previous_error is not None:
            derivative = (error - self.previous_error) / dt
        self.previous_error = error
        return self.kp * error + self.ki * self.integral + self.kd * derivative

    def reset(self) -> None:
        """Forget the integral and derivative history."""
        self.integral = 0.0
        self.previous_error = None

    def __repr__(self) -> str:
        return f"<PIDSmoother kp={self.kp:g} ki={self.ki:g} kd={self.kd:g}>"


class CounterDeltas:
    """Per-epoch deltas over monotonically growing counter dictionaries.

    Models accumulate counters (per-rank stall time, per-coupling bytes
    moved) that only ever grow; a controller wants the *increment* since its
    previous wake-up.  ``CounterDeltas`` snapshots named counter groups and
    returns the per-key increase on each :meth:`advance` call.
    """

    def __init__(self) -> None:
        self._snapshots: Dict[str, Dict[str, float]] = {}

    def advance(self, group: str, counters: Mapping[str, float]) -> Dict[str, float]:
        """Return the per-key increase of ``counters`` since the last call.

        Keys absent from the previous snapshot are treated as starting at 0;
        keys that disappeared are dropped.  The snapshot for ``group`` is
        updated to the current values.
        """
        previous = self._snapshots.get(group, {})
        current = {key: float(value) for key, value in counters.items()}
        self._snapshots[group] = current
        return {key: value - previous.get(key, 0.0) for key, value in current.items()}

    def peek(self, group: str) -> Dict[str, float]:
        """The last snapshot taken for ``group`` (empty if never advanced)."""
        return dict(self._snapshots.get(group, {}))
