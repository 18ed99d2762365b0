"""Common interface of the simulated I/O transport methods."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Generator

if TYPE_CHECKING:
    from repro.simcore.events import Event
    from repro.workflow.context import CouplingContext

#: The generator type of every transport hook: yields simulation events and
#: may return a result to its ``yield from`` caller.
TransportGenerator = Generator["Event", Any, Any]

__all__ = ["Transport", "TransportFault", "TransportGenerator", "empty_generator"]


class TransportFault(RuntimeError):
    """A software fault of a transport (e.g. Decaf's integer overflow).

    The paper reports that several baselines crash at large scale; the
    corresponding transport models raise this exception so the workflow runner
    can record the failure exactly as the paper does (and plot the "ideal"
    dotted continuation instead).
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def empty_generator() -> TransportGenerator:
    """A generator that finishes immediately (for no-op transport hooks)."""
    return
    yield  # pragma: no cover - makes this function a generator


class Transport(ABC):
    """Behavioural model of one I/O transport method.

    A transport is instantiated once per workflow run.  The workflow runner
    calls, in order:

    1. :meth:`setup` — create staging/link server processes and per-rank state;
    2. :meth:`producer_put` from every simulation rank, once per time step;
    3. :meth:`producer_finalize` from every simulation rank after its last step;
    4. :meth:`consumer_run` once per analysis rank — the transport drives the
       whole consumer loop, invoking the supplied ``analyze(nbytes, step)``
       sub-generator for every piece of data it delivers;
    5. :meth:`teardown` after all ranks finished.

    All generator hooks run inside the discrete-event simulation; they must
    ``yield`` only simulation events (typically via ``yield from`` on cluster,
    communicator or file-system operations).

    The context object (``ctx``) is a
    :class:`repro.workflow.context.CouplingContext` — one coupling's view of
    the stage graph, in which ``sim_*`` names address the coupling's source
    stage and ``analysis_*`` names its target stage.  Transports use its
    placement, mapping, statistics and tracing helpers and must not keep
    state outside ``self`` and ``ctx``, so one transport instance serves
    exactly one coupling of one run.
    """

    #: Registry name (overridden by subclasses).
    name: str = "abstract"
    #: Whether the paper classifies the method as having multiple failure
    #: domains (each application launched by its own mpirun/aprun).
    multiple_failure_domains: bool = True
    #: Whether dedicated staging resources (servers/link ranks) are required.
    uses_staging_ranks: bool = False

    def setup(self, ctx: "CouplingContext") -> None:
        """Create per-run state and spawn any server processes."""

    @abstractmethod
    def producer_put(self, ctx: "CouplingContext", rank: int, step: int, nbytes: int) -> TransportGenerator:
        """Ship one step's output (``nbytes``) from simulation rank ``rank``."""

    def producer_finalize(self, ctx: "CouplingContext", rank: int) -> TransportGenerator:
        """Flush buffered data and signal end-of-stream for ``rank``."""
        return empty_generator()

    @abstractmethod
    def consumer_run(
        self,
        ctx: "CouplingContext",
        arank: int,
        analyze: Callable[[int, int], TransportGenerator],
    ) -> TransportGenerator:
        """Run the whole consumer loop of analysis rank ``arank``.

        ``analyze(nbytes, step)`` is a sub-generator provided by the runner
        that charges the analysis compute time for one delivered piece of
        data; the transport decides when and how often to call it (per step
        for the coarse-grain baselines, per fine-grain block for Zipper).
        """

    def teardown(self, ctx: "CouplingContext") -> None:
        """Release any resources created in :meth:`setup`."""

    def consumer_deliveries_per_step(self, ctx: "CouplingContext", arank: int) -> int:
        """How many times :meth:`consumer_run` calls ``analyze`` per step.

        Forwarding stages of a multi-stage pipeline use this to detect when a
        step has been fully consumed and may be re-emitted downstream.  The
        coarse-grain baselines deliver one aggregated payload per step (the
        default); fine-grain transports override it.
        """
        return 1

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
