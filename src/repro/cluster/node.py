"""Compute-node model: cores and memory of one node."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Sequence, Union

from repro import sanitize
from repro.simcore import Container, Environment, RandomStreams, Resource, Timeout
from repro.cluster.spec import NodeSpec

if TYPE_CHECKING:
    from repro.simcore.resources import ContainerGet, ContainerPut

__all__ = ["ComputeNode", "RATE_OWNERS", "RateFactors"]

#: The layers that re-rate a node's compute or a coupling's bandwidth mid-run,
#: in the order their factors multiply.  Float products are not associative,
#: so this order is part of every result.
RATE_OWNERS = ("elastic", "fault", "tenant")


class RateFactors:
    """One rate factor per :data:`RATE_OWNERS` entry, each written by its owner.

    The elastic controller owns ``"elastic"`` (stage resizes, bandwidth
    leases), the fault injector ``"fault"`` (stragglers, transport
    restarts) and the tenant scheduler ``"tenant"`` (a job's slice of a
    shared facility).  Every factor starts at 1.0.
    """

    __slots__ = ("_factors",)

    def __init__(self) -> None:
        self._factors: Dict[str, float] = dict.fromkeys(RATE_OWNERS, 1.0)

    def __getitem__(self, owner: str) -> float:
        return self._factors[owner]

    def set(self, owner: str, factor: float) -> None:
        """Replace ``owner``'s factor; a rejected write changes nothing.

        Raises ``KeyError`` for an owner outside :data:`RATE_OWNERS` and
        ``ValueError`` for a factor that is not positive.
        """
        if owner not in self._factors:
            raise KeyError(f"unknown rate owner {owner!r}; owners are {RATE_OWNERS}")
        if not factor > 0:
            raise ValueError(f"{owner} rate factor must be positive, got {factor!r}")
        self._factors[owner] = float(factor)

    def times(self, base: float) -> float:
        """``base`` multiplied by every factor, in :data:`RATE_OWNERS` order."""
        for factor in self._factors.values():
            base *= factor
        return base


class _FastHolder:
    """Phantom core-slot holder used by the compute fast path.

    Occupies an entry in the core resource's user list (so occupancy stays
    visible to slow-path contenders) without any event machinery.  One
    instance per slot is never needed — list entries may alias because
    removal is positional over identical objects.
    """

    __slots__ = ()


_FAST_HOLDER = _FastHolder()


class ComputeNode:
    """One compute node: a pool of cores and a memory capacity.

    Application cost models express work in *seconds on one reference core*;
    :meth:`compute` converts that into simulated time on this node's cores
    (accounting for the node's relative core speed and optional jitter) while
    holding a core slot, so that oversubscription of a node is visible as
    queueing.

    The effective compute rate is *mutable*: the elastic, fault and tenant
    layers each re-rate the node mid-run through :meth:`set_rate_factor`.
    The rate is cached (it sits on the per-phase hot path) and that setter is
    the single invalidation point, so any layer that changes the rate must go
    through it — never mutate ``spec.core_speed`` directly.
    """

    def __init__(
        self,
        env: Environment,
        node_id: int,
        spec: NodeSpec,
        rng: Optional[RandomStreams] = None,
        jitter_cv: float = 0.0,
    ):
        self.env = env
        self.node_id = node_id
        self.spec = spec
        self.rng = rng if rng is not None else RandomStreams(node_id)
        self.jitter_cv = float(jitter_cv)
        self.cores = Resource(env, capacity=spec.cores)
        self.memory = Container(env, capacity=float(spec.memory_bytes), init=0.0)
        self.busy_core_seconds = 0.0
        self._factors = RateFactors()
        # Cached effective rate (reference seconds per simulated second);
        # invalidated only by set_rate_factor.
        self._rate = spec.core_speed
        #: Whether a fault (crash in progress, straggler window) currently
        #: impairs this node.  Pure observation for monitors and elastic
        #: controllers; only the fault injector sets it.
        self.degraded = False
        #: Modelled ranks currently hosted on this node.  Seeded from the
        #: static placement by the pipeline runner and updated when elastic
        #: rank spawns/retires place assist ranks, so spawn-time placement
        #: can pick the least-loaded node of a stage's range.
        self.hosted_ranks = 0
        # Uncontended-compute fast path: claimed concurrency bound and the
        # derived flag (see claim_compute_slots).  Off until an owner that
        # knows the node's whole workload declares the bound.
        self._claimed_slots = 0
        self._fast_path = False

    def rate_factor(self, owner: str) -> float:
        """The compute-rate factor ``owner`` last set (1.0 until it does)."""
        return self._factors[owner]

    def set_rate_factor(self, owner: str, factor: float) -> None:
        """Set ``owner``'s factor of this node's compute rate.

        The rate is ``core_speed`` times every :data:`RATE_OWNERS` factor,
        multiplied in that order.  An elastic resize backs each modelled rank
        with more (``factor`` > 1) or fewer real cores, a straggler window
        sets ``1/slowdown``, and a tenant share scales the job's slice of a
        shared facility.  Only work *started* after the call runs at the new
        rate — in-flight compute keeps the duration frozen when it was
        issued, exactly like a real reallocation at an epoch boundary.
        """
        self._factors.set(owner, factor)
        self._rate = self._factors.times(self.spec.core_speed)

    def claim_compute_slots(self, count: int = 1) -> None:
        """Declare up to ``count`` additional concurrent :meth:`compute` callers.

        The uncontended fast path: when the *total* claimed concurrency fits
        in the node's core count, no compute call can ever queue, so the
        per-call core request/release bookkeeping has no observable effect —
        :meth:`compute` then skips it (crediting the elided events), and
        :meth:`compute_batch` may fast-forward whole segments.  Owners that
        know the node's complete workload (the pipeline runner claims one
        slot per potential concurrent compute of every hosted rank) must
        route every claim through here; a node with no claims stays on the
        exact slow path.
        """
        if count < 0:
            raise ValueError("claimed slot count must be non-negative")
        self._claimed_slots += count
        self._fast_path = 0 < self._claimed_slots <= self.spec.cores

    def release_compute_slots(self, count: int = 1) -> None:
        """Withdraw previously claimed concurrency (e.g. a retired assist rank)."""
        if count < 0:
            raise ValueError("released slot count must be non-negative")
        self._claimed_slots = max(0, self._claimed_slots - count)
        self._fast_path = 0 < self._claimed_slots <= self.spec.cores

    @property
    def uncontended(self) -> bool:
        """Whether the claimed concurrency guarantees compute never queues."""
        return self._fast_path

    @property
    def can_batch(self) -> bool:
        """Whether :meth:`compute_batch` may fast-forward on this node.

        Requires the uncontended guarantee and jitter-free compute (each
        jittered call draws from the node's random stream *in event order*,
        which a single batched event could not reproduce).
        """
        return self._fast_path and self.jitter_cv == 0.0

    def host_rank(self) -> int:
        """Account one more modelled rank living on this node.

        Pure bookkeeping — hosting does not reserve a core; the rank's work
        contends for cores through :meth:`compute` like everyone else's.
        """
        self.hosted_ranks += 1
        return self.hosted_ranks

    def release_rank(self) -> int:
        """Account one modelled rank leaving this node (a retire)."""
        if self.hosted_ranks <= 0:
            raise ValueError(f"node {self.node_id} hosts no ranks to release")
        self.hosted_ranks -= 1
        return self.hosted_ranks

    def compute(self, reference_seconds: float) -> Generator:
        """Occupy one core for ``reference_seconds`` of reference-core work."""
        if not reference_seconds >= 0:
            raise ValueError("reference_seconds must be non-negative")
        duration = reference_seconds / self._rate
        if self.jitter_cv > 0:
            duration = self.rng.jitter(
                f"node{self.node_id}.compute", duration, self.jitter_cv
            )
        cores = self.cores
        if self._fast_path and not cores._waiters and len(cores.users) < cores._capacity:
            # Guaranteed-uncontended: the grant would be immediate and both
            # queue trips are elided and credited — the clock advances by the
            # identical duration and events_processed stays bit-identical.
            # The call still *holds a slot* (a phantom entry in the user
            # list), so if an elastic assist spawn pushes the node's claims
            # past its cores mid-flight, later slow-path computes observe
            # the true occupancy and queue exactly as the slow path would.
            holder = _FAST_HOLDER
            cores.users.append(holder)
            try:
                if duration > 0:
                    yield self.env.sleep(duration)
                self.busy_core_seconds += duration
            finally:
                cores.users.remove(holder)
                # The synchronous half of Resource.release: grant any waiter
                # that queued behind this phantom slot, at exactly the
                # instant the slow path's Release would have granted it.
                while cores._waiters and len(cores.users) < cores._capacity:
                    cores._grant(cores._pop_waiter())
            self.env.credit_events(2)
            return duration
        req = cores.request()
        yield req
        try:
            if duration > 0:
                yield Timeout(self.env, duration)
            self.busy_core_seconds += duration
        finally:
            cores.release(req)
        return duration

    def compute_batch(
        self,
        seconds: Union[float, Sequence[float]],
        steps: int = 1,
    ) -> Generator:
        """Fast-forward ``steps`` repetitions of a compute segment in one event.

        ``seconds`` is the reference-core work of one segment — a float for a
        uniform segment or a sequence of per-call chunks (e.g. one entry per
        workload phase).  The batch is exactly equivalent to calling
        :meth:`compute` for every chunk of every repetition, but when the
        node :attr:`can_batch` it advances the clock with a single absolute
        timeout and credits the elided events; the end time, the busy-seconds
        accumulator and the returned per-repetition elapsed times are folded
        with the same float operations the per-call path performs, so results
        are bit-identical.

        The folded rate is the one in force when the batch starts, so a
        caller may batch only while nothing can re-rate the node (see
        :attr:`~repro.workflow.runner.PipelineRunner.rates_fixed`).  The
        batch *declines* when the node cannot fast-forward at all
        (:attr:`can_batch` false, or a transient core holder): it returns
        ``None`` without consuming any event or simulated time, and the
        caller runs its exact per-call sequence instead.

        Returns the list of per-repetition elapsed simulated seconds (one
        entry per ``steps``), matching what a caller timing each repetition
        with ``env.now`` differences would have measured — or ``None`` when
        the batch declined.
        """
        if steps <= 0:
            raise ValueError("steps must be positive")
        if self.env.sanitize:
            # The chunk order is folded into the absolute end time below;
            # a set-valued ``seconds`` would schedule in hash-salted order.
            sanitize.check_ordered(seconds, "compute_batch(seconds=...)")
        chunks = (
            (float(seconds),)
            if isinstance(seconds, (int, float))
            else tuple(float(chunk) for chunk in seconds)
        )
        if not chunks:
            raise ValueError("compute_batch needs at least one chunk")
        for chunk in chunks:
            if not chunk >= 0:
                raise ValueError("reference_seconds must be non-negative")
        env = self.env
        cores = self.cores
        if not (
            self._fast_path
            and self.jitter_cv == 0.0
            and not cores._waiters
            and len(cores.users) < cores._capacity
        ):
            return None
        rate = self._rate
        end = env.now
        busy = self.busy_core_seconds
        credit = 0
        any_timeout = False
        elapsed: List[float] = []
        for _ in range(steps):
            rep = 0.0
            for chunk in chunks:
                duration = chunk / rate
                prev = end
                end = prev + duration
                rep += end - prev
                busy += duration
                if duration > 0:
                    credit += 3
                    any_timeout = True
                else:
                    credit += 2
            elapsed.append(rep)
        if any_timeout:
            # One absolute-time event stands in for the whole segment.  The
            # phantom slot keeps the node's occupancy visible for the whole
            # fast-forward, exactly like the per-call fast path.
            holder = _FAST_HOLDER
            cores.users.append(holder)
            try:
                yield env.sleep_until(end)
            finally:
                cores.users.remove(holder)
                while cores._waiters and len(cores.users) < cores._capacity:
                    cores._grant(cores._pop_waiter())
            credit -= 1
        # An all-zero segment consumes no event in the per-call path
        # (compute() returns without yielding), so none is consumed here
        # either — the process continues synchronously.
        self.busy_core_seconds = busy
        env.credit_events(credit)
        return elapsed

    def allocate_memory(self, nbytes: float) -> "ContainerPut":
        """Reserve ``nbytes`` of node memory (blocks while unavailable)."""
        return self.memory.put(nbytes)

    def free_memory(self, nbytes: float) -> "ContainerGet":
        """Release ``nbytes`` of node memory."""
        return self.memory.get(nbytes)

    @property
    def memory_in_use(self) -> float:
        return self.memory.level

    @property
    def memory_free(self) -> float:
        return self.memory.capacity - self.memory.level

    def __repr__(self) -> str:
        return (
            f"<ComputeNode {self.node_id} cores={self.spec.cores} "
            f"in_use={self.cores.count}>"
        )
