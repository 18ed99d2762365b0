"""Queueing resources for the discrete-event kernel.

Three families of resources are provided, mirroring what the cluster and
runtime models need:

* :class:`Resource` — a counted set of slots with a FIFO wait queue that
  processes acquire and release (used for NIC send engines, file-system
  object-storage-target service slots, staging-server request handlers, ...).
* :class:`Store` / :class:`FilterStore` — a buffer of Python objects with an
  optional capacity (used for message queues, the Zipper producer/consumer
  buffers in the simulated runtime, and mailboxes of the simulated MPI layer).
* :class:`Container` — a continuous quantity with puts and gets (used for
  memory-pool accounting).
"""

from __future__ import annotations

from types import TracebackType
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Type

from repro.simcore.errors import SimulationError
from repro.simcore.events import Event, PENDING

if TYPE_CHECKING:
    from repro.simcore.engine import Environment

__all__ = [
    "Request",
    "Release",
    "Resource",
    "StorePut",
    "StoreGet",
    "Store",
    "FilterStore",
    "Container",
]


class Request(Event):
    """Event returned by :meth:`Resource.request`; triggers on acquisition."""

    __slots__ = ("resource", "usage_since")

    def __init__(self, resource: "Resource"):
        # Inlined Event.__init__ (one request per core grant, NIC slot and
        # staging handler — a hot allocation path).
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        self.usage_since: Optional[float] = None
        resource._do_request(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue."""
        if self.triggered:
            raise SimulationError("cannot cancel a granted request; release it")
        try:
            self.resource._waiters.remove(self)
        except ValueError:
            pass

    # Support `with resource.request() as req:` inside process generators for
    # readability; the release still has to be explicit via resource.release().
    def __enter__(self) -> "Request":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if self.triggered and self.usage_since is not None:
            self.resource.release(self)


class Release(Event):
    """Event returned by :meth:`Resource.release`; completed in place.

    The release's observable effect — removing the holder and granting
    waiters — happens synchronously in ``_do_release`` before the event
    object is even visible to the caller, and no model code ever waits on a
    ``Release``.  The event is therefore completed immediately instead of
    taking a trip through the queue; :meth:`Environment.complete` keeps the
    processed-event count identical to the queued behaviour.

    Under ``Environment(pool_events=True)`` releases recycle through a free
    list at their creation site: once ``complete`` returns, a release's
    observable state is a constant (processed, ok, value ``None``), so
    aliasing between a recycled object and a caller that still holds one is
    unobservable.  The F501 escape analysis certifies that no call site in
    the model tree stores a release anyway.
    """

    __slots__ = ("resource", "request", "_generation")

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        resource._do_release(self)
        self._ok = True
        self._value = None
        self.env.complete(self)


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.users: List[Request] = []
        self._waiters: List[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Request:
        """Ask for a slot; the returned event triggers when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Return a previously granted slot to the pool."""
        env = self.env
        if env._pool_events:
            pool = env._release_pool
            if pool:
                release = pool.pop()
                # Re-arm the recycled event (state reset mirrors
                # Release.__init__ + the Event base init).
                release.callbacks = []
                release._defused = False
                release.resource = self
                release.request = request
                self._do_release(release)
                release._ok = True
                release._value = None
                env.complete(release)
            else:
                release = Release(self, request)
            env._recycle_release(release)
            return release
        return Release(self, request)

    # -- internal ---------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            # Immediate grant, completed in place when provably safe (see
            # Environment.trigger_inplace).  Grants to *waiters* in
            # _do_release always take the queue: the waiting process has a
            # resume callback attached.
            self.users.append(request)
            env = self.env
            request.usage_since = env._now
            env.trigger_inplace(request)
        else:
            self._waiters.append(request)

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        request.usage_since = self.env.now
        request.succeed()

    def _do_release(self, release: Release) -> None:
        try:
            self.users.remove(release.request)
        except ValueError:
            raise SimulationError(
                "released a request that does not hold the resource"
            ) from None
        while self._waiters and len(self.users) < self._capacity:
            nxt = self._pop_waiter()
            self._grant(nxt)

    def _pop_waiter(self) -> Request:
        return self._waiters.pop(0)


class StorePut(Event):
    """Event returned by :meth:`Store.put`; triggers once the item is stored.

    Recycled through the environment's free list under
    ``Environment(pool_events=True)`` — the F501-certified contract matches
    :class:`~repro.simcore.events.PooledTimeout`: yield it immediately from
    exactly one process (or discard it unyielded) and never store or share
    it; it serves the next ``put`` the moment it has been consumed.
    """

    __slots__ = ("item", "_generation")

    def __init__(self, store: "Store", item: Any):
        # Inlined Event.__init__ (one put per block/message — hot path).
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.item = item
        store._put(self)


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; its value is the retrieved item.

    Recycled under ``Environment(pool_events=True)`` with the same
    yield-immediately contract as :class:`StorePut`.
    """

    __slots__ = ("filter_fn", "_generation")

    def __init__(self, store: "Store", filter_fn: Optional[Callable[[Any], bool]] = None):
        # Inlined Event.__init__ (one get per block/message — hot path).
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.filter_fn = filter_fn
        store._get(self)

    def cancel(self) -> None:
        """Withdraw a pending get (used by timeout races in the models)."""
        if self.triggered:
            raise SimulationError("cannot cancel a completed get")
        # The store holds a reference in _get_waiters; mark as cancelled so the
        # dispatcher skips it.
        self.filter_fn = _never_match


def _never_match(_item: Any) -> bool:
    return False


class Store:
    """A FIFO buffer of arbitrary items with optional bounded capacity."""

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: List[StorePut] = []
        self._get_waiters: List[StoreGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Add ``item``; the event triggers when capacity permits storage."""
        env = self.env
        if env._pool_events:
            pool = env._put_pool
            if pool:
                put = pool.pop()
                # Re-arm the recycled event (mirrors StorePut.__init__).
                put.callbacks = []
                put._value = PENDING
                put._ok = None
                put._defused = False
                put.item = item
                self._put(put)
                return put
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove and return the oldest item (waits if the store is empty)."""
        env = self.env
        if env._pool_events:
            pool = env._get_pool
            if pool:
                return self._rearm_get(pool.pop(), None)
        return StoreGet(self)

    def _rearm_get(self, get: StoreGet, filter_fn: Optional[Callable[[Any], bool]]) -> StoreGet:
        """Reset a recycled get event and run it (mirrors StoreGet.__init__)."""
        get.callbacks = []
        get._value = PENDING
        get._ok = None
        get._defused = False
        get.filter_fn = filter_fn
        self._get(get)
        return get

    # -- internal ---------------------------------------------------------
    def _put(self, put: StorePut) -> None:
        """Admit one new put, fast-pathing the common uncontended case.

        Invariant kept by every mutation: a non-empty put-waiter list means
        the store is full, so a fresh put either lands immediately (store
        has room, no queue) or queues behind the earlier waiters.  The
        trigger order matches the generic dispatcher exactly — put first,
        then any gets it unblocks — so event ids are unchanged.  When the
        engine can prove the put's queue trip would be the immediate next
        pop, the event completes in place and the putter continues
        synchronously (see :meth:`Environment.trigger_inplace`).
        """
        items = self.items
        if not self._put_waiters and len(items) < self._capacity:
            items.append(put.item)
            put.env.trigger_inplace(put)
            if self._get_waiters:
                self._dispatch()
        else:
            self._put_waiters.append(put)
            self._dispatch()

    def _get(self, get: StoreGet) -> None:
        """Serve one new get, fast-pathing the plain-FIFO non-empty case.

        The fast path requires no earlier get waiters (for a plain store a
        non-empty waiter list implies an empty store, but a FilterStore may
        hold unmatched waiters alongside items — those always take the
        generic dispatcher).  Order matches the dispatcher: the get is
        served first, then any put its freed slot admits; the in-place
        completion shortcut follows the same proof as :meth:`_put`.
        """
        items = self.items
        if not self._get_waiters and items and get.filter_fn is None:
            get.env.trigger_inplace(get, items.pop(0))
            if self._put_waiters:
                self._dispatch()
        else:
            self._get_waiters.append(get)
            self._dispatch()

    def _dispatch(self) -> None:
        put_waiters = self._put_waiters
        get_waiters = self._get_waiters
        items = self.items
        capacity = self._capacity
        progress = True
        while progress:
            progress = False
            # Admit puts while there is room.
            while put_waiters and len(items) < capacity:
                put = put_waiters.pop(0)
                items.append(put.item)
                put.succeed()
                progress = True
            # Serve gets while items match.
            i = 0
            while i < len(get_waiters):
                get = get_waiters[i]
                matched = self._match(get)
                if matched is not None:
                    get_waiters.pop(i)
                    get.succeed(matched)
                    progress = True
                else:
                    i += 1

    def _match(self, get: StoreGet) -> Optional[Any]:
        if get.filter_fn is None:
            if self.items:
                return self.items.pop(0)
            return None
        for idx, item in enumerate(self.items):
            if get.filter_fn(item):
                return self.items.pop(idx)
        return None


class FilterStore(Store):
    """A :class:`Store` whose getters may select items with a predicate."""

    def get(self, filter_fn: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        env = self.env
        if env._pool_events:
            pool = env._get_pool
            if pool:
                return self._rearm_get(pool.pop(), filter_fn)
        return StoreGet(self, filter_fn)


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        super().__init__(container.env)
        if amount <= 0:
            raise SimulationError("put amount must be positive")
        self.amount = amount
        container._put_waiters.append(self)
        container._dispatch()


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        super().__init__(container.env)
        if amount <= 0:
            raise SimulationError("get amount must be positive")
        self.amount = amount
        container._get_waiters.append(self)
        container._dispatch()


class Container:
    """A continuous quantity (e.g. bytes of buffer memory) with blocking put/get."""

    def __init__(self, env: "Environment", capacity: float = float("inf"), init: float = 0.0):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init must lie within [0, capacity]")
        self.env = env
        self._capacity = capacity
        self._level = float(init)
        self._put_waiters: List[ContainerPut] = []
        self._get_waiters: List[ContainerGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Deposit ``amount`` (waits while it would exceed capacity)."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Withdraw ``amount`` (waits until that much is available)."""
        return ContainerGet(self, amount)

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._put_waiters:
                put = self._put_waiters[0]
                if self._level + put.amount <= self._capacity:
                    self._put_waiters.pop(0)
                    self._level += put.amount
                    put.succeed()
                    progress = True
            if self._get_waiters:
                get = self._get_waiters[0]
                if get.amount <= self._level:
                    self._get_waiters.pop(0)
                    self._level -= get.amount
                    get.succeed(get.amount)
                    progress = True
