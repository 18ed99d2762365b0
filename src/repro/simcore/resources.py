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
    """

    __slots__ = ("resource", "request")

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
        """Number of slots."""
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
    """Event returned by :meth:`Store.put`; triggers once the item is stored."""

    __slots__ = ("item",)

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
    """Event returned by :meth:`Store.get`; its value is the retrieved item."""

    __slots__ = ("filter_fn",)

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
        """Maximum number of items held at once."""
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Add ``item``; the event triggers when capacity permits storage."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove and return the oldest item (waits if the store is empty)."""
        return StoreGet(self)

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
        """Remove and return the oldest item ``filter_fn`` accepts (waits for one).

        ``None`` accepts any item, as :meth:`Store.get` does.
        """
        return StoreGet(self, filter_fn)


class ContainerPut(Event):
    """Event returned by :meth:`Container.put`; triggers once the amount is deposited."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        super().__init__(container.env)
        if amount <= 0:
            raise SimulationError("put amount must be positive")
        self.amount = amount
        container._put_waiters.append(self)
        container._dispatch()


class ContainerGet(Event):
    """Event returned by :meth:`Container.get`; its value is the withdrawn amount."""

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
        """Largest amount the container can hold."""
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
