"""Shared resources for simulation processes.

Three primitives cover everything the substrates need:

* :class:`Resource` — a counted semaphore with a FIFO wait queue; models
  exclusive media (an Ethernet segment, a token) or multi-unit capacity
  (switch ports).  :class:`Hold` claims one or more of them, sleeps and
  releases, all as one event a process yields once.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``;
  models mailboxes and daemon input queues.
* :class:`FilterStore` — a store whose ``get`` can wait for an item
  matching a predicate; models tag/source-selective message receipt.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence

from repro.sim.events import PENDING, Event

__all__ = ["Request", "Hold", "Resource", "StorePut", "StoreGet", "Store", "FilterStore"]


class Request(Event):
    """A pending (or granted) claim on a :class:`Resource`.

    Usable as a context manager so the resource is always released::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Every CPU slice and medium claim builds one of these: set the
        # Event fields directly rather than dispatching to its __init__.
        self.env = resource._env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue.

        Idempotent: cancelling a request that already left the queue
        does nothing.
        """
        if not self.triggered:
            try:
                self.resource._waiters.remove(self)
            except ValueError:
                pass


class Hold(Event):
    """Claim ``resources`` in order, sleep through ``delays``, release.

    One event stands for the whole cycle a process would otherwise
    spell as ``with request(): yield claim; yield timeout(d)`` (one
    claim per resource, one timeout per delay).  The process yields it
    once and resumes once, when the last delay has elapsed and every
    claim has been returned.

    The event sequence is the inline loop's, minus the resumes: each
    grant's callback makes the next claim or arms the next delay at the
    instant, and in the heap-sequence slot, the resumed generator would
    have.  When the hold fires, its first callback releases the claims
    in claim order (so rival grants are scheduled in the inline loop's
    order) before the waiting process resumes.  An interrupt of the
    waiting process does not cut the hold short.
    """

    __slots__ = ("_resources", "_delays", "_claims")

    def __init__(self, resources: Sequence["Resource"], delays: Sequence[float]) -> None:
        if not resources or not delays:
            raise ValueError("a hold needs at least one resource and one delay")
        if min(delays) < 0:
            raise ValueError("negative delay %r" % (min(delays),))
        self.env = resources[0]._env
        self.callbacks = [self._release]
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._resources = resources
        self._delays = delays
        self._claims: List[Request] = []
        self._advance(None)

    def _advance(self, _event: Optional[Event]) -> None:
        """Take the next claim, or arm the next delay (grant callback)."""
        claims = self._claims
        taken = len(claims)
        if taken < len(self._resources):
            claim = Request(self._resources[taken])
            claims.append(claim)
            claim.callbacks.append(self._advance)
            return
        # Every claim is granted; the remaining delays run in turn.
        delays = self._delays
        if len(delays) > 1:
            self._delays = delays[1:]
            self.env.timeout(delays[0]).callbacks.append(self._advance)
        else:
            self._ok = True
            self._value = None
            self.env.schedule(self, delays[0])

    def _release(self, _event: Event) -> None:
        for claim in self._claims:
            claim.resource.release(claim)


class Resource(object):
    """A counted, FIFO-fair resource.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of simultaneous claims allowed (default 1).
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:  # noqa: F821
        if capacity <= 0:
            raise ValueError("capacity must be positive, got %r" % (capacity,))
        self._env = env
        self._capacity = int(capacity)
        self._users: List[Request] = []
        self._waiters: Deque[Request] = deque()
        self._contention_watchers: List[Callable[[Request], None]] = []

    def __repr__(self) -> str:
        return "<Resource capacity=%d users=%d queued=%d>" % (
            self._capacity,
            len(self._users),
            len(self._waiters),
        )

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of claims currently granted."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a free slot."""
        return len(self._waiters)

    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted."""
        return Request(self)

    def hold(self, *delays: float) -> Hold:
        """Claim one unit, sleep through ``delays`` in order, release.

        Returns one :class:`Hold` event.  A process that yields it
        resumes, with the unit already released, at the time and in
        the order the inline ``with request(): yield claim; yield
        timeout(...)`` loop would have finished: one resume instead of
        one per claim and delay.
        """
        return Hold((self,), delays)

    def watch_contention(self, callback: Callable[[Request], None]) -> None:
        """Invoke ``callback(request)`` whenever a request must queue.

        This is the hook the network fast path uses to coalesce long
        uncontended holds: the holder sleeps through one closed-form
        timeout and is woken the instant a rival claimant arrives, so
        it can yield the resource exactly where the per-claim path
        would have.  Watchers fire synchronously inside ``request()``.
        """
        self._contention_watchers.append(callback)

    def unwatch_contention(self, callback: Callable[[Request], None]) -> None:
        """Remove a watcher added by :meth:`watch_contention`."""
        try:
            self._contention_watchers.remove(callback)
        except ValueError:
            pass

    def release(self, request: Request) -> None:
        """Return a previously granted claim; takes effect at once.

        Releasing an ungranted (queued) request cancels it instead.
        No event is scheduled: the next waiter's grant is the only
        event a release causes.
        """
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            request.cancel()

    def _do_request(self, request: Request) -> None:
        if len(self._users) < self._capacity:
            self._users.append(request)
            request._ok = True  # request.succeed(), minus its checks
            request._value = None
            self._env.schedule(request)
        else:
            self._waiters.append(request)
            if self._contention_watchers:
                for callback in tuple(self._contention_watchers):
                    callback(request)

    def _grant_next(self) -> None:
        while self._waiters and len(self._users) < self._capacity:
            request = self._waiters.popleft()
            self._users.append(request)
            request._ok = True
            request._value = None
            self._env.schedule(request)


class StorePut(Event):
    """Completed immediately: stores here are unbounded."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super(StorePut, self).__init__(store._env)
        self.item = item
        store._do_put(self)


class StoreGet(Event):
    """Fires with the next item (optionally the next matching item)."""

    __slots__ = ("store", "filter")

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]] = None) -> None:
        super(StoreGet, self).__init__(store._env)
        self.store = store
        self.filter = filter
        store._do_get(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-satisfied get from the wait queue."""
        if not self.triggered:
            try:
                self.store._getters.remove(self)
            except ValueError:
                pass


class Store(object):
    """Unbounded FIFO item store with blocking ``get``."""

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self._env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __repr__(self) -> str:
        return "<%s items=%d getters=%d>" % (
            type(self).__name__,
            len(self._items),
            len(self._getters),
        )

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """Snapshot of queued items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> StorePut:
        """Add ``item``; never blocks."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Take the oldest item; the event fires when one is available."""
        return StoreGet(self)

    def _do_put(self, event: StorePut) -> None:
        self._items.append(event.item)
        event.succeed()
        self._dispatch()

    def _do_get(self, event: StoreGet) -> None:
        self._getters.append(event)
        self._dispatch()

    def _dispatch(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            getter.succeed(self._items.popleft())


class FilterStore(Store):
    """Store whose ``get`` may wait for an item matching a predicate."""

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Take the oldest item for which ``filter(item)`` is true."""
        return StoreGet(self, filter)

    def _dispatch(self) -> None:
        # Repeatedly try to satisfy any waiting getter; stop when a full
        # pass makes no progress.
        progressed = True
        while progressed:
            progressed = False
            for getter in list(self._getters):
                match_index = None
                for index, item in enumerate(self._items):
                    if getter.filter is None or getter.filter(item):
                        match_index = index
                        break
                if match_index is not None:
                    self._getters.remove(getter)
                    item = self._items[match_index]
                    del self._items[match_index]
                    getter.succeed(item)
                    progressed = True
