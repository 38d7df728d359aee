"""Shared resources for simulation processes.

Three primitives cover everything the substrates need:

* :class:`Resource` — a counted semaphore with a FIFO wait queue; models
  exclusive media (an Ethernet segment, a token) or multi-unit capacity
  (switch ports).  :class:`Hold` claims one or more of them, sleeps and
  releases, all as one event a process yields once; :class:`Train`
  does the same for a run of frames that claim an exclusive resource
  once each.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``;
  models mailboxes and daemon input queues.
* :class:`FilterStore` — a store whose ``get`` can wait for an item
  matching a predicate; models tag/source-selective message receipt.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence

from repro.sim.events import PENDING, Event, TimeoutUntil

__all__ = ["Request", "Hold", "Train", "Resource", "StorePut", "StoreGet", "Store",
           "FilterStore"]


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


class Train(Event):
    """Send ``frames`` frames over exclusive ``resource``, one claim each.

    One event stands for the per-frame loop a process would otherwise
    spell as, for every frame, ``with request(): yield claim; yield
    timeout(backoff()); yield timeout(seconds)``, where the backoff
    sleep happens only when a rival is queued at the grant and
    ``backoff`` is given.  Every frame but the last takes ``seconds``;
    the last takes ``last_seconds``.  The train fires, with every
    claim returned, with the frames' busy seconds (backoff excluded)
    summed left to right as the loop sums them.

    Frames go out in runs, each ended by one timer:

    * Granted with nobody queued (so no backoff draw can occur), the
      remaining frames run as one timer, set at the loop's
      left-to-right sum of frame times and scheduled at that absolute
      time, so it pops where the loop's clock would have stood.
    * A rival that queues mid-run cuts the run at the end of the frame
      in flight (at the run's first instant the loop has already
      started one), or at once when it lands exactly on a frame
      boundary.  The train then claims again, behind the rival.  On a
      boundary this is the loop's order when the rival's arrival was
      scheduled before the frame ending there began; one scheduled
      later would, in the loop, wait a frame more, and a run cannot
      tell the two apart.
    * Granted with a rival queued, the train sends one frame, after a
      ``backoff()`` draw.

    Rivals are thus granted at the loop's instants and ``backoff``
    sees the loop's draws.  An interrupt of the waiting process does
    not stop the train.
    """

    __slots__ = ("_resource", "_frames", "_seconds", "_last_seconds", "_backoff",
                 "_sent", "_busy", "_request", "_run", "_run_start", "_timer")

    def __init__(
        self,
        resource: "Resource",
        frames: int,
        seconds: float,
        last_seconds: float,
        backoff: Optional[Callable[[], float]] = None,
    ) -> None:
        if resource.capacity != 1:
            raise ValueError("a train needs an exclusive resource")
        if frames < 1:
            raise ValueError("a train needs at least one frame, got %r" % (frames,))
        if min(seconds, last_seconds) <= 0:
            raise ValueError("frame times must be positive")
        self.env = resource._env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._resource = resource
        self._frames = frames
        self._seconds = seconds
        self._last_seconds = last_seconds
        self._backoff = backoff
        self._sent = 0
        self._busy = 0.0
        self._claim()

    def _frame_seconds(self, index: int) -> float:
        return self._seconds if index < self._frames - 1 else self._last_seconds

    def _after(self, start: float, count: int) -> float:
        """``start`` plus the next ``count`` unsent frames' times, added
        one frame at a time, as the loop's clock adds them."""
        full = min(count, self._frames - 1 - self._sent)
        for _ in range(full):
            start += self._seconds
        if full < count:
            start += self._last_seconds
        return start

    def _claim(self) -> None:
        request = self._request = Request(self._resource)
        request.callbacks.append(self._granted)

    def _granted(self, _request: Request) -> None:
        env = self.env
        if self._resource.queue_length:
            self._run = 1
            if self._backoff is None:
                self._send(None)
            else:
                env.timeout(self._backoff()).callbacks.append(self._send)
        else:
            self._run = self._frames - self._sent
            self._run_start = env.now
            self._resource._on_queue = self._cut
            self._arm(self._after(env.now, self._run))

    def _send(self, _backoff: Optional[Event]) -> None:
        self._arm(self.env.now + self._frame_seconds(self._sent))

    def _arm(self, at: float) -> None:
        timer = self._timer = TimeoutUntil(self.env, at)
        timer.callbacks.append(self._ran)

    def _cut(self, _rival: Request) -> None:
        """A rival queued mid-run (the resource's queue hook)."""
        self._resource._on_queue = None
        now = self.env.now
        end = self._run_start
        done = 0
        # Walk the loop's frame boundaries to the first one at or after
        # now; at the run's first instant, that is the first frame's end.
        while done < self._run and (end < now or done == 0):
            end += self._frame_seconds(self._sent + done)
            done += 1
        if done < self._run:
            self._run = done
            self._arm(end)

    def _ran(self, timer: Event) -> None:
        if timer is not self._timer:
            return  # a cut ended this run earlier
        resource = self._resource
        resource._on_queue = None
        self._busy = self._after(self._busy, self._run)
        self._sent += self._run
        resource.release(self._request)
        if self._sent < self._frames:
            self._claim()
        else:
            # Fire in this timer's heap slot, where the loop's process
            # resumed after its last frame, rather than one hop later.
            self._ok = True
            self._value = self._busy
            callbacks, self.callbacks = self.callbacks, None
            for callback in callbacks:
                callback(self)


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
        # Called with each request that must queue; a Train sets it
        # while it sends frames with nobody queued behind it.
        self._on_queue: Optional[Callable[[Request], None]] = None

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
            if self._on_queue is not None:
                self._on_queue(request)

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
