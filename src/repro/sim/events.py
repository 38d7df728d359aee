"""Core event types for the discrete-event simulation kernel.

The kernel follows the classic generator-based design (popularized by
SimPy): an :class:`Event` is a one-shot occurrence that carries a value
or an exception, and simulation processes are Python generators that
``yield`` events to suspend until those events fire.

Events go through three states:

* *pending* — created but not yet triggered,
* *triggered* — a value/exception has been set and the event is queued,
* *processed* — the kernel has invoked all callbacks.

Only the kernel (:class:`repro.sim.kernel.Environment`) moves events
from triggered to processed; user code triggers events with
:meth:`Event.succeed` or :meth:`Event.fail`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

__all__ = [
    "PENDING",
    "Priority",
    "Event",
    "Timeout",
    "TimeoutUntil",
    "Initialize",
    "ConditionValue",
    "Condition",
    "AllOf",
    "Interruption",
    "Interrupt",
    "StopSimulation",
]


class _PendingType(object):
    """Sentinel for "no value yet"; distinct from ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<PENDING>"


#: Unique sentinel used as the value of untriggered events.
PENDING = _PendingType()


class Priority(object):
    """Scheduling priorities; lower values run earlier at equal times."""

    URGENT = 0
    NORMAL = 1

    __slots__ = ()


class Event(object):
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    env:
        The environment this event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        #: Callables invoked (with this event) when the event is processed.
        #: Set to ``None`` once processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        if self.processed:
            state += ",processed"
        return "<%s (%s) at 0x%x>" % (type(self).__name__, state, id(self))

    @property
    def triggered(self) -> bool:
        """True once a value or exception has been set."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.

        Only meaningful once :attr:`triggered` is true.
        """
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is PENDING:
            raise AttributeError("value of %r is not yet available" % self)
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failure has been handled and should not propagate."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError("%r has already been triggered" % self)
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on this
        event.  If no process waits on it and it is never defused, the
        environment raises it when the event is processed, so failures
        never pass silently.
        """
        if self.triggered:
            raise RuntimeError("%r has already been triggered" % self)
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception, got %r" % (exception,))
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if self.triggered:
            raise RuntimeError("%r has already been triggered" % self)
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError("negative delay %r" % (delay,))
        # A Timeout is born triggered, and this constructor is the
        # kernel's hottest allocation site: set the Event fields
        # directly instead of dispatching through Event.__init__ and
        # then overwriting half of them.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return "<Timeout(%s) at 0x%x>" % (self.delay, id(self))


class TimeoutUntil(Event):
    """An event that fires at an absolute simulation time.

    A :class:`~repro.sim.resources.Train` ends a run of frames with one
    such event, whose pop time must hit the per-frame clock's float
    sum exactly: scheduling ``at`` directly sidesteps the
    ``now + (at - now)`` round-trip, which is not an identity in
    floating point.
    """

    __slots__ = ("at",)

    def __init__(self, env: "Environment", at: float, value: Any = None) -> None:  # noqa: F821
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.at = at
        env.schedule_at(self, at)

    def __repr__(self) -> str:
        return "<TimeoutUntil(%s) at 0x%x>" % (self.at, id(self))


class Initialize(Event):
    """Immediately-scheduled event that starts a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:  # noqa: F821
        super(Initialize, self).__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=Priority.URGENT)


class ConditionValue(object):
    """Ordered mapping of the events a condition has collected so far."""

    __slots__ = ("events",)

    def __init__(self, events: List[Event]) -> None:
        self.events = list(events)

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(repr(event))
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        return self.todict() == other

    def __repr__(self) -> str:
        return "<ConditionValue %s>" % (self.todict(),)

    def keys(self) -> List[Event]:
        return list(self.events)

    def values(self) -> List[Any]:
        return [event.value for event in self.events]

    def todict(self) -> dict:
        return {event: event.value for event in self.events}


class Condition(Event):
    """Composite event over multiple sub-events.

    ``evaluate`` receives the full event list and the count of events
    triggered so far and decides whether the condition holds.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super(Condition, self).__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events from different environments in one condition")

        if not self._events:
            # An empty condition is trivially met.
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> ConditionValue:
        # Only *processed* events belong to the result.  (Timeouts carry
        # their value from creation, so `triggered` would wrongly include
        # sub-events that have not fired yet.)
        return ConditionValue([event for event in self._events if event.processed])

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            # Any sub-event failure fails the whole condition.
            event.defused = True
            self.fail(event.value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Condition that fires once *all* sub-events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:  # noqa: F821
        super(AllOf, self).__init__(env, _all_events, events)


def _all_events(events: List[Event], count: int) -> bool:
    return count == len(events)


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Interruption(Event):
    """Immediately-scheduled event that throws :class:`Interrupt`."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:  # noqa: F821
        super(Interruption, self).__init__(process.env)
        if process.triggered:
            raise RuntimeError("cannot interrupt %r: it has terminated" % process)
        if process is process.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.process = process
        self.callbacks.append(self._interrupt)
        process.env.schedule(self, priority=Priority.URGENT)

    def _interrupt(self, event: Event) -> None:
        if self.process.triggered:
            return  # Process terminated before the interrupt was delivered.
        target = self.process._target
        if target is not None and self.process._resume in target.callbacks:
            target.callbacks.remove(self.process._resume)
        self.process._resume(self)


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""

    @classmethod
    def callback(cls, event: Event) -> None:
        """Event callback that stops the simulation when fired."""
        if event.ok:
            raise cls(event.value)
        raise event.value
