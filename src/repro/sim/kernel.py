"""The discrete-event scheduler (:class:`Environment`).

The environment owns the event heap and the simulation clock.  Entries
are ordered by ``(time, priority, sequence)`` which makes runs fully
deterministic: two events scheduled for the same instant fire in the
order they were scheduled.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Generator, Iterable, List, Optional, Tuple, Union

from repro.sim.events import (
    AllOf,
    Event,
    Priority,
    StopSimulation,
    Timeout,
    TimeoutUntil,
)
from repro.sim.process import Process

__all__ = ["Environment", "Infinity"]

#: Convenience alias used for "run forever" bounds.
Infinity = float("inf")

# Pre-bound heap primitives: the run loop touches these once per event,
# so shaving the module-attribute lookups is measurable at the millions
# of events a sweep schedules.
_heappush = heapq.heappush
_heappop = heapq.heappop


class Environment(object):
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock, in seconds.

    Examples
    --------
    >>> env = Environment()
    >>> def hello(env):
    ...     yield env.timeout(2.5)
    ...     return "done"
    >>> proc = env.process(hello(env))
    >>> env.run()
    >>> env.now
    2.5
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        # Bound method: schedule() calls this once per event.
        self._eid = count().__next__
        self._active_proc: Optional[Process] = None

    def __repr__(self) -> str:
        return "<Environment now=%g queued=%d>" % (self._now, len(self._queue))

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def timeout_until(self, at: float, value: Any = None) -> TimeoutUntil:
        """Create an event that fires at the absolute time ``at``.

        Unlike ``timeout(at - now)``, the event pops at exactly ``at``:
        there is no float round-trip through a relative delay.  A
        :class:`~repro.sim.resources.Train` relies on this to keep a
        run of frames bit-identical to the per-frame accumulation it
        replaces.
        """
        return TimeoutUntil(self, at, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Create a condition that fires once all ``events`` fire."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = Priority.NORMAL,
    ) -> None:
        """Queue ``event`` to be processed after ``delay`` seconds."""
        _heappush(self._queue, (self._now + delay, priority, self._eid(), event))

    def schedule_at(
        self,
        event: Event,
        at: float,
        priority: int = Priority.NORMAL,
    ) -> None:
        """Queue ``event`` to be processed at the absolute time ``at``."""
        if at < self._now:
            raise ValueError(
                "cannot schedule at %s: it is before the current time %s" % (at, self._now)
            )
        _heappush(self._queue, (at, priority, self._eid(), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._queue:
            return Infinity
        return self._queue[0][0]

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        RuntimeError
            If no events are scheduled ("empty schedule").
        """
        if not self._queue:
            raise RuntimeError("no scheduled events: simulation is exhausted")
        self._now, _, _, event = _heappop(self._queue)

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            # An un-handled failure must not pass silently.
            exc = event._value
            raise exc

    def run(self, until: Optional[Union[float, Event]] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain;
            a number
                run until the clock reaches that time;
            an :class:`Event`
                run until that event is processed and return its value.
        """
        stop_at = Infinity
        if until is not None:
            if isinstance(until, Event):
                if until.processed:
                    return until.value
                until.callbacks.append(StopSimulation.callback)
            else:
                stop_at = float(until)
                if stop_at <= self._now:
                    raise ValueError(
                        "until (%s) must be greater than the current time (%s)"
                        % (stop_at, self._now)
                    )

        # The hot loop: step() inlined, with the queue and heappop held
        # in locals.  Per-event peek()/step() calls and their attribute
        # lookups cost more than the heap work itself at the millions
        # of events a sweep processes.
        queue = self._queue
        pop = _heappop
        try:
            while queue and queue[0][0] < stop_at:
                self._now, _, _, event = pop(queue)

                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)

                if not event._ok and not event._defused:
                    # An un-handled failure must not pass silently.
                    raise event._value
        except StopSimulation as exc:
            return exc.args[0]

        if isinstance(until, Event) and not until.triggered:
            raise RuntimeError("no scheduled events left but until event was not triggered")
        if stop_at is not Infinity:
            self._now = stop_at
        return None
