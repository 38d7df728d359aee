"""Typed run events and progress snapshots for streaming execution.

A :class:`~repro.core.scheduler.RunHandle` narrates its run as a
stream of frozen event records — :class:`JobStarted` when a cache miss
is dispatched to the executor, :class:`CacheHit` when the cache serves
a sample, :class:`JobFinished` when a simulation's outcome lands, and
one final :class:`RunCompleted`.  Consumers (the CLI's ``--progress``
line, ``run_evaluation(on_event=...)``, dashboards) pattern-match on
the event type; the classes carry data only, no behavior.

:class:`Progress` is the complementary *pull* view: an immutable
snapshot of done/total counters with derived hit-rate and ETA, cheap
enough to take on every event.

Events also cross process boundaries: the evaluation service streams
them over Server-Sent Events, so every event serializes to a JSON-safe
dict (:func:`event_to_dict`) tagged with a stable ``type`` string, and
:func:`event_from_dict` rebuilds the typed record on the consumer side
— a remote client pattern-matches on the exact same classes as a local
:meth:`~repro.core.scheduler.RunHandle.events` consumer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.jobs import MeasurementJob
from repro.errors import EvaluationError

__all__ = [
    "RunEvent",
    "JobStarted",
    "CacheHit",
    "JobFinished",
    "RunCompleted",
    "Progress",
    "EVENT_TYPES",
    "event_to_dict",
    "event_from_dict",
]


@dataclass(frozen=True)
class RunEvent:
    """Base class: something observable happened during a run."""

    #: Stable wire tag; subclasses override.  Part of the service's
    #: SSE protocol, so renaming one is a breaking API change.
    type = "event"

    def to_dict(self) -> dict:
        """A JSON-safe description of this event, tagged with
        :attr:`type` (jobs serialize through
        :meth:`~repro.core.jobs.MeasurementJob.to_dict`)."""
        raise NotImplementedError


@dataclass(frozen=True)
class JobStarted(RunEvent):
    """A cache miss was dispatched to the executor.

    ``index`` is the dispatch sequence number (0-based, counting only
    executed jobs — cache hits never start).
    """

    job: MeasurementJob
    index: int

    type = "job_started"

    def to_dict(self) -> dict:
        return {"type": self.type, "job": self.job.to_dict(), "index": self.index}


@dataclass(frozen=True)
class CacheHit(RunEvent):
    """The cache served ``job`` without simulating."""

    job: MeasurementJob
    value: Optional[float]

    type = "cache_hit"

    def to_dict(self) -> dict:
        return {"type": self.type, "job": self.job.to_dict(), "value": self.value}


@dataclass(frozen=True)
class JobFinished(RunEvent):
    """A dispatched job's outcome landed (and was persisted)."""

    job: MeasurementJob
    value: Optional[float]
    wall_seconds: Optional[float]
    attempts: int

    type = "job_finished"

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "job": self.job.to_dict(),
            "value": self.value,
            "wall_seconds": self.wall_seconds,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class RunCompleted(RunEvent):
    """The run is over — normally or via cooperative cancellation."""

    total: int
    simulated: int
    cache_hits: int
    cancelled: bool
    wall_seconds: float

    type = "run_completed"

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "total": self.total,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "cancelled": self.cancelled,
            "wall_seconds": self.wall_seconds,
        }


#: Wire tag -> event class, the registry both serialization directions
#: share (and the authoritative list of what the service streams).
EVENT_TYPES = {
    cls.type: cls for cls in (JobStarted, CacheHit, JobFinished, RunCompleted)
}


def event_to_dict(event: RunEvent) -> dict:
    """``event.to_dict()`` with a type check — the service boundary
    rejects foreign objects loudly instead of streaming garbage."""
    if not isinstance(event, RunEvent):
        raise EvaluationError("not a RunEvent: %r" % (event,))
    return event.to_dict()


def event_from_dict(data: dict) -> RunEvent:
    """Rebuild the typed event a :func:`event_to_dict` dict describes.

    The inverse a remote consumer (the service client) applies to each
    SSE payload, so it can pattern-match on :class:`JobStarted` /
    :class:`JobFinished` / :class:`CacheHit` / :class:`RunCompleted`
    exactly like a local one.  Older versions wrote an ``engine``
    key, always ``"event"``, into ``job_finished`` events; it is
    ignored.
    """
    try:
        kind = data["type"]
    except (TypeError, KeyError):
        raise EvaluationError("event dict has no 'type' tag: %r" % (data,))
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise EvaluationError(
            "unknown event type %r; known: %s"
            % (kind, ", ".join(sorted(EVENT_TYPES)))
        )
    fields = {key: value for key, value in data.items() if key not in ("type", "engine")}
    if "job" in fields:
        fields["job"] = MeasurementJob.from_dict(fields["job"])
    try:
        return cls(**fields)
    except TypeError as error:
        raise EvaluationError("malformed %s event: %s" % (kind, error))


@dataclass(frozen=True)
class Progress:
    """An immutable done/total snapshot of a streaming run.

    ``total`` is ``None`` when the run was started from a bare job
    iterable of unknown size (no ETA then).  ``completed`` counts both
    simulated jobs and cache hits; ``dispatched`` counts jobs handed
    to the executor (so ``dispatched - simulated`` are in flight).
    """

    total: Optional[int]
    dispatched: int
    completed: int
    simulated: int
    cache_hits: int
    elapsed_seconds: float
    cancelled: bool
    finished: bool

    @property
    def remaining(self) -> Optional[int]:
        if self.total is None:
            return None
        return max(0, self.total - self.completed)

    @property
    def hit_rate(self) -> float:
        """Fraction of completed jobs served from the cache."""
        if self.completed == 0:
            return 0.0
        return self.cache_hits / self.completed

    @property
    def eta_seconds(self) -> Optional[float]:
        """Remaining wall time, extrapolated from throughput so far
        (``None`` until the first job completes or when ``total`` is
        unknown; ``0.0`` once the run is finished).

        The rate comes from *simulated* jobs, not all completed ones:
        cache hits resolve in microseconds, so on a resumed sweep —
        hundreds of hits served up front, real simulation still ahead
        — a completed-based rate would report a near-zero ETA for
        hours of work.  Assuming every remaining job simulates errs
        the other way (an overestimate when more hits are coming),
        which is the honest side to miss on.  Until the first miss
        (pure hits so far) the hit-serving rate is all there is.
        """
        if self.finished:
            return 0.0
        if self.total is None or self.completed == 0:
            return None
        if self.simulated == 0:
            return self.elapsed_seconds * self.remaining / self.completed
        return self.elapsed_seconds * self.remaining / self.simulated

    def render(self) -> str:
        """One human-readable status line (the CLI's progress line)."""
        total = "?" if self.total is None else str(self.total)
        parts = [
            "%d/%s jobs" % (self.completed, total),
            "%d simulated" % self.simulated,
            "%d cache hits" % self.cache_hits,
        ]
        if self.finished:
            parts.append("cancelled" if self.cancelled else "done")
            parts.append("in %.2fs" % self.elapsed_seconds)
        else:
            eta = self.eta_seconds
            if eta is not None:
                parts.append("eta %.1fs" % eta)
        return " | ".join(parts)
