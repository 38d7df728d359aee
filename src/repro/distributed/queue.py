"""The on-disk job queue both sides of the fan-out share.

Everything is a file under one queue directory, so the only transport
workers and coordinator need is a shared filesystem (NFS on a real
cluster, a tmp dir in tests)::

    queue/
      jobs/      <ticket>.json   work nobody has claimed yet
      claims/    <ticket>.json   leased work; mtime is the heartbeat
      outcomes/  <ticket>.json   finished work the coordinator takes
      workers/   <id>.json       worker liveness/stats beacons
      bell-jobs                  FIFO: rung when a ticket is published
      bell-outcomes              FIFO: rung when an outcome is published

A ticket is a **chunk of jobs**, shipped and claimed as one unit so
the per-ticket costs (a write, a rename, an outcome file, a poll)
are paid once per chunk::

    {"ticket": T, "retries": N, "jobs": [<MeasurementJob.to_dict()>, ...]}

Its outcome file lists one record per job the worker ran, in job
order, and stops at the first failure::

    {"ticket": T, "worker": W, "wall_seconds": <the ticket's worker wall>,
     "outcomes": [{"value": V, "wall_seconds": S, "attempts": A,
                   "cache_hit": H, "error": null}, ...],
     "error": null}

A failed job's record carries ``{"type": ..., "message": ...}`` as
its ``"error"`` and is the last record.  The top-level ``"error"`` is
set only for a ticket the worker could not read at all (see
:meth:`JobQueue.claim`).  Tickets and outcomes of different versions
do not mix: drain a queue before upgrading its fleet.

Every state transition is a single atomic filesystem operation, which
is the whole concurrency story:

* **enqueue** writes ``jobs/<ticket>.json`` via temp file +
  ``os.replace`` — a worker never sees a torn ticket.
* **claim** is ``os.replace(jobs/T, claims/T)``.  Rename is atomic on
  POSIX, so exactly one of N racing workers wins; the losers get
  ``FileNotFoundError`` and move on.  The claim file *is* the lease,
  and its mtime is refreshed by the worker's heartbeat.  The lease
  starts at claim: the ticket's mtime is touched just before the
  rename (which keeps it), so a ticket that sat in ``jobs/`` — or
  came back there through reclaim — is not born stale.
* **complete** atomically publishes ``outcomes/<ticket>.json`` and
  releases the lease.
* **reclaim** moves a claim whose heartbeat went stale back to
  ``jobs/`` — again one atomic rename, so concurrent reclaimers (any
  worker or the coordinator may sweep) cannot duplicate a ticket.

Reclaim gives at-least-once execution **per chunk**: a worker that
dies before completing its ticket gets the whole chunk re-run.  That
is safe by construction — jobs are deterministic and each job's
result lands in the content-addressed cache, via an atomic same-key
write, as soon as that job finishes — so the re-run simulates only
the jobs the dead worker had not stored and serves the rest as cache
hits, which the kill-a-worker tests pin.

The two **doorbells** only shorten sleeps.  ``enqueue`` writes one
byte to ``bell-jobs`` and ``complete`` one to ``bell-outcomes``,
without blocking; an idle worker and a waiting coordinator sleep in
``poll`` on their bell, with their backoff as the timeout, and a wake
takes one byte, so one ring never swallows a peer's wake.  Whatever
ended a sleep, the sleeper then looks at the directory as it always
did: polling is the only path correctness rests on.  A ring can be
lost at no cost beyond the sleep it did not shorten, and that is all
a bell does where it cannot work: a FIFO carries bytes only between
processes of one host, so a worker on another NFS client sleeps out
its backoff as before, and on a platform or filesystem without
``mkfifo`` the bells stay silent.  A stale byte (a ring for work
someone took without sleeping) costs one empty look, never a spin.
Bells open lazily, on the first ring or wait: constructing a
:class:`JobQueue` or reading its beacons opens nothing.
"""

from __future__ import annotations

import json
import os
import select
import stat
import tempfile
import threading
import time
import weakref
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.jobs import MeasurementJob
from repro.errors import EvaluationError

__all__ = ["Claim", "JobQueue"]

_JOBS = "jobs"
_CLAIMS = "claims"
_OUTCOMES = "outcomes"
_WORKERS = "workers"
_JOBS_BELL = "bell-jobs"
_OUTCOMES_BELL = "bell-outcomes"

#: First sleep of an idle poll loop on either end of the queue (worker
#: claims, coordinator outcome pickup).  Sleeps double from here up to
#: the caller's ``poll_interval`` and restart here after activity, so
#: work whose ring is lost, or that lands on another host, is seen a
#: few milliseconds after a look instead of a whole poll interval
#: later.
MIN_POLL_SECONDS = 0.001


def _write_json_atomic(path: str, payload: dict) -> None:
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # dumps, not dump: only the one-shot encoder runs in C.
            handle.write(json.dumps(payload, sort_keys=True))
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


class _Descriptor(object):
    """An open bell, closed once nothing holds it: a wait in flight
    keeps its descriptor number valid through a concurrent close."""

    __slots__ = ("fd", "__weakref__")

    def __init__(self, fd: int) -> None:
        self.fd = fd
        weakref.finalize(self, os.close, fd)


def _open_fifo(path: str) -> Optional[_Descriptor]:
    """The FIFO at ``path``, made if missing and opened for reading and
    writing without blocking, or None where that cannot be done."""
    if not hasattr(os, "mkfifo"):
        return None
    try:
        os.mkfifo(path)
    except FileExistsError:
        pass
    except OSError:
        return None  # the filesystem holds no FIFOs
    try:
        fd = os.open(path, os.O_RDWR | os.O_NONBLOCK | os.O_CLOEXEC)
    except OSError:
        return None
    if not stat.S_ISFIFO(os.fstat(fd).st_mode):
        os.close(fd)  # a foreign file at the bell's path: stay silent
        return None
    return _Descriptor(fd)


class _Bell(object):
    """One doorbell: a FIFO a process rings after publishing something
    another process sleeps waiting for (see the module docstring)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._descriptor: Optional[_Descriptor] = None  # guarded-by: _lock

    def _open(self) -> Optional[_Descriptor]:
        with self._lock:
            if self._descriptor is None:
                self._descriptor = _open_fifo(self.path)
            return self._descriptor

    def ring(self) -> None:
        descriptor = self._open()
        if descriptor is not None:
            try:
                os.write(descriptor.fd, b"\0")
            except BlockingIOError:
                pass  # the FIFO is full: plenty of rings are pending

    def wait(self, timeout: float, wake_fd: Optional[int] = None) -> None:
        """Sleep until a ring, ``wake_fd`` turning readable, or
        ``timeout`` seconds; a ring is taken, one byte of it."""
        descriptor = self._open()
        # poll, not select: descriptor numbers may exceed FD_SETSIZE in
        # a long-lived process.  A poll object per wait, since waits on
        # one bell may run in several threads.
        poller = select.poll()
        if descriptor is not None:
            poller.register(descriptor.fd, select.POLLIN)
        if wake_fd is not None:
            poller.register(wake_fd, select.POLLIN)
        for fd, _ in poller.poll(timeout * 1000.0):
            if descriptor is not None and fd == descriptor.fd:
                try:
                    os.read(fd, 1)
                except BlockingIOError:
                    pass  # a peer's wait took this ring

    def close(self) -> None:
        """Let go of the descriptor; the next ring or wait reopens it."""
        with self._lock:
            self._descriptor = None


class Claim(NamedTuple):
    """A leased ticket: the chunk of jobs to run, in order, and where
    the lease lives."""

    ticket: str
    jobs: Tuple[MeasurementJob, ...]
    retries: int
    path: str


class JobQueue(object):
    """Coordinator/worker API over one shared queue directory.

    ``lease_timeout`` is how long a claim may go without a heartbeat
    before any process is allowed to reclaim it; keep it several times
    the worker heartbeat interval so a briefly stalled worker does not
    lose (and then duplicate) work it is still running.
    """

    #: Outcome files nobody took within this many lease timeouts are
    #: litter (their coordinator cancelled or died) and get swept.
    OUTCOME_TTL_LEASES = 10.0

    def __init__(self, root: str, lease_timeout: float = 30.0) -> None:
        if lease_timeout <= 0.0:
            raise EvaluationError("lease_timeout must be > 0")
        self.root = os.fspath(root)
        self.lease_timeout = lease_timeout
        for name in (_JOBS, _CLAIMS, _OUTCOMES, _WORKERS):
            os.makedirs(os.path.join(self.root, name), exist_ok=True)
        self._jobs_bell = _Bell(os.path.join(self.root, _JOBS_BELL))
        self._outcomes_bell = _Bell(os.path.join(self.root, _OUTCOMES_BELL))

    def _path(self, kind: str, name: str) -> str:
        return os.path.join(self.root, kind, name + ".json")

    def _tickets(self, kind: str) -> List[str]:
        try:
            names = os.listdir(os.path.join(self.root, kind))
        except OSError:
            return []
        return sorted(
            name[: -len(".json")] for name in names if name.endswith(".json")
        )

    # -- coordinator side ----------------------------------------------

    def enqueue(
        self, ticket: str, jobs: Sequence[MeasurementJob], retries: int = 1
    ) -> None:
        """Publish a ticket carrying ``jobs`` for any worker to claim."""
        payload = {
            "ticket": ticket,
            "jobs": [job.to_dict() for job in jobs],
            "retries": retries,
        }
        _write_json_atomic(self._path(_JOBS, ticket), payload)
        self._jobs_bell.ring()

    def revoke(self, ticket: str) -> bool:
        """Withdraw an *unclaimed* ticket (lease revocation: the
        cancellation primitive).  Returns False when a worker already
        claimed it — that chunk finishes and persists, matching the
        cooperative-cancel semantics everywhere else in the repo."""
        try:
            os.unlink(self._path(_JOBS, ticket))
            return True
        except OSError:
            return False

    def take_outcome(self, ticket: str) -> Optional[dict]:
        """Consume the ticket's outcome file, or None if not done yet.

        Read-then-unlink, in that order: the unlink only happens after
        a successful parse, so a coordinator killed mid-take leaves
        the outcome for its successor instead of losing it.
        """
        path = self._path(_OUTCOMES, ticket)
        outcome = _read_json(path)
        if outcome is None:
            return None
        try:
            os.unlink(path)
        except OSError:
            pass
        return outcome

    def wait_for_outcomes(self, timeout: float) -> None:
        """Sleep until an outcome is published (a ring on
        ``bell-outcomes``) or ``timeout`` seconds pass."""
        self._outcomes_bell.wait(timeout)

    def discard_outcome(self, ticket: str) -> None:
        try:
            os.unlink(self._path(_OUTCOMES, ticket))
        except OSError:
            pass

    # -- worker side ---------------------------------------------------

    def claim(self, worker_id: str) -> Optional[Claim]:
        """Lease the oldest available ticket, or None if the queue is
        drained.  Exactly one of N racing claimants wins any ticket
        (atomic rename); everyone else silently moves to the next.

        A ticket that cannot be read (foreign litter, another
        version's format) is answered with an error outcome naming
        it, so a coordinator waiting on it fails instead of polling
        forever, and the claim moves on to the next ticket.
        """
        for ticket in self._tickets(_JOBS):
            job_path = self._path(_JOBS, ticket)
            claim_path = self._path(_CLAIMS, ticket)
            try:
                # Rename keeps the mtime, and the mtime is the lease:
                # without the touch a ticket older than lease_timeout
                # would be stealable before its first heartbeat.
                os.utime(job_path)
                os.replace(job_path, claim_path)
            except OSError:
                continue  # lost the race (or a revocation) — next ticket
            payload = _read_json(claim_path)
            try:
                if payload is None:
                    raise ValueError("not a JSON object")
                jobs = tuple(MeasurementJob.from_dict(job) for job in payload["jobs"])
                retries = int(payload.get("retries", 1))
                if not jobs:
                    raise ValueError("no jobs")
            except Exception as error:
                self.complete(
                    Claim(ticket, (), 1, claim_path),
                    {
                        "ticket": ticket,
                        "worker": worker_id,
                        "wall_seconds": 0.0,
                        "outcomes": [],
                        "error": {
                            "type": "EvaluationError",
                            "message": "ticket %s in %s is unreadable by this "
                            "worker (%s: %s); mixed-version fleets are unsupported"
                            % (ticket, self.root, type(error).__name__, error),
                        },
                    },
                )
                continue
            return Claim(ticket=ticket, jobs=jobs, retries=retries, path=claim_path)
        return None

    def wait_for_jobs(self, timeout: float, wake_fd: Optional[int] = None) -> None:
        """Sleep until a ticket is published (a ring on ``bell-jobs``),
        ``wake_fd`` turns readable, or ``timeout`` seconds pass."""
        self._jobs_bell.wait(timeout, wake_fd)

    def heartbeat(self, claim: Claim) -> None:
        """Refresh the lease (claim-file mtime) so reclaimers know the
        worker holding it is still alive."""
        try:
            os.utime(claim.path)
        except OSError:
            pass  # completed or reclaimed from under us; harmless

    def complete(self, claim: Claim, outcome: dict) -> None:
        """Publish the outcome and release the lease, in that order —
        a worker killed between the two steps leaves a stale claim
        that reclaims into a (cache-hit) re-run, never a lost result."""
        _write_json_atomic(self._path(_OUTCOMES, claim.ticket), outcome)
        self._outcomes_bell.ring()
        try:
            os.unlink(claim.path)
        except OSError:
            pass  # reclaimed from under us; the rerun will cache-hit

    def release(self, claim: Claim) -> None:
        """Hand an unprocessed claim back (worker shutting down)."""
        try:
            os.replace(claim.path, self._path(_JOBS, claim.ticket))
        except OSError:
            pass

    def reclaim_stale(self) -> int:
        """Move claims whose heartbeat stopped back to ``jobs/``.

        Any process may sweep; the rename race resolves to one winner
        per ticket.  Returns how many tickets went back.
        """
        reclaimed = 0
        now = time.time()
        for ticket in self._tickets(_CLAIMS):
            path = self._path(_CLAIMS, ticket)
            try:
                age = now - os.path.getmtime(path)
            except OSError:
                continue  # completed meanwhile
            if age < self.lease_timeout:
                continue
            try:
                os.replace(path, self._path(_JOBS, ticket))
                reclaimed += 1
            except OSError:
                pass  # another reclaimer won, or the worker completed
        return reclaimed

    def sweep_outcomes(self) -> int:
        """Unlink outcome files old enough that no coordinator is
        coming back for them (cancelled or killed runs)."""
        swept = 0
        ttl = self.lease_timeout * self.OUTCOME_TTL_LEASES
        now = time.time()
        for ticket in self._tickets(_OUTCOMES):
            path = self._path(_OUTCOMES, ticket)
            try:
                if now - os.path.getmtime(path) >= ttl:
                    os.unlink(path)
                    swept += 1
            except OSError:
                pass
        return swept

    def close(self) -> None:
        """Close this queue's bell descriptors (idempotent).  The queue
        stays usable: the next ring or wait reopens them, and a wait
        in flight on another thread keeps its own until it returns."""
        self._jobs_bell.close()
        self._outcomes_bell.close()

    # -- introspection -------------------------------------------------

    def pending(self) -> List[str]:
        """Tickets nobody has claimed yet."""
        return self._tickets(_JOBS)

    def claimed(self) -> List[str]:
        """Tickets currently under lease."""
        return self._tickets(_CLAIMS)

    def heartbeat_worker(self, worker_id: str, stats: Dict[str, int]) -> None:
        """Publish a liveness/stats beacon for ``repro worker`` fleets
        (purely informational; leases do not depend on it)."""
        payload = {"worker": worker_id, "time": time.time()}
        payload.update(stats)
        _write_json_atomic(self._path(_WORKERS, worker_id), payload)

    def live_workers(self) -> List[dict]:
        """Beacons refreshed within one lease timeout."""
        alive = []
        now = time.time()
        for worker_id in self._tickets(_WORKERS):
            beacon = _read_json(self._path(_WORKERS, worker_id))
            if beacon and now - beacon.get("time", 0.0) < self.lease_timeout:
                alive.append(beacon)
        return alive
