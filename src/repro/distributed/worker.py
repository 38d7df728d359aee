"""The pull side: claim tickets, execute, publish, heartbeat.

A :class:`Worker` is what ``repro worker`` runs — one claim loop over
a :class:`~repro.distributed.queue.JobQueue` plus a background
heartbeat thread keeping its leases (and liveness beacon) fresh.
:class:`WorkerPool` runs N workers as in-process threads over one
shared :class:`~repro.core.cache.ResultCache`, which is how the
conformance suite, the reclaim tests and the benchmark stand up a
fleet without subprocess overhead (and how the DiskBackend locks earn
their keep).

A ticket is a chunk of jobs, run in order.  Each job goes through
:func:`repro.core.executors.execute_job_instrumented` *via the
module*, so the same retry semantics — and the same test
monkeypatches — apply to remote workers as to every local backend.
Each job consults the shared cache before simulating and stores its
sample as soon as it finishes: a ticket reclaimed from a worker that
died mid-chunk re-runs its stored jobs as cache hits, which is what
makes at-least-once delivery cost at most one duplicate simulation
per actual mid-simulation death.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from typing import Callable, List, Optional

from repro.core import executors as _executors
from repro.core.cache import MISSING, ResultCache
from repro.core.jobs import MeasurementJob
from repro.distributed.queue import MIN_POLL_SECONDS, Claim, JobQueue
from repro.errors import EvaluationError

__all__ = ["Worker", "WorkerPool"]


class Worker(object):
    """One claim-execute-publish loop over a shared queue.

    Parameters
    ----------
    queue:
        The :class:`JobQueue` to pull from.
    cache:
        The shared (typically disk-backed, sharded) result cache every
        sample is read from and written through.
    worker_id:
        Stable identity for leases/beacons; default is host+pid+nonce.
    poll_interval:
        The longest sleep between claim attempts when the queue is
        empty.  Idle sleeps start at
        :data:`~repro.distributed.queue.MIN_POLL_SECONDS` after
        every processed ticket and double up to this cap, so a settled
        idle worker polls at this rate and a busy one barely waits.
    heartbeat_interval:
        Lease-refresh period; defaults to a quarter of the queue's
        lease timeout so a healthy worker can miss several beats
        before anyone may steal its claim.
    max_jobs:
        Stop after the ticket that brings the processed job count to
        this many (None = run forever).  A ticket is never split, so
        the count may end above it.
    idle_seconds:
        Stop after the queue stayed empty this long (None = wait for
        :meth:`stop`) — how batch deployments drain and exit.
    on_job:
        Optional callable ``(claim, index, record)`` fired once per job
        after its ticket's outcome is published, with the job's index
        in the chunk and its outcome record (progress lines, test
        hooks).
    """

    def __init__(
        self,
        queue: JobQueue,
        cache: ResultCache,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.05,
        heartbeat_interval: Optional[float] = None,
        max_jobs: Optional[int] = None,
        idle_seconds: Optional[float] = None,
        on_job: Optional[Callable[[Claim, int, dict], None]] = None,
    ) -> None:
        if poll_interval <= 0.0:
            raise EvaluationError("poll_interval must be > 0")
        self.queue = queue
        self.cache = cache
        self.worker_id = worker_id or "%s-%d-%s" % (
            os.uname().nodename if hasattr(os, "uname") else "host",
            os.getpid(),
            uuid.uuid4().hex[:6],
        )
        self.poll_interval = poll_interval
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else queue.lease_timeout / 4.0
        )
        self.max_jobs = max_jobs
        self.idle_seconds = idle_seconds
        self.on_job = on_job
        #: Jobs processed / simulations actually run / served from the
        #: shared cache / failures transported — the counters the
        #: reclaim tests and the CI smoke assert on.
        self.processed = 0
        self.simulated = 0
        self.cache_hits = 0
        self.failed = 0
        self._stop = threading.Event()
        self._current_claim: Optional[Claim] = None  # guarded-by: _claim_lock
        self._claim_lock = threading.Lock()

    # -- heartbeat -----------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            with self._claim_lock:
                claim = self._current_claim
            if claim is not None:
                self.queue.heartbeat(claim)
            self.queue.heartbeat_worker(self.worker_id, self.stats())

    # -- execution -----------------------------------------------------

    def _run_job(self, job: MeasurementJob, retries: int) -> dict:
        start = time.perf_counter()
        record = {
            "value": None,
            "wall_seconds": 0.0,
            "attempts": 1,
            "cache_hit": False,
            "error": None,
        }
        value = self.cache.lookup(job)
        if value is not MISSING:
            # A reclaimed ticket whose first worker died *after* this
            # sample landed — or overlapping sweeps sharing a job —
            # costs a lookup, not a simulation.
            self.cache_hits += 1
            record["value"] = value
            record["cache_hit"] = True
        else:
            try:
                result = _executors.execute_job_instrumented(job, retries)
            except Exception as error:
                # Transport the failure instead of dying: the
                # coordinator re-raises it in the submitting process,
                # where the standard retry/propagation contract
                # applies.  The worker itself stays up for the next
                # ticket.
                self.failed += 1
                record["error"] = {
                    "type": type(error).__name__,
                    "message": str(error),
                }
            else:
                self.simulated += 1
                # Stored per job, not per chunk: a worker killed
                # mid-chunk loses only the jobs it had not finished.
                self.cache.store(job, result.value)
                record["value"] = result.value
                record["attempts"] = result.attempts
        record["wall_seconds"] = max(time.perf_counter() - start, 1e-9)
        return record

    def _process(self, claim: Claim) -> dict:
        start = time.perf_counter()
        records = []
        for job in claim.jobs:
            records.append(self._run_job(job, claim.retries))
            if records[-1]["error"]:
                break  # the jobs after a failure are never wanted
        return {
            "ticket": claim.ticket,
            "worker": self.worker_id,
            "wall_seconds": max(time.perf_counter() - start, 1e-9),
            "outcomes": records,
            "error": None,
        }

    def run_one(self) -> bool:
        """Claim and process one ticket; False when none is available."""
        claim = self.queue.claim(self.worker_id)
        if claim is None:
            return False
        with self._claim_lock:
            self._current_claim = claim
        try:
            outcome = self._process(claim)
            self.queue.complete(claim, outcome)
        finally:
            with self._claim_lock:
                self._current_claim = None
        self.processed += len(outcome["outcomes"])
        if self.on_job is not None:
            for index, record in enumerate(outcome["outcomes"]):
                self.on_job(claim, index, record)
        return True

    def run(self) -> dict:
        """The worker main loop; returns :meth:`stats` on exit."""
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name="repro-worker-heartbeat-%s" % self.worker_id,
            daemon=True,
        )
        heartbeat.start()
        self.queue.heartbeat_worker(self.worker_id, self.stats())
        idle_since: Optional[float] = None
        shortest = wait = min(MIN_POLL_SECONDS, self.poll_interval)
        try:
            while not self._stop.is_set():
                if self.max_jobs is not None and self.processed >= self.max_jobs:
                    break
                if self.run_one():
                    idle_since = None
                    wait = shortest
                    continue
                # Empty queue: give dead peers' leases back to the
                # pool, tidy abandoned outcomes, then idle — briefly
                # at first, backing off toward poll_interval.
                self.queue.reclaim_stale()
                self.queue.sweep_outcomes()
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif (
                    self.idle_seconds is not None
                    and now - idle_since >= self.idle_seconds
                ):
                    break
                self._stop.wait(wait)
                wait = min(2.0 * wait, self.poll_interval)
        finally:
            self._stop.set()
            heartbeat.join()
            self.queue.heartbeat_worker(self.worker_id, self.stats())
        return self.stats()

    def stop(self) -> None:
        """Ask the loop to exit after the ticket in flight (if any)."""
        self._stop.set()

    def stats(self) -> dict:
        return {
            "processed": self.processed,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "failed": self.failed,
        }


class WorkerPool(object):
    """N workers as in-process threads over one shared cache.

    The thread-based stand-in for a real multi-process fleet: same
    queue protocol, same claim races, same shared-cache traffic —
    minus subprocess startup, which is why the conformance suite uses
    it.  Use as a context manager; :meth:`stop` drains cooperatively.
    """

    def __init__(
        self,
        queue: JobQueue,
        cache: ResultCache,
        workers: int = 2,
        poll_interval: float = 0.01,
        **worker_kwargs,
    ) -> None:
        if workers < 1:
            raise EvaluationError("workers must be >= 1")
        self.workers: List[Worker] = [
            Worker(
                queue,
                cache,
                worker_id="pool-%02d-%s" % (index, uuid.uuid4().hex[:6]),
                poll_interval=poll_interval,
                **worker_kwargs,
            )
            for index in range(workers)
        ]
        self._threads: List[threading.Thread] = []

    def start(self) -> "WorkerPool":
        self._threads = [
            threading.Thread(
                target=worker.run,
                name="repro-%s" % worker.worker_id,
                daemon=True,
            )
            for worker in self.workers
        ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        for worker in self.workers:
            worker.stop()
        for thread in self._threads:
            thread.join()
        self._threads = []

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    @property
    def simulated(self) -> int:
        return sum(worker.simulated for worker in self.workers)

    @property
    def cache_hits(self) -> int:
        return sum(worker.cache_hits for worker in self.workers)

    @property
    def processed(self) -> int:
        return sum(worker.processed for worker in self.workers)
