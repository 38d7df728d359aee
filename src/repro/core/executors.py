"""Execution backends behind one streaming ``Executor`` protocol.

Every backend implements a single method::

    submit(jobs, retries=1) -> Iterator[JobOutcome]

``jobs`` may be any (possibly lazy) iterable; outcomes stream back
**in job order** while later jobs may still be executing, which is
what lets the scheduler persist each finished measurement immediately
(kill/cancel-and-resume) and feed live progress events.  The uniform
lifecycle is ``close()`` / context manager, and the attributes
:attr:`Executor.name` and :attr:`Executor.max_workers` let callers
introspect a backend without ``isinstance`` checks.  Three backends
implement it:

* :class:`SerialExecutor` — in-process, one job at a time (default).
* :class:`ProcessPoolExecutor` — ``concurrent.futures`` worker
  processes over a persistent, lazily-created pool.
* ``RemoteExecutor`` (in :mod:`repro.distributed`) — publishes jobs
  to an on-disk queue that ``repro worker`` processes pull from,
  sharing results through the sharded disk cache.

The two pool backends share one :class:`ChunkedExecutor` window: jobs
travel in chunks, a fixed number of chunks per worker stays in flight,
and they differ only in how a chunk is dispatched, collected and
withdrawn.

All three pass the protocol-conformance suite in
``tests/core/test_executor_protocol.py``.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.jobs import MeasurementJob, execute_job
from repro.errors import EvaluationError

__all__ = [
    "JobOutcome",
    "execute_job_instrumented",
    "execute_job_chunk",
    "Executor",
    "SerialExecutor",
    "ChunkedExecutor",
    "ProcessPoolExecutor",
    "EXECUTOR_BACKENDS",
    "resolve_workers",
    "create_executor",
]


class JobOutcome(NamedTuple):
    """What instrumented execution reports per job."""

    value: Optional[float]
    wall_seconds: float
    attempts: int


def execute_job_instrumented(job: MeasurementJob, retries: int = 1) -> JobOutcome:
    """Run one job, timing it and retrying transient failures.

    Module-level so it pickles into :mod:`concurrent.futures` worker
    processes.
    """
    if retries < 1:
        raise EvaluationError("retries must be >= 1")
    start = time.perf_counter()
    for attempt in range(1, retries + 1):
        try:
            value = execute_job(job)
        except EvaluationError:
            raise  # misconfiguration: retrying cannot help
        except Exception:
            if attempt == retries:
                raise
        else:
            return JobOutcome(value, time.perf_counter() - start, attempt)
    raise AssertionError("unreachable")  # pragma: no cover


#: What collecting one chunk yields: the outcomes of the jobs that
#: finished, in job order, and the error that stopped the chunk at the
#: next job (None when every job finished).
ChunkResult = Tuple[List[JobOutcome], Optional[BaseException]]


def execute_job_chunk(jobs: Sequence[MeasurementJob], retries: int = 1) -> ChunkResult:
    """Run a chunk of jobs in one worker round-trip, stopping at the
    first failure.  The failure is returned, not raised, so the jobs
    before it still reach the caller (module-level so it pickles into
    :mod:`concurrent.futures` worker processes)."""
    outcomes: List[JobOutcome] = []
    for job in jobs:
        try:
            outcomes.append(execute_job_instrumented(job, retries))
        except Exception as error:
            return outcomes, error
    return outcomes, None


class Executor(object):
    """The execution-backend protocol: ``submit`` plus a lifecycle.

    Subclasses implement :meth:`submit`; ``close`` and the
    context-manager protocol come from this base class.  Backends
    with real resources (a worker pool) override :meth:`close`.
    """

    #: Short machine-readable backend name (lands in telemetry).
    name = "executor"

    #: Upper bound on concurrently executing jobs (1 = serial).
    max_workers = 1

    def submit(
        self, jobs: Iterable[MeasurementJob], retries: int = 1
    ) -> Iterator[JobOutcome]:
        """Execute ``jobs``, yielding one :class:`JobOutcome` per job
        **in job order**.  ``jobs`` may be lazy; implementations must
        not materialize it wholesale.  Closing the returned generator
        early must drop work that has not started."""
        raise NotImplementedError

    def start(self) -> None:
        """Acquire backend resources now instead of at the first
        dispatch (a no-op for backends without any)."""

    def close(self) -> None:
        """Release backend resources (idempotent; a closed executor
        may be reused — resources are rebuilt lazily)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run jobs one after another in this process (the default)."""

    name = "serial"
    max_workers = 1

    def submit(
        self, jobs: Iterable[MeasurementJob], retries: int = 1
    ) -> Iterator[JobOutcome]:
        # A generator, deliberately: the scheduler persists each
        # outcome as it arrives, so a killed sweep keeps every job it
        # finished instead of losing the whole batch.
        for job in jobs:
            yield execute_job_instrumented(job, retries)


def _workload_of(job: MeasurementJob) -> Optional[tuple]:
    """What the application jobs of one (platform, seed) cell, one per
    tool, have in common (None for the primitive kinds, which build no
    host-side workload)."""
    if job.kind != "application":
        return None
    return job.platform, job.processors, job.params, job.seed, job.noise


class ChunkedExecutor(Executor):
    """A backend that ships jobs in chunks through a sliding window.

    The one chunk/window policy of the pool backends: each dispatch
    carries up to :attr:`chunk_jobs` jobs, and ``max_workers *
    window_factor`` chunks stay in flight.  Subclasses supply how a
    chunk is dispatched, collected and withdrawn to :meth:`_windowed`.
    """

    #: Jobs shipped per dispatch, at most: amortizes the per-round-trip
    #: cost (IPC, a queue ticket) without delaying result streaming
    #: much.
    chunk_jobs = 4

    #: Chunks kept in flight per worker: deep enough that no worker
    #: idles while results stream back, shallow enough that a huge
    #: grid never materializes on this side.
    window_factor = 4

    def _chunks(self, jobs: Iterable[MeasurementJob]) -> Iterator[List[MeasurementJob]]:
        """Cut ``jobs`` into chunks of at most :attr:`chunk_jobs`.

        A chunk is cut early rather than between two application jobs
        that differ only in their tool (the tools of one platform and
        seed cell): those share per-process memos, such as the JPEG
        workload's encoded strips, which only a worker that runs them
        all reuses.  A run of such jobs longer than a chunk is split.
        """
        chunk: List[MeasurementJob] = []
        for job in jobs:
            if len(chunk) == self.chunk_jobs:
                cut = len(chunk)
                workload = _workload_of(job)
                while cut and workload is not None and _workload_of(chunk[cut - 1]) == workload:
                    cut -= 1
                cut = cut or len(chunk)
                yield chunk[:cut]
                chunk = chunk[cut:]
            chunk.append(job)
        if chunk:
            yield chunk

    def _windowed(
        self,
        jobs: Iterable[MeasurementJob],
        dispatch: Callable[[List[MeasurementJob]], Any],
        collect: Callable[[Any], ChunkResult],
        withdraw: Callable[[Any], None],
    ) -> Iterator[JobOutcome]:
        """Stream outcomes in job order while later chunks execute.

        ``dispatch(chunk)`` starts a chunk and returns its handle,
        ``collect(handle)`` waits for its :data:`ChunkResult` and
        ``withdraw(handle)`` drops a chunk nobody will collect.  There
        is no barrier: as the oldest chunk's outcomes are yielded,
        fresh chunks are consumed from the (possibly lazy) iterable,
        so the scheduler persists finished work while later jobs are
        still running.  A chunk that failed at job *k* yields jobs
        0..*k*-1 before its error is raised.
        """
        chunks = self._chunks(jobs)
        in_flight: deque = deque()
        window = self.max_workers * self.window_factor
        try:
            while True:
                while len(in_flight) < window:
                    chunk = next(chunks, None)
                    if chunk is None:
                        break
                    in_flight.append(dispatch(chunk))
                if not in_flight:
                    return
                # Collect before popping: a chunk whose collection is
                # interrupted (a timeout, ctrl-C) is withdrawn below.
                outcomes, error = collect(in_flight[0])
                in_flight.popleft()
                yield from outcomes
                if error is not None:
                    raise error
        finally:
            # The consumer may abandon the generator early — an
            # exception mid-sweep, itertools.islice, ctrl-C, a
            # RunHandle cancel.  Without this, every chunk still in
            # the window keeps running (and new consumers queue
            # behind it).  Withdraw whatever has not started; chunks
            # already executing run to completion and persist.
            for handle in in_flight:
                withdraw(handle)


class ProcessPoolExecutor(ChunkedExecutor):
    """Fan jobs out over ``max_workers`` worker processes.

    Jobs and samples are plain picklable values, so this is a thin
    wrapper over :class:`concurrent.futures.ProcessPoolExecutor`;
    result order matches job order.

    The underlying pool is created lazily on the first batch and
    **reused across calls**: repeated ``submit`` passes (the common
    shape under sweep traffic — one ``Scheduler.run`` per spec) pay
    worker startup once, not once per pass.  Call :meth:`close` (or
    use the executor as a context manager) to shut the workers down;
    an executor left open is reclaimed at interpreter exit.

    Tools registered at run time (:func:`repro.tools.registry.register_tool`)
    reach workers only on fork-based platforms (Linux): under the
    ``spawn`` start method (macOS/Windows) each worker re-imports the
    registry without the registration, so use :class:`SerialExecutor`
    for custom tools there.
    """

    name = "process-pool"

    def __init__(self, max_workers: int = 2) -> None:
        if max_workers < 1:
            raise EvaluationError("max_workers must be >= 1")
        self.max_workers = max_workers
        # Schedulers on several threads may share one executor (every
        # run of `repro serve`): without the lock, two passes that meet
        # a missing pool at once would each build one, and one leaks.
        self._lock = threading.Lock()
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None  # guarded-by: _lock

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
            return self._pool

    def start(self) -> None:
        """Start the worker processes now.

        ``concurrent.futures`` forks its workers at the first submit;
        a caller that is about to start threads of its own (a server)
        starts them first, so no fork copies a thread mid-operation.
        """
        pool = self._ensure_pool()
        for future in [pool.submit(os.getpid) for _ in range(self.max_workers)]:
            future.result()

    def _discard(self, pool: concurrent.futures.ProcessPoolExecutor) -> None:
        """Shut a pool down, forgetting it unless a fresh one has
        already replaced it."""
        with self._lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown()

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def submit(
        self, jobs: Iterable[MeasurementJob], retries: int = 1
    ) -> Iterator[JobOutcome]:
        # A handle is (pool, future).  A dead worker poisons its whole
        # pool: the pool that broke is dropped, so the next pass
        # starts fresh instead of failing forever, while a pool some
        # other pass has already rebuilt is left alone.
        def dispatch(chunk: List[MeasurementJob]) -> tuple:
            pool = self._ensure_pool()
            try:
                return pool, pool.submit(execute_job_chunk, chunk, retries)
            except concurrent.futures.BrokenExecutor:
                self._discard(pool)
                raise

        def collect(handle: tuple) -> ChunkResult:
            pool, future = handle
            try:
                return future.result()
            except concurrent.futures.BrokenExecutor:
                self._discard(pool)
                raise

        # Cancels only a chunk that has not started; one already
        # executing runs to completion, which is as good as process
        # pools offer.
        return self._windowed(
            jobs, dispatch, collect, lambda handle: handle[1].cancel()
        )


#: Backend names :func:`create_executor` understands.
EXECUTOR_BACKENDS = ("serial", "process", "remote")


def resolve_workers(jobs: Union[int, str, None]) -> int:
    """Normalize a ``--jobs``-style request to a worker count.

    ``"auto"`` (or ``None``) means one worker per CPU this process may
    run on, so a cpuset-limited container does not oversubscribe.
    Anything else must be a positive integer — the check runs *here*,
    before any spec expansion or pool construction, so a bad value
    fails with a clear :class:`~repro.errors.ReproError` instead of an
    unhelpful downstream crash.
    """
    if jobs is None or (isinstance(jobs, str) and jobs.strip().lower() == "auto"):
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise EvaluationError(
            "jobs must be a positive integer or 'auto', got %r" % (jobs,)
        )
    if jobs < 1:
        raise EvaluationError(
            "jobs must be >= 1, got %d (use 'auto' for one worker per CPU)" % jobs
        )
    return jobs


def create_executor(
    jobs: Union[int, str, None] = 1,
    backend: Optional[str] = None,
    queue_dir: Optional[str] = None,
) -> Executor:
    """Executor for a ``--jobs N [--backend B]`` style request.

    ``jobs`` accepts a positive integer or ``"auto"`` (one worker per
    CPU).  ``backend`` picks the implementation explicitly — one of
    :data:`EXECUTOR_BACKENDS` — while the default keeps the classic
    behavior: serial for one worker, a process pool otherwise.  The
    ``remote`` backend additionally needs ``queue_dir``, the shared
    job-queue directory its ``repro worker`` fleet watches; ``jobs``
    then sizes the coordinator's admission window, not a local pool.
    """
    workers = resolve_workers(jobs)
    if backend is None:
        backend = "serial" if workers == 1 else "process"
    if backend != "remote" and queue_dir is not None:
        raise EvaluationError(
            "queue_dir only applies to the remote backend, not %r" % backend
        )
    if backend == "serial":
        return SerialExecutor()
    if backend == "process":
        return ProcessPoolExecutor(max_workers=workers)
    if backend == "remote":
        if queue_dir is None:
            raise EvaluationError(
                "the remote backend needs a queue directory (--queue DIR) "
                "shared with its repro worker processes"
            )
        # Imported here: repro.distributed builds on this module.
        from repro.distributed.executor import RemoteExecutor

        return RemoteExecutor(queue_dir=queue_dir, max_workers=workers)
    raise EvaluationError(
        "unknown executor backend %r; available: %s"
        % (backend, ", ".join(EXECUTOR_BACKENDS))
    )
