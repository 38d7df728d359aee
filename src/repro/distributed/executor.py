"""RemoteExecutor: the coordinator side as a standard Executor.

``submit(jobs, retries) -> Iterator[JobOutcome]`` ships chunks of jobs
as tickets on the shared :class:`JobQueue`, through the same sliding
window of chunks the process pool uses
(:class:`~repro.core.executors.ChunkedExecutor`), and consumes outcome
files strictly in enqueue order.  Because it speaks the same
one-method protocol as the local backends, everything layered on
executors — the streaming scheduler, RunHandle events, cooperative
cancellation, the evaluation service — drives a remote fleet
unchanged; the protocol-conformance suite in
``tests/core/test_executor_protocol.py`` passes as-is over in-process
workers.

Cancellation is lease revocation: abandoning the outcome iterator
(generator close, Ctrl-C, ``RunHandle.cancel``) withdraws every
unclaimed ticket in the window.  Claimed chunks finish and persist —
the same in-flight-work-completes semantics as the local backends.
A worker failure surfaces as the original exception type re-raised in
the coordinator (rebuilt from the transported type name + message),
after the jobs before it in its chunk, so retry and propagation
contracts hold across the process boundary.
"""

from __future__ import annotations

import builtins
import itertools
import time
import uuid
from typing import Iterable, Iterator, List, Optional

from repro.core.executors import ChunkResult, ChunkedExecutor, JobOutcome
from repro.core.jobs import MeasurementJob
from repro.distributed.queue import MIN_POLL_SECONDS, JobQueue
from repro import errors as _errors
from repro.errors import EvaluationError

__all__ = ["RemoteExecutor"]


def _rebuild_error(info: dict) -> BaseException:
    """The worker's failure as a local exception of the same type.

    Types resolve from builtins first, then :mod:`repro.errors`;
    anything unresolvable degrades to :class:`EvaluationError` with
    the type name preserved in the message.
    """
    name = str(info.get("type") or "Exception")
    message = str(info.get("message") or "")
    exc_type = getattr(builtins, name, None)
    if exc_type is None:
        exc_type = getattr(_errors, name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, BaseException):
        try:
            return exc_type(message)
        except Exception:  # exotic constructor signature
            pass
    return EvaluationError("remote worker failed with %s: %s" % (name, message))


class RemoteExecutor(ChunkedExecutor):
    """Execute jobs by publishing chunks of them to a worker-pull queue.

    Each ticket carries :attr:`chunk_jobs` jobs, and ``max_workers *
    window_factor`` tickets stay published: the window is counted in
    chunks, as in the process pool.  Closing the outcome stream
    revokes every ticket no worker has claimed; claimed chunks finish
    and persist their samples to the shared cache.

    Parameters
    ----------
    queue_dir:
        The shared queue directory ``repro worker`` processes watch.
        May be omitted at construction (capability introspection,
        worker-count validation) but is required by :meth:`submit`.
    max_workers:
        The fleet size this coordinator *assumes* when sizing its
        admission window — enough chunks stay published to keep that
        many workers busy without materializing a huge lazy grid.
        The actual fleet may be larger or smaller; this knob only
        shapes pipelining and backpressure.
    poll_interval:
        The longest sleep between outcome-directory polls: each
        awaited ticket starts at
        :data:`~repro.distributed.queue.MIN_POLL_SECONDS` and doubles
        up to this cap.
    timeout:
        Max seconds to wait for any single ticket's outcome (None =
        forever).
        Guards against a queue nobody is serving.
    lease_timeout:
        Passed to :class:`JobQueue`; also drives the coordinator-side
        stale-lease sweep that runs while it waits, so a dead worker's
        tickets return to the pool even if no healthy worker is idle
        enough to notice.
    """

    name = "remote"

    def __init__(
        self,
        queue_dir: Optional[str] = None,
        max_workers: int = 2,
        poll_interval: float = 0.01,
        timeout: Optional[float] = None,
        lease_timeout: float = 30.0,
    ) -> None:
        if max_workers < 1:
            raise EvaluationError("max_workers must be >= 1")
        if poll_interval <= 0.0:
            raise EvaluationError("poll_interval must be > 0")
        self.max_workers = max_workers
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.queue: Optional[JobQueue] = (
            JobQueue(queue_dir, lease_timeout=lease_timeout)
            if queue_dir is not None
            else None
        )

    def submit(
        self, jobs: Iterable[MeasurementJob], retries: int = 1
    ) -> Iterator[JobOutcome]:
        if retries < 1:
            raise EvaluationError("retries must be >= 1")
        if self.queue is None:
            raise EvaluationError(
                "RemoteExecutor needs a queue_dir to submit jobs "
                "(point it at the directory your `repro worker` "
                "processes watch)"
            )
        queue = self.queue
        # Tickets sort FIFO within a batch; the batch nonce keeps
        # concurrent coordinators sharing one queue out of each
        # other's namespaces.
        batch = uuid.uuid4().hex[:8]
        sequence = itertools.count()

        def dispatch(chunk: List[MeasurementJob]) -> str:
            ticket = "%s-%06d" % (batch, next(sequence))
            queue.enqueue(ticket, chunk, retries)
            return ticket

        def collect(ticket: str) -> ChunkResult:
            # Outcomes leave strictly in enqueue order even when a
            # later ticket finishes first — its file just waits.
            outcome = self._await_outcome(queue, ticket)
            finished = []
            for record in outcome.get("outcomes") or ():
                if record.get("error"):
                    return finished, _rebuild_error(record["error"])
                finished.append(JobOutcome(
                    record.get("value"),
                    float(record.get("wall_seconds") or 0.0),
                    int(record.get("attempts") or 1),
                ))
            error = outcome.get("error")
            return finished, (_rebuild_error(error) if error else None)

        def withdraw(ticket: str) -> None:
            # A claimed ticket cannot be revoked: it finishes on its
            # worker and persists to the shared cache.  An outcome
            # file that already landed is discarded.
            queue.revoke(ticket)
            queue.discard_outcome(ticket)

        return self._windowed(jobs, dispatch, collect, withdraw)

    def _await_outcome(self, queue: JobQueue, ticket: str) -> dict:
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        sweep_at = time.monotonic() + queue.lease_timeout
        delay = min(MIN_POLL_SECONDS, self.poll_interval)
        while True:
            outcome = queue.take_outcome(ticket)
            if outcome is not None:
                return outcome
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise EvaluationError(
                    "no worker completed ticket %s within %.1fs (queue %s; "
                    "%d worker beacon(s) live) — are `repro worker` "
                    "processes running against this queue?"
                    % (
                        ticket,
                        self.timeout,
                        queue.root,
                        len(queue.live_workers()),
                    )
                )
            if now >= sweep_at:
                # The coordinator doubles as a reclaimer so a dead
                # worker's tickets recirculate even when every healthy
                # worker is busy (or gone).
                queue.reclaim_stale()
                sweep_at = now + queue.lease_timeout
            time.sleep(delay)
            delay = min(2.0 * delay, self.poll_interval)
