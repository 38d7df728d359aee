"""Worker-pull distributed execution over a shared filesystem.

The multi-host execution story: a coordinator ships the jobs
(:class:`~repro.core.jobs.MeasurementJob`) of an
:class:`~repro.core.spec.EvaluationSpec` in chunks, one ticket per
chunk, on an on-disk :class:`JobQueue`; any number of ``repro worker``
processes *pull* work from it (atomic ``os.replace`` lease claims,
heartbeats, stale-lease reclaim), execute each chunk's jobs, and
publish samples through the shared sharded disk cache plus one
outcome file per ticket.
:class:`RemoteExecutor` adapts the coordinator side to the standard
``Executor.submit`` protocol, so schedulers, RunHandle streaming,
cancellation and the evaluation service drive remote fleets exactly
like local pools.
"""

from repro.distributed.executor import RemoteExecutor
from repro.distributed.queue import Claim, JobQueue
from repro.distributed.worker import Worker, WorkerPool

__all__ = ["JobQueue", "Claim", "Worker", "WorkerPool", "RemoteExecutor"]
