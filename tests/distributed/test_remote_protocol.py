"""RemoteExecutor through the executor-protocol conformance suite.

The suite in ``tests/core/test_executor_protocol.py`` pins the
``submit`` contract for every backend and was written to be reused by
a remote one.  This module runs it over :class:`RemoteExecutor`
**unmodified**: the suite file is loaded by path, its test classes
are re-exported here, and only the ``executor`` fixture is overridden
(pytest resolves fixtures by collection location, so the local
definition wins) to stand up an in-process two-worker fleet over a
shared sharded disk cache.

Worth spelling out what passing means here: ordering, laziness
bounds, retry transport (including monkeypatched ``execute_job``
reaching the workers), failure propagation with the original
exception type, abandoned-stream cleanup and scheduler integration
all hold across a process-shaped boundary — jobs travel as queue
tickets and results come back as outcome files, yet the contract is
indistinguishable from an in-process pool.
"""

import importlib.util
import pathlib
import sys

import pytest

from repro.core.cache import ResultCache
from repro.distributed import JobQueue, RemoteExecutor, WorkerPool

_SUITE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "core"
    / "test_executor_protocol.py"
)
_spec = importlib.util.spec_from_file_location(
    "_executor_protocol_suite", _SUITE_PATH
)
_suite = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = _suite
_spec.loader.exec_module(_suite)

# Re-exported verbatim: pytest collects these classes in this module,
# where the remote `executor` fixture below applies to every test.
TestProtocolSurface = _suite.TestProtocolSurface
TestSubmitSemantics = _suite.TestSubmitSemantics
TestRetries = _suite.TestRetries
TestFailurePersistence = _suite.TestFailurePersistence
TestBrokenPoolRecovery = _suite.TestBrokenPoolRecovery
TestSchedulerIntegration = _suite.TestSchedulerIntegration

#: The suite's module-scoped serial ground truth, reused as-is.
reference = _suite.reference


@pytest.fixture(params=["remote"])
def executor(request, tmp_path):
    queue = JobQueue(str(tmp_path / "queue"), lease_timeout=10.0)
    cache = ResultCache.on_disk(str(tmp_path / "cache"), shards=2)
    instance = RemoteExecutor(
        queue_dir=str(tmp_path / "queue"),
        max_workers=2,
        poll_interval=0.005,
        timeout=120.0,
    )
    with WorkerPool(queue, cache, workers=2, poll_interval=0.005):
        yield instance
        instance.close()
