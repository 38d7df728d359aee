"""Deterministic executors and an in-process server harness.

Two executor stand-ins make concurrency deterministic:

* :class:`GateExecutor` — submits nothing until released.  Runs stay
  in the ``running`` state for as long as the test wants, which is how
  the per-user admission tests freeze the world.
* :class:`StepExecutor` — one semaphore permit per job, executing the
  *real* simulation for each released job.  Tests release exactly N
  permits, see exactly N ``job_finished`` events, and know the cache
  holds exactly N values (the scheduler stores before it emits).

:class:`ServiceHarness` boots the full stack (store + registry +
threaded HTTP server) against a temporary database, exactly like
``repro serve`` but in-process; ``graceful=False`` teardown leaves the
store rows as an unclean kill would, for the restart/resume tests.
``store_class`` swaps in a :class:`RunStore` subclass (a deliberately
slow one pins the persist-then-announce contract).
"""

import threading
import time

from repro.core.executors import Executor, JobOutcome, execute_job_instrumented
from repro.core.spec import EvaluationSpec
from repro.service.client import ServiceClient
from repro.service.registry import JobRegistry
from repro.service.server import ServiceServer
from repro.service.store import TERMINAL_STATES, RunStore

_TINY = dict(
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
)


def tiny_spec(**overrides):
    """A seconds-scale spec: one tool -> 5 jobs, two tools -> 10."""
    kwargs = dict(_TINY)
    kwargs.setdefault("tools", ("p4",))
    kwargs.update(overrides)
    return EvaluationSpec(**kwargs)


class GateExecutor(Executor):
    """Submits nothing until released — freezes runs in flight."""

    name = "gate"

    def __init__(self):
        self.release = threading.Event()

    def submit(self, jobs, retries=1):
        for job in jobs:
            self.release.wait()
            yield JobOutcome(1.0, 0.001, 1)


class StepExecutor(Executor):
    """Executes one (real) job per released permit.

    After ``steps.release(n)`` exactly ``n`` jobs finish and land in
    the cache; the next job blocks with its ``job_started`` already
    emitted.  Shared across a registry's schedulers via the factory.
    """

    name = "step"

    def __init__(self):
        self.steps = threading.Semaphore(0)

    def submit(self, jobs, retries=1):
        for job in jobs:
            self.steps.acquire()
            yield execute_job_instrumented(job, retries)


class SlowTerminalStore(RunStore):
    """Commits every terminal transition only after a pause: it widens
    the window in which a run has ended but its outcome is not yet
    persisted, which is where an early announcement would show."""

    delay = 0.3

    def transition(self, run_id, state, **fields):
        if state in TERMINAL_STATES:
            time.sleep(self.delay)
        return super().transition(run_id, state, **fields)


def cancel_requested(registry, run_id):
    """The running handle's cancel request, an Event a test can wait
    on to order "shutdown cancelled the run" before releasing a gate."""
    return registry._runs[run_id].handle._cancel_event


class ServiceHarness(object):
    """Store + registry + HTTP server on its background thread."""

    def __init__(self, db_path, scheduler_factory=None, per_user_limit=2,
                 store_class=RunStore):
        self.store = store_class(str(db_path))
        self.recovered = self.store.recover()
        self.registry = JobRegistry(
            self.store, scheduler_factory, per_user_limit=per_user_limit
        )
        self.server = ServiceServer(self.registry)
        self.server.start()
        self.port = self.server.port
        self._stopped = False

    def client(self, user=None):
        return ServiceClient(port=self.port, user=user, timeout=30.0)

    def stop(self, graceful=True):
        """``graceful=False`` skips the registry shutdown: store rows
        stay exactly as an unclean process death would leave them."""
        if self._stopped:
            return
        self._stopped = True
        self.server.close()
        if graceful:
            self.registry.shutdown(timeout=10)
        self.store.close()
