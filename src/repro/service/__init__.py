"""Evaluation-as-a-service: a job server over the streaming core.

The :mod:`repro.service` package turns the PR-5 streaming substrate
(:class:`~repro.core.scheduler.RunHandle` event streams over the
:class:`~repro.core.executors.Executor` protocol) into a long-running,
multi-user HTTP service:

* :mod:`repro.service.registry` — per-user concurrency limits, FIFO
  queueing, cooperative cancel and graceful shutdown, with every
  lifecycle edge persisted through the run-history store
  (:class:`~repro.history.store.HistoryStore`, whose enforced
  ``queued -> running -> completed/cancelled/failed`` state machine
  lets a restarted server list every historical run).
* :mod:`repro.service.server` — the stdlib threaded HTTP front
  (one thread per connection): ``POST /api/runs`` -> ``{run_id}``, run
  listing/inspection, cancel, and a Server-Sent Events stream per run
  (replay + live, ending only once the outcome is persisted).
* :mod:`repro.service.client` — a stdlib client speaking the same
  typed events as local code.

Run it via ``repro serve --host H --port P --db PATH --cache-dir DIR``
(see :mod:`repro.cli`); ``examples/service_demo.py`` walks the whole
submit -> stream -> cancel -> shutdown journey.
"""

from repro._lazy import lazy_exports

#: Public name -> the module defining it.  Resolved on first use, so a
#: process that only talks to a server (the client) loads neither the
#: server nor the scheduler behind it.
_EXPORTS = {
    "ServiceClient": "repro.service.client",
    "DEFAULT_USER": "repro.service.registry",
    "JobRegistry": "repro.service.registry",
    "ServiceServer": "repro.service.server",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
