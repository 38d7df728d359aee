"""Run experiments by id — and evaluation sweeps by spec.

The paper experiments (tables/figures) are fixed artifacts addressed
by id; :func:`run_evaluation` is the open-ended counterpart, driving
an arbitrary :class:`~repro.core.spec.EvaluationSpec` through the
scheduler, over one worker per CPU by default, with an optional
shared cache.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.bench.experiments import EXPERIMENTS, ExperimentResult
from repro.errors import ConfigurationError

__all__ = [
    "available_experiments",
    "run_experiment",
    "run_experiments",
    "run_evaluation",
]


def available_experiments() -> List[str]:
    """All experiment ids, in registry order."""
    return list(EXPERIMENTS)


def run_experiment(exp_id: str) -> ExperimentResult:
    """Run one experiment by id."""
    try:
        factory = EXPERIMENTS[exp_id]
    except KeyError:
        raise ConfigurationError(
            "unknown experiment %r; available: %s"
            % (exp_id, ", ".join(available_experiments()))
        )
    return factory()


def run_experiments(
    exp_ids: Optional[Iterable[str]] = None, echo: bool = True
) -> List[ExperimentResult]:
    """Run several (default: all) experiments, printing each report."""
    if exp_ids is None:
        exp_ids = available_experiments()
    results = []
    for exp_id in exp_ids:
        result = run_experiment(exp_id)
        if echo:
            print(result.render())
            print()
        results.append(result)
    return results


def run_evaluation(
    spec,
    jobs: Union[int, str] = "auto",
    backend: Optional[str] = None,
    cache=None,
    cache_dir: Optional[str] = None,
    shards: Optional[int] = None,
    stats: bool = False,
    echo: bool = False,
    on_event=None,
    history_db: Optional[str] = None,
    history_label: Optional[str] = None,
):
    """Run an evaluation spec through the scheduler.

    Parameters
    ----------
    spec:
        An :class:`~repro.core.spec.EvaluationSpec`.
    jobs:
        Workers: ``"auto"`` (the default) is one per CPU this process
        may use, so a one-CPU machine runs serially in-process; 1
        forces serial execution.  A pass whose jobs are all cached
        never starts the pool.
    backend:
        Executor backend name (one of
        :data:`~repro.core.executors.EXECUTOR_BACKENDS`); default is
        serial for one worker, a process pool otherwise.
    cache:
        Optional :class:`~repro.core.cache.ResultCache` shared
        across calls, so successive sweeps reuse measurements.
    cache_dir:
        Alternatively, a directory for a persistent on-disk cache
        (optionally split over ``shards`` sub-stores; ``None`` adopts
        the directory's recorded roster): an interrupted sweep
        re-launched with the same directory simulates only the jobs
        the first run never finished.
    stats:
        With ``echo``, print the multi-seed mean ±CI table instead of
        one row per seed.
    echo:
        Print the cross-configuration comparison table.
    on_event:
        Optional callable receiving every
        :class:`~repro.core.progress.RunEvent` of the streaming run
        (job started/finished, cache hits, completion) — the hook for
        progress bars and dashboards.  May fire from
        executor-internal threads.
    history_db:
        Optional path to a run-history database
        (:class:`~repro.history.HistoryStore`): the finished run is
        appended there — full export plus git SHA and provenance — so
        ``repro history diff/gate`` can compare it against earlier
        recordings.  ``history_label`` names the recorded run.

    Returns
    -------
    :class:`~repro.core.results.ResultSet`
        Carries per-job telemetry from this pass (``.telemetry``).
    """
    from repro.core.scheduler import Scheduler, create_executor

    # Context-manage the scheduler: its process-pool executor keeps a
    # persistent worker pool, which must not outlive this call.
    with Scheduler(
        executor=create_executor(jobs, backend=backend),
        cache=cache,
        cache_dir=cache_dir,
        shards=shards,
    ) as scheduler:
        result_set = scheduler.run(spec, on_event=on_event)
    if echo:
        print(result_set.comparison(stats=stats))
    if history_db is not None:
        from repro.history import HistoryStore, current_git_sha

        with HistoryStore(history_db) as history:
            history.record_result(
                result_set.to_dict(), label=history_label, source="api",
                git_sha=current_git_sha(),
            )
    return result_set
