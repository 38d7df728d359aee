"""The default worker count: ``"auto"``, one worker per usable CPU.

``run_evaluation``, ``repro evaluate`` and ``repro serve`` default to
it.  What makes that default safe to take: a pass whose jobs are all
cached never starts a pool (the scheduler dispatches only misses, and
the pool is built at the first dispatch), and the pool changes no
sample or score.  Two CPUs are claimed here, so "auto" means a pool on
any machine.
"""

import json
import multiprocessing.process
import os

import pytest

import repro.core.scheduler as scheduler_module
from repro.bench.runner import run_evaluation
from repro.core.cache import ResultCache
from repro.core.scheduler import ProcessPoolExecutor
from repro.core.spec import EvaluationSpec

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def spawned(monkeypatch):
    """Every executor ``run_evaluation`` builds, and every process started."""
    executors, processes = [], []
    create = scheduler_module.create_executor
    start = multiprocessing.process.BaseProcess.start

    def recording_create(*args, **kwargs):
        executors.append(create(*args, **kwargs))
        return executors[-1]

    def recording_start(process):
        processes.append(process)
        start(process)

    monkeypatch.setattr(scheduler_module, "create_executor", recording_create)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
    return executors, processes


def test_a_warm_all_hit_pass_never_builds_a_pool(two_cpus, spawned):
    executors, processes = spawned
    spec = EvaluationSpec(tools=("p4", "pvm"), tpl_sizes=(1024,), global_sum_ints=2_000,
                          apps=("montecarlo",), app_params={"montecarlo": {"samples": 5_000}})
    cache = ResultCache()
    cold = run_evaluation(spec, cache=cache)
    assert processes  # the cold pass started the pool's workers
    del processes[:]
    warm = run_evaluation(spec, cache=cache)
    assert warm.values == cold.values
    assert isinstance(executors[-1], ProcessPoolExecutor)
    assert executors[-1].max_workers == 2
    assert executors[-1]._pool is None
    assert processes == []


def test_serial_and_auto_export_the_same_golden_samples_and_scores(two_cpus, spawned):
    executors, processes = spawned
    with open(os.path.join(DATA_DIR, "golden_spec.json")) as handle:
        spec = EvaluationSpec.from_json(handle.read())

    def export(**options):
        data = run_evaluation(spec, **options).to_dict()
        data.pop("telemetry")  # wall times and executor names differ
        return json.dumps(data, sort_keys=True)

    serial = export(jobs=1)
    assert processes == []
    assert export() == serial
    assert [executor.name for executor in executors] == ["serial", "process-pool"]
    assert processes
