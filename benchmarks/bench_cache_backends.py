"""Bench cache stores: what persistence and sharding cost.

The disk cache exists so sweeps survive processes; the question is
what that durability costs on the warm path.  One tiny spec runs cold
into a disk cache, then re-runs warm three ways — ``ResultCache()``,
``ResultCache.on_disk(root)`` (a fresh Scheduler + cache over the same
directory, the resume path) and ``ResultCache.on_disk(root, shards=4)``.
All warm paths must stay far cheaper than re-simulating; disk may cost
more than memory, but the point is that it replaces *simulation*, not
a dict lookup.
"""

import time

from repro.core.cache import ResultCache
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec

_TINY = dict(
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
)


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def test_backend_warm_paths(benchmark, tmp_path):
    from conftest import run_once

    spec = EvaluationSpec(**_TINY)
    root = str(tmp_path / "cache")

    cold_scheduler = Scheduler(cache_dir=root)
    _, cold_s = _timed(lambda: cold_scheduler.run(spec))
    assert cold_scheduler.simulations_run == spec.job_count()

    memory = Scheduler()
    memory.run(spec)
    _, memory_s = _timed(lambda: memory.run(spec))

    # Fresh Scheduler + cache over the same directory: the resume path.
    disk = Scheduler(cache=ResultCache.on_disk(root))
    warm = run_once(benchmark, lambda: _timed(lambda: disk.run(spec)))
    disk_s = warm[1]
    assert disk.simulations_run == 0

    sharded_root = str(tmp_path / "sharded")
    Scheduler(cache_dir=sharded_root, shards=4).run(spec)
    sharded = Scheduler(cache=ResultCache.on_disk(sharded_root, shards=4))
    _, sharded_s = _timed(lambda: sharded.run(spec))
    assert sharded.simulations_run == 0

    print()
    print("cold (simulate + persist):   %8.1f ms" % (cold_s * 1e3))
    print("warm memory re-run:          %8.1f ms" % (memory_s * 1e3))
    print("warm disk resume:            %8.1f ms" % (disk_s * 1e3))
    print("warm sharded (4) resume:     %8.1f ms" % (sharded_s * 1e3))

    assert disk_s < cold_s / 5.0
    assert sharded_s < cold_s / 5.0


if __name__ == "__main__":
    import sys

    import pytest

    sys.exit(pytest.main([__file__, "-q", "-s"]))
