"""A multi-platform, multi-profile evaluation sweep in one spec.

The paper evaluates three tools on one platform at a time with one
set of weights.  The declarative plan API turns that into a grid:
describe every axis once, let the scheduler simulate each distinct
measurement exactly once, and re-score the cached samples under as
many weight profiles as you like — here 3 platforms x 3 tools x 3
profiles, or 9 scored reports from a single measurement pass.

The second half shows the persistence story: the same sweep behind a
``cache_dir=`` survives its process — a killed run re-launched over
the same directory simulates only the jobs it never finished — and a
multi-seed spec reports every cell as mean ±95% CI.

Run with::

    PYTHONPATH=src python examples/sweep_grid.py
"""

import shutil
import tempfile

from repro.core import EvaluationSpec, ResultCache, Scheduler, create_executor
from repro.core.jobs import canonical_job

#: Small workloads keep the example interactive; drop the overrides
#: for the paper-sized runs.
QUICK_APPS = {
    "jpeg": {"height": 64, "width": 64},
    "fft2d": {"size": 32},
    "montecarlo": {"samples": 20_000},
    "psrs": {"keys": 5_000},
}


def main() -> None:
    spec = EvaluationSpec(
        tools=("express", "p4", "pvm"),
        platforms=("sun-ethernet", "sun-atm-lan", "alpha-fddi"),
        processors=4,
        tpl_sizes=(1024, 16384),
        global_sum_ints=5_000,
        app_params=QUICK_APPS,
        profiles=("balanced", "end-user", "tool-developer"),
    )
    print("grid: %d tools x %d platforms x %d profiles -> %d jobs, %d reports"
          % (len(spec.tools), len(spec.platforms), len(spec.profiles),
             spec.job_count(), len(spec.cells())))

    cache = ResultCache()
    scheduler = Scheduler(executor=create_executor(jobs=1), cache=cache)
    results = scheduler.run(spec)
    print("simulated %d jobs (profiles cost none: weighting is free)"
          % scheduler.simulations_run)
    print()
    print(results.comparison())
    print()

    # Growing the sweep reuses the cache: only the new platform's jobs run.
    wider = spec.with_(platforms=spec.platforms + ("sun-atm-wan",))
    before = scheduler.simulations_run
    wider_results = scheduler.run(wider)
    print("adding sun-atm-wan simulated only %d new jobs (%d cache hits)"
          % (scheduler.simulations_run - before, cache.hits))
    print()

    best = wider_results.best_tools()
    winners = sorted(set(best.values()))
    print("winners across the %d-cell grid: %s" % (len(best), ", ".join(winners)))

    # The spec is data: persist it for a colleague (or a cluster job).
    print()
    print("spec as JSON (first 3 lines):")
    print("\n".join(wider.to_json().splitlines()[:3] + ["  ..."]))

    # -- Persistence: a killed sweep resumes from its cache directory.
    print()
    cache_dir = tempfile.mkdtemp(prefix="repro-cache-")
    try:
        seeded = spec.with_(platforms=("sun-ethernet",), seeds=(0, 1, 2))

        # "First launch": simulate only one seed's TPL jobs, then die.
        interrupted = Scheduler(cache_dir=cache_dir)
        interrupted.run_jobs(seeded.tpl_jobs("sun-ethernet", 0))
        done = interrupted.simulations_run
        print("interrupted sweep persisted %d/%d jobs to %s"
              % (done, seeded.job_count(), cache_dir))

        # "Relaunch": a fresh process (fresh Scheduler) over the same
        # directory picks up exactly where the first one stopped.
        # Only jpeg and psrs depend on the seed: every other job of the
        # three seeds shares one simulation, run at the first seed.
        resumed = Scheduler(cache_dir=cache_dir)
        stats_results = resumed.run(seeded)
        missing = len({canonical_job(job) for job in seeded.jobs()}) - done
        print("resume simulated only the missing %d jobs (expected %d)"
              % (resumed.simulations_run, missing))

        # Seeds are the replication axis: report cells as mean ±95% CI.
        print()
        print(stats_results.comparison(stats=True))
        telemetry = stats_results.to_dict()["telemetry"]["summary"]
        print()
        print("telemetry: %(simulated)d simulated, %(cache_hits)d cache "
              "hits, %(total_wall_seconds).3fs simulating" % telemetry)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
