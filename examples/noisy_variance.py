"""Real simulated variance: the --noise knob and honest error bars.

By default the simulator is exactly deterministic — re-running a seed
reproduces identical timings, so a multi-seed confidence interval is
honestly ±0.  That is the right default for regression pinning, but
it means the Student-t machinery never sees real spread.

``EvaluationSpec(noise=...)`` (CLI: ``repro evaluate --noise``) turns
on each platform's seeded stochastic network model — Ethernet CSMA/CD
backoff, FDDI token-rotation jitter, ATM/crossbar switch jitter — so
different seeds measure genuinely different runs while each
(platform, processors, seed, noise) triple stays bit-reproducible.
Noisy and deterministic runs are distinct cache entries, so the two
sweeps below never cross-contaminate.

Run with::

    PYTHONPATH=src python examples/noisy_variance.py
"""

from repro.core import EvaluationSpec, Scheduler

#: Small workloads keep the example interactive.
QUICK = dict(
    tools=("p4", "express"),
    platforms=("sun-ethernet",),
    processors=4,
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 20_000}},
    seeds=(0, 1, 2),
)


def main() -> None:
    deterministic = EvaluationSpec(**QUICK)
    noisy = deterministic.with_(noise=1.0)

    scheduler = Scheduler()
    det_results = scheduler.run(deterministic)
    det_simulated = scheduler.simulations_run
    noisy_results = scheduler.run(noisy)
    print("deterministic sweep: %d jobs, %d simulated (the seeds of a "
          "deterministic configuration share one simulation)"
          % (deterministic.job_count(), det_simulated))
    print("noisy sweep: %d jobs, %d simulated (every seed is its own run, "
          "and no cache entry is shared with the deterministic grid)"
          % (noisy.job_count(), scheduler.simulations_run - det_simulated))
    print()

    print("deterministic seeds — replication is exact, CIs are ±0:")
    print(det_results.comparison(stats=True))
    print()
    print("noise=1.0 — same seeds, real simulated spread:")
    print(noisy_results.comparison(stats=True))
    print()

    stats = noisy_results.seed_statistics()
    for (platform, profile, tool), cell in sorted(stats.items()):
        print("%s/%s %-8s mean=%.4f stddev=%.2e 95%% CI ±%.2e"
              % (platform, profile, tool, cell.mean, cell.stddev,
                 cell.ci_halfwidth))

    # Reproducibility survives the noise: simulating the noisy spec
    # from scratch lands on bit-identical samples.
    rerun = Scheduler().run(noisy)
    assert rerun.values == noisy_results.values
    print()
    print("re-simulating the noisy sweep reproduced all %d samples "
          "bit-for-bit" % len(rerun.values))


if __name__ == "__main__":
    main()
