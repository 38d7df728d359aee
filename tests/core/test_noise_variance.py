"""End-to-end: the noise knob makes multi-seed statistics *real*.

Before the seeded stochastic models were wired through
``build_platform``, every seed simulated identical timings and every
Student-t CI collapsed to ±0 — the statistics machinery only ever saw
injected fixture noise.  These tests pin the honest behavior: noise
off means exactly reproducible ±0 (the golden-report guarantee), and
noise on means nonzero simulated variance that is still bit-exactly
reproducible per (platform, processors, seed, noise) triple — and
cached separately from deterministic runs.
"""

import pytest

from repro.core.cache import ResultCache, job_key
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec

_TINY = dict(
    tools=("p4", "express"),
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
    seeds=(0, 1, 2),
)


@pytest.fixture(scope="module")
def noisy_run():
    spec = EvaluationSpec(noise=1.0, **_TINY)
    return spec, Scheduler().run(spec)


class TestSimulatedVariance:
    def test_deterministic_seeds_collapse_to_zero_stddev(self):
        """Noise off: replication is exact, CIs are honestly ±0."""
        result = Scheduler().run(EvaluationSpec(**_TINY))
        for stats in result.seed_statistics().values():
            assert stats.stddev == 0.0
            assert stats.ci_halfwidth == 0.0

    def test_noise_yields_nonzero_stddev_on_ethernet(self, noisy_run):
        """The acceptance bar: --noise with >=3 seeds reports real
        spread on an ethernet platform (relative scores, so the
        trailing tool shows the variance; the per-set winner pins 1.0
        by construction)."""
        spec, result = noisy_run
        stats = result.seed_statistics()
        assert any(cell.stddev > 0.0 for cell in stats.values())
        express = stats[("sun-ethernet", "balanced", "express")]
        assert express.stddev > 0.0
        assert express.ci_halfwidth > 0.0
        assert 0.0 < express.mean < 1.0

    def test_raw_samples_vary_across_seeds(self, noisy_run):
        spec, result = noisy_run
        ring = [job for job in spec.jobs()
                if job.kind == "ring" and job.tool == "p4"]
        samples = [result.value(job) for job in ring]
        assert len(set(samples)) == len(samples)


class TestReproducibility:
    def test_same_noise_triple_is_bit_identical(self, noisy_run):
        """(platform, processors, seed, noise) fully reproduces the
        run: a fresh scheduler simulating from scratch produces the
        exact same samples, bit for bit."""
        spec, result = noisy_run
        rerun = Scheduler().run(spec)
        assert rerun.values == result.values

    def test_noise_scale_changes_the_samples(self, noisy_run):
        spec, result = noisy_run
        scaled = Scheduler().run(spec.with_(noise=2.0))
        assert scaled.values != result.values


class TestCacheIsolation:
    def test_noisy_and_deterministic_runs_share_no_entries(self):
        """One shared cache, a deterministic pass then a noisy pass:
        the noisy pass must be all misses (and vice versa)."""
        det_spec = EvaluationSpec(**_TINY)
        noisy_spec = det_spec.with_(noise=1.0)
        det_keys = {job_key(job) for job in det_spec.jobs()}
        noisy_keys = {job_key(job) for job in noisy_spec.jobs()}
        assert det_keys.isdisjoint(noisy_keys)

        cache = ResultCache()
        first = Scheduler(cache=cache)
        first.run(det_spec)
        second = Scheduler(cache=cache)
        second.run(noisy_spec)
        assert second.simulations_run == noisy_spec.job_count()
        assert cache.hits == 0
        # Re-running either spec now serves purely from cache.
        third = Scheduler(cache=cache)
        third.run(noisy_spec)
        assert third.simulations_run == 0
