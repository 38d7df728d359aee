"""Seed collapse: each deterministic configuration is simulated once.

With noise off, only some jobs can depend on their seed: the TPL kinds
draw nothing from the platform's seeded streams, and among the
applications only those that declare ``seed_sensitive`` (jpeg's image,
psrs's keys) do.  The scheduler runs every other job once per pass, as
the first job of its seed class the pass meets (its lead), and serves
the sample to each seed.  Two kinds of test guard that:

* the declaration — a property test asserts that every job declared
  insensitive is bit-identical across random seeds (random platforms,
  tools, sizes and processor counts, contended Ethernet included), and
  that the sensitive apps and every noisy job really do vary;
* the scheduler — collapsed runs equal per-job :func:`execute_job`
  values in the original export order, wherever the sibling meets its
  lead (cached, finished earlier in the pass, or still in flight),
  under cancellation, and over a cache directory written before
  collapse existed.

The property harness follows ``test_cache_properties.py``: hypothesis
drives the generator seeds when installed, a fixed spread otherwise.
"""

import itertools
import queue
import random
import struct
import sys
import threading
from dataclasses import replace

import pytest

from repro.apps.suite import BENCHMARKED_APPS, EXTENSION_APPS, application_class
from repro.core.cache import MISSING, DiskBackend, ResultCache, job_key
from repro.core.executors import Executor, execute_job_instrumented
from repro.core.jobs import (
    MeasurementJob,
    application_job,
    broadcast_job,
    canonical_job,
    execute_job,
    global_sum_job,
    ring_job,
    sendrecv_job,
)
from repro.core.progress import CacheHit, JobFinished, RunCompleted
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec
from repro.errors import RunCancelled
from repro.hardware.catalog import PLATFORM_DEFAULT_PROCESSORS, PLATFORM_NAMES
from repro.tools.registry import available_tools

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare images
    HAVE_HYPOTHESIS = False

FALLBACK_SEEDS = range(0, 120, 5)

#: Small app sizes keep one simulation in the milliseconds.
_APP_PARAMS = {
    "fft2d": {"size": 16},
    "montecarlo": {"samples": 2_000},
    "jpeg": {"height": 64, "width": 64},
    "psrs": {"keys": 4_000},
    "lu": {"n": 16},
    "matmul": {"n": 16},
}
#: The apps declared seed-insensitive, read from the declaration itself
#: so a new declaration is property-tested without editing this file.
INSENSITIVE_APPS = sorted(
    name for name in BENCHMARKED_APPS + EXTENSION_APPS
    if not application_class(name).seed_sensitive
)


def bits(value):
    """Exact identity of a sample (``None`` for Not Available)."""
    return None if value is None else struct.pack("<d", value)


def random_insensitive_job(rng: random.Random) -> MeasurementJob:
    """A job the declaration calls seed-insensitive, drawn from ``rng``."""
    platform = rng.choice(PLATFORM_NAMES)
    tool = rng.choice(available_tools())
    processors = rng.randint(2, PLATFORM_DEFAULT_PROCESSORS[platform])
    seed = rng.randint(0, 2 ** 31)
    kind = rng.choice(["sendrecv", "broadcast", "ring", "global_sum"] + INSENSITIVE_APPS)
    nbytes = rng.choice([0, 64, 1024, 8192, 65536])
    if kind == "sendrecv":
        return sendrecv_job(tool, platform, nbytes, seed=seed)
    if kind == "broadcast":
        return broadcast_job(tool, platform, nbytes, processors, seed=seed)
    if kind == "ring":
        return ring_job(tool, platform, nbytes, processors, seed=seed)
    if kind == "global_sum":
        return global_sum_job(tool, platform, rng.choice([1, 500, 4000]), processors, seed=seed)
    return application_job(kind, tool, platform, processors, seed=seed, **_APP_PARAMS[kind])


def check_insensitive_job_is_seed_free(generator_seed: int) -> None:
    rng = random.Random(generator_seed)
    job = random_insensitive_job(rng)
    assert not job.seed_sensitive()
    reference = bits(execute_job(canonical_job(job)))
    for seed in (job.seed, rng.randint(1, 2 ** 31)):
        assert bits(execute_job(replace(job, seed=seed))) == reference, job.label()


if HAVE_HYPOTHESIS:

    class TestDeclarationWithHypothesis:
        @settings(max_examples=25, deadline=None)
        @given(st.integers(min_value=0, max_value=2 ** 63))
        def test_insensitive_jobs_are_bit_identical_across_seeds(self, seed):
            check_insensitive_job_is_seed_free(seed)

else:  # pragma: no cover - exercised on bare images

    class TestDeclarationWithRandomSeeds:
        @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
        def test_insensitive_jobs_are_bit_identical_across_seeds(self, seed):
            check_insensitive_job_is_seed_free(seed)


class TestDeclaration:
    def test_contended_ethernet_is_seed_free_without_noise(self):
        """Eight ranks ringing on one shared Ethernet contend for the
        medium; with noise off the backoff draw is not installed."""
        job = ring_job("pvm", "sun-ethernet", 65536, 8)
        samples = {bits(execute_job(replace(job, seed=seed))) for seed in range(4)}
        assert len(samples) == 1
        noisy = {bits(execute_job(replace(job, seed=seed, noise=1.0))) for seed in range(4)}
        assert len(noisy) > 1  # the contention draw is real once noise is on

    @pytest.mark.parametrize("app", ["jpeg", "psrs"])
    def test_sensitive_apps_really_vary_across_seeds(self, app):
        job = application_job(app, "p4", "sun-ethernet", 4, **_APP_PARAMS[app])
        assert job.seed_sensitive()
        samples = {bits(execute_job(replace(job, seed=seed))) for seed in range(3)}
        assert len(samples) > 1

    def test_declared_apps(self):
        assert INSENSITIVE_APPS == ["fft2d", "montecarlo"]

    def test_unknown_app_stays_sensitive(self):
        assert application_job("no-such-app", "p4", "sun-ethernet", 2).seed_sensitive()

    @pytest.mark.parametrize("job", [
        sendrecv_job("p4", "sun-ethernet", 1024, seed=3, noise=0.5),
        ring_job("p4", "alpha-fddi", 1024, 4, seed=3, noise=0.5),
        application_job("montecarlo", "p4", "sun-ethernet", 2, seed=3, noise=0.5),
    ])
    def test_noise_never_collapses(self, job):
        assert job.seed_sensitive()
        assert canonical_job(job) is job

    def test_canonical_job_is_the_seed_zero_job(self):
        job = broadcast_job("express", "sp1-switch", 4096, 8, seed=11)
        canonical = canonical_job(job)
        assert canonical == replace(job, seed=0)
        assert hash(canonical) == hash(replace(job, seed=0))
        assert job_key(canonical) == job_key(replace(job, seed=0))
        assert canonical_job(canonical) is canonical
        sensitive = application_job("jpeg", "p4", "sun-ethernet", 2, seed=11)
        assert canonical_job(sensitive) is sensitive


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------


def small_spec(**overrides):
    kwargs = dict(
        tools=("p4", "pvm"),
        tpl_sizes=(1024,),
        global_sum_ints=2_000,
        apps=("montecarlo", "fft2d", "psrs"),
        app_params=_APP_PARAMS,
        seeds=(0, 1, 2),
    )
    kwargs.update(overrides)
    return EvaluationSpec(**kwargs)


def expected_values(spec):
    return {job: execute_job(job) for job in spec.jobs()}


def canonical_jobs(jobs):
    return set(map(canonical_job, jobs))


class DrainFirst(Executor):
    """Takes the whole job stream before returning any outcome, so every
    sibling meets its lead while the lead is still in flight."""

    name = "drain-first"

    def submit(self, jobs, retries=1):
        for job in list(jobs):
            yield execute_job_instrumented(job, retries)


class TestSchedulerCollapse:
    def test_three_seeds_simulate_each_class_once(self, tmp_path):
        spec = small_spec()
        jobs = spec.jobs()
        canonical = canonical_jobs(jobs)
        assert len(canonical) < len(jobs)  # psrs stays per seed
        events = []
        scheduler = Scheduler(cache_dir=str(tmp_path))
        result = scheduler.run(spec, on_event=events.append)

        assert scheduler.simulations_run == len(canonical)
        assert len(DiskBackend(str(tmp_path))) == len(canonical)
        assert result.values == expected_values(spec)
        assert list(result.values) == jobs  # export order unchanged
        completed = events[-1]
        assert isinstance(completed, RunCompleted)
        assert completed.total == len(jobs)
        assert completed.simulated == len(canonical)
        assert completed.cache_hits == len(jobs) - len(canonical)

        finished = [event.job for event in events if isinstance(event, JobFinished)]
        served = [event.job for event in events if isinstance(event, CacheHit)]
        assert len(finished) == len(canonical)
        assert sorted(finished + served, key=jobs.index) == jobs
        for job in served:
            record = result.telemetry[job]
            assert record.cache_hit and record.wall_seconds == 0.0
        for job in finished:
            assert not result.telemetry[job].cache_hit

    def test_the_first_seed_leads(self):
        """Seeds without 0: each class is simulated and stored at the
        spec's first seed, and nothing is stored for the others."""
        spec = small_spec(seeds=(6, 5), apps=("montecarlo",))
        scheduler = Scheduler()
        result = scheduler.run(spec)
        assert scheduler.simulations_run == len(spec.jobs()) // 2
        assert result.values == expected_values(spec)
        for job in spec.jobs():
            stored = scheduler.cache.lookup(job) is not MISSING
            assert stored == (job.seed == 6)
            assert scheduler.cache.lookup(replace(job, seed=0)) is MISSING

    def test_a_later_run_reuses_only_its_own_leads(self):
        """Leads are chosen per pass: a run whose first seed is new
        simulates again, while one that shares the first seed is served
        entirely from the cache."""
        scheduler = Scheduler()
        scheduler.run(small_spec(seeds=(0, 1), apps=("montecarlo",)))
        simulated = scheduler.simulations_run
        scheduler.run(small_spec(seeds=(0, 2), apps=("montecarlo",)))
        assert scheduler.simulations_run == simulated
        fresh = small_spec(seeds=(3,), apps=("montecarlo",))
        result = scheduler.run(fresh)
        assert scheduler.simulations_run == simulated + fresh.job_count()
        assert result.values == expected_values(fresh)

    def test_siblings_in_later_probe_chunks(self):
        spec = small_spec()
        scheduler = Scheduler()
        scheduler.PROBE_CHUNK = 2
        result = scheduler.run(spec)
        assert scheduler.simulations_run == len(canonical_jobs(spec.jobs()))
        assert result.values == expected_values(spec)
        assert list(result.values) == spec.jobs()

    def test_siblings_waiting_on_in_flight_leads(self):
        spec = small_spec()
        events = []
        scheduler = Scheduler(executor=DrainFirst())
        scheduler.PROBE_CHUNK = 3
        result = scheduler.run(spec, on_event=events.append)
        assert scheduler.simulations_run == len(canonical_jobs(spec.jobs()))
        assert result.values == expected_values(spec)
        assert list(result.values) == spec.jobs()
        # Every sibling waited: it is served only after its owner finished.
        finished_at = {canonical_job(event.job): index for index, event in enumerate(events)
                       if isinstance(event, JobFinished)}
        for index, event in enumerate(events):
            if isinstance(event, CacheHit):
                assert finished_at[canonical_job(event.job)] < index

    def test_pre_collapse_cache_dir_is_reused(self, tmp_path):
        """A directory written by a per-seed scheduler (an entry for
        every seed) serves a collapsed run without a simulation."""
        spec = small_spec(apps=("montecarlo", "psrs"))
        old = ResultCache.on_disk(str(tmp_path))
        values = expected_values(spec)
        for job, value in values.items():
            old.store(job, value)
        scheduler = Scheduler(cache_dir=str(tmp_path))
        result = scheduler.run(spec)
        assert scheduler.simulations_run == 0
        assert result.values == values
        assert all(record.cache_hit for record in result.telemetry.values())

    def test_noisy_spec_simulates_every_seed(self):
        spec = small_spec(apps=("montecarlo",), noise=0.5, tools=("p4",))
        scheduler = Scheduler()
        result = scheduler.run(spec)
        assert scheduler.simulations_run == spec.job_count()
        assert result.values == expected_values(spec)

    def test_cancel_drops_siblings_of_dropped_leads(self):
        """The executor takes three leads, waits while the run
        is cancelled, then returns only the first outcome.  The sibling
        of the finished job is served; the sibling of a dropped one
        must not keep a ``None`` reservation."""
        a0, b0, c0, d0 = (
            sendrecv_job("p4", "sun-ethernet", 1024),
            broadcast_job("p4", "sun-ethernet", 1024, 4),
            ring_job("p4", "sun-ethernet", 1024, 4),
            global_sum_job("p4", "sun-ethernet", 2000, 4),
        )
        a1, b1 = replace(a0, seed=1), replace(b0, seed=1)
        taken, release = threading.Event(), threading.Event()

        class TakeThreeThenDrop(Executor):
            name = "take-three"

            def submit(self, jobs, retries=1):
                jobs = iter(jobs)
                first = list(itertools.islice(jobs, 3))  # a0, b0, c0
                taken.set()
                release.wait()
                list(jobs)  # the run observes the cancel at d0
                yield execute_job_instrumented(first[0], retries)

        handle = Scheduler(executor=TakeThreeThenDrop()).start_jobs(
            [a0, b0, a1, b1, c0, d0])
        assert taken.wait(30)
        handle.cancel()
        release.set()
        with pytest.raises(RunCancelled):
            handle.result()
        assert handle.values() == {a0: execute_job(a0), a1: execute_job(a0)}


class PullThreadExecutor(Executor):
    """Consumes the job stream on a thread of its own, as a custom
    backend may, while the scheduler takes outcomes on the run thread."""

    name = "pull-thread"

    def submit(self, jobs, retries=1):
        outcomes = queue.SimpleQueue()

        def pull():
            try:
                for job in jobs:
                    outcomes.put(execute_job_instrumented(job, retries))
            finally:
                outcomes.put(None)

        thread = threading.Thread(target=pull, daemon=True)
        thread.start()
        while (outcome := outcomes.get()) is not None:
            yield outcome
        thread.join(30)


class TestConcurrency:
    def test_pull_thread_stress_keeps_every_sibling(self):
        """Here the job stream is consumed on the executor's own thread
        while outcomes arrive on the run thread.  A lost update between
        the two would leave a sibling unserved (``None``) or out of
        place."""
        spec = small_spec(apps=("montecarlo",), tools=("express", "p4", "pvm"),
                          seeds=(0, 1, 2, 3))
        expected = expected_values(spec)
        canonical = canonical_jobs(spec.jobs())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                with Scheduler(executor=PullThreadExecutor()) as scheduler:
                    scheduler.PROBE_CHUNK = 3
                    result = scheduler.start(spec).result(timeout=120)
                assert result.values == expected
                assert list(result.values) == spec.jobs()
                assert scheduler.simulations_run == len(canonical)
        finally:
            sys.setswitchinterval(interval)
