"""Persistent-cache behavior end to end: resume, sharing, executors.

These are the durability guarantees the disk cache exists for: a
killed sweep re-launched over the same directory simulates only what
it never finished, and the cache is executor-agnostic — serial and
process-pool runs sharing one directory produce identical scores and
never duplicate a simulation.
"""

import pytest

from repro.core.cache import DiskBackend, ResultCache, ShardedBackend
from repro.core.executors import ProcessPoolExecutor, SerialExecutor
from repro.core.jobs import canonical_job, execute_job
from repro.core.scheduler import JobTelemetry, Scheduler
from repro.core.spec import EvaluationSpec
from repro.errors import EvaluationError

_TINY = dict(
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
)


def tiny_spec(**overrides):
    kwargs = dict(_TINY)
    kwargs.update(overrides)
    return EvaluationSpec(**kwargs)


class TestSchedulerCacheOptions:
    def test_cache_options_are_exclusive(self, tmp_path):
        with pytest.raises(EvaluationError):
            Scheduler(cache=ResultCache(), cache_dir=str(tmp_path))

    def test_cache_backend_option(self, tmp_path):
        """A bare backend is wrapped by the caller: ``cache_backend=``
        is gone, ``cache=ResultCache(backend)`` says the same."""
        with pytest.raises(TypeError):
            Scheduler(cache_backend=DiskBackend(str(tmp_path)))
        scheduler = Scheduler(cache=ResultCache(DiskBackend(str(tmp_path))))
        assert isinstance(scheduler.cache.backend, DiskBackend)

    def test_retries_validated(self):
        with pytest.raises(EvaluationError):
            Scheduler(retries=0)


class TestKillAndResume:
    def test_resume_simulates_only_missing_jobs(self, tmp_path):
        """The acceptance scenario: a sweep interrupted partway and
        re-launched with the same cache dir finishes with
        ``simulations_run`` equal to exactly the missing jobs.  The
        spec is seed-insensitive, so the missing jobs are its distinct
        canonical (seed-0) jobs less the finished ones."""
        spec = tiny_spec(seeds=(0, 1, 2))
        cache_dir = str(tmp_path / "cache")

        interrupted = Scheduler(cache_dir=cache_dir)
        partial = spec.tpl_jobs("sun-ethernet", 0)
        interrupted.run_jobs(partial)
        assert interrupted.simulations_run == len(partial)

        # "New process": fresh Scheduler, fresh backend, same dir.
        resumed = Scheduler(cache_dir=cache_dir)
        result = resumed.run(spec)
        canonical = {canonical_job(job) for job in spec.jobs()}
        assert resumed.simulations_run == len(canonical - set(partial))
        assert resumed.cache.hits == len(partial)
        assert all(result.values[job] == execute_job(job) for job in spec.jobs())

        # And the multi-seed statistics the acceptance criteria ask
        # for: mean ±95% CI across the 3 seeds, rendered per cell.
        stats = result.seed_statistics()
        assert all(cell.n == 3 for cell in stats.values())
        assert "±" in result.comparison(stats=True)

        # A third launch re-simulates nothing at all.
        clean = Scheduler(cache_dir=cache_dir)
        clean.run(spec)
        assert clean.simulations_run == 0

    def test_crash_mid_batch_keeps_finished_jobs(self, tmp_path, monkeypatch):
        """Outcomes persist as they stream out of the executor, so a
        crash partway through ONE batch keeps every finished job —
        the relaunch simulates only from the point of death."""
        import repro.core.executors as executors_module

        spec = tiny_spec(tools=("p4",))
        jobs = spec.jobs()
        dies_at = jobs[3]
        real_execute = executors_module.execute_job

        def dying(job):
            if job == dies_at:
                raise OSError("killed")
            return real_execute(job)

        monkeypatch.setattr(executors_module, "execute_job", dying)
        cache_dir = str(tmp_path / "cache")
        crashed = Scheduler(cache_dir=cache_dir)
        with pytest.raises(OSError):
            crashed.run(spec)
        assert crashed.simulations_run == 3  # the finished prefix

        monkeypatch.setattr(executors_module, "execute_job", real_execute)
        resumed = Scheduler(cache_dir=cache_dir)
        resumed.run(spec)
        assert resumed.simulations_run == spec.job_count() - 3

    def test_sharded_resume(self, tmp_path):
        spec = tiny_spec(tools=("p4",))
        first = Scheduler(cache_dir=str(tmp_path), shards=4)
        first.run(spec)
        resumed = Scheduler(cache_dir=str(tmp_path), shards=4)
        resumed.run(spec)
        assert resumed.simulations_run == 0

    def test_shard_count_must_match_to_resume(self, tmp_path):
        """A different shard count is a different placement — the
        manifest turns the silent re-route (warm entries becoming
        misses, duplicates written) into a loud open-time error
        naming both counts."""
        spec = tiny_spec(tools=("p4",))
        Scheduler(cache_dir=str(tmp_path), shards=2).run(spec)
        with pytest.raises(EvaluationError, match=r"2 shard\(s\).*shards=3"):
            Scheduler(cache_dir=str(tmp_path), shards=3)
        # shards=None (the default) adopts the recorded roster and
        # resumes warm: zero duplicate simulations.
        adopted = Scheduler(cache_dir=str(tmp_path))
        adopted.run(spec)
        assert adopted.simulations_run == 0

    def test_flat_and_sharded_layouts_do_not_mix(self, tmp_path):
        spec = tiny_spec(tools=("p4",))
        warm = Scheduler(cache_dir=str(tmp_path))  # flat layout
        warm.run(spec)
        with pytest.raises(EvaluationError, match=r"1 shard\(s\).*shards=4"):
            Scheduler(cache_dir=str(tmp_path), shards=4)
        # Same count, different layout: a shard-00 directory is not a
        # flat one even though both route every key to one store.
        sharded_root = str(tmp_path / "sharded")
        ShardedBackend.on_disk(sharded_root, shards=1)
        with pytest.raises(EvaluationError, match="layout"):
            ResultCache.on_disk(sharded_root, shards=1)


class TestCrossExecutorDeterminism:
    def test_serial_and_pool_agree_through_shared_disk(self, tmp_path):
        """Same spec, same cache dir, different executors: identical
        scores and zero duplicate simulations on the second pass."""
        spec = tiny_spec(tools=("p4", "express"))
        cache_dir = str(tmp_path / "shared")

        serial = Scheduler(executor=SerialExecutor(), cache_dir=cache_dir)
        first = serial.run(spec)
        assert serial.simulations_run == spec.job_count()

        pooled = Scheduler(
            executor=ProcessPoolExecutor(max_workers=2), cache_dir=cache_dir
        )
        second = pooled.run(spec)
        assert pooled.simulations_run == 0  # zero duplicate simulations
        assert second.values == first.values
        assert second.report().scores() == first.report().scores()

    def test_pool_populates_serial_reads(self, tmp_path):
        spec = tiny_spec(tools=("p4",))
        cache_dir = str(tmp_path / "shared")
        pooled = Scheduler(
            executor=ProcessPoolExecutor(max_workers=2), cache_dir=cache_dir
        )
        first = pooled.run(spec)
        serial = Scheduler(cache_dir=cache_dir)
        second = serial.run(spec)
        assert serial.simulations_run == 0
        assert second.values == first.values


class TestTelemetry:
    def test_misses_then_hits_are_recorded(self):
        spec = tiny_spec(tools=("p4",))
        scheduler = Scheduler()
        first = scheduler.run(spec)
        assert set(first.telemetry) == set(first.values)
        records = list(first.telemetry.values())
        assert all(isinstance(record, JobTelemetry) for record in records)
        assert all(not record.cache_hit for record in records)
        assert all(record.attempts == 1 for record in records)
        assert all(record.wall_seconds > 0.0 for record in records)
        assert all(record.executor == "serial" for record in records)

        second = scheduler.run(spec)
        assert all(record.cache_hit for record in second.telemetry.values())
        assert all(record.wall_seconds == 0.0 for record in second.telemetry.values())

    def test_telemetry_in_json_export(self):
        spec = tiny_spec(tools=("p4",))
        data = Scheduler().run(spec).to_dict()
        summary = data["telemetry"]["summary"]
        assert summary["simulated"] == spec.job_count()
        assert summary["cache_hits"] == 0
        assert summary["total_wall_seconds"] > 0.0
        assert summary["executors"] == ["serial"]
        assert len(data["telemetry"]["jobs"]) == spec.job_count()
        entry = data["telemetry"]["jobs"][0]
        assert {"kind", "tool", "executor", "cache_hit",
                "wall_seconds", "attempts"} <= set(entry)

    def test_pool_telemetry_reports_worker_timings(self):
        spec = tiny_spec(tools=("p4",))
        scheduler = Scheduler(executor=ProcessPoolExecutor(max_workers=2))
        result = scheduler.run(spec)
        assert all(
            record.executor == "process-pool" and record.wall_seconds > 0.0
            for record in result.telemetry.values()
        )


class TestRetries:
    def test_flaky_job_retried_and_attempts_recorded(self, monkeypatch):
        import repro.core.executors as executors_module

        calls = {"n": 0}

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return 1.0

        monkeypatch.setattr(executors_module, "execute_job", flaky)
        spec = tiny_spec(tools=("p4",))
        job = spec.jobs()[0]
        scheduler = Scheduler(retries=2)
        values = scheduler.run_jobs([job])
        assert values[job] == 1.0
        assert scheduler.telemetry[job].attempts == 2

    def test_exhausted_retries_raise(self, monkeypatch):
        import repro.core.executors as executors_module

        def broken(job):
            raise OSError("permanent")

        monkeypatch.setattr(executors_module, "execute_job", broken)
        spec = tiny_spec(tools=("p4",))
        scheduler = Scheduler(retries=2)
        with pytest.raises(OSError):
            scheduler.run_jobs([spec.jobs()[0]])

    def test_evaluation_errors_never_retried(self, monkeypatch):
        import repro.core.executors as executors_module

        calls = {"n": 0}

        def misconfigured(job):
            calls["n"] += 1
            raise EvaluationError("bad config")

        monkeypatch.setattr(executors_module, "execute_job", misconfigured)
        spec = tiny_spec(tools=("p4",))
        with pytest.raises(EvaluationError):
            Scheduler(retries=5).run_jobs([spec.jobs()[0]])
        assert calls["n"] == 1
