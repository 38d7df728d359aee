"""The disk cache as an append-only log: layout and crash consistency.

* A cold pass of the paper's 4-platform x 3-seed grid into a fresh
  4-shard directory leaves at most one segment per shard and no other
  file: a sample costs a line, not a file.
* A run killed (``SIGKILL``) mid-grid, with its last line torn, resumes
  by simulating exactly the jobs with no complete line.
* Two backends in two processes on one directory, interleaving
  ``put``/``get``, agree with a dict model of what was stored.  The
  harness follows ``test_cache_properties.py``: hypothesis drives the
  generator seeds when it is installed, a fixed spread otherwise.
"""

import glob
import json
import multiprocessing
import os
import random
import signal
import tempfile
import threading

import pytest

from repro.bench.runner import run_evaluation
from repro.core.cache import CACHE_SCHEMA_VERSION, MISSING, DiskBackend, job_key
from repro.core.jobs import MeasurementJob, canonical_job, execute_job
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare images
    HAVE_HYPOTHESIS = False

FORK = multiprocessing.get_context("fork")
PAPER_PLATFORMS = ("sun-ethernet", "sun-atm-lan", "alpha-fddi", "sp1-switch")
TINY = dict(
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
)


def segments(root):
    return sorted(glob.glob(os.path.join(str(root), "seg-*.jsonl")))


def complete_keys(root):
    """Keys on the complete, valid lines of every segment at ``root``."""
    keys = set()
    for path in segments(root):
        with open(path, "rb") as handle:
            data = handle.read()
        for line in data[: data.rfind(b"\n") + 1].splitlines():
            try:
                keys.add(json.loads(line)["key"])
            except (ValueError, KeyError):
                pass
    return keys


class TestLayout:
    def test_cold_paper_grid_leaves_one_segment_per_shard(self, tmp_path):
        """The structural guard: one append-only segment per shard for
        the whole pass, one line per simulated sample, and no bucket
        directory or per-sample file anywhere."""
        spec = EvaluationSpec(platforms=PAPER_PLATFORMS, seeds=(0, 1, 2))
        root = str(tmp_path / "cache")
        result = run_evaluation(spec, cache_dir=root, shards=4)
        shard_dirs = ["shard-%02d" % index for index in range(4)]
        assert sorted(os.listdir(root)) == ["manifest.json"] + shard_dirs
        lines = 0
        for name in shard_dirs:
            shard = os.path.join(root, name)
            files = os.listdir(shard)
            assert [os.path.join(shard, f) for f in files] == segments(shard)
            assert len(files) <= 1, files
            for path in segments(shard):
                with open(path) as handle:
                    lines += len(handle.read().splitlines())
        simulated = sum(1 for entry in result.to_dict()["telemetry"]["jobs"]
                        if not entry["cache_hit"])
        assert lines == simulated > 0


def _run_until_stuck(cache_dir, spec, finish, conn):
    """Child body: run ``spec`` serially, then hang in the job after
    the first ``finish`` ones, telling the parent which job that is."""
    import repro.core.executors as executors_module

    real_execute = executors_module.execute_job
    done = []

    def execute(job):
        if len(done) == finish:
            conn.send(job.to_dict())
            threading.Event().wait()  # hang here until SIGKILL
        done.append(job)
        return real_execute(job)

    executors_module.execute_job = execute
    Scheduler(cache_dir=cache_dir).run(spec)


class TestCrashConsistency:
    def test_killed_run_resumes_exactly_the_jobs_without_a_complete_line(self, tmp_path):
        """A run ``SIGKILL``ed mid-grid, whose last append was cut short
        too: the resumed run simulates exactly the jobs with no
        complete line, and its own lines read back after the torn one."""
        spec = EvaluationSpec(seeds=(0,), **TINY)
        cache_dir = str(tmp_path / "cache")
        finish = 3
        parent_end, child_end = FORK.Pipe()
        child = FORK.Process(target=_run_until_stuck,
                             args=(cache_dir, spec, finish, child_end))
        child.start()
        try:
            assert parent_end.poll(60), "child never reached the stuck job"
            stuck = MeasurementJob.from_dict(parent_end.recv())
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join()
        assert child.exitcode == -signal.SIGKILL

        [segment] = segments(cache_dir)
        stored = complete_keys(cache_dir)
        assert len(stored) == finish
        # The kill landed inside the stuck job's append.
        line = json.dumps({"schema": CACHE_SCHEMA_VERSION, "key": job_key(stuck),
                           "seconds": 1.0, "job": stuck.to_dict()})
        with open(segment, "a") as handle:
            handle.write(line[: len(line) // 2])

        resumed = Scheduler(cache_dir=cache_dir)
        result = resumed.run(spec)
        canonical = {canonical_job(job) for job in spec.jobs()}
        assert resumed.simulations_run == len(canonical) - finish
        assert all(result.values[job] == execute_job(job) for job in spec.jobs())
        assert segments(cache_dir) == [segment]  # took the dead run's segment
        assert complete_keys(cache_dir) >= {job_key(job) for job in canonical}
        assert len(DiskBackend(cache_dir)) == len(canonical)


def _put_in_child(backend, key):
    backend.put(key, 2.0)


class TestForkedWriters:
    def test_a_forked_child_appends_to_a_segment_of_its_own(self, tmp_path):
        """A child forked from a writing process inherits its backend
        but never appends through the parent's locked descriptor."""
        root = str(tmp_path)
        backend = DiskBackend(root)
        backend.put("a" * 64, 1.0)
        [parents] = segments(root)
        child = FORK.Process(target=_put_in_child, args=(backend, "b" * 64))
        child.start()
        child.join(60)
        assert child.exitcode == 0
        assert len(segments(root)) == 2 and parents in segments(root)
        backend.put("c" * 64, 3.0)  # the parent keeps its own segment
        with open(parents) as handle:
            assert [json.loads(line)["key"][0] for line in handle] == ["a", "c"]
        assert backend.get_many(["b" * 64]) == {"b" * 64: 2.0}  # and sees the child's line


def _serve_backend(root, conn):
    """Child body: answer ``(op, key, value)`` requests on a backend."""
    backend = DiskBackend(root)
    while True:
        request = conn.recv()
        if request is None:
            return
        op, key, value = request
        if op == "put":
            backend.put(key, value)
            conn.send(None)
        else:
            conn.send(backend.get_many([key]).get(key, "missing"))


def sample_for(index):
    """Samples are deterministic per job: one value per key."""
    return None if index % 3 == 0 else index * 0.5


def check_two_process_interleaving(seed):
    rng = random.Random(seed)
    keys = ["%064x" % rng.getrandbits(256) for _ in range(rng.randint(1, 6))]
    with tempfile.TemporaryDirectory() as root:
        local = DiskBackend(root)
        parent_end, child_end = FORK.Pipe()
        child = FORK.Process(target=_serve_backend, args=(root, child_end))
        child.start()
        try:
            model = {}
            for _ in range(rng.randint(1, 30)):
                index = rng.randrange(len(keys))
                key, value = keys[index], sample_for(index)
                remote, op = rng.random() < 0.5, rng.choice(("put", "get"))
                if remote:
                    parent_end.send((op, key, value))
                    got = parent_end.recv()
                    got = MISSING if got == "missing" else got
                elif op == "put":
                    got = local.put(key, value)
                else:
                    got = local.get_many([key]).get(key, MISSING)
                if op == "put":
                    model[key] = value
                else:
                    assert got == model.get(key, MISSING), (seed, op, key)
            parent_end.send(None)
            child.join(60)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        fresh = DiskBackend(root)
        assert fresh.get_many(fresh.keys()) == model
        assert len(segments(root)) <= 2


if HAVE_HYPOTHESIS:

    class TestTwoProcessModel:
        @settings(max_examples=25, deadline=None)
        @given(st.integers(min_value=0, max_value=2 ** 63))
        def test_interleaved_put_get_matches_a_dict(self, seed):
            check_two_process_interleaving(seed)

else:  # pragma: no cover - exercised on bare images

    class TestTwoProcessModel:
        @pytest.mark.parametrize("seed", range(0, 200, 8))
        def test_interleaved_put_get_matches_a_dict(self, seed):
            check_two_process_interleaving(seed)
