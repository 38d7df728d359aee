"""A job's cached hash: taken once, equal for equal jobs everywhere.

:class:`~repro.core.jobs.MeasurementJob` keeps the hash of its field
tuple from construction instead of rebuilding the tuple at every set
or dict probe.  A cached value must never outlive the fields it was
taken from: every way a job is copied or moved must hash it afresh,
across processes too, where string hashes differ.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

from repro.core.jobs import (
    MeasurementJob,
    application_job,
    broadcast_job,
    canonical_job,
    global_sum_job,
    sendrecv_job,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def _jobs():
    return [
        sendrecv_job("p4", "sun-ethernet", 1024, seed=5),
        broadcast_job("pvm", "sun-atm-lan", 4096, 4, seed=2, noise=0.5),
        global_sum_job("express", "alpha-fddi", 2000, 4, seed=7),
        application_job("montecarlo", "p4", "sp1-switch", 4, seed=3, samples=5000),
        application_job("jpeg", "mpi", "sun-ethernet", 2, seed=1, height=32, width=32),
    ]


def _fields(job):
    return tuple(getattr(job, field.name) for field in dataclasses.fields(job))


@pytest.mark.parametrize("job", _jobs(), ids=lambda job: job.kind)
class TestEqualJobsHashEqual:
    def test_hash_is_the_field_tuple_hash(self, job):
        """The generated dataclass hash, so set and dict iteration
        orders are what they were."""
        assert hash(job) == hash(_fields(job))

    def test_replace(self, job):
        moved = dataclasses.replace(job, seed=job.seed + 1)
        back = dataclasses.replace(moved, seed=job.seed)
        assert back == job and hash(back) == hash(job)
        assert hash(moved) == hash(_fields(moved))

    def test_copies(self, job):
        for twin in (copy.copy(job), copy.deepcopy(job)):
            assert twin == job and hash(twin) == hash(job)

    def test_dict_round_trip(self, job):
        twin = MeasurementJob.from_dict(job.to_dict())
        assert twin == job and hash(twin) == hash(job)

    def test_canonical_job(self, job):
        canonical = canonical_job(job)
        expected = dataclasses.replace(job, seed=0)
        if canonical is job:
            assert job.seed_sensitive()
            return
        assert canonical == expected
        assert hash(canonical) == hash(expected) == hash(_fields(expected))
        assert {canonical: 1}[expected] == 1

    def test_pickle_round_trip(self, job):
        twin = pickle.loads(pickle.dumps(job))
        assert twin == job and hash(twin) == hash(job)


def test_cached_hash_is_not_a_field():
    """The schema, the repr and the export see the seven fields only."""
    job = _jobs()[0]
    assert [field.name for field in dataclasses.fields(MeasurementJob)] == [
        "kind", "tool", "platform", "processors", "params", "seed", "noise",
    ]
    assert "_hash" not in repr(job)
    assert "_hash" not in job.to_dict()
    assert "_hash" not in job.__getstate__()


_CHILD = r"""
import pickle, sys
from repro.core.jobs import MeasurementJob
jobs, keyed = pickle.loads(sys.stdin.buffer.read())
fresh = [MeasurementJob(*[getattr(job, name) for name in
         ("kind", "tool", "platform", "processors", "params", "seed", "noise")])
         for job in jobs]
assert [hash(job) for job in jobs] == [hash(job) for job in fresh]
assert all(keyed[job] == index for index, job in enumerate(fresh))
assert set(jobs) == set(fresh)
sys.stdout.buffer.write(pickle.dumps((fresh, {job: i for i, job in enumerate(fresh)})))
"""


def _run_child(payload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD], input=payload, env=env,
        capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("hash_seed", [1, 12345])
def test_pickle_across_hash_seeds(hash_seed):
    """A job pickled here hashes like a job built in a process with
    another PYTHONHASHSEED, as a key too; and back again."""
    jobs = _jobs()
    keyed = {job: index for index, job in enumerate(jobs)}
    back, back_keyed = pickle.loads(_run_child(pickle.dumps((jobs, keyed)), hash_seed))
    assert back == jobs
    assert [hash(job) for job in back] == [hash(job) for job in jobs]
    assert all(back_keyed[job] == index for index, job in enumerate(jobs))
    assert set(back) == set(jobs)
