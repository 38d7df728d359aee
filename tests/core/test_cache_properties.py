"""Property-based cache guarantees: round-trip and shard routing.

One randomized-job generator backs two harnesses: when ``hypothesis``
is installed its engine drives (and shrinks) the generator seeds;
without it, a fixed spread of seeds exercises the same properties.
The properties themselves:

* any :class:`MeasurementJob` stored in a :class:`DiskBackend` reads
  back equal — value through a fresh backend over the same directory,
  and the job itself reconstructed from the on-disk entry;
* storing the same sample again appends nothing but still serves
  later reads from the memo, while a different sample, a torn line, a
  stale-schema line or an entry without its job under the key is
  superseded;
* :class:`ShardedBackend` routes every key to exactly one of its disk
  shards, and any two processes holding the same roster agree on the
  placement.
"""

import glob
import json
import os
import random
import string
import tempfile

import pytest

from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    MISSING,
    DiskBackend,
    ResultCache,
    ShardedBackend,
    job_key,
)
from repro.core.jobs import JOB_KINDS, MeasurementJob

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare images
    HAVE_HYPOTHESIS = False

FALLBACK_SEEDS = range(0, 200, 8)


def random_job(rng: random.Random) -> MeasurementJob:
    """One arbitrary (but valid) job drawn from ``rng``."""

    def scalar():
        return rng.choice([
            rng.randint(-(2 ** 31), 2 ** 31),
            rng.uniform(-1e6, 1e6),
            "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(1, 12))),
            rng.random() < 0.5,
        ])

    params = tuple(
        ("p%d_%s" % (index, rng.choice(string.ascii_lowercase)), scalar())
        for index in range(rng.randint(0, 5))
    )
    return MeasurementJob(
        kind=rng.choice(JOB_KINDS),
        tool=rng.choice(["express", "p4", "pvm", "mpi", "custom-%d" % rng.randint(0, 99)]),
        platform=rng.choice(["sun-ethernet", "alpha-fddi", "lab-%d" % rng.randint(0, 99)]),
        processors=rng.randint(2, 128),
        params=params,
        seed=rng.randint(0, 2 ** 31),
    )


def random_sample(rng: random.Random):
    return rng.choice([None, 0.0, rng.uniform(1e-9, 1e3)])


def check_disk_round_trip(seed: int) -> None:
    rng = random.Random(seed)
    job = random_job(rng)
    value = random_sample(rng)
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache.on_disk(root)
        assert cache.lookup(job) is MISSING
        cache.store(job, value)
        # A fresh cache over the same directory: the resume path.
        fresh = ResultCache.on_disk(root)
        assert fresh.lookup(job) == value
        entries = list(DiskBackend(root).entries())
        assert entries == [(job, value)]
        assert entries[0][0] == job  # reconstructed job hashes equal
        assert hash(entries[0][0]) == hash(job)
        check_idempotent_put(root, job, value)


def check_idempotent_put(root: str, job: MeasurementJob, value) -> None:
    """Re-storing the entry's own sample appends nothing; anything
    else the log holds under the key is superseded by the stored
    sample."""
    key = job_key(job)
    [path] = glob.glob(os.path.join(root, "seg-*.jsonl"))
    before = os.path.getsize(path)
    again = DiskBackend(root)
    again.put(key, value, job)
    assert os.path.getsize(path) == before
    assert glob.glob(os.path.join(root, "seg-*.jsonl")) == [path]
    os.unlink(path)
    assert again.get_many([key]) == {key: value}  # the skip path filled the memo

    entry = {"schema": CACHE_SCHEMA_VERSION, "key": key,
             "seconds": 1.0 if value is None else None, "job": job.to_dict()}
    damages = {
        "other-value": json.dumps(entry) + "\n",
        "torn": json.dumps(entry)[:20],
        "stale-schema": json.dumps(dict(entry, schema=CACHE_SCHEMA_VERSION - 1,
                                        seconds=value)) + "\n",
        "no-job": json.dumps(dict(entry, seconds=value, job=None)) + "\n",
    }
    for damage, text in damages.items():
        with open(path, "w") as handle:
            handle.write(text)
        DiskBackend(root).put(key, value, job)
        assert DiskBackend(root).get_many([key]) == {key: value}, damage
        assert list(DiskBackend(root).entries()) == [(job, value)], damage


def check_sharded_routing(seed: int) -> None:
    rng = random.Random(seed)
    job = random_job(rng)
    shards = rng.randint(1, 9)
    key = job_key(job)
    with tempfile.TemporaryDirectory() as root:
        backend = ShardedBackend([DiskBackend(os.path.join(root, str(index)))
                                  for index in range(shards)])
        backend.put(key, 1.0, job)
        holders = [index for index, child in enumerate(backend.backends)
                   if child.keys() == [key]]
        assert holders == [backend.shard_index(key)]
        assert sum(map(len, backend.backends)) == 1
        # A second process with the same roster places the key identically.
        twin = ShardedBackend([DiskBackend(os.path.join(root, "twin-%d" % index))
                               for index in range(shards)])
        assert twin.shard_index(key) == backend.shard_index(key)
        assert backend.get_many([key]) == {key: 1.0}


if HAVE_HYPOTHESIS:

    class TestWithHypothesis:
        @settings(max_examples=30, deadline=None)
        @given(st.integers(min_value=0, max_value=2 ** 63))
        def test_disk_round_trip(self, seed):
            check_disk_round_trip(seed)

        @settings(max_examples=50, deadline=None)
        @given(st.integers(min_value=0, max_value=2 ** 63))
        def test_sharded_routing(self, seed):
            check_sharded_routing(seed)

else:  # pragma: no cover - exercised on bare images

    class TestWithRandomSeeds:
        @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
        def test_disk_round_trip(self, seed):
            check_disk_round_trip(seed)

        @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
        def test_sharded_routing(self, seed):
            check_sharded_routing(seed)
