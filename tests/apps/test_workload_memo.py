"""Host compute done once: the JPEG workload memo and the PSRS sorts.

``JpegCompression.make_workload`` shares one workload (image plus
strip encodings) between consecutive jobs with the same seed and image
parameters, and PSRS sorts its integer keys with numpy's default sort.
Neither may change a sample: the memo must hand out a read-only image,
rebuild for any other key, encode exactly as ``compress_strip`` and
stay correct when threads interleave seeds; the sorts must give the
partitions the stable mergesort gave.
"""

import hashlib
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.apps.jpeg import parallel as jpeg_parallel
from repro.apps.jpeg.codec import compress_strip
from repro.apps.jpeg.parallel import JpegCompression, synthetic_image
from repro.apps.sorting.parallel import PsrsSort
from repro.apps.sorting.psrs import partition_by_pivots, regular_sample, select_pivots
from repro.core.jobs import application_job, execute_job
from repro.core.measurements import build_platform, create_tool
from repro.core.scheduler import ProcessPoolExecutor, Scheduler
from repro.core.spec import EvaluationSpec
from repro.sim import RandomStreams

SMALL = dict(height=64, width=96)


class TestJpegWorkloadMemo:
    def test_image_is_read_only(self):
        workload = JpegCompression(**SMALL).make_workload(RandomStreams(7))
        assert not workload.image.flags.writeable
        with pytest.raises(ValueError):
            workload.image[0, 0] = 0
        with pytest.raises(ValueError):
            workload.image[8:16] += 1

    def test_same_seed_and_parameters_share_the_workload(self):
        app = JpegCompression(**SMALL)
        first = app.make_workload(RandomStreams(7))
        assert JpegCompression(**SMALL).make_workload(RandomStreams(7)) is first

    @pytest.mark.parametrize("seed, params", [
        (8, SMALL),
        (7, dict(SMALL, height=72)),
        (7, dict(SMALL, width=104)),
        (7, dict(SMALL, quality=50)),
    ])
    def test_other_seed_or_parameters_give_a_fresh_workload(self, seed, params):
        first = JpegCompression(**SMALL).make_workload(RandomStreams(7))
        other = JpegCompression(**params).make_workload(RandomStreams(seed))
        assert other is not first
        assert other.quality == params.get("quality", 75)
        expected = synthetic_image(RandomStreams(seed), params["height"], params["width"])
        assert np.array_equal(other.image, expected)

    def test_compress_equals_compress_strip(self):
        app = JpegCompression(**SMALL)
        workload = app.make_workload(RandomStreams(11))
        for top, bottom in app._strip_bounds(workload.image.shape[0], 3):
            strip = workload.image[top:bottom]
            expected = compress_strip(strip, workload.quality)
            assert workload.compress(strip) == expected
            # A copy (a strip that arrived as a message) hits the entry.
            assert workload.compress(strip.copy()) is workload.compress(strip)

    def test_threads_get_the_serial_samples(self):
        jobs = [
            application_job("jpeg", tool, platform, 4, seed=seed, **SMALL)
            for seed in (0, 1)
            for platform in ("sun-ethernet", "sp1-switch")
            for tool in ("p4", "express")
        ]
        serial = [execute_job(job) for job in jobs]
        # More threads than cores, walking the jobs in different
        # orders, so each keeps swapping the others' workload out of
        # the one-entry memo while they encode its strips.
        orders = [list(range(len(jobs))), list(reversed(range(len(jobs))))] * 2
        start = threading.Barrier(len(orders))
        results = [dict() for _ in orders]

        def worker(order, out):
            start.wait()
            for _ in range(2):
                for index in order:
                    out.setdefault(index, []).append(execute_job(jobs[index]))

        threads = [threading.Thread(target=worker, args=pair) for pair in zip(orders, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in results:
            assert [out[index] for index in range(len(jobs))] == [[s] * 2 for s in serial]


PAPER_PLATFORMS = ("sun-ethernet", "sun-atm-lan", "alpha-fddi", "sp1-switch")


def paper_grid():
    return EvaluationSpec(platforms=PAPER_PLATFORMS, seeds=(0, 1, 2))


def count_encodes(monkeypatch, log):
    """Route every strip encode, in this process or a forked worker,
    through a wrapper appending the strip's digest to ``log``."""

    def logged(strip, *args, **kwargs):
        key = repr((strip.shape, args, sorted(kwargs.items()))).encode()
        with open(log, "a") as handle:
            handle.write(hashlib.sha1(key + strip.tobytes()).hexdigest() + "\n")
        return compress_strip(strip, *args, **kwargs)

    monkeypatch.setattr(jpeg_parallel, "compress_strip", logged)
    monkeypatch.setattr(jpeg_parallel, "_WORKLOADS", jpeg_parallel._LastWorkload())


def assert_each_strip_encoded_at_most_once_per_platform(log):
    with open(log) as handle:
        encodes = handle.read().split()
    assert encodes  # a guard that counted nothing would pass vacuously
    distinct = len(set(encodes))
    assert len(encodes) <= len(PAPER_PLATFORMS) * distinct, (
        "%d strip encodes for %d distinct strips" % (len(encodes), distinct))


def test_paper_grid_encodes_each_strip_at_most_once_per_platform(monkeypatch, tmp_path):
    """The jpeg jobs of the paper grid (4 platforms x 3 tools x 3
    seeds), run in this process: the tools of a (platform, seed) cell
    share one memoized workload, so no distinct strip is encoded more
    than once per platform."""
    log = str(tmp_path / "encodes")
    count_encodes(monkeypatch, log)
    jobs = [job for job in paper_grid().jobs() if dict(job.params).get("app") == "jpeg"]
    assert len(jobs) == len(PAPER_PLATFORMS) * 3 * 3
    values = Scheduler().run_jobs(jobs)
    assert all(value is not None for value in values.values())
    assert_each_strip_encoded_at_most_once_per_platform(log)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the counting wrapper reaches pool workers only via fork")
def test_pooled_paper_grid_encodes_each_strip_at_most_once_per_platform(
        monkeypatch, tmp_path):
    """The whole paper grid on a two-worker pool, counted inside the
    workers: the memo is per process, so this holds only while a chunk
    keeps the tools of one cell together."""
    log = str(tmp_path / "encodes")
    count_encodes(monkeypatch, log)
    with Scheduler(executor=ProcessPoolExecutor(max_workers=2)) as scheduler:
        values = scheduler.run_jobs(paper_grid().jobs())
    assert all(value is not None for job, value in values.items()
               if dict(job.params).get("app") == "jpeg")
    assert_each_strip_encoded_at_most_once_per_platform(log)


def psrs_mergesort_reference(workload, size):
    """The partitions PSRS produced with ``kind="mergesort"`` sorts."""
    blocks = [np.sort(workload.keys_for_rank(rank, size), kind="mergesort")
              for rank in range(size)]
    if size == 1:
        return blocks
    pivots = select_pivots(np.concatenate([regular_sample(b, size) for b in blocks]), size)
    segments = [partition_by_pivots(block, pivots) for block in blocks]
    return [np.sort(np.concatenate([rank_segments[k] for rank_segments in segments]),
                    kind="mergesort")
            for k in range(size)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ranks", [1, 2, 4, 8])
def test_psrs_partitions_equal_mergesort_reference(seed, ranks):
    app = PsrsSort(keys=20_000)
    platform = build_platform("sun-ethernet", processors=ranks, seed=seed)
    tool = create_tool("p4", platform)
    workload = app.make_workload(platform.rng)
    results = tool.run_spmd(app.program, nprocs=ranks, args=(workload,))
    expected = psrs_mergesort_reference(workload, ranks)
    assert len(results) == ranks
    for result, partition in zip(results, expected):
        assert result["partition"].dtype == partition.dtype
        assert np.array_equal(result["partition"], partition)
