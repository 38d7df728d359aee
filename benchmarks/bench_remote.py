"""Bench remote: the price of the on-disk job queue.

The remote backend trades function calls for filesystem rendezvous —
every ticket (a chunk of jobs) becomes an enqueue, an ``os.replace``
claim, an outcome write and a coordinator pickup.  That tax must stay
small change next to simulation time:

* the queue assertion — a full ticket round trip (enqueue -> claim ->
  complete -> take_outcome) of a one-job ticket prices under
  ``MAX_ROUNDTRIP_SECONDS``, and
* the sweep assertion — a cold sweep through ``RemoteExecutor`` + an
  in-process two-worker fleet finishes within
  ``MAX_REMOTE_OVERHEAD`` x the serial wall time (the fleet runs in
  threads, so the GIL keeps this near 1x plus queue tax).

As a script this writes ``BENCH_remote.json`` (same shape as
``BENCH_api.json``) for ``scripts/bench_report.py``::

    PYTHONPATH=src python benchmarks/bench_remote.py \
        [--output BENCH_remote.json] [--no-assert]
"""

import json
import shutil
import sys
import tempfile
import time

from repro.core.cache import ResultCache
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec
from repro.distributed import JobQueue, RemoteExecutor, WorkerPool

#: Queue-tax probe: jobs here are irrelevant, only the paper trail is
#: timed.
_TINY = dict(
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
)

#: Sweep-comparison grid: ~70 ms of simulation per job, so the queue
#: tax is priced against real work, not against spec expansion.
_SWEEP = dict(
    tools=("p4", "express"),
    tpl_sizes=(1_048_576,),
    global_sum_ints=20_000,
    apps=("matmul",),
    app_params={"matmul": {"n": 64}},
)

#: One enqueue->claim->complete->take_outcome cycle must cost at most
#: this many seconds per job (it is a handful of small-file renames;
#: the generous bar absorbs slow CI filesystems).
MAX_ROUNDTRIP_SECONDS = 0.05

#: A remote sweep (thread-fleet, shared disk cache) may cost at most
#: this much over the serial in-process baseline.
MAX_REMOTE_OVERHEAD = 3.0

#: Tickets timed per queue-round-trip measurement.
ROUNDTRIP_TICKETS = 100


def measure_queue_roundtrip(tickets=ROUNDTRIP_TICKETS):
    """Per-ticket wall time of the queue's full paper trail."""
    root = tempfile.mkdtemp(prefix="bench-remote-queue-")
    try:
        queue = JobQueue(root)
        job = EvaluationSpec(**_TINY).jobs()[0]
        start = time.perf_counter()
        for index in range(tickets):
            ticket = "t-%06d" % index
            queue.enqueue(ticket, [job])
            claim = queue.claim("bench-worker")
            queue.complete(claim, {"ticket": claim.ticket, "worker": "bench-worker",
                                   "wall_seconds": 0.0, "error": None,
                                   "outcomes": [{"value": 1.0, "wall_seconds": 0.0,
                                                 "attempts": 1, "cache_hit": False,
                                                 "error": None}]})
            assert queue.take_outcome(ticket) is not None
        elapsed = time.perf_counter() - start
        return {
            "tickets": tickets,
            "seconds_per_ticket": elapsed / tickets,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run_serial(spec):
    with Scheduler() as scheduler:
        result = scheduler.run(spec)
    assert scheduler.simulations_run == spec.job_count()
    return result


def _run_remote(spec, root):
    queue = JobQueue(root + "/queue")
    cache = ResultCache.on_disk(root + "/cache", shards=2)
    executor = RemoteExecutor(queue_dir=queue.root, max_workers=2,
                              poll_interval=0.002, timeout=120.0)
    with WorkerPool(queue, cache, workers=2, poll_interval=0.002) as pool:
        with Scheduler(executor=executor) as scheduler:
            result = scheduler.run(spec)
    assert pool.simulated == spec.job_count()  # cold: no hits anywhere
    return result


def measure_remote_vs_serial():
    """Cold sweep wall time: serial in-process vs the remote stack."""
    spec = EvaluationSpec(**_SWEEP)
    _run_serial(spec)  # warm imports so neither side pays them
    start = time.perf_counter()
    serial_result = _run_serial(spec)
    serial_s = time.perf_counter() - start

    root = tempfile.mkdtemp(prefix="bench-remote-sweep-")
    try:
        start = time.perf_counter()
        remote_result = _run_remote(spec, root)
        remote_s = time.perf_counter() - start
    finally:
        shutil.rmtree(root, ignore_errors=True)

    assert remote_result.values == serial_result.values
    return {
        "jobs": spec.job_count(),
        "serial_run_seconds": serial_s,
        "remote_run_seconds": remote_s,
        "overhead_ratio": remote_s / serial_s,
    }


def test_queue_roundtrip_price():
    metrics = measure_queue_roundtrip()
    print()
    print("queue round trip: %6.2f ms/ticket (%d tickets)"
          % (metrics["seconds_per_ticket"] * 1e3, metrics["tickets"]))
    assert metrics["seconds_per_ticket"] < MAX_ROUNDTRIP_SECONDS


def test_remote_sweep_overhead():
    """The full remote stack vs serial; a miss re-measures once so a
    noisy CI neighbor can't fail a healthy build."""
    metrics = measure_remote_vs_serial()
    if metrics["overhead_ratio"] >= MAX_REMOTE_OVERHEAD:
        metrics = measure_remote_vs_serial()
    print()
    print("serial sweep (cold): %8.1f ms" % (metrics["serial_run_seconds"] * 1e3))
    print("remote sweep (cold): %8.1f ms  (%.3fx)"
          % (metrics["remote_run_seconds"] * 1e3, metrics["overhead_ratio"]))
    assert metrics["overhead_ratio"] < MAX_REMOTE_OVERHEAD


def run_benchmarks():
    import platform as platform_mod

    return {
        "benchmark": "remote",
        "python": sys.version.split()[0],
        "machine": platform_mod.machine(),
        "metrics": {
            "queue_roundtrip": measure_queue_roundtrip(),
            "remote_sweep": measure_remote_vs_serial(),
        },
    }


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_remote.json",
                        help="where to write the metrics (default ./BENCH_remote.json)")
    parser.add_argument("--no-assert", action="store_true",
                        help="record metrics without enforcing the "
                             "round-trip and overhead bars")
    args = parser.parse_args(argv)

    report = run_benchmarks()
    roundtrip = report["metrics"]["queue_roundtrip"]
    sweep = report["metrics"]["remote_sweep"]
    print("queue round trip:    %8.2f ms/ticket"
          % (roundtrip["seconds_per_ticket"] * 1e3))
    print("serial sweep (cold): %8.1f ms" % (sweep["serial_run_seconds"] * 1e3))
    print("remote sweep (cold): %8.1f ms" % (sweep["remote_run_seconds"] * 1e3))
    print("remote overhead:     %8.3fx" % sweep["overhead_ratio"])

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)

    if args.no_assert:
        return 0
    failures = []
    if roundtrip["seconds_per_ticket"] >= MAX_ROUNDTRIP_SECONDS:
        failures.append("queue round trip %.2f ms/ticket exceeds %.0f ms"
                        % (roundtrip["seconds_per_ticket"] * 1e3,
                           MAX_ROUNDTRIP_SECONDS * 1e3))
    if sweep["overhead_ratio"] >= MAX_REMOTE_OVERHEAD:
        failures.append("remote overhead %.3fx exceeds the %.1fx bar"
                        % (sweep["overhead_ratio"], MAX_REMOTE_OVERHEAD))
    for failure in failures:
        print("FAIL: %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
