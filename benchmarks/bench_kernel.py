"""Simulation-kernel benchmark: the repo's tracked speed trajectory.

DoKnowMe-style rule: performance claims need an explicit, repeatable
measurement strategy.  This script *is* that strategy for the hot
path — it measures

* raw kernel event throughput (timeout schedule/dispatch cycles/sec),
* per-medium wall-clock time to simulate an uncontended 1 MB transfer,
* the bulk fast path against the frozen per-frame reference
  implementation (the acceptance bar is a >=5x speedup), and
* process-pool amortization: a measurement pass on a persistent pool
  vs. paying worker startup every pass,

and writes them to ``BENCH_kernel.json`` so
``scripts/bench_report.py`` can diff any run against the committed
baseline.  Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--quick] \
        [--output BENCH_kernel.json] [--no-assert]
"""

from __future__ import annotations

import argparse
import json
import platform as platform_mod
import sys
import time

from repro.core.executors import ProcessPoolExecutor
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec
from repro.net import AllnodeSwitch, AtmLan, AtmWan, Ethernet, FddiRing
from repro.sim import Environment

#: The bulk fast path must beat the per-frame reference by this much
#: on an uncontended 1 MB Ethernet transfer (the ~700-frame case).
REQUIRED_FASTPATH_SPEEDUP = 5.0

MEDIA = {
    "ethernet": Ethernet,
    "fddi": FddiRing,
    "atm-lan": AtmLan,
    "atm-wan": AtmWan,
    "allnode": AllnodeSwitch,
}

_POOL_SPEC = dict(
    tools=("p4",),
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
)


def per_frame_reference(net, src, dst, nbytes):
    """Frozen pre-fast-path Ethernet loop: one claim + timeout(s) per
    frame.  The baseline the tentpole is measured against."""
    net.validate_endpoints(src, dst)
    start = net.env.now
    wire_total = 0
    busy_total = 0.0
    for payload in net.frame_format.frame_payloads(nbytes):
        with net._medium.request() as claim:
            yield claim
            frame_time = net.frame_seconds(payload)
            yield net.env.timeout(frame_time)
        wire_total += net.frame_format.wire_bytes(payload)
        busy_total += frame_time
    yield net.env.timeout(net.propagation_seconds)
    net._record(src, dst, nbytes, wire_total, busy_total)
    return net.env.now - start


def _best_of(repeats, func, *args):
    """Minimum wall time over ``repeats`` runs (noise floor, not mean)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_event_throughput(events):
    """Schedule-and-dispatch cycles per second through the run loop."""

    def ticker(env, count):
        for _ in range(count):
            yield env.timeout(1.0)

    def run():
        env = Environment()
        env.process(ticker(env, events))
        env.run()

    wall, _ = _best_of(3, run)
    return events / wall


def _run_transfer(factory, nbytes):
    env = Environment()
    net = factory(env, 2)
    process = env.process(net.transfer(0, 1, nbytes))
    env.run(until=process)


def bench_media(nbytes, repeats):
    """Wall seconds (and simulated MB per wall second) per medium."""
    wall = {}
    for name, factory in MEDIA.items():
        wall[name], _ = _best_of(repeats, _run_transfer, factory, nbytes)
    return wall


def bench_fastpath_speedup(nbytes, repeats):
    """Uncontended 1 MB Ethernet: fast path vs. per-frame reference."""

    def run_reference():
        env = Environment()
        net = Ethernet(env, 2)
        process = env.process(per_frame_reference(net, 0, 1, nbytes))
        env.run(until=process)

    slow, _ = _best_of(repeats, run_reference)
    fast, _ = _best_of(repeats, _run_transfer, Ethernet, nbytes)
    return {"per_frame_seconds": slow, "fast_path_seconds": fast,
            "speedup": slow / fast}


def bench_pool_amortization(passes):
    """Cost of a measurement pass with and without pool reuse.

    Every pass simulates the same tiny spec on a cold cache; the
    "fresh" timing shuts the pool down between passes (the pre-PR
    behavior of one pool per ``run``), the "reused" timing keeps one
    pool alive across all of them.
    """
    spec = EvaluationSpec(**_POOL_SPEC)

    fresh_total = 0.0
    for _ in range(passes):
        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=2) as executor:
            Scheduler(executor=executor).run(spec)
        fresh_total += time.perf_counter() - start

    reused_total = 0.0
    with ProcessPoolExecutor(max_workers=2) as executor:
        list(executor.submit(spec.jobs()[:1]))  # spawn workers outside the timing
        for _ in range(passes):
            start = time.perf_counter()
            Scheduler(executor=executor).run(spec)
            reused_total += time.perf_counter() - start

    return {
        "passes": passes,
        "fresh_pool_pass_seconds": fresh_total / passes,
        "reused_pool_pass_seconds": reused_total / passes,
        "amortization_ratio": fresh_total / reused_total,
    }


def run_benchmarks(quick=False):
    events = 50_000 if quick else 200_000
    nbytes = 1_000_000
    repeats = 3 if quick else 5
    passes = 2 if quick else 4

    metrics = {
        "kernel_events_per_sec": bench_event_throughput(events),
        "transfer_wall_seconds_1mb": bench_media(nbytes, repeats),
        "ethernet_fastpath": bench_fastpath_speedup(nbytes, repeats),
        "pool": bench_pool_amortization(passes),
    }
    return {
        "benchmark": "kernel",
        "quick": bool(quick),
        "python": sys.version.split()[0],
        "machine": platform_mod.machine(),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller event counts / fewer repeats (CI smoke)")
    parser.add_argument("--output", default="BENCH_kernel.json",
                        help="where to write the metrics (default ./BENCH_kernel.json)")
    parser.add_argument("--no-assert", action="store_true",
                        help="record metrics without enforcing the >=%gx "
                             "fast-path bar" % REQUIRED_FASTPATH_SPEEDUP)
    args = parser.parse_args(argv)

    report = run_benchmarks(quick=args.quick)
    metrics = report["metrics"]

    print("kernel events/sec:          %12.0f" % metrics["kernel_events_per_sec"])
    for name, wall in sorted(metrics["transfer_wall_seconds_1mb"].items()):
        print("1 MB transfer (%-8s):    %9.3f ms" % (name, wall * 1e3))
    fastpath = metrics["ethernet_fastpath"]
    print("ethernet per-frame path:    %9.3f ms" % (fastpath["per_frame_seconds"] * 1e3))
    print("ethernet fast path:         %9.3f ms" % (fastpath["fast_path_seconds"] * 1e3))
    print("fast-path speedup:          %9.1fx" % fastpath["speedup"])
    pool = metrics["pool"]
    print("pool pass (fresh/reused):   %9.3f / %.3f ms  (%.1fx)"
          % (pool["fresh_pool_pass_seconds"] * 1e3,
             pool["reused_pool_pass_seconds"] * 1e3,
             pool["amortization_ratio"]))

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)

    if not args.no_assert and fastpath["speedup"] < REQUIRED_FASTPATH_SPEEDUP:
        print("FAIL: fast-path speedup %.1fx is below the required %.0fx"
              % (fastpath["speedup"], REQUIRED_FASTPATH_SPEEDUP))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
