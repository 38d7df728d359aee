"""The repo's end-to-end benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload paper_grid_cold --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same loop twice, untraced then traced (half the
seconds each), and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); a readable table
and the run's provenance go to standard error and to
``perfbench/out/``.  ``--self-check`` proves the output check catches
one perturbed sample; ``--write-digests`` regenerates ``digests.json``;
``--workload all`` runs every workload, each in its own interpreter, and
prints one table.
See ``README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: ``--write-digests`` covers the specs of workload seeds below this.
DIGEST_SEEDS = 32

JOB_KINDS = ("sendrecv", "broadcast", "ring", "global_sum",
             "jpeg", "fft2d", "montecarlo", "psrs")

#: (metric, unit, key in the per-operation layer values).  Seconds and
#: ratios report the median over operations, counts and bytes the mean.
PER_LAYER = (
    ("spec.expand_s", "s", "spec.expand"),
    ("cache.probe_s", "s", "cache.probe"),
    ("cache.probe_calls", "count", "cache.probe_calls"),
    ("cache.hits", "count", "cache.hits"),
    ("cache.misses", "count", "cache.misses"),
    ("cache.store_s", "s", "cache.store"),
    ("cache.stores", "count", "cache.stores"),
    ("jobs.count", "count", "jobs.count"),
    ("jobs.exec_s", "s", "jobs.exec"),
) + tuple(
    ("jobs.exec_s." + kind, "s", "jobs.exec." + kind) for kind in JOB_KINDS
) + (
    ("jobs.seed_redundant", "count", "jobs.seed_redundant"),
    ("hardware.build_s", "s", "hardware.build"),
    ("hardware.builds", "count", "hardware.builds"),
    ("tools.create_s", "s", "tools.create"),
    ("sim.kernel_s", "s", "sim.kernel"),
    ("sim.kernel_runs", "count", "sim.kernel_runs"),
    ("apps.jpeg.strip_s", "s", "apps.jpeg.strip"),
    ("apps.jpeg.strip_calls", "count", "apps.jpeg.strip_calls"),
    ("apps.jpeg.strip_distinct", "count", "apps.jpeg.strip_distinct"),
    ("scheduler.self_s", "s", "scheduler.self"),
    ("results.score_s", "s", "results.score"),
    ("export.s", "s", "export"),
    ("export.bytes", "bytes", "export.bytes"),
    ("history.record_s", "s", "history.record"),
    ("service.submit_s", "s", "service.submit"),
    ("service.stream_s", "s", "service.stream"),
    ("service.fetch_s", "s", "service.fetch"),
    ("service.record_bytes", "bytes", "service.record_bytes"),
    ("service.admit_wait_s", "s", "service.admit_wait_s"),
    ("service.run_wall_s", "s", "service.run_wall_s"),
    ("service.persist_lag_s", "s", "service.persist_lag_s"),
    ("service.stale_reads", "count", "service.stale_reads"),
    ("distributed.enqueue_s", "s", "distributed.enqueue"),
    ("distributed.polls", "count", "distributed.polls"),
    ("distributed.empty_polls", "count", "distributed.empty_polls"),
    ("distributed.worker_wall_s", "s", "distributed.worker_wall_s"),
    ("distributed.overhead_s", "s", "distributed.overhead"),
    ("trace.coverage", "ratio", "trace.coverage"),
    ("trace.overhead", "ratio", None),
)


def p90(values):
    """Linear-interpolated 90th percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True, env=env,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def src_digest():
    """SHA-256 over every file under ``src/`` (works without git)."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(workload, args):
    import numpy

    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def check_outputs(phase, references):
    """Each distinct output against its spec's reference; every
    operation that produced a differing output fails."""
    wrong = {}
    for key, (spec, canon) in phase.distinct.items():
        found = references.check(spec, canon, key[1])
        if found:
            wrong[key] = "output differs from the serial reference: " + "; ".join(found)
    for key in phase.outputs:
        if key in wrong:
            phase.fail(wrong[key])


def child_totals(paths, destination_prefix):
    """Merge the traced children's totals; keep their span files."""
    totals = {}
    for index, path in enumerate(paths):
        with open(path) as handle:
            payload = json.load(handle)
        for name, value in payload["totals"].items():
            totals[name] = totals.get(name, 0.0) + value
        shutil.copyfile(path, "%s-child%d-spans.json" % (destination_prefix, index))
    return totals


def layer_metrics(tracer, phase, untraced, children):
    table = tracer.per_root()
    count = len(phase.op_layers)
    rows = []
    for root, latency, extra in phase.op_layers:
        values = dict(table.get(root, {}))
        values.update(extra)
        for name, value in children.items():
            values[name] = values.get(name, 0.0) + value / max(count, 1)
        values["jobs.exec"] = sum(value for name, value in values.items()
                                  if name.startswith("jobs.exec."))
        covered = values.pop(".covered", 0.0)
        values["scheduler.self"] = latency - covered
        values["trace.coverage"] = covered / latency
        if values.get("distributed.polls"):
            values["distributed.overhead"] = (
                latency - values.get("distributed.worker_wall_s", 0.0) / 2)
        rows.append(values)
    metrics = {}
    for name, unit, key in PER_LAYER:
        if key is None:
            continue
        series = [row.get(key, 0.0) for row in rows] or [0.0]
        if unit in ("s", "ratio"):
            value = statistics.median(series)
        else:
            value = statistics.fmean(series)
        metrics[name] = {"value": value, "unit": unit}
    overhead = 0.0
    if phase.latencies and untraced.latencies:
        overhead = (statistics.median(phase.latencies)
                    / statistics.median(untraced.latencies) - 1.0)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def measure(workload, args):
    """The end-to-end run (``--trace 0``)."""
    setups = []
    state = None
    for _ in range(workload.setup_repeats):
        if state is not None:
            workload.teardown(state)
        state, seconds = workload.setup(traced=False)
        setups.append(seconds)
    phase = workload.loop(state, args.seconds, None)
    child_kb = workload.teardown(state)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": phase.jobs / phase.busy if phase.busy else 0.0,
        "op_p50_s": statistics.median(phase.latencies) if phase.latencies else 0.0,
        "op_p90_s": p90(phase.latencies) if phase.latencies else 0.0,
        "peak_rss_mb": (own_kb + child_kb) / 1024.0,
    }
    units = dict(END_TO_END)
    extra = {"setups_s": setups, "latencies_s": phase.latencies, "jobs": phase.jobs}
    return phase, {name: {"value": metrics[name], "unit": units[name]} for name in metrics}, extra


def measure_traced(workload, args, prefix):
    """The per-layer run (``--trace 1``): untraced then traced halves."""
    import tracing

    half = args.seconds / 2.0
    state, _ = workload.setup(traced=False)
    untraced = workload.loop(state, half, None)
    workload.teardown(state)

    tracer = tracing.Tracer()
    state, _ = workload.setup(traced=True)
    uninstall = tracing.install(tracer)
    try:
        phase = workload.loop(state, half, tracer)
    finally:
        uninstall()
    workload.teardown(state)
    children = child_totals(workload.trace_files(state), prefix)
    metrics = layer_metrics(tracer, phase, untraced, children)
    tracer.dump(prefix + "-spans.json", extra={"children_totals": children})
    phase.attempted += untraced.attempted
    phase.failed += untraced.failed
    phase.problems = untraced.problems + phase.problems
    phase.outputs = untraced.outputs + phase.outputs
    phase.distinct.update(untraced.distinct)
    extra = {"untraced_latencies_s": untraced.latencies,
             "traced_latencies_s": phase.latencies}
    return phase, metrics, extra


def self_check():
    """The output check must flag one perturbed sample (a spec with a
    committed digest, so both the digest and the fresh reference path
    run)."""
    from repro.bench.runner import run_evaluation

    import verify
    from workloads import FleetSweep

    spec = FleetSweep.pass_spec(0, 0)
    references = verify.References()
    if verify.spec_key(spec.to_dict()) not in references.committed:
        print("self-check FAILED: no committed digest for the check's spec")
        return 1
    export = run_evaluation(spec).to_dict()
    canon = verify.canonical(export)
    clean = references.check(spec, canon, verify.digest(canon))
    perturbed = copy.deepcopy(export)
    sample = next(s for s in perturbed["samples"] if s["seconds"] is not None)
    sample["seconds"] = sample["seconds"] * (1.0 + 1e-12)
    canon = verify.canonical(perturbed)
    caught = references.check(spec, canon, verify.digest(canon))
    print("unperturbed output: %d difference(s)" % len(clean))
    print("one perturbed sample: %d difference(s)%s"
          % (len(caught), (": " + caught[0]) if caught else ""))
    ok = not clean and len(caught) == 1
    print("self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def write_digests(workload_classes):
    """Digests of the serial references for every spec seeds 0 to
    ``DIGEST_SEEDS - 1`` can submit."""
    import verify

    references = verify.References(committed={})
    table = {}
    for name, cls in sorted(workload_classes.items()):
        table[name] = {}
        for seed in range(DIGEST_SEEDS):
            for spec in cls.specs(seed):
                key = verify.spec_key(spec.to_dict())
                if key not in table[name]:
                    table[name][key] = verify.digest(references.compute(spec))
    with open(verify.DIGESTS_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d digests to %s"
          % (sum(len(entries) for entries in table.values()), verify.DIGESTS_PATH))
    return 0


def run_all(names, args):
    """Every workload, each in its own interpreter, then one table."""
    rows = []
    for name in names:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("%s: exited %d without a result" % (name, out.returncode))
            return 1
        rows.append((name, json.loads(lines[-1])))
    metric_names = sorted({metric for _, result in rows for metric in result["metrics"]})
    for name, result in rows:
        print("%s  (correct=%s, failed_ratio %.4g = %d/%d)"
              % (name, result["correct"], result["failed"] / result["attempted"],
                 result["failed"], result["attempted"]))
        for metric in metric_names:
            value = result["metrics"][metric]
            print("  %-28s %14.6g %s" % (metric, value["value"], value["unit"]))
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no program to benchmark: %s/repro is missing" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Context

    if args.self_check:
        return self_check()
    if args.write_digests:
        return write_digests(WORKLOADS)
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of: %s" % ", ".join(WORKLOADS))

    import verify

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-%s-" % args.workload, dir=OUT)
    ctx = Context(ROOT, args.seed, tmp)
    workload = WORKLOADS[args.workload](ctx)
    prefix = os.path.join(OUT, "%s-seed%d" % (args.workload, args.seed))
    try:
        if args.trace:
            phase, metrics, extra = measure_traced(workload, args, prefix)
        else:
            phase, metrics, extra = measure(workload, args)
        references = verify.References()
        check_outputs(phase, references)
    except Exception:  # noqa: BLE001 - no result line on a broken run
        traceback.print_exc()
        return 1
    finally:
        ctx.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)

    correct = phase.failed == 0
    result = {"correct": correct, "attempted": phase.attempted,
              "failed": phase.failed, "metrics": metrics}
    record = dict(result, provenance=provenance(workload, args),
                  problems=phase.problems,
                  failed_ratio=phase.failed / phase.attempted, detail=extra)
    with open("%s-trace%d.json" % (prefix, args.trace), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    stamp = record["provenance"]
    print("%s seed=%d trace=%d  python %s  numpy %s  nproc %s  git %s  src %s"
          % (workload.name, args.seed, args.trace, stamp["python"], stamp["numpy"],
             stamp["nproc"], (stamp["git_sha"] or "-")[:12], stamp["src_sha256"][:12]),
          file=sys.stderr)
    for name, metric in sorted(metrics.items()):
        print("  %-28s %14.6g %s" % (name, metric["value"], metric["unit"]), file=sys.stderr)
    print("  %-28s %14.6g ratio  (%d of %d operations failed)"
          % ("failed_ratio", record["failed_ratio"], phase.failed, phase.attempted),
          file=sys.stderr)
    for problem in record["problems"]:
        print("  problem: %s" % problem, file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
