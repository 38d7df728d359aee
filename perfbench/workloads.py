"""The four workloads, each driven through the entry points users call.

A workload has a ``setup`` (fresh interpreters until the first
operation can be issued), a ``loop`` that issues operations until its
time is up, and a ``teardown``.  ``loop`` returns a :class:`Phase`: the
operation latencies, the jobs they served, failures, and the outputs to
check after the timed part.  No output check runs inside an
operation's timing.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import nullcontext

perf_counter = time.perf_counter

PLATFORMS = ("sun-ethernet", "sun-atm-lan", "alpha-fddi", "sp1-switch")
SHARDS = 4
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
TERMINAL = ("completed", "cancelled", "failed")


def sim_seeds(seed):
    """The simulation seeds a workload seed stands for."""
    return (3 * seed, 3 * seed + 1, 3 * seed + 2)


class Phase(object):
    """What one timed loop measured."""

    def __init__(self):
        self.latencies = []
        self.jobs = 0
        self.busy = 0.0  # seconds the throughput divides by
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # (spec key, output digest) per completed operation, checked
        # after the timed part against one kept copy per distinct output.
        self.outputs = []
        self.distinct = {}
        # (root span, latency, extra layer values) per traced operation
        self.op_layers = []

    def record(self, spec, export):
        """Keep an operation's output for the check after the timing."""
        from verify import canonical, digest, spec_key

        canon = canonical(export)
        key = (spec_key(spec.to_dict()), digest(canon))
        self.distinct.setdefault(key, (spec, canon))
        self.outputs.append(key)

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def seed_redundant(export):
    """Simulated jobs whose sample equals that of a simulated job of the
    same configuration at another seed: per configuration, jobs minus
    distinct samples."""
    simulated = set()
    for entry in export.get("telemetry", {}).get("jobs", []):
        if not entry["cache_hit"]:
            simulated.add(_config(entry) + (entry["seed"],))
    groups = defaultdict(list)
    for sample in export["samples"]:
        config = _config(sample)
        if config + (sample["seed"],) in simulated:
            groups[config].append(repr(sample["seconds"]))
    return sum(len(values) - len(set(values)) for values in groups.values())


def _config(entry):
    return (entry["kind"], entry["tool"], entry["platform"], entry["processors"],
            json.dumps(entry["params"], sort_keys=True), entry.get("noise", 0.0))


class Context(object):
    """One benchmark run: its seed, temporary paths and child processes."""

    def __init__(self, root, seed, tmp):
        self.root = root
        self.seed = seed
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.children = []
        self._dirs = 0

    def fresh_dir(self, name):
        self._dirs += 1
        path = os.path.join(self.tmp, "%s-%d" % (name, self._dirs))
        os.makedirs(path)
        return path

    def launch(self, args, log_path):
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable] + list(args), stdout=log,
                stderr=subprocess.STDOUT, env=self.env, cwd=self.root,
            )
        self.children.append(proc)
        return proc

    def run_child(self, args, log_path, timeout=120):
        proc = self.launch(args, log_path)
        # A blocking wait returns the moment the child exits (a wait
        # with a timeout polls, in steps of up to 50 ms); the timer
        # only guards against a hung child.
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            self.stop(proc)
        if code != 0:
            raise RuntimeError("child %s exited %s: %s"
                               % (args[:3], code, _tail(log_path)))

    def stop(self, proc, grace=30.0):
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.children:
            self.children.remove(proc)

    def stop_all(self):
        for proc in list(self.children):
            self.stop(proc, grace=10.0)


def _tail(path, lines=5):
    try:
        with open(path, "rb") as handle:
            return b" | ".join(handle.read().splitlines()[-lines:]).decode("utf-8", "replace")
    except OSError:
        return ""


def peak_rss_kb(pid):
    """A live child's peak resident set (VmHWM), in kB."""
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def _wait_for(predicate, proc_list, timeout, what):
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        for proc in proc_list:
            if proc.poll() is not None:
                raise RuntimeError("%s: child exited with %s" % (what, proc.returncode))
        if time.monotonic() > deadline:
            raise RuntimeError("%s: not ready after %ss" % (what, timeout))
        time.sleep(0.005)


class Workload(object):
    name = ""
    why = ""
    #: Set-ups per measured run; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, ctx):
        self.ctx = ctx

    def setup(self, traced):
        """Returns ``(state, seconds)``."""
        raise NotImplementedError

    def loop(self, state, seconds, tracer):
        raise NotImplementedError

    def teardown(self, state):
        """Stops children; returns their peak RSS in kB (summed)."""
        return 0.0

    def trace_files(self, state):
        """Span files the traced children wrote (after teardown)."""
        return []

    @classmethod
    def specs(cls, seed):
        """Every spec a run with this workload seed submits (for a run
        of ordinary length), for ``digests.json``."""
        raise NotImplementedError


class _InProcess(Workload):
    """Shared loop for workloads whose operations run in this process."""

    #: Modules the first operation needs (imported by the set-up child).
    modules = ("repro.bench.runner", "repro.core.spec", "repro.core.measurements",
               "repro.core.scheduler")

    def setup(self, traced):
        start = perf_counter()
        self.ctx.run_child([CHILD, "ready"] + list(self.modules),
                           os.path.join(self.ctx.tmp, "ready.log"))
        return None, perf_counter() - start

    def operation(self, state, tracer):
        """Run one operation; returns ``(spec, output, jobs)`` where the
        output is a ``ResultSet`` or its export."""
        raise NotImplementedError

    def loop(self, state, seconds, tracer):
        phase = Phase()
        deadline = perf_counter() + seconds
        while not phase.attempted or perf_counter() < deadline:
            phase.attempted += 1
            scope = tracer.operation() if tracer is not None else nullcontext()
            start = perf_counter()
            try:
                with scope as root:
                    spec, output, jobs = self.operation(state, tracer)
            except Exception as error:  # noqa: BLE001 - counted, run goes on
                phase.fail("%s: %s" % (type(error).__name__, error))
                continue
            finally:
                latency = perf_counter() - start
            phase.latencies.append(latency)
            phase.busy += latency
            phase.jobs += jobs
            self.after(state)
            export = output if isinstance(output, dict) else output.to_dict()
            phase.record(spec, export)
            if tracer is not None:
                phase.op_layers.append(
                    (root, latency, {"jobs.seed_redundant": seed_redundant(export)}))
        return phase

    def after(self, state):
        """Clean-up between operations (outside the timing)."""


class PaperGridCold(_InProcess):
    name = "paper_grid_cold"
    why = ("simulation does almost all the work (jobs, hardware, tools, sim, net, apps) "
           "and the disk cache is written on every job; seed collapse, JPEG and kernel work show here")

    @staticmethod
    def spec(seed):
        from repro.core.spec import EvaluationSpec

        return EvaluationSpec(platforms=PLATFORMS, seeds=sim_seeds(seed))

    def operation(self, state, tracer):
        from repro.bench.runner import run_evaluation

        spec = self.spec(self.ctx.seed)
        self._cache_dir = self.ctx.fresh_dir("cold-cache")
        result = run_evaluation(spec, cache_dir=self._cache_dir, shards=SHARDS)
        return spec, result, spec.job_count()

    def after(self, state):
        shutil.rmtree(self._cache_dir, ignore_errors=True)

    @classmethod
    def specs(cls, seed):
        return [cls.spec(seed)]


class ResweepWarm(_InProcess):
    name = "resweep_warm"
    why = ("no simulation: the warm disk cache read, scoring, export and history do all the work; "
           "catches a simulation-side change, such as a cache key, that costs the read path")

    modules = _InProcess.modules + ("repro.history.store",)
    setup_repeats = 3  # each one is a full cold fill

    @staticmethod
    def spec(seed):
        from repro.core.spec import EvaluationSpec
        from repro.core.weights import PRESET_PROFILES

        return EvaluationSpec(platforms=PLATFORMS, seeds=sim_seeds(seed),
                              profiles=tuple(PRESET_PROFILES))

    def setup(self, traced):
        spec_path = os.path.join(self.ctx.tmp, "resweep-spec.json")
        with open(spec_path, "w") as handle:
            handle.write(self.spec(self.ctx.seed).to_json())
        cache_dir = self.ctx.fresh_dir("warm-cache")
        start = perf_counter()
        self.ctx.run_child([CHILD, "fill", cache_dir, spec_path],
                           os.path.join(self.ctx.tmp, "fill.log"))
        return cache_dir, perf_counter() - start

    def operation(self, cache_dir, tracer):
        from repro.bench.runner import run_evaluation
        from repro.history.store import HistoryStore

        spec = self.spec(self.ctx.seed)
        result = run_evaluation(spec, cache_dir=cache_dir, shards=SHARDS)
        result.comparison(stats=True)
        with tracer.span("export") if tracer is not None else nullcontext():
            export = result.to_dict()
            text = json.dumps(export, sort_keys=True)
        if tracer is not None:
            tracer.count("export.bytes", len(text))
        self._db = os.path.join(self.ctx.fresh_dir("history"), "history.db")
        with HistoryStore(self._db) as history:
            history.record_result(export, label="resweep", source="bench")
        return spec, export, spec.job_count()

    def after(self, state):
        shutil.rmtree(os.path.dirname(self._db), ignore_errors=True)

    def teardown(self, cache_dir):
        shutil.rmtree(cache_dir, ignore_errors=True)
        return 0.0

    @classmethod
    def specs(cls, seed):
        return [cls.spec(seed)]


class ServiceMixed(Workload):
    name = "service_mixed"
    why = ("two HTTP users taking turns, 30% first-time and 70% repeated specs: the HTTP front, "
           "admission, run store and history store; p50 tracks the warm path, p90 the cold one")

    users = 2
    #: Rounds (of every ten) that submit first-time specs.
    cold_rounds = (0, 3, 7)

    @staticmethod
    def cold_spec(seed, index):
        """The ``index``-th first-time spec: one platform, one seed."""
        from repro.core.spec import EvaluationSpec

        return EvaluationSpec(platforms=(PLATFORMS[index % len(PLATFORMS)],),
                              seeds=(3 * seed + index // len(PLATFORMS),))

    @classmethod
    def specs(cls, seed):
        return [cls.cold_spec(seed, index) for index in range(64)]

    def setup(self, traced):
        ctx = self.ctx
        base = ctx.fresh_dir("service")
        log = os.path.join(base, "server.log")
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--db", os.path.join(base, "runs.db"),
                "--cache-dir", os.path.join(base, "cache"),
                "--history-db", os.path.join(base, "history.db")]
        trace_path = os.path.join(base, "server-trace.json") if traced else None
        start = perf_counter()
        if traced:
            proc = ctx.launch([CHILD, "trace", trace_path] + args, log)
        else:
            proc = ctx.launch(["-m", "repro"] + args, log)

        def port():
            with open(log) as handle:
                for line in handle:
                    if line.startswith("serving on http://"):
                        return int(line.rsplit(":", 1)[1])
            return None

        number = _wait_for(port, [proc], 60.0, "repro serve")
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        client = ServiceClient("127.0.0.1", number, timeout=30.0)

        def healthy():
            try:
                return client.health().get("status") == "ok"
            except ServiceError:
                return False

        _wait_for(healthy, [proc], 60.0, "repro serve health")
        seconds = perf_counter() - start
        return {"proc": proc, "port": number, "trace": trace_path}, seconds

    def teardown(self, state):
        rss = peak_rss_kb(state["proc"].pid)
        self.ctx.stop(state["proc"])
        return rss

    def trace_files(self, state):
        return [state["trace"]] if state["trace"] else []

    def loop(self, state, seconds, tracer):
        """The users take turns, one operation at a time, in rounds of
        one submission each.  Rounds 0, 3 and 7 of every ten submit
        first-time (cold) specs and the rest repeat finished ones, so
        the median sits on the warm path and p90 on the cold one.  The
        users do not overlap: on a 2-CPU machine shared with other load,
        overlapping runs made the median swing 2-3x from run to run."""
        from repro.service.client import ServiceClient

        phase = Phase()
        clients = [ServiceClient("127.0.0.1", state["port"], user="user%d" % number)
                   for number in range(self.users)]
        finished = []  # cold indices whose first run completed
        results = []  # (spec, exported result), recorded after the timing
        cold = warm = rounds = 0
        deadline = perf_counter() + seconds
        while not phase.attempted or perf_counter() < deadline:
            if rounds % 10 in self.cold_rounds or not finished:
                indices = [self.users * cold + number for number in range(self.users)]
                cold += 1
            else:
                indices = [finished[(self.users * warm + number) % len(finished)]
                           for number in range(self.users)]
                warm += 1
            rounds += 1
            for client, index in zip(clients, indices):
                phase.attempted += 1
                spec = self.cold_spec(self.ctx.seed, index)
                try:
                    record, latency, stale, root = self.operation(client, spec, tracer)
                except Exception as error:  # noqa: BLE001 - counted, run goes on
                    phase.fail("%s: %s" % (type(error).__name__, error))
                    continue
                phase.latencies.append(latency)
                phase.busy += latency
                if record["state"] != "completed":
                    phase.fail("run %s ended %s: %s"
                               % (record["run_id"], record["state"], record.get("error")))
                    continue
                phase.jobs += spec.job_count()
                if index not in finished:
                    finished.append(index)
                results.append((spec, record["result"]))
                if tracer is not None:
                    phase.op_layers.append((root, latency, {
                        "service.stale_reads": stale,
                        "service.record_bytes": len(json.dumps(record)),
                        "service.admit_wait_s": record["started_at"] - record["created_at"],
                        "service.run_wall_s": record["wall_seconds"],
                        "service.persist_lag_s": (record["finished_at"] - record["started_at"]
                                                  - record["wall_seconds"]),
                    }))
        for spec, export in results:
            phase.record(spec, export)
        return phase

    @staticmethod
    def operation(client, spec, tracer):
        """Submit, follow SSE to ``RunCompleted``, then fetch the record
        until it is terminal with results.  Returns ``(record, latency,
        stale reads, root span)``."""
        from repro.core.progress import RunCompleted

        def span(name):
            return tracer.span(name) if tracer is not None else nullcontext()

        stale = 0
        start = perf_counter()
        with span("op") as root:
            with span("service.submit"):
                run_id = client.submit(spec)
            with span("service.stream"):
                for event in client.events(run_id):
                    if isinstance(event, RunCompleted):
                        break
            while True:
                with span("service.fetch"):
                    record = client.run(run_id)
                if record["state"] in TERMINAL and (
                        record["state"] != "completed" or record.get("result")):
                    break
                # Announced but not yet persisted: a stale read.
                stale += 1
                time.sleep(0.002)
        return record, perf_counter() - start, stale, root


class FleetSweep(Workload):
    name = "fleet_sweep"
    why = ("two repro worker processes and a remote-backend coordinator: the distributed queue "
           "(ticket writes, claims, outcome pickup, poll sleeps) does most of the work")

    workers = 2

    @staticmethod
    def pass_spec(seed, index):
        """Small TPL-heavy grid; every pass gets its own simulation seed
        so the shared cache never serves it."""
        from repro.core.spec import EvaluationSpec

        return EvaluationSpec(
            platforms=PLATFORMS, seeds=(3 * seed + index,),
            tpl_sizes=(256, 4096, 65536), global_sum_ints=1000, apps=("montecarlo",),
            app_params={"montecarlo": {"samples": 5000}},
        )

    @classmethod
    def specs(cls, seed):
        return [cls.pass_spec(seed, index) for index in range(24)]

    def setup(self, traced):
        from repro.distributed.queue import JobQueue

        ctx = self.ctx
        base = ctx.fresh_dir("fleet")
        queue_dir = os.path.join(base, "queue")
        cache_dir = os.path.join(base, "cache")
        procs, traces = [], []
        start = perf_counter()
        for number in range(self.workers):
            args = ["worker", "--queue", queue_dir, "--cache-dir", cache_dir,
                    "--shards", str(SHARDS)]
            log = os.path.join(base, "worker%d.log" % number)
            if traced:
                traces.append(os.path.join(base, "worker%d-trace.json" % number))
                procs.append(ctx.launch([CHILD, "trace", traces[-1]] + args, log))
            else:
                procs.append(ctx.launch(["-m", "repro"] + args, log))

        def beacons():
            if not os.path.isdir(os.path.join(queue_dir, "workers")):
                return False
            return len(JobQueue(queue_dir).live_workers()) >= self.workers

        _wait_for(beacons, procs, 60.0, "repro worker beacons")
        seconds = perf_counter() - start
        return {"procs": procs, "queue": queue_dir, "cache": cache_dir,
                "traces": traces, "passes": 0}, seconds

    def teardown(self, state):
        rss = sum(peak_rss_kb(proc.pid) for proc in state["procs"])
        for proc in state["procs"]:
            self.ctx.stop(proc)
        return rss

    def trace_files(self, state):
        return state["traces"]

    def loop(self, state, seconds, tracer):
        from repro.core.scheduler import Scheduler, create_executor

        phase = Phase()
        deadline = perf_counter() + seconds
        while not phase.attempted or perf_counter() < deadline:
            phase.attempted += 1
            spec = self.pass_spec(self.ctx.seed, state["passes"])
            state["passes"] += 1
            scope = tracer.operation() if tracer is not None else nullcontext()
            start = perf_counter()
            try:
                with scope as root:
                    # What run_evaluation(backend="remote", jobs=2) and
                    # `repro evaluate --backend remote --queue` build.
                    with Scheduler(
                        executor=create_executor(2, backend="remote",
                                                 queue_dir=state["queue"]),
                        cache_dir=state["cache"], shards=SHARDS,
                    ) as scheduler:
                        result = scheduler.run(spec)
            except Exception as error:  # noqa: BLE001 - counted, run goes on
                phase.fail("%s: %s" % (type(error).__name__, error))
                continue
            finally:
                latency = perf_counter() - start
            phase.latencies.append(latency)
            phase.busy += latency
            phase.jobs += spec.job_count()
            export = result.to_dict()
            phase.record(spec, export)
            if tracer is not None:
                phase.op_layers.append(
                    (root, latency, {"jobs.seed_redundant": seed_redundant(export)}))
        return phase


WORKLOADS = {cls.name: cls for cls in (PaperGridCold, ResweepWarm, ServiceMixed, FleetSweep)}
