"""Distributed execution: a coordinator fanning a sweep over a worker
fleet, surviving a SIGKILLed worker mid-run.

``repro evaluate --backend remote --queue DIR`` (or a
``RemoteExecutor`` in code, as here) does no simulation itself: it
publishes chunks of ``MeasurementJob``s as tickets in an on-disk
queue and streams outcomes back as ``repro worker`` processes claim,
execute and complete them through the shared content-addressed cache.
The demo walks the whole story:

1. create a **sharded cache** first — ``manifest.json`` records the
   shard roster, so every later opener (the workers below pass no
   ``--shards`` at all) adopts the same routing instead of drifting,
2. boot two real ``repro worker`` subprocesses against the queue,
3. run a sweep through ``Scheduler.start`` + ``RemoteExecutor`` and
   follow the live event stream,
4. **SIGKILL one worker mid-run**: its in-flight lease stops
   heartbeating, goes stale, and is reclaimed — the surviving worker
   re-runs the lost ticket, simulating only the jobs the dead worker
   had not stored, and the sweep still completes with every job
   accounted for,
5. re-run the same spec over the same cache directory: zero
   simulations, no fleet needed — the measurements are durable.

Run with::

    PYTHONPATH=src python examples/distributed_sweep.py
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile

from repro.core.cache import ResultCache
from repro.core.progress import CacheHit, JobFinished, RunCompleted
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec
from repro.distributed import RemoteExecutor

#: ~100 ms of simulation per job: slow enough that the SIGKILL below
#: almost certainly catches worker-1 holding a claim.
SPEC = EvaluationSpec(
    tools=("p4", "express", "pvm", "mpi"),
    tpl_sizes=(1048576,),
    global_sum_ints=20_000,
    apps=("matmul",),
    app_params={"matmul": {"n": 96}},
)

#: Kill worker-1 after this many finished jobs.
KILL_AFTER = 4

#: Seconds without a heartbeat before a claim is reclaimable.  Short,
#: so the demo shows the reclaim instead of waiting on it.
LEASE_TIMEOUT = 1.5


def start_worker(name, queue_dir, cache_dir, workspace):
    """Boot one ``repro worker``; stdout goes to ``<name>.log``."""
    log_path = os.path.join(workspace, name + ".log")
    log = open(log_path, "w")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--queue", queue_dir, "--cache-dir", cache_dir,
         "--worker-id", name, "--poll", "0.05",
         "--lease-timeout", str(LEASE_TIMEOUT)],
        stdout=log, stderr=subprocess.STDOUT, text=True,
        env=dict(os.environ),
    )
    return process, log_path


def worker_jobs(log_path):
    """The jobs (``<ticket>/<index>``) a worker's log claims it
    completed."""
    with open(log_path) as handle:
        return re.findall(r"ticket=(\S+)", handle.read())


def main() -> None:
    workspace = tempfile.mkdtemp(prefix="repro-distributed-")
    queue_dir = os.path.join(workspace, "queue")
    cache_dir = os.path.join(workspace, "cache")
    workers = {}
    try:
        # -- 1: the shard roster is decided once, up front -------------
        print("creating the shared cache (2 shards, recorded in manifest.json):")
        ResultCache.on_disk(cache_dir, shards=2)
        print("  %s" % sorted(os.listdir(cache_dir)))

        # -- 2: boot the fleet -----------------------------------------
        print()
        print("booting two repro worker processes (no --shards passed:")
        print("they adopt the recorded roster):")
        logs = {}
        for name in ("worker-1", "worker-2"):
            workers[name], logs[name] = start_worker(
                name, queue_dir, cache_dir, workspace)
            print("  %s pid=%d" % (name, workers[name].pid))

        # -- 3 + 4: sweep, and murder a worker mid-flight --------------
        print()
        print("running a %d-job sweep through the remote backend:"
              % SPEC.job_count())
        executor = RemoteExecutor(
            queue_dir=queue_dir, max_workers=2, poll_interval=0.02,
            timeout=120.0, lease_timeout=LEASE_TIMEOUT,
        )
        scheduler = Scheduler(executor=executor, cache_dir=cache_dir)
        handle = scheduler.start(SPEC)
        finished = 0
        terminal = None
        for event in handle.events():
            if isinstance(event, (JobFinished, CacheHit)):
                finished += 1
                kind = "hit" if isinstance(event, CacheHit) else "sim"
                print("  [%2d/%2d] %s %s"
                      % (finished, SPEC.job_count(), kind,
                         event.job.short_label()))
                if finished == KILL_AFTER and workers["worker-1"].poll() is None:
                    print("  -> SIGKILL worker-1: its lease goes stale and is"
                          " reclaimed after %.1fs" % LEASE_TIMEOUT)
                    workers["worker-1"].kill()
            elif isinstance(event, RunCompleted):
                terminal = event
        result = handle.result()
        print("  done: %d jobs, %d simulated, %d cache hits"
              % (terminal.total, terminal.simulated, terminal.cache_hits))
        assert terminal.total == SPEC.job_count()
        assert terminal.simulated + terminal.cache_hits == terminal.total
        assert result.values  # scored reports exist

        # -- wind the fleet down and show who did what -----------------
        print()
        print("stopping worker-2 with SIGTERM and reading the logs:")
        workers["worker-2"].send_signal(signal.SIGTERM)
        for name, process in workers.items():
            process.wait(timeout=30)
        split = {name: worker_jobs(path) for name, path in logs.items()}
        for name, jobs in sorted(split.items()):
            print("  %s completed %2d job(s)" % (name, len(jobs)))
        unique = set(split["worker-1"]) | set(split["worker-2"])
        print("  %d unique jobs across both logs (the killed worker's"
              " lost claim re-ran on the survivor)" % len(unique))

        # -- 5: the measurements outlive the fleet ---------------------
        print()
        print("re-running the same spec over the same cache, fleet gone:")
        warm = Scheduler(cache_dir=cache_dir)  # adopts the 2-shard roster
        warm_result = warm.run(SPEC)
        print("  %d simulations, %d cache hits"
              % (warm.simulations_run, warm.cache.hits))
        assert warm.simulations_run == 0
        assert warm_result.values == result.values
        print()
        print("every measurement ran on the fleet exactly once and is"
              " durable in %s" % cache_dir)
    finally:
        for process in workers.values():
            if process.poll() is None:
                process.kill()
        shutil.rmtree(workspace, ignore_errors=True)


if __name__ == "__main__":
    main()
