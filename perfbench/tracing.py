"""In-memory spans around the public functions of each layer.

:class:`Tracer` keeps every span in memory (name, start, end, parent)
and writes them out only when the run ends.  :func:`install` wraps the
public functions named in ``README.md`` so each call records a span; it
returns a function that restores the originals.  Nothing here is
imported by the program under test: the wrappers are applied from the
benchmark's own code, around the calls into each layer.

A span opened on a thread with no open span (the scheduler's run
thread, say) is parented to the tracer's current operation root, so an
operation's layers add up even when the scheduler hands work to
another thread.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter


class Tracer(object):
    """Spans and counters for one traced phase of a run.

    A closed span is the tuple ``(id, name, start, end, parent id, root
    id)``; id 0 means "none".  Tuples of plain values leave the cyclic
    garbage collector nothing to traverse, so a long run's spans do not
    slow the program under test.
    """

    def __init__(self) -> None:
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # The open operation span that parentless spans on other threads
        # belong to.  Only the in-process workloads set it, and they
        # run one operation at a time.
        self.root = None
        # Guards the counters: a traced server bumps them from several
        # threads, and ``+=`` on a dict entry is not atomic.
        self._lock = threading.Lock()
        # (root id, counter name) -> value
        self.counts = defaultdict(float)
        # Per-root sets for the distinct-input counters.
        self.distinct = defaultdict(set)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if parent is None:
            parent_id = root_id = 0
        else:
            parent_id, root_id = parent[0], parent[4] or parent[0]
        opened = (next(self._ids), name, perf_counter(), parent_id, root_id)
        stack.append(opened)
        return opened[0]

    def _close(self):
        sid, name, start, parent, root = self._stack().pop()
        self.spans.append((sid, name, start, perf_counter(), parent, root))

    @contextmanager
    def span(self, name):
        """A span around a block; yields the span id."""
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close()

    @contextmanager
    def operation(self, name="op"):
        """The root span of one operation (sets :attr:`root`)."""
        with self.span(name) as sid:
            self.root = self._stack()[-1]
            try:
                yield sid
            finally:
                self.root = None

    def _current_root(self):
        stack = self._stack()
        top = stack[-1] if stack else self.root
        if top is None:
            return 0
        return top[4] or top[0]

    def count(self, name, n=1):
        key = (self._current_root(), name)
        with self._lock:
            self.counts[key] += n

    def add_distinct(self, name, item):
        key = (self._current_root(), name)
        with self._lock:
            self.distinct[key].add(item)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, on_call=None):
        """``fn`` recording one span per call; ``on_call(args, kwargs,
        result)`` may add counters (its own cost stays outside the span)."""
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name, fn):
        """A generator function whose every step is a span."""
        tracer = self

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                tracer._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close()
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- summaries ---------------------------------------------------------

    def _outermost(self):
        """Closed spans that have no ancestor of their own name (so a
        recursive call is not counted twice), with their durations."""
        info = {span[0]: (span[1], span[4]) for span in self.spans}
        for sid, name, start, end, parent, root in self.spans:
            ancestor = parent
            while ancestor and info.get(ancestor, (None,))[0] != name:
                ancestor = info.get(ancestor, (None, 0))[1]
            if not ancestor:
                yield sid, name, end - start, parent, root

    def per_root(self):
        """``{root id: {metric: value}}`` over every operation, in one
        pass: inclusive seconds per span name, the counters, and under
        ``".covered"`` the seconds of the root's direct child spans."""
        table = defaultdict(lambda: defaultdict(float))
        for sid, name, duration, parent, root in self._outermost():
            if root:
                table[root][name] += duration
        for sid, name, start, end, parent, root in self.spans:
            if parent and parent == root:
                table[root][".covered"] += end - start
        for (owner, name), value in self.counts.items():
            table[owner][name] += value
        for (owner, name), items in self.distinct.items():
            table[owner][name] += len(items)
        return table

    def totals(self):
        """Inclusive seconds per span name and the counters over every
        span (what a child process reports for its whole life)."""
        merged = defaultdict(float)
        for sid, name, duration, parent, root in self._outermost():
            merged[name] += duration
        for (owner, name), value in self.counts.items():
            merged[name] += value
        for (owner, name), items in self.distinct.items():
            merged[name] += len(items)
        return dict(merged)

    def dump(self, path, extra=None):
        """Write every span (with its self time) and the totals."""
        child_time = defaultdict(float)
        for sid, name, start, end, parent, root in self.spans:
            child_time[parent] += end - start
        rows = [
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "root": root,
             "self": end - start - child_time[sid]}
            for sid, name, start, end, parent, root in self.spans
        ]
        payload = {"spans": rows, "totals": self.totals()}
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _job_kind(job):
    if job.kind == "application":
        return dict(job.params)["app"]
    return job.kind


def install(tracer):
    """Wrap each layer's public functions; returns ``uninstall()``.

    The wrapped names are the bindings the program actually calls:
    ``build_platform`` and ``create_tool`` as bound in
    ``repro.core.measurements``, ``execute_job`` as bound in
    ``repro.core.executors`` (and ``repro.core.jobs``), and
    ``compress_strip`` as bound in ``repro.apps.jpeg.parallel``.
    """
    from repro.apps.jpeg import parallel as jpeg_parallel
    from repro.core import executors, jobs, measurements
    from repro.core.cache import ResultCache
    from repro.core.results import ResultSet
    from repro.core.spec import EvaluationSpec
    from repro.distributed.queue import JobQueue
    from repro.history.store import HistoryStore
    from repro.sim.kernel import Environment

    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    patch(EvaluationSpec, "iter_jobs",
          tracer.wrap_iter("spec.expand", EvaluationSpec.iter_jobs))

    probe = ResultCache.get_many

    def get_many(cache, jobs_iterable):
        wanted = list(jobs_iterable)
        tracer._open("cache.probe")
        try:
            found = probe(cache, wanted)
        finally:
            tracer._close()
        unique = len(set(wanted))
        tracer.count("cache.probe_calls")
        tracer.count("cache.hits", len(found))
        tracer.count("cache.misses", unique - len(found))
        return found

    patch(ResultCache, "get_many", get_many)
    patch(ResultCache, "store", tracer.wrap(
        "cache.store", ResultCache.store,
        lambda args, kwargs, result: tracer.count("cache.stores")))

    execute = jobs.execute_job

    def execute_job(job):
        tracer._open("jobs.exec." + _job_kind(job))
        try:
            return execute(job)
        finally:
            tracer._close()
            tracer.count("jobs.count")

    patch(jobs, "execute_job", execute_job)
    patch(executors, "execute_job", execute_job)
    patch(measurements, "build_platform", tracer.wrap(
        "hardware.build", measurements.build_platform,
        lambda args, kwargs, result: tracer.count("hardware.builds")))
    patch(measurements, "create_tool",
          tracer.wrap("tools.create", measurements.create_tool))
    patch(Environment, "run", tracer.wrap(
        "sim.kernel", Environment.run,
        lambda args, kwargs, result: tracer.count("sim.kernel_runs")))

    def strip_seen(args, kwargs, result):
        strip = args[0]
        quality = args[1] if len(args) > 1 else kwargs.get("quality")
        digest = hashlib.sha1(strip.tobytes()).hexdigest()
        tracer.count("apps.jpeg.strip_calls")
        tracer.add_distinct("apps.jpeg.strip_distinct",
                            (digest, strip.shape, quality))

    patch(jpeg_parallel, "compress_strip", tracer.wrap(
        "apps.jpeg.strip", jpeg_parallel.compress_strip, strip_seen))
    patch(ResultSet, "comparison",
          tracer.wrap("results.score", ResultSet.comparison))
    patch(ResultSet, "seed_statistics",
          tracer.wrap("results.score", ResultSet.seed_statistics))
    patch(HistoryStore, "record_result",
          tracer.wrap("history.record", HistoryStore.record_result))
    patch(JobQueue, "enqueue",
          tracer.wrap("distributed.enqueue", JobQueue.enqueue))

    def outcome_seen(args, kwargs, result):
        tracer.count("distributed.polls")
        if result is None:
            tracer.count("distributed.empty_polls")
        else:
            tracer.count("distributed.worker_wall_s",
                         float(result.get("wall_seconds") or 0.0))

    patch(JobQueue, "take_outcome", tracer.wrap(
        "distributed.take_outcome", JobQueue.take_outcome, outcome_seen))

    def uninstall():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return uninstall
