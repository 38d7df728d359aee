"""The run store: every run, its lifecycle and results (SQLite, WAL).

One row per run — its state, the full :class:`~repro.core.results.ResultSet`
export JSON and provenance (spec hash, git SHA, timestamps,
noise/backend, who asked for it) — and three denormalized
tables the analytics layer aggregates **in SQL**:

* ``samples`` — one row per measurement, keyed by the spec cell
  ``(platform, tool, kind, size, seed)`` (plus the full canonical
  params and processor count, which complete the cell identity).  The
  diff engine and trend queries read these.
* ``scores`` — one row per (platform, profile, tool) statistics cell:
  the mean overall score across the run's seeds.  Leaderboards rank
  over these.
* ``metrics`` — flattened ``BENCH_*.json`` metric paths for bench-type
  runs, so the perf trajectory and the evaluation history live in one
  database (``scripts/bench_report.py --history-db``).

:meth:`HistoryStore.record_result` and :meth:`HistoryStore.record_bench`
insert a finished run.  The evaluation service (``repro serve``)
creates a ``queued`` row per submission and moves it along the state
machine ::

    queued ──> running ──> completed
       │          ├──────> cancelled
       │          └──────> failed
       └───────> cancelled

with :meth:`~HistoryStore.transition`, which refuses illegal moves
(:class:`~repro.errors.ServiceError`); ``queued -> failed`` lets
:meth:`~HistoryStore.recover` reconcile a crashed server's orphans.
A ``completed`` transition writes the state, payload, provenance,
samples and scores in one transaction, through the row builder
:meth:`record_result` uses.  Cancelled runs keep their partial payload
without sample or score rows; failed runs get neither.  A row is
immutable once terminal.  History views (:meth:`list_runs`,
:meth:`resolve`, and through them diffs, leaderboards and analyses)
see only ``completed`` runs; the service's views (:meth:`service_run`,
:meth:`service_runs`) only the rows the service created.

One connection serialized behind a lock, WAL so readers never block
the writer (the service's watcher threads write while the HTTP
handlers read).  ``PRAGMA user_version`` stamps the schema generation;
opening a database written by a different generation, or one this
module did not create, raises :class:`~repro.errors.HistoryError`
instead of silently misreading rows — history is the one artifact that
must never be quietly reinterpreted.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import subprocess
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import HistoryError, ServiceError

__all__ = [
    "SCHEMA_VERSION",
    "RUN_KINDS",
    "RUN_STATES",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
    "HistoryStore",
    "current_git_sha",
    "flatten_metrics",
    "spec_hash",
]

#: Schema generation stamped into ``PRAGMA user_version``.  Bump this
#: when the tables change shape; old databases are then refused with a
#: message naming both generations (the migration path is deliberate:
#: re-record, or migrate offline — never guess).
SCHEMA_VERSION = 2

#: What a recorded run can be: a full evaluation export, or a
#: ``BENCH_*.json`` benchmark report.
RUN_KINDS = ("evaluation", "bench")

#: Every state a run can be in, in lifecycle order.
RUN_STATES = ("queued", "running", "completed", "cancelled", "failed")

#: States with no successor: the run is over.
TERMINAL_STATES = frozenset(("completed", "cancelled", "failed"))

#: The state machine: current state -> the states it may move to.
VALID_TRANSITIONS = {
    "queued": frozenset(("running", "cancelled", "failed")),
    "running": frozenset(("completed", "cancelled", "failed")),
    "completed": frozenset(),
    "cancelled": frozenset(),
    "failed": frozenset(),
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id       TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    label        TEXT,
    source       TEXT NOT NULL,
    recorded_at  REAL NOT NULL,
    user         TEXT,
    state        TEXT NOT NULL,
    error        TEXT,
    created_at   REAL,
    started_at   REAL,
    finished_at  REAL,
    git_sha      TEXT,
    spec_hash    TEXT,
    spec_json    TEXT,
    engine       TEXT,  -- no longer written; older runs hold "event"
    backend      TEXT,
    noise        REAL NOT NULL DEFAULT 0,
    simulated    INTEGER,
    cache_hits   INTEGER,
    wall_seconds REAL,
    payload_json TEXT
);
CREATE INDEX IF NOT EXISTS runs_by_time ON runs (recorded_at, run_id);
CREATE INDEX IF NOT EXISTS runs_by_user ON runs (user, created_at);
CREATE TABLE IF NOT EXISTS samples (
    run_id     TEXT NOT NULL,
    platform   TEXT NOT NULL,
    tool       TEXT NOT NULL,
    kind       TEXT NOT NULL,
    size       INTEGER,
    params     TEXT NOT NULL,
    processors INTEGER NOT NULL,
    seed       INTEGER NOT NULL,
    seconds    REAL
);
CREATE INDEX IF NOT EXISTS samples_by_run ON samples (run_id);
CREATE INDEX IF NOT EXISTS samples_by_cell
    ON samples (platform, tool, kind, size, seed);
CREATE TABLE IF NOT EXISTS scores (
    run_id   TEXT NOT NULL,
    platform TEXT NOT NULL,
    profile  TEXT NOT NULL,
    tool     TEXT NOT NULL,
    mean     REAL NOT NULL,
    stddev   REAL NOT NULL,
    n        INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS scores_by_run ON scores (run_id);
CREATE TABLE IF NOT EXISTS metrics (
    run_id TEXT NOT NULL,
    path   TEXT NOT NULL,
    value  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS metrics_by_run ON metrics (run_id);
"""

#: The columns of a service run record (``GET /api/runs/{id}``), with
#: ``spec_json``/``payload_json`` parsed into ``spec``/``result``.
_SERVICE_COLUMNS = ("run_id, user, spec_json, spec_hash, state, error,"
                    " created_at, started_at, finished_at, simulated,"
                    " cache_hits, wall_seconds, payload_json")

#: Sample params whose value is the cell's "size" axis, in lookup
#: order (a sendrecv/broadcast/ring job has ``nbytes``, a global sum
#: has ``vector_ints``; applications have neither and store NULL).
_SIZE_PARAMS = ("nbytes", "vector_ints")


def spec_hash(spec_dict: dict) -> str:
    """Content address of a spec: SHA-256 over its canonical JSON.

    Two submissions of the same grid share the hash (the service's
    "is this a resubmission?" signal), mirroring how
    :func:`~repro.core.cache.job_key` addresses individual jobs.
    """
    payload = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def current_git_sha(short: bool = True) -> Optional[str]:
    """The working tree's HEAD commit, or ``None`` outside a checkout.

    Recording provenance must never make recording fail: any git
    breakage (no binary, not a repo, fresh repo without commits) reads
    as "unknown".
    """
    cmd = ["git", "rev-parse", "--short", "HEAD"] if short else [
        "git", "rev-parse", "HEAD"]
    try:
        sha = subprocess.run(
            cmd, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return sha or None
    except (OSError, subprocess.SubprocessError):
        return None


def flatten_metrics(node: Any, prefix: Tuple[str, ...] = ()) -> Dict[str, float]:
    """Flatten a benchmark report's nested numbers to dotted paths.

    Matches ``scripts/bench_report.py``'s view of a report (sorted
    keys, numbers only, booleans excluded) so the metric paths stored
    here diff cleanly against the paths the CI gate enforces.
    """
    out: Dict[str, float] = {}
    if isinstance(node, dict):
        for key in sorted(node):
            out.update(flatten_metrics(node[key], prefix + (key,)))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[".".join(prefix)] = float(node)
    return out


def _sample_row(sample: Dict[str, Any], encoded: Dict[str, Tuple]) -> Tuple:
    """One ``samples`` row.  A grid repeats a handful of distinct params
    across hundreds of samples, so ``encoded`` keeps each distinct
    params value's columns.  Params with equal ``repr`` encode to
    equal JSON, which makes the repr a safe key (``1`` and ``1.0``, or
    ``0.0`` and ``-0.0``, differ in both)."""
    params = dict(sample.get("params") or {})
    key = repr(params)
    if key not in encoded:
        size = None
        for name in _SIZE_PARAMS:
            if name in params:
                size = int(params[name])
                break
        encoded[key] = (size, json.dumps(params, sort_keys=True, separators=(",", ":")))
    size, params_json = encoded[key]
    return (
        sample["platform"],
        sample["tool"],
        sample["kind"],
        size,
        params_json,
        int(sample.get("processors") or 0),
        int(sample.get("seed") or 0),
        sample.get("seconds"),
    )


def _evaluation_rows(
    export: Dict[str, Any],
    backend: Optional[str] = None,
) -> Tuple[Dict[str, Any], List[Tuple], List[Tuple]]:
    """An evaluation export (see :meth:`HistoryStore.record_result`) as
    the ``runs`` fields it fills, its ``samples`` rows and its
    ``scores`` rows, each without the run id."""
    if not isinstance(export, dict) or not isinstance(export.get("spec"), dict):
        raise HistoryError(
            "not a results export (no 'spec' object) — record the JSON "
            "written by `repro evaluate --json` or ResultSet.to_dict()"
        )
    if not isinstance(export.get("samples"), list):
        raise HistoryError(
            "not a results export (no 'samples' list) — a spec alone "
            "records nothing worth diffing"
        )
    spec = export["spec"]
    telemetry = export.get("telemetry") or {}
    summary = telemetry.get("summary") or {}
    if backend is None:
        executors = summary.get("executors")
        backend = ",".join(executors) if executors else None
    fields = {
        "spec_hash": spec_hash(spec),
        "backend": backend,
        "noise": float(spec.get("noise", 0.0)),
        "simulated": summary.get("simulated"),
        "cache_hits": summary.get("cache_hits"),
        "wall_seconds": summary.get("total_wall_seconds"),
        "payload_json": json.dumps(export, sort_keys=True),
    }
    encoded: Dict[str, Tuple] = {}
    sample_rows = [_sample_row(sample, encoded) for sample in export["samples"]]
    score_rows = []
    for cell, tools in sorted((export.get("statistics") or {}).items()):
        platform, _, profile = cell.partition("/")
        for tool, stats in sorted(tools.items()):
            score_rows.append((
                platform, profile, tool,
                float(stats["mean"]), float(stats.get("stddev", 0.0)),
                int(stats.get("n", 1)),
            ))
    return fields, sample_rows, score_rows


class HistoryStore(object):
    """The one run store: service lifecycle, history and SQL-side
    aggregation views over one SQLite database.

    One store may be shared by the CLI, the bench scripts and one
    service process; every method is thread-safe.  A row never changes
    once its state is terminal (delete rows with sqlite3 if you must,
    but nothing in the repo ever will).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        # Single connection, serialized by our lock: check_same_thread
        # off is safe because no two threads ever use it concurrently.
        try:
            connection = sqlite3.connect(path, check_same_thread=False)
        except sqlite3.Error as error:
            raise HistoryError("cannot open %s (%s)" % (path, error))
        self._db = connection  # guarded-by: _lock
        self._db.row_factory = sqlite3.Row
        self.recorded = 0  # guarded-by: _lock
        self.reads = 0  # guarded-by: _lock
        with self._lock:
            try:
                self._open_locked()
            except sqlite3.DatabaseError as error:
                self._db.close()
                raise HistoryError("cannot open %s (%s)" % (path, error))
            except HistoryError:
                self._db.close()
                raise

    def _open_locked(self) -> None:
        version = self._db.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, SCHEMA_VERSION):
            raise HistoryError(
                "%s was written by history schema v%d; this build reads "
                "v%d — refusing to reinterpret it (re-record into a "
                "fresh database, or migrate offline)"
                % (self.path, version, SCHEMA_VERSION)
            )
        if version == 0 and self._db.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table'"
        ).fetchone():
            raise HistoryError(
                "%s holds tables this build did not create (no history "
                "schema stamp) — refusing to reinterpret it; point --db "
                "at a fresh file" % self.path
            )
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        self._db.execute("PRAGMA user_version=%d" % SCHEMA_VERSION)
        self._db.commit()

    # -- row plumbing --------------------------------------------------

    def _insert_locked(self, fields: Dict[str, Any]) -> None:
        self._db.execute(
            "INSERT INTO runs (%s) VALUES (%s)"
            % (", ".join(fields), ", ".join("?" for _ in fields)),
            tuple(fields.values()),
        )

    def _add_cells_locked(
        self, run_id: str, sample_rows: List[Tuple], score_rows: List[Tuple],
    ) -> None:
        self._db.executemany(
            "INSERT INTO samples (run_id, platform, tool, kind, size,"
            " params, processors, seed, seconds)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [(run_id,) + row for row in sample_rows],
        )
        self._db.executemany(
            "INSERT INTO scores (run_id, platform, profile, tool, mean,"
            " stddev, n) VALUES (?, ?, ?, ?, ?, ?, ?)",
            [(run_id,) + row for row in score_rows],
        )

    def _fresh_id_locked(self) -> str:
        run_id = uuid.uuid4().hex[:12]
        while self._db.execute(
            "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone():  # pragma: no cover - astronomically rare
            run_id = uuid.uuid4().hex[:12]
        return run_id

    # -- recording -----------------------------------------------------

    def record_result(
        self,
        export: Dict[str, Any],
        label: Optional[str] = None,
        source: str = "api",
        git_sha: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> str:
        """Record one finished evaluation; returns its generated run id.

        ``export`` is :meth:`ResultSet.to_dict` output (or the parsed
        JSON a ``repro evaluate --json`` run wrote): ``spec`` and
        ``samples`` are required, ``statistics`` feeds the scores
        table, ``telemetry`` (when present) supplies the counters and
        provenance defaults.
        """
        fields, sample_rows, score_rows = _evaluation_rows(export, backend)
        fields.update(kind="evaluation", label=label, source=source,
                      state="completed", recorded_at=time.time(),
                      git_sha=git_sha)
        with self._lock:
            with self._db:  # one transaction: the row and its cells
                run_id = self._fresh_id_locked()
                self._insert_locked(dict(fields, run_id=run_id))
                self._add_cells_locked(run_id, sample_rows, score_rows)
            self.recorded += 1
        return run_id

    def record_bench(
        self,
        report: Dict[str, Any],
        label: Optional[str] = None,
        source: str = "bench",
        git_sha: Optional[str] = None,
    ) -> str:
        """Record one ``BENCH_*.json`` benchmark report.

        Metrics flatten to the same dotted paths
        ``scripts/bench_report.py`` compares, so a metric's trajectory
        can be queried straight out of the ``metrics`` table.
        """
        if not isinstance(report, dict) or not isinstance(report.get("metrics"), dict):
            raise HistoryError(
                "not a benchmark report (no 'metrics' mapping) — record a "
                "BENCH_*.json written by the benchmark scripts"
            )
        metrics = flatten_metrics({"metrics": report["metrics"]})
        if label is None:
            label = report.get("benchmark")
        with self._lock:
            with self._db:
                run_id = self._fresh_id_locked()
                self._insert_locked({
                    "run_id": run_id, "kind": "bench", "label": label,
                    "source": source, "recorded_at": time.time(),
                    "state": "completed", "git_sha": git_sha,
                    "payload_json": json.dumps(report, sort_keys=True),
                })
                self._db.executemany(
                    "INSERT INTO metrics (run_id, path, value) VALUES (?, ?, ?)",
                    [(run_id, path, value)
                     for path, value in sorted(metrics.items())],
                )
            self.recorded += 1
        return run_id

    # -- the service's run lifecycle -----------------------------------

    @staticmethod
    def _service_record(row: sqlite3.Row) -> Dict[str, Any]:
        record = dict(row)
        record["spec"] = json.loads(record.pop("spec_json"))
        payload = record.pop("payload_json")
        record["result"] = json.loads(payload) if payload else None
        return record

    def _service_row_locked(self, run_id: str, columns: str) -> sqlite3.Row:
        row = self._db.execute(
            "SELECT %s FROM runs WHERE run_id = ? AND user IS NOT NULL"
            % columns, (run_id,),
        ).fetchone()
        if row is None:
            raise ServiceError("unknown run %r" % run_id)
        return row

    def create(self, run_id: str, user: str, spec_dict: dict) -> Dict[str, Any]:
        """Insert a fresh ``queued`` service run and return its record."""
        user = (user or "").strip()
        if not user:
            # Last line of defense: a blank identity in the database
            # would merge misconfigured clients forever.
            raise ServiceError("user id must not be blank")
        now = time.time()
        fields = {
            "run_id": run_id, "kind": "evaluation", "source": "service",
            "recorded_at": now, "user": user, "state": "queued",
            "created_at": now, "spec_hash": spec_hash(spec_dict),
            "spec_json": json.dumps(spec_dict, sort_keys=True),
            "noise": float(spec_dict.get("noise", 0.0)),
        }
        with self._lock:
            try:
                with self._db:
                    self._insert_locked(fields)
            except sqlite3.IntegrityError:
                raise ServiceError("run %r already exists" % run_id)
            return self._service_record(
                self._service_row_locked(run_id, _SERVICE_COLUMNS))

    def transition(
        self,
        run_id: str,
        state: str,
        error: Optional[str] = None,
        simulated: Optional[int] = None,
        cache_hits: Optional[int] = None,
        wall_seconds: Optional[float] = None,
        result: Optional[dict] = None,
        git_sha: Optional[str] = None,
    ) -> None:
        """Move a service run along the state machine, recording its
        outcome.

        ``running`` stamps ``started_at``.  Every terminal state stamps
        ``finished_at`` and carries the run's counters and error
        message.  ``completed`` needs the results export and writes it
        with its provenance (``git_sha`` plus what the export says),
        samples and scores in the same transaction as the state;
        ``cancelled`` keeps a partial ``result`` as its payload only.
        Illegal moves raise :class:`~repro.errors.ServiceError` and
        change nothing.
        """
        if state not in RUN_STATES:
            raise ServiceError(
                "unknown run state %r; known: %s" % (state, ", ".join(RUN_STATES))
            )
        fields: Dict[str, Any] = {}
        sample_rows: List[Tuple] = []
        score_rows: List[Tuple] = []
        if state == "completed":
            if result is None:
                raise ServiceError("a completed run needs its results export")
            fields, sample_rows, score_rows = _evaluation_rows(result)
            fields["git_sha"] = git_sha
        elif state == "cancelled" and result is not None:
            fields["payload_json"] = json.dumps(result, sort_keys=True)
        now = time.time()
        fields["state"] = state
        if state == "running":
            fields["started_at"] = now
        else:
            fields.update(recorded_at=now, finished_at=now, error=error,
                          simulated=simulated, cache_hits=cache_hits,
                          wall_seconds=wall_seconds)
        with self._lock:
            current = self._service_row_locked(run_id, "state")["state"]
            if state not in VALID_TRANSITIONS[current]:
                raise ServiceError(
                    "invalid transition %s -> %s for run %s"
                    % (current, state, run_id)
                )
            with self._db:  # one transaction: state, payload and cells
                self._db.execute(
                    "UPDATE runs SET %s WHERE run_id = ?"
                    % ", ".join("%s = ?" % name for name in fields),
                    tuple(fields.values()) + (run_id,),
                )
                self._add_cells_locked(run_id, sample_rows, score_rows)
            if state == "completed":
                self.recorded += 1

    def recover(self) -> int:
        """Reconcile orphans after an unclean shutdown; how many moved.

        Rows still ``running`` belonged to a process that died with
        work in flight — they become ``failed`` (the *measurements*
        that finished are safe in the scheduler's cache; resubmitting
        the spec simulates only what never finished).  Rows still
        ``queued`` never started and become ``cancelled``.  A server
        calls this once on startup, before accepting traffic — so one
        database serves one server at a time.
        """
        with self._lock:
            now = time.time()
            with self._db:
                running = self._db.execute(
                    "UPDATE runs SET state = 'failed', finished_at = ?,"
                    " error = 'orphaned by unclean server shutdown'"
                    " WHERE state = 'running'", (now,)
                ).rowcount
                queued = self._db.execute(
                    "UPDATE runs SET state = 'cancelled', finished_at = ?,"
                    " error = 'queued at unclean server shutdown'"
                    " WHERE state = 'queued'", (now,)
                ).rowcount
            return running + queued

    def service_run(self, run_id: str) -> Dict[str, Any]:
        """The full record of one service run (:class:`ServiceError`
        if absent): spec, lifecycle, counters and ``result``."""
        with self._lock:
            return self._service_record(
                self._service_row_locked(run_id, _SERVICE_COLUMNS))

    def service_runs(self, user: Optional[str] = None) -> List[Dict[str, Any]]:
        """Every service run (optionally one user's), newest first,
        without the potentially large result payloads."""
        query = ("SELECT run_id, user, spec_hash, state, error, created_at,"
                 " started_at, finished_at, simulated, cache_hits,"
                 " wall_seconds FROM runs WHERE user IS NOT NULL")
        args: Tuple = ()
        if user is not None:
            query += " AND user = ?"
            args = (user,)
        query += " ORDER BY created_at DESC, run_id DESC"
        with self._lock:
            return [dict(row) for row in self._db.execute(query, args)]


    # -- reading -------------------------------------------------------

    def list_runs(
        self, kind: Optional[str] = None, limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Completed runs newest-first, without the payload JSON."""
        if kind is not None and kind not in RUN_KINDS:
            raise HistoryError(
                "unknown run kind %r; known: %s" % (kind, ", ".join(RUN_KINDS))
            )
        query = ("SELECT run_id, kind, label, source, recorded_at, git_sha,"
                 " spec_hash, backend, noise, simulated, cache_hits,"
                 " wall_seconds FROM runs WHERE state = 'completed'")
        args: Tuple = ()
        if kind is not None:
            query += " AND kind = ?"
            args = (kind,)
        query += " ORDER BY recorded_at DESC, run_id DESC"
        if limit is not None:
            query += " LIMIT ?"
            args = args + (int(limit),)
        with self._lock:
            self.reads += 1
            return [dict(row) for row in self._db.execute(query, args)]

    def get(self, run_id: str) -> Dict[str, Any]:
        """One run's full record, payload parsed back to a dict (``None``
        while a service run has not finished)."""
        with self._lock:
            self.reads += 1
            row = self._db.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            raise HistoryError("unknown run %r" % run_id)
        record = dict(row)
        del record["spec_json"]  # the payload carries the spec
        del record["engine"]  # a retired column
        payload = record.pop("payload_json")
        record["payload"] = json.loads(payload) if payload else None
        return record

    def resolve(self, ref: str, kind: Optional[str] = None) -> str:
        """A run reference -> the id of a completed run.

        Accepts an exact id, a unique id prefix, or the relative forms
        ``latest`` / ``latest~N`` (the N-th most recent completed run,
        optionally restricted to one ``kind``).  Ambiguity and misses raise
        :class:`~repro.errors.HistoryError` naming the candidates.
        """
        ref = ref.strip()
        if ref == "latest" or ref.startswith("latest~"):
            back = 0
            if ref != "latest":
                try:
                    back = int(ref.split("~", 1)[1])
                except ValueError:
                    raise HistoryError("malformed run reference %r" % ref)
                if back < 0:
                    raise HistoryError("malformed run reference %r" % ref)
            runs = self.list_runs(kind=kind, limit=back + 1)
            if len(runs) <= back:
                raise HistoryError(
                    "reference %r needs %d recorded run(s), the store has %d"
                    % (ref, back + 1, len(runs))
                )
            return runs[back]["run_id"]
        with self._lock:
            self.reads += 1
            rows = self._db.execute(
                "SELECT run_id FROM runs WHERE state = 'completed'"
                " AND (run_id = ? OR run_id LIKE ?) ORDER BY run_id",
                (ref, ref + "%"),
            ).fetchall()
        ids = [row["run_id"] for row in rows]
        if ref in ids:
            return ref
        if len(ids) == 1:
            return ids[0]
        if not ids:
            raise HistoryError(
                "no recorded run matches %r (try `repro history list`)" % ref
            )
        raise HistoryError(
            "run reference %r is ambiguous: %s" % (ref, ", ".join(ids))
        )

    def samples_for(self, run_id: str) -> List[Dict[str, Any]]:
        """The denormalized sample rows of one run."""
        with self._lock:
            self.reads += 1
            rows = self._db.execute(
                "SELECT platform, tool, kind, size, params, processors,"
                " seed, seconds FROM samples WHERE run_id = ?"
                " ORDER BY platform, tool, kind, size, params, seed",
                (run_id,),
            ).fetchall()
        return [dict(row) for row in rows]

    def cells(self, run_id: str) -> Dict[Tuple, Dict[int, Optional[float]]]:
        """``(platform, tool, kind, params, processors) -> {seed: seconds}``
        for one run — the diff engine's alignment view."""
        grouped: Dict[Tuple, Dict[int, Optional[float]]] = {}
        for row in self.samples_for(run_id):
            key = (row["platform"], row["tool"], row["kind"], row["params"],
                   row["processors"])
            grouped.setdefault(key, {})[row["seed"]] = row["seconds"]
        return grouped

    def scores_for(self, run_ids: List[str]) -> List[Dict[str, Any]]:
        """Score rows of several runs (leaderboard's raw material)."""
        if not run_ids:
            return []
        marks = ",".join("?" for _ in run_ids)
        with self._lock:
            self.reads += 1
            rows = self._db.execute(
                "SELECT run_id, platform, profile, tool, mean, stddev, n"
                " FROM scores WHERE run_id IN (%s)"
                " ORDER BY platform, profile, tool, run_id" % marks,
                tuple(run_ids),
            ).fetchall()
        return [dict(row) for row in rows]

    def sample_trend(
        self,
        platform: str,
        tool: str,
        kind: str,
        size: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Per-run mean seconds of one cell family, oldest first —
        aggregated SQL-side over the denormalized samples."""
        query = (
            "SELECT s.run_id AS run_id, r.recorded_at AS recorded_at,"
            " r.git_sha AS git_sha, r.label AS label,"
            " AVG(s.seconds) AS mean_seconds, COUNT(s.seconds) AS n"
            " FROM samples s JOIN runs r ON r.run_id = s.run_id"
            " WHERE s.platform = ? AND s.tool = ? AND s.kind = ?"
        )
        args: List = [platform, tool, kind]
        if size is not None:
            query += " AND s.size = ?"
            args.append(int(size))
        query += " GROUP BY s.run_id ORDER BY r.recorded_at, s.run_id"
        with self._lock:
            self.reads += 1
            rows = self._db.execute(query, tuple(args)).fetchall()
        points = [dict(row) for row in rows]
        if limit is not None:
            points = points[-int(limit):]
        return points

    def metric_trend(
        self, path: str, limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Per-run values of one flattened bench metric, oldest first."""
        with self._lock:
            self.reads += 1
            rows = self._db.execute(
                "SELECT m.run_id AS run_id, r.recorded_at AS recorded_at,"
                " r.git_sha AS git_sha, r.label AS label, m.value AS value"
                " FROM metrics m JOIN runs r ON r.run_id = m.run_id"
                " WHERE m.path = ? ORDER BY r.recorded_at, m.run_id",
                (path,),
            ).fetchall()
        points = [dict(row) for row in rows]
        if limit is not None:
            points = points[-int(limit):]
        return points

    def stats(self) -> Dict[str, int]:
        """Store-level counters (what the lock annotations guard)."""
        with self._lock:
            return {"recorded": self.recorded, "reads": self.reads}

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return "<HistoryStore %s>" % self.path
