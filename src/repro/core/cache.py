"""Pluggable, persistent result caching: backends behind ResultCache.

The scheduler's memo of completed measurements used to be a plain
in-process dict; this module generalizes it into a small storage
stack so evaluation knowledge survives processes and can fan out
across hosts:

* :class:`CacheBackend` — the protocol every store implements:
  string keys, ``get``/``put``/``__contains__``/``__len__``/``clear``.
* :class:`MemoryBackend` — the original behavior, a dict.
* :class:`DiskBackend` — one content-addressed JSON file per entry
  under a cache directory, written atomically (temp file +
  ``os.replace``) so a killed sweep never leaves a torn entry.
  Entries are self-describing (they embed the job and a schema
  version); entries written by an older schema read as misses, so
  stale formats invalidate themselves instead of corrupting runs.
* :class:`ShardedBackend` — routes each key deterministically to one
  of N child backends, the layout for multi-host fan-out (give every
  host the shard roster and they agree on placement with no
  coordination).

Keys come from :func:`job_key`: the SHA-256 of the job's canonical
JSON plus :data:`CACHE_SCHEMA_VERSION`, so a job *is* its address —
two sweeps that share a configuration share the entry, and bumping
the schema version retires every old entry at once.

:class:`ResultCache` keeps its PR-1 interface (``lookup``/``store``/
``peek`` on jobs, hit/miss counters) but now delegates storage to any
backend; ``ResultCache()`` is still purely in-memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.jobs import MeasurementJob
from repro.errors import EvaluationError

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CACHE_MANIFEST_NAME",
    "MISSING",
    "job_key",
    "read_cache_manifest",
    "resolve_cache_layout",
    "CacheBackend",
    "MemoryBackend",
    "DiskBackend",
    "ShardedBackend",
    "ResultCache",
]

#: Bump when the on-disk entry format (or the meaning of a sample)
#: changes: every entry written under another version reads as a
#: miss, so old cache directories drain instead of poisoning runs.
CACHE_SCHEMA_VERSION = 1

#: Root-level file every ``on_disk`` cache keeps, recording the shard
#: roster the directory was created with.  Shard routing is a pure
#: function of ``(key, shard count)``, so reopening a directory with a
#: different count silently re-routes every key — warm entries become
#: misses and duplicates are written.  The manifest turns that drift
#: into a loud :class:`EvaluationError` at open time instead.
CACHE_MANIFEST_NAME = "manifest.json"


class _Missing(object):
    """Sentinel distinguishing "no entry" from a cached ``None``
    sample ("Not Available" is a legitimate measurement outcome)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<MISSING>"


MISSING = _Missing()


def job_key(job: MeasurementJob) -> str:
    """The content address of a job: SHA-256 over its canonical JSON.

    Includes :data:`CACHE_SCHEMA_VERSION`, so a schema bump changes
    every address and old entries become unreachable by construction.
    """
    payload = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, "job": job.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def read_cache_manifest(root: str) -> Optional[dict]:
    """The directory's layout manifest, or None if absent/unreadable.

    Corrupt or half-written manifests read as absent rather than
    raising: the layout is then re-inferred from the directory
    contents, which is what pre-manifest directories get anyway.
    """
    try:
        with open(os.path.join(os.fspath(root), CACHE_MANIFEST_NAME), "r") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    shards, layout = data.get("shards"), data.get("layout")
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        return None
    if layout not in ("flat", "sharded"):
        return None
    return data


def _write_cache_manifest(root: str, shards: int, layout: str) -> None:
    """Persist the layout manifest (atomically; no-op if current)."""
    root = os.fspath(root)
    existing = read_cache_manifest(root)
    if (
        existing is not None
        and existing["shards"] == shards
        and existing["layout"] == layout
        and existing.get("schema") == CACHE_SCHEMA_VERSION
    ):
        return
    os.makedirs(root, exist_ok=True)
    payload = {"schema": CACHE_SCHEMA_VERSION, "shards": shards, "layout": layout}
    fd, tmp_path = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp_path, os.path.join(root, CACHE_MANIFEST_NAME))
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _infer_cache_layout(root: str) -> Optional[Tuple[int, str]]:
    """Infer ``(shards, layout)`` from a pre-manifest directory.

    ``shard-NN`` subdirectories mean a sharded layout (their count is
    the roster size); two-hex-digit fanout buckets mean the flat
    single-backend layout; an empty or unrelated directory infers
    nothing.
    """
    try:
        names = os.listdir(os.fspath(root))
    except OSError:
        return None
    shard_dirs = [
        name
        for name in names
        if name.startswith("shard-")
        and name[len("shard-"):].isdigit()
        and os.path.isdir(os.path.join(root, name))
    ]
    if shard_dirs:
        return len(shard_dirs), "sharded"
    for name in names:
        if (
            len(name) == 2
            and all(ch in "0123456789abcdef" for ch in name)
            and os.path.isdir(os.path.join(root, name))
        ):
            return 1, "flat"
    return None


def resolve_cache_layout(
    root: str,
    shards: Optional[int],
    layout: Optional[str] = None,
) -> Tuple[int, str]:
    """Reconcile a requested shard roster with what ``root`` holds.

    ``shards=None`` adopts whatever the directory records (manifest
    first, inferred layout for pre-manifest directories, flat for a
    fresh one).  An explicit request must match the record — a
    mismatch raises :class:`EvaluationError` naming both counts,
    because silently re-routing keys would turn every warm entry into
    a miss and write duplicates.
    """
    if shards is not None and shards < 1:
        raise EvaluationError("shards must be >= 1")
    manifest = read_cache_manifest(root)
    if manifest is not None:
        recorded: Optional[Tuple[int, str]] = (manifest["shards"], manifest["layout"])
    else:
        recorded = _infer_cache_layout(root)
    if recorded is None:
        if shards is None:
            return 1, layout or "flat"
        return shards, layout or ("flat" if shards == 1 else "sharded")
    recorded_shards, recorded_layout = recorded
    if shards is not None and shards != recorded_shards:
        raise EvaluationError(
            "cache directory %s was created with %d shard(s) but opened "
            "with shards=%d; shard routing is part of the on-disk layout, "
            "so reopen with shards=%d (or point at a fresh directory)"
            % (root, recorded_shards, shards, recorded_shards)
        )
    if layout is not None and layout != recorded_layout:
        raise EvaluationError(
            "cache directory %s uses the %s layout but was opened as %s "
            "(%d shard(s) both times); flat and shard-NN layouts do not "
            "mix, so reopen to match or point at a fresh directory"
            % (root, recorded_layout, layout, recorded_shards)
        )
    return recorded_shards, recorded_layout


class CacheBackend(object):
    """Protocol for key/value sample stores.

    ``get`` returns :data:`MISSING` (never raises) for absent keys;
    ``put`` may receive the originating job so persistent backends
    can write self-describing entries.
    """

    name = "backend"

    def get(self, key: str):
        raise NotImplementedError

    def get_many(self, keys: Sequence[str]) -> Dict[str, Optional[float]]:
        """Present entries for ``keys`` as a dict (absent keys are
        simply missing from it — never :data:`MISSING` values).

        The base implementation is a per-key :meth:`get` loop; backends
        with a cheaper bulk path (one lock acquisition, one directory
        listing) override it.
        """
        results: Dict[str, Optional[float]] = {}
        for key in keys:
            value = self.get(key)
            if value is not MISSING:
                results[key] = value
        return results

    def put(self, key: str, value: Optional[float], job: Optional[MeasurementJob] = None) -> None:
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not MISSING

    def __len__(self) -> int:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class MemoryBackend(CacheBackend):
    """The classic in-process dict store (dies with the process).

    Thread-safe: the evaluation service runs several concurrent
    scheduler runs against one shared cache, so every dict operation
    takes a lock rather than leaning on accidental GIL atomicity.
    """

    name = "memory"

    def __init__(self) -> None:
        self._store: Dict[str, Optional[float]] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def get(self, key: str):
        with self._lock:
            return self._store.get(key, MISSING)

    def get_many(self, keys: Sequence[str]) -> Dict[str, Optional[float]]:
        """Bulk probe under a single lock acquisition."""
        with self._lock:
            store = self._store
            return {key: store[key] for key in keys if key in store}

    def put(self, key: str, value: Optional[float], job: Optional[MeasurementJob] = None) -> None:
        with self._lock:
            self._store[key] = value

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()


class DiskBackend(CacheBackend):
    """Content-addressed JSON files under ``root``, one per entry.

    Layout is ``root/<key[:2]>/<key>.json`` (256-way directory fanout
    keeps listings sane at millions of entries).  Writes go through a
    temp file in the destination directory plus ``os.replace``, which
    is atomic on POSIX: concurrent writers of the *same* key race
    harmlessly (the entry is deterministic) and a kill mid-write
    leaves no partial *entry* behind.  It can leave an orphaned
    ``*.tmp`` file, though — those are swept by :meth:`clear` and
    (age-guarded) on every open, so kill-and-resume cycles do not
    accumulate litter.  Storing a sample the entry already holds is a
    read, not a write: a remote worker persists each sample before the
    coordinator's scheduler stores it again, and the second store
    leaves the file (inode and mtime) as it was.

    A small read-through memo avoids re-parsing a file on repeated
    lookups within one process; durability always comes from disk.

    Thread-safe: one disk-backed cache may serve several concurrent
    scheduler runs (``repro serve --cache-dir`` does exactly this), so
    the memo — a plain dict mutated on every read-through and write —
    is guarded by a lock.  File I/O itself stays outside the lock:
    the atomic ``os.replace`` write protocol already makes concurrent
    writers of the same key race harmlessly, and holding a lock across
    a disk read would serialize every lookup of every run.
    """

    name = "disk"

    #: Age (seconds) after which an orphaned ``*.tmp`` file is swept
    #: on open.  A temp file this old cannot belong to a live writer
    #: (writes are sub-second); it is litter from a writer killed
    #: between ``mkstemp`` and ``os.replace``.
    STALE_TMP_SECONDS = 60.0

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._memo: Dict[str, Optional[float]] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        # Kill-and-resume is an advertised workflow, so orphaned temp
        # files are expected litter; sweep opportunistically on open
        # (age-guarded: a concurrent writer's in-flight temp survives).
        self._sweep_tmp(min_age_seconds=self.STALE_TMP_SECONDS)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    @staticmethod
    def _read_entry(path: str) -> Optional[dict]:
        """The entry at ``path``, or None if it is unreadable, torn,
        or written by another schema (all read as misses)."""
        try:
            with open(path, "r") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if "seconds" not in entry:
            return None
        return entry

    def get(self, key: str):
        with self._lock:
            if key in self._memo:
                return self._memo[key]
        entry = self._read_entry(self._path(key))
        if entry is None:
            return MISSING
        value = entry["seconds"]
        with self._lock:
            self._memo[key] = value
        return value

    def get_many(self, keys: Sequence[str]) -> Dict[str, Optional[float]]:
        """Bulk probe: one ``listdir`` per fanout bucket.

        A cold sweep probing N absent keys one at a time pays N failed
        ``open`` calls; listing each touched bucket once and reading
        only the files actually present turns that into one syscall
        per *bucket*.  Memoized keys never reach the filesystem at
        all.
        """
        results: Dict[str, Optional[float]] = {}
        pending: List[str] = []
        with self._lock:
            memo = self._memo
            for key in keys:
                if key in memo:
                    results[key] = memo[key]
                else:
                    pending.append(key)
        if not pending:
            return results
        by_bucket: Dict[str, List[str]] = {}
        for key in pending:
            by_bucket.setdefault(key[:2], []).append(key)
        found: Dict[str, Optional[float]] = {}
        for bucket, bucket_keys in by_bucket.items():
            try:
                names = set(os.listdir(os.path.join(self.root, bucket)))
            except OSError:
                continue  # bucket directory absent: all misses
            for key in bucket_keys:
                if key + ".json" in names:
                    entry = self._read_entry(self._path(key))
                    if entry is not None:
                        found[key] = entry["seconds"]
        if found:
            with self._lock:
                self._memo.update(found)
            results.update(found)
        return results

    def put(self, key: str, value: Optional[float], job: Optional[MeasurementJob] = None) -> None:
        path = self._path(key)
        existing = self._read_entry(path)
        if (
            existing is not None
            and existing["seconds"] == value
            and (job is None or existing.get("job") is not None)
        ):
            # Already durable under this content address: a rewrite
            # would change nothing but the inode.
            with self._lock:
                self._memo[key] = value
            return
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "seconds": value,
            "job": job.to_dict() if job is not None else None,
        }
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        with self._lock:
            self._memo[key] = value

    def _entry_paths(self) -> Iterator[str]:
        try:
            fanout = sorted(os.listdir(self.root))
        except OSError:
            return
        for bucket in fanout:
            bucket_dir = os.path.join(self.root, bucket)
            if not os.path.isdir(bucket_dir):
                continue
            for name in sorted(os.listdir(bucket_dir)):
                if name.endswith(".json"):
                    yield os.path.join(bucket_dir, name)

    def keys(self) -> List[str]:
        """Keys of every entry :meth:`get` could actually serve —
        stale-schema and torn files are excluded, matching ``get``."""
        return [
            os.path.basename(path)[: -len(".json")]
            for path in self._entry_paths()
            if self._read_entry(path) is not None
        ]

    def entries(self) -> Iterator[Tuple[MeasurementJob, Optional[float]]]:
        """Yield every readable, schema-current ``(job, sample)`` pair.

        Entries written without a job (or by another schema) are
        skipped — this is the inspection/rebuild path, so it tolerates
        partially foreign directories.
        """
        for path in self._entry_paths():
            entry = self._read_entry(path)
            if entry is None or entry.get("job") is None:
                continue
            try:
                job = MeasurementJob.from_dict(entry["job"])
            except (EvaluationError, KeyError, TypeError):
                continue
            yield job, entry["seconds"]

    def __len__(self) -> int:
        """How many entries are servable (consistent with ``get`` and
        ``keys``): a drained stale-schema directory counts as empty."""
        return len(self.keys())

    def _tmp_paths(self) -> Iterator[str]:
        """Every ``mkstemp`` leftover under the fanout directories."""
        try:
            fanout = os.listdir(self.root)
        except OSError:
            return
        for bucket in fanout:
            bucket_dir = os.path.join(self.root, bucket)
            if not os.path.isdir(bucket_dir):
                continue
            for name in os.listdir(bucket_dir):
                if name.endswith(".tmp"):
                    yield os.path.join(bucket_dir, name)

    def _sweep_tmp(self, min_age_seconds: float = 0.0) -> int:
        """Unlink orphaned temp files, returning how many went.

        A writer that dies between ``mkstemp`` and ``os.replace``
        leaves a ``*.tmp`` behind that no code path would ever touch
        again.  With ``min_age_seconds`` only files at least that old
        are removed (never a live writer's in-flight temp).
        """
        removed = 0
        now = time.time()
        for path in list(self._tmp_paths()):
            try:
                if min_age_seconds > 0.0:
                    if now - os.path.getmtime(path) < min_age_seconds:
                        continue
                os.unlink(path)
                removed += 1
            except OSError:
                pass  # raced with another sweeper or writer
        return removed

    def clear(self) -> None:
        for path in list(self._entry_paths()):
            try:
                os.unlink(path)
            except OSError:
                pass
        # clear() means "empty this store": take the temp litter too
        # (unconditionally — nobody clears a cache mid-write on
        # purpose, and the old behavior left *.tmp files forever).
        self._sweep_tmp()
        with self._lock:
            self._memo.clear()


class ShardedBackend(CacheBackend):
    """Deterministic key routing across N child backends.

    The shard of a key is a pure function of the key's first 8 hex
    digits, so any process holding the same shard roster places every
    entry identically — the precondition for multi-host fan-out with
    no placement coordination.
    """

    name = "sharded"

    def __init__(self, backends: Sequence[CacheBackend]) -> None:
        backends = list(backends)
        if not backends:
            raise EvaluationError("ShardedBackend needs at least one child backend")
        self.backends = backends

    @classmethod
    def on_disk(cls, root: str, shards: int) -> "ShardedBackend":
        """N :class:`DiskBackend` children under ``root/shard-NN``.

        Persists the shard roster in the root ``manifest.json`` and
        validates it on reopen: a count that disagrees with what the
        directory was created with raises :class:`EvaluationError`
        instead of silently re-routing keys.
        """
        count, _ = resolve_cache_layout(root, shards, "sharded")
        _write_cache_manifest(root, count, "sharded")
        return cls(
            [DiskBackend(os.path.join(os.fspath(root), "shard-%02d" % index))
             for index in range(count)]
        )

    def shard_index(self, key: str) -> int:
        return int(key[:8], 16) % len(self.backends)

    def shard_for(self, key: str) -> CacheBackend:
        return self.backends[self.shard_index(key)]

    def get(self, key: str):
        return self.shard_for(key).get(key)

    def get_many(self, keys: Sequence[str]) -> Dict[str, Optional[float]]:
        """Bulk probe: group keys by shard, one child probe each."""
        by_shard: Dict[int, List[str]] = {}
        for key in keys:
            by_shard.setdefault(self.shard_index(key), []).append(key)
        results: Dict[str, Optional[float]] = {}
        for index, shard_keys in by_shard.items():
            results.update(self.backends[index].get_many(shard_keys))
        return results

    def put(self, key: str, value: Optional[float], job: Optional[MeasurementJob] = None) -> None:
        self.shard_for(key).put(key, value, job)

    def __len__(self) -> int:
        return sum(len(backend) for backend in self.backends)

    def clear(self) -> None:
        for backend in self.backends:
            backend.clear()


class ResultCache(object):
    """Memo of completed measurements: job -> sample (seconds or None).

    ``hits``/``misses`` count lookups, so callers can verify that a
    re-run of an identical spec performed zero new simulations.  The
    storage itself is a pluggable :class:`CacheBackend`; the default
    :class:`MemoryBackend` preserves the original in-process behavior,
    while :meth:`on_disk` gives a persistent (optionally sharded)
    cache that a killed sweep resumes from.

    Thread-safe: one cache may back several concurrent scheduler runs
    (the evaluation service does exactly this), so the hit/miss
    counters, the key memo and each lookup/store are guarded by an
    internal lock — ``hits + misses`` always equals the number of
    ``lookup`` calls, with no lost increments under races.
    """

    def __init__(self, backend: Optional[CacheBackend] = None) -> None:
        self.backend = backend if backend is not None else MemoryBackend()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        # Guards the counters, the key memo and the compound
        # lookup-then-count / store operations below.  Reentrant so a
        # backend callback could safely re-enter the cache.
        self._lock = threading.RLock()
        # job -> content key memo: hashing a job canonicalizes it to
        # JSON, which is worth doing once, not once per lookup.
        self._keys: Dict[MeasurementJob, str] = {}  # guarded-by: _lock

    @classmethod
    def on_disk(cls, cache_dir: str, shards: Optional[int] = None) -> "ResultCache":
        """A persistent cache under ``cache_dir`` (sharded if > 1).

        ``shards=None`` adopts the directory's recorded layout (its
        ``manifest.json``, inferred from the directory contents for
        pre-manifest caches; a fresh directory is flat).  An explicit
        count must match the record — reopening with a different
        roster raises :class:`EvaluationError` naming both counts.
        """
        requested_layout = None
        if shards is not None:
            requested_layout = "flat" if shards == 1 else "sharded"
        count, layout = resolve_cache_layout(cache_dir, shards, requested_layout)
        if layout == "flat":
            _write_cache_manifest(cache_dir, 1, "flat")
            return cls(DiskBackend(cache_dir))
        return cls(ShardedBackend.on_disk(cache_dir, count))

    def key(self, job: MeasurementJob) -> str:
        with self._lock:
            key = self._keys.get(job)
            if key is None:
                key = self._keys[job] = job_key(job)
            return key

    def __len__(self) -> int:
        return len(self.backend)

    def __contains__(self, job: MeasurementJob) -> bool:
        return self.key(job) in self.backend

    def lookup(self, job: MeasurementJob):
        """The cached sample, or the :data:`MISSING` sentinel
        (``None`` is a legitimate sample: "Not Available")."""
        with self._lock:
            value = self.backend.get(self.key(job))
            if value is MISSING:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def get_many(self, jobs) -> Dict[MeasurementJob, Optional[float]]:
        """Bulk :meth:`lookup`: cached samples for ``jobs`` as a dict.

        Jobs with no entry are simply absent from the result (never
        mapped to :data:`MISSING` — a cached ``None`` sample is "Not
        Available", so presence must be the membership test).  One
        lock acquisition covers key memoization, the backend's bulk
        probe (one directory listing per touched bucket on disk) and
        the counters; each *unique* job counts exactly one hit or
        miss, matching what a deduplicating per-job ``lookup`` loop
        would have recorded.
        """
        with self._lock:
            keys: Dict[MeasurementJob, str] = {}
            for job in jobs:
                if job not in keys:
                    key = self._keys.get(job)
                    if key is None:
                        key = self._keys[job] = job_key(job)
                    keys[job] = key
            bulk = getattr(self.backend, "get_many", None)
            if bulk is not None:
                found = bulk(list(keys.values()))
            else:  # duck-typed backend predating the bulk protocol
                found = {}
                for key in keys.values():
                    value = self.backend.get(key)
                    if value is not MISSING:
                        found[key] = value
            results: Dict[MeasurementJob, Optional[float]] = {}
            for job, key in keys.items():
                if key in found:
                    results[job] = found[key]
                    self.hits += 1
                else:
                    self.misses += 1
            return results

    def store(self, job: MeasurementJob, value: Optional[float]) -> None:
        with self._lock:
            self.backend.put(self.key(job), value, job)

    def peek(self, job: MeasurementJob) -> Optional[float]:
        """The cached sample, without touching the hit/miss counters."""
        with self._lock:
            value = self.backend.get(self.key(job))
        if value is MISSING:
            raise KeyError(job)
        return value

    def clear(self) -> None:
        with self._lock:
            self.backend.clear()
            self._keys.clear()
            self.hits = 0
            self.misses = 0
