"""Persistent result caching: one store under ResultCache.

The scheduler's memo of completed measurements is a dict of samples by
content key.  :class:`ResultCache` counts the probes; what holds the
samples is one of three stores, each answering only ``get_many``,
``put``, ``__len__`` and ``clear``:

* an in-memory memo (``ResultCache()``): a dict under a lock that dies
  with the process.
* :class:`DiskBackend` (``ResultCache.on_disk(dir)``): an append-only
  log under a cache directory.  Each writer appends one JSON line per
  entry to a segment file it owns, and a line a killed sweep left torn
  reads as a miss.  Entries are self-describing (they embed the key,
  the job and a schema version); entries written by an older schema
  read as misses, so stale formats invalidate themselves instead of
  corrupting runs.  What a process has read of a directory is one
  index per directory, shared by every backend the process opens over
  it: the same memo as an in-memory cache, plus how far each segment
  was read, so reopening a cache tails only the lines appended since.
  A backend opened over an index whose read bytes are no longer on
  disk unchanged starts a new one.
* :class:`ShardedBackend` (``ResultCache.on_disk(dir, shards=N)``):
  routes each key deterministically to one of N disk backends under
  ``dir/shard-NN`` (give every host the shard roster and they agree
  on placement with no coordination).

Keys come from :func:`job_key`: the SHA-256 of the job's canonical
JSON plus :data:`CACHE_SCHEMA_VERSION`, so a job *is* its address —
two sweeps that share a configuration share the entry, and bumping
the schema version retires every old entry at once.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import tempfile
import threading
import weakref
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.jobs import MeasurementJob
from repro.errors import EvaluationError

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CACHE_MANIFEST_NAME",
    "MISSING",
    "job_key",
    "read_cache_manifest",
    "resolve_cache_layout",
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

#: A :class:`DiskBackend` segment is ``seg-<pid>-<token>.jsonl``.
_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".jsonl"


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
    raising: :func:`resolve_cache_layout` then recovers the roster
    from the directory itself.
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


def _is_segment(name: str) -> bool:
    return name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)


def _segment_names(root: str) -> List[str]:
    """The segments directly under ``root``, sorted."""
    try:
        names = os.listdir(root)
    except OSError:
        return []
    return sorted(filter(_is_segment, names))


def _unrecorded_layout(root: str) -> Optional[Tuple[int, str]]:
    """The roster of a directory whose manifest is torn or gone.

    A directory that holds a manifest file or a segment is one of
    ours: its ``shard-NN`` directories give the roster (flat without
    any), so it is neither re-routed nor overwritten as fresh.  A
    directory of the older one-file-per-entry layout holds neither
    and records nothing.
    """
    try:
        names = os.listdir(root)
    except OSError:
        return None
    shard_dirs = [
        os.path.join(root, name)
        for name in names
        if name.startswith("shard-")
        and name[len("shard-"):].isdigit()
        and os.path.isdir(os.path.join(root, name))
    ]
    if shard_dirs and (CACHE_MANIFEST_NAME in names or any(map(_segment_names, shard_dirs))):
        return len(shard_dirs), "sharded"
    if any(map(_is_segment, names)):
        return 1, "flat"
    return None


def resolve_cache_layout(
    root: str,
    shards: Optional[int],
    layout: Optional[str] = None,
) -> Tuple[int, str]:
    """Reconcile a requested shard roster with what ``root`` holds.

    ``shards=None`` adopts whatever the directory's manifest records
    (flat for a directory without one).  A torn or lost manifest is
    recovered from the directory's ``shard-NN`` directories and
    segments.  An explicit request must match the record — a mismatch
    raises :class:`EvaluationError` naming both counts, because
    silently re-routing keys would turn every warm entry into a miss
    and write duplicates.
    """
    if shards is not None and shards < 1:
        raise EvaluationError("shards must be >= 1")
    manifest = read_cache_manifest(root)
    if manifest is not None:
        recorded = manifest["shards"], manifest["layout"]
    else:
        recorded = _unrecorded_layout(os.fspath(root))
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


def _try_lock(fd: int) -> bool:
    """Take the exclusive ``flock`` on ``fd`` if nobody holds it."""
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        return False
    return True


class _Writer(object):
    """An append descriptor on a segment its process holds the
    ``flock`` of."""

    __slots__ = ("pid", "fd", "name", "close", "__weakref__")

    def __init__(self, pid: int, fd: int, name: str) -> None:
        self.pid, self.fd, self.name = pid, fd, name
        #: Closes the descriptor, at the latest when the writer is dropped.
        self.close = weakref.finalize(self, os.close, fd)


def _complete_lines(path: str, offset: int = 0) -> Tuple[int, bytes]:
    """The complete lines of segment ``path`` past ``offset``, and the
    offset they start at: 0 if the segment is now shorter than
    ``offset`` (it was rewritten).  Raises :class:`OSError` if the
    segment is gone."""
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size < offset:
            offset = 0
        handle.seek(offset)
        data = handle.read()
    return offset, data[: data.rfind(b"\n") + 1]


def _entries(data: bytes) -> Iterator[dict]:
    """The valid entries on the complete lines ``data``, parsed lazily."""
    return filter(None, map(DiskBackend._parse, data.splitlines()))


class _Consumed(object):
    """How much of one segment an index has read: the offset just past
    the last complete line read, and a digest of every byte before it."""

    __slots__ = ("offset", "digest")

    def __init__(self) -> None:
        self.offset = 0
        self.digest = hashlib.sha256()

    def consume(self, data: bytes) -> None:
        self.digest.update(data)
        self.offset += len(data)

    def intact(self, path: str) -> bool:
        """Whether ``path`` still begins with exactly the bytes read."""
        digest, left = hashlib.sha256(), self.offset
        try:
            with open(path, "rb") as handle:
                while left:
                    chunk = handle.read(min(left, 1 << 20))
                    if not chunk:
                        return False  # shrank
                    digest.update(chunk)
                    left -= len(chunk)
        except OSError:
            return False  # gone
        return digest.digest() == self.digest.digest()


class _Memo(object):
    """Samples by key under one lock: the whole store of an in-memory
    cache, and the part of a :class:`_DirectoryIndex` a probe reads.

    Thread-safe: the evaluation service runs several concurrent
    scheduler runs against one shared cache, so every dict operation
    takes the lock rather than leaning on accidental GIL atomicity.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._memo: Dict[str, Optional[float]] = {}  # guarded-by: _lock
        # Keys whose entry was stored without its job (a directory's
        # entries() skips those, so storing the job again is a real
        # write).
        self._jobless: Set[str] = set()  # guarded-by: _lock

    def get_many(self, keys: Sequence[str]) -> Dict[str, Optional[float]]:
        """The held samples for ``keys`` (absent keys are simply
        missing from the result, a ``None`` sample is kept)."""
        with self._lock:
            memo = self._memo
            return {key: memo[key] for key in keys if key in memo}

    def held(self, key: str, value: Optional[float], job: Optional[MeasurementJob]) -> bool:
        """Whether storing ``value`` (with ``job``) would change nothing."""
        with self._lock:
            held = self._memo.get(key, MISSING)
            return (
                held is not MISSING
                and held == value
                and (job is None or key not in self._jobless)
            )

    def put(self, key: str, value: Optional[float], job: Optional[MeasurementJob] = None) -> None:
        self._remember({key: (value, job is None)})

    def __len__(self) -> int:
        with self._lock:
            return len(self._memo)

    def clear(self) -> None:
        with self._lock:
            self._memo.clear()
            self._jobless.clear()

    def _remember(self, found: Dict[str, Tuple[Optional[float], bool]]) -> None:
        with self._lock:
            for key, (value, jobless) in found.items():
                self._memo[key] = value
                if jobless:
                    self._jobless.add(key)
                else:
                    self._jobless.discard(key)


class _DirectoryIndex(_Memo):
    """What this process has read of one cache directory: the memo of
    its entries and, per segment, how far it was read.

    The memo holds exactly the entries on the consumed bytes, and each
    consumed prefix carries a digest: while every prefix is still on
    disk unchanged, the memo is what a fresh read of them would give.

    ``_tail_lock`` serializes whatever moves a consumed offset (a read
    of a segment's tail, an append and its accounting); the memo's own
    lock guards the memo alone, so a probe never waits for file I/O.
    """

    def __init__(self, root: str) -> None:
        super().__init__()
        self.root = root
        self._tail_lock = threading.Lock()
        self._consumed: Dict[str, _Consumed] = {}  # guarded-by: _tail_lock
        # Set once a segment was seen to shrink: the memo may hold lines
        # that are gone, so no later backend adopts this index.
        self._stale = False  # guarded-by: _tail_lock

    def intact(self) -> bool:
        """Whether every byte this index read is still on disk,
        unchanged (a segment gone, shrunk or rewritten fails)."""
        with self._tail_lock:
            return not self._stale and all(
                consumed.intact(os.path.join(self.root, name))
                for name, consumed in self._consumed.items()
            )

    def _tail_locked(self, name: str) -> Dict[str, Tuple[Optional[float], bool]]:
        """Consume the complete lines of segment ``name`` past what was
        read of it; their entries as key -> (sample, jobless), latest
        wins.  The parsed entries (jobs and all) are dropped at once."""
        consumed = self._consumed.get(name)
        offset = consumed.offset if consumed is not None else 0
        try:
            start, data = _complete_lines(os.path.join(self.root, name), offset)
        except OSError:
            return {}  # cleared under us
        if start < offset:
            self._stale = True  # rewritten: the memo may hold lines now gone
        if consumed is None or start < offset:
            consumed = self._consumed[name] = _Consumed()
        consumed.consume(data)
        return {entry["key"]: (entry["seconds"], entry.get("job") is None)
                for entry in _entries(data)}

    def refresh(self) -> None:
        """Fold the lines appended to every segment since it was last
        read into the memo: one ``listdir``, one ``stat`` per segment,
        and a read only of the segments that grew."""
        with self._tail_lock:
            found: Dict[str, Tuple[Optional[float], bool]] = {}
            for name in _segment_names(self.root):
                consumed = self._consumed.get(name)
                try:
                    size = os.stat(os.path.join(self.root, name)).st_size
                except OSError:
                    continue  # cleared under us
                if size != (consumed.offset if consumed is not None else 0):
                    found.update(self._tail_locked(name))
            if found:
                self._remember(found)

    def append(self, writer: _Writer, key: str, value: Optional[float],
               jobless: bool, line: bytes) -> bool:
        """Append ``line``, the entry for ``key``, through ``writer``
        and consume it; False on a short write.  The writer is the
        segment's only appender, so its size after the write places the
        line.  A segment new to this index, or taken over with a tail it
        never read, is read up to the line instead: the memo never holds
        a line the consumed digest does not cover."""
        with self._tail_lock:
            if os.write(writer.fd, line) != len(line):
                return False
            start = os.fstat(writer.fd).st_size - len(line)
            consumed = self._consumed.get(writer.name)
            if consumed is not None and consumed.offset == start:
                consumed.consume(line)
                self._remember({key: (value, jobless)})
            else:
                self._remember(self._tail_locked(writer.name))
            return True

    def clear(self) -> None:
        """Forget everything read: the segments were deleted."""
        with self._tail_lock:
            self._consumed.clear()
            self._stale = False
            super().clear()


class _Indexes(object):
    """This process's :class:`_DirectoryIndex` per cache directory, by
    real path.  :meth:`attach` adopts the registered index only while
    it is intact; otherwise it registers a new, empty one and drops
    every index whose directory no longer exists."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_path: Dict[str, _DirectoryIndex] = {}  # guarded-by: _lock

    def attach(self, root: str) -> _DirectoryIndex:
        path = os.path.realpath(root)
        while True:
            with self._lock:
                index = self._by_path.get(path)
            # Checked outside the registry lock: it reads every segment.
            if index is not None and index.intact():
                return index
            with self._lock:
                if self._by_path.get(path) is index:
                    for gone in [other for other in self._by_path
                                 if not os.path.isdir(other)]:
                        del self._by_path[gone]
                    index = self._by_path[path] = _DirectoryIndex(path)
                    return index
            # Another thread replaced it meanwhile: check that one.


_INDEXES = _Indexes()


def _forget_indexes() -> None:
    """A forked child starts with no indexes: a lock another thread of
    the parent held at the fork would stay held in the child forever."""
    global _INDEXES
    _INDEXES = _Indexes()


os.register_at_fork(after_in_child=_forget_indexes)


class DiskBackend(object):
    """An append-only log under ``root``: one segment per writer.

    Every entry is one JSON line (``schema``, ``key``, ``seconds``,
    ``job``) appended with a single ``os.write`` to a segment file
    ``root/seg-<pid>-<token>.jsonl`` opened with ``O_APPEND``.  A
    backend writes through a segment it holds an exclusive ``flock``
    on: it takes an existing segment nobody holds before it creates
    one, so a directory keeps as many segments as it ever had
    concurrent writers, not one per run (and a cold sample costs one
    ``write``, not a new file).  A segment taken over from a writer
    that died mid-line first gets its torn tail terminated, and a
    forked child never appends through its parent's descriptor.

    A line counts only if it ends in a newline, parses and carries the
    current schema: a torn or foreign line reads as a miss.  The
    latest line for a key wins within a segment; samples are
    deterministic, so segments never disagree in practice.

    Reads are served from an in-process memo.  A miss in ``get_many``
    or ``put`` refreshes it once per call by tailing each
    segment that grew since the last refresh, so entries other
    processes append (fleet workers, a killed run being resumed) show
    up.  Storing a sample the memo already holds after that refresh
    writes nothing: a remote worker persists each sample before the
    coordinator's scheduler stores it again.  ``keys``, ``entries``,
    ``__len__`` and ``clear`` scan every segment in full.

    The memo and the read offsets are not the backend's own: every
    backend this process opens over the same real path shares one
    index of the directory, so a scheduler built per pass over one
    cache reads only what was appended since the last pass, not the
    whole log.  Every append advances the index too.  On
    open, a backend re-hashes every byte the index has read and
    compares digests; if a segment is gone, shorter or different (the
    directory was removed and recreated, another process cleared it, a
    segment was rewritten in place), or a refresh saw a segment shrink,
    it drops that index and starts a new one, which reads the directory
    afresh.  So a backend serves what a fresh read of the directory at
    its open would, plus what appears after.  :meth:`clear` empties
    the shared index.  Opening a new index also drops every registered
    index whose directory no longer exists; a forked child starts with
    none.  Writers and their descriptors stay per backend.

    Files of the older one-file-per-entry layout (``<key[:2]>/...``)
    are ignored: their entries read as misses and are never deleted.

    Thread-safe: one disk-backed cache may serve several concurrent
    scheduler runs (``repro serve --cache-dir`` does exactly this).
    The writer handle is guarded by the backend's lock; the index
    serializes its tail reads and appends under one lock and guards
    the memo under another, so a probe never waits for file I/O.
    """

    name = "disk"

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        self._index = _INDEXES.attach(self.root)
        # The segment this backend appends to, once it has written.
        self._writer: Optional[_Writer] = None  # guarded-by: _lock

    @staticmethod
    def _parse(line: bytes) -> Optional[dict]:
        """The entry on ``line``, or None if it is torn, foreign or
        written by another schema (all read as misses)."""
        try:
            entry = json.loads(line)
        except ValueError:
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if "seconds" not in entry or not isinstance(entry.get("key"), str):
            return None
        return entry

    def _scan(self) -> Dict[str, dict]:
        """Every servable entry in every segment, by key (latest wins)."""
        entries: Dict[str, dict] = {}
        for name in _segment_names(self.root):
            try:
                data = _complete_lines(os.path.join(self.root, name))[1]
            except OSError:
                continue  # cleared under us
            for entry in _entries(data):
                entries[entry["key"]] = entry
        return entries

    def get_many(self, keys: Sequence[str]) -> Dict[str, Optional[float]]:
        """Bulk probe: memo lookups, and one refresh if any key misses."""
        results = self._index.get_many(keys)
        if any(key not in results for key in keys):
            self._index.refresh()
            results = self._index.get_many(keys)
        return results

    def put(self, key: str, value: Optional[float], job: Optional[MeasurementJob] = None) -> None:
        index = self._index
        if index.held(key, value, job):
            return
        index.refresh()
        if index.held(key, value, job):
            # Already durable (another process appended it): a second
            # line would change nothing.
            return
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "seconds": value,
            "job": job.to_dict() if job is not None else None,
        }
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        # Hold the writer, not just its descriptor number, for the whole
        # append: a dropped writer's descriptor closes only once no
        # concurrent put still uses it, so it is never reused under us.
        writer = self._segment_writer()
        if not index.append(writer, key, value, job is None, line):
            # A short append (disk full) leaves a torn tail: drop the
            # segment so the next writer to take it terminates the line.
            self._drop_writer()
            raise OSError("short write appending to a cache segment under %s" % self.root)

    def _segment_writer(self) -> "_Writer":
        """This process's writer, taking a segment on first use."""
        pid = os.getpid()
        with self._lock:
            writer = self._writer
            if writer is None or writer.pid != pid:
                # First write, or a forked child: never append through
                # the parent's descriptor (closing the child's copy,
                # which no other thread of the child can be using,
                # leaves the parent's lock alone).
                if writer is not None:
                    writer.close()
                writer = self._writer = self._take_segment(pid)
            return writer

    def _drop_writer(self) -> None:
        """Stop appending to the current segment; its writer's finalizer
        closes the descriptor (and frees the ``flock``) once no
        concurrent ``put`` holds the writer any more."""
        with self._lock:
            self._writer = None

    def _take_segment(self, pid: int) -> "_Writer":
        """A writer on a segment this process holds the ``flock`` of:
        a free existing one first, else a new one."""
        flags = os.O_RDWR | os.O_APPEND
        for name in _segment_names(self.root):
            try:
                fd = os.open(os.path.join(self.root, name), flags)
            except OSError:
                continue  # cleared under us
            if _try_lock(fd):
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    os.write(fd, b"\n")  # its writer died mid-line
                return _Writer(pid, fd, name)
            os.close(fd)
        while True:
            name = "%s%d-%s%s" % (_SEGMENT_PREFIX, pid, os.urandom(4).hex(), _SEGMENT_SUFFIX)
            fd = os.open(os.path.join(self.root, name), flags | os.O_CREAT | os.O_EXCL, 0o644)
            if _try_lock(fd):
                return _Writer(pid, fd, name)
            os.close(fd)  # another writer took it before we locked it

    def keys(self) -> List[str]:
        """Keys of every entry :meth:`get_many` could actually serve —
        stale-schema and torn lines are excluded, matching it."""
        return sorted(self._scan())

    def entries(self) -> Iterator[Tuple[MeasurementJob, Optional[float]]]:
        """Yield every readable, schema-current ``(job, sample)`` pair.

        Entries written without a job (or by another schema) are
        skipped — this is the inspection/rebuild path, so it tolerates
        partially foreign directories.
        """
        scanned = self._scan()
        for key in sorted(scanned):
            entry = scanned[key]
            if entry.get("job") is None:
                continue
            try:
                job = MeasurementJob.from_dict(entry["job"])
            except (EvaluationError, KeyError, TypeError):
                continue
            yield job, entry["seconds"]

    def __len__(self) -> int:
        """How many entries are servable (consistent with ``get_many``
        and ``keys``): a drained stale-schema directory counts as empty."""
        return len(self._scan())

    def clear(self) -> None:
        """Delete every segment (a writer in another process keeps
        appending to its unlinked file, which nobody reads again), then
        empty the index every backend of this process over ``root``
        shares."""
        self._drop_writer()
        for name in _segment_names(self.root):
            try:
                os.unlink(os.path.join(self.root, name))
            except OSError:
                pass
        self._index.clear()


class ShardedBackend(object):
    """Deterministic key routing across N :class:`DiskBackend` children.

    The shard of a key is a pure function of the key's first 8 hex
    digits, so any process holding the same shard roster places every
    entry identically — the precondition for multi-host fan-out with
    no placement coordination.
    """

    name = "sharded"

    def __init__(self, backends: Sequence[DiskBackend]) -> None:
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

    def shard_for(self, key: str) -> DiskBackend:
        return self.backends[self.shard_index(key)]

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
    re-run of an identical spec performed zero new simulations.
    ``ResultCache()`` keeps its samples in process memory, while
    :meth:`on_disk` gives a persistent (optionally sharded) cache that
    a killed sweep resumes from.  The store under it (``backend``)
    answers only ``get_many``, ``put``, ``__len__`` and ``clear``.

    A job's key is :func:`job_key`, computed on every call: the cache
    keeps no reference to a job it was asked about.

    Thread-safe: one cache may back several concurrent scheduler runs
    (the evaluation service does exactly this).  An internal lock
    guards only the hit/miss counters — ``hits + misses`` always equals
    the number of lookups, with no lost increments under races.  Store
    I/O runs outside it (each store guards itself), so one run's store
    never blocks another run's probe.
    """

    def __init__(self) -> None:
        self.backend = _Memo()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    @classmethod
    def on_disk(cls, cache_dir: str, shards: Optional[int] = None) -> "ResultCache":
        """A persistent cache under ``cache_dir`` (sharded if > 1).

        ``shards=None`` adopts the directory's recorded layout (its
        ``manifest.json``; a directory without one is flat).  An explicit
        count must match the record — reopening with a different
        roster raises :class:`EvaluationError` naming both counts.
        """
        requested_layout = None
        if shards is not None:
            requested_layout = "flat" if shards == 1 else "sharded"
        count, layout = resolve_cache_layout(cache_dir, shards, requested_layout)
        cache = cls()
        if layout == "flat":
            _write_cache_manifest(cache_dir, 1, "flat")
            cache.backend = DiskBackend(cache_dir)
        else:
            cache.backend = ShardedBackend.on_disk(cache_dir, count)
        return cache

    def key(self, job: MeasurementJob) -> str:
        return job_key(job)

    def __len__(self) -> int:
        return len(self.backend)

    def _probe(self, job: MeasurementJob):
        key = job_key(job)
        return self.backend.get_many([key]).get(key, MISSING)

    def __contains__(self, job: MeasurementJob) -> bool:
        return self._probe(job) is not MISSING

    def lookup(self, job: MeasurementJob):
        """The cached sample, or the :data:`MISSING` sentinel
        (``None`` is a legitimate sample: "Not Available")."""
        value = self._probe(job)
        with self._lock:
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
        bulk probe of the store runs outside the cache lock, and one
        lock acquisition counts; each *unique* job counts exactly one
        hit or miss, matching what a deduplicating per-job ``lookup``
        loop would have recorded.
        """
        keys = {job: job_key(job) for job in dict.fromkeys(jobs)}
        found = self.backend.get_many(list(keys.values()))
        results = {job: found[key] for job, key in keys.items() if key in found}
        with self._lock:
            self.hits += len(results)
            self.misses += len(keys) - len(results)
        return results

    def store(self, job: MeasurementJob, value: Optional[float]) -> None:
        self.backend.put(job_key(job), value, job)

    def peek(self, job: MeasurementJob) -> Optional[float]:
        """The cached sample, without touching the hit/miss counters."""
        value = self._probe(job)
        if value is MISSING:
            raise KeyError(job)
        return value

    def clear(self) -> None:
        self.backend.clear()
        with self._lock:
            self.hits = 0
            self.misses = 0
