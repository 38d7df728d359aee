"""The service's run lifecycle on the run-history store.

The store is the service's memory — these tests pin down that illegal
state moves are refused (not silently recorded), that a reopened
database still holds every run, that :meth:`HistoryStore.recover`
reconciles the rows an unclean shutdown leaves behind, and that a
completed run lands as one history row, with its samples and scores,
in one transaction.
"""

import sqlite3
import threading

import pytest

from repro.errors import ServiceError
from repro.history.store import (
    RUN_STATES,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    HistoryStore,
    spec_hash,
)

SPEC = {"tools": ["p4"], "tpl_sizes": [1024]}

#: The smallest results export a completed run can carry: one sample,
#: one score cell.
EXPORT = {
    "spec": SPEC,
    "samples": [{
        "platform": "sun-ethernet", "tool": "p4", "kind": "sendrecv",
        "params": {"nbytes": 1024}, "processors": 2, "seed": 0,
        "seconds": 0.01,
    }],
    "statistics": {"sun-ethernet/balanced": {
        "p4": {"mean": 1.0, "stddev": 0.0, "n": 1},
    }},
    "telemetry": {"jobs": [{"engine": "event"}],
                  "summary": {"executors": ["serial"]}},
}


@pytest.fixture
def store(tmp_path):
    with HistoryStore(str(tmp_path / "runs.db")) as s:
        yield s


def complete(store, run_id, **fields):
    store.transition(run_id, "running")
    store.transition(run_id, "completed", result=EXPORT, **fields)


def cell_rows(store, run_id):
    """(samples, scores) row counts of one run."""
    with store._lock:
        return tuple(
            store._db.execute(
                "SELECT COUNT(*) FROM %s WHERE run_id = ?" % table, (run_id,)
            ).fetchone()[0]
            for table in ("samples", "scores")
        )


class TestSchemaAndCreate:
    def test_wal_mode_on_file_databases(self, tmp_path):
        with HistoryStore(str(tmp_path / "wal.db")) as store:
            mode = store._db.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_create_returns_queued_record(self, store):
        record = store.create("abc123", "alice", SPEC)
        assert record["run_id"] == "abc123"
        assert record["user"] == "alice"
        assert record["state"] == "queued"
        assert record["spec"] == SPEC
        assert record["spec_hash"] == spec_hash(SPEC)
        assert record["result"] is None
        assert record["started_at"] is None

    def test_duplicate_run_id_refused(self, store):
        store.create("abc123", "alice", SPEC)
        with pytest.raises(ServiceError, match="already exists"):
            store.create("abc123", "bob", SPEC)

    def test_unknown_run_raises(self, store):
        with pytest.raises(ServiceError, match="unknown run"):
            store.service_run("nope")
        with pytest.raises(ServiceError, match="unknown run"):
            store.transition("nope", "running")

    def test_blank_user_never_reaches_the_database(self, store):
        for blank in ("", "   ", None):
            with pytest.raises(ServiceError, match="blank"):
                store.create("abc123", blank, SPEC)
        assert store.service_runs() == []

    def test_spec_hash_is_content_addressed(self):
        assert spec_hash({"a": 1, "b": 2}) == spec_hash({"b": 2, "a": 1})
        assert spec_hash({"a": 1}) != spec_hash({"a": 2})


class TestStateMachine:
    def test_happy_path_stamps_timestamps_and_counters(self, store):
        store.create("r1", "alice", SPEC)
        store.transition("r1", "running")
        assert store.service_run("r1")["started_at"] is not None
        store.transition(
            "r1", "completed", simulated=3, cache_hits=2,
            wall_seconds=1.5, result=EXPORT,
        )
        done = store.service_run("r1")
        assert done["state"] == "completed"
        assert done["finished_at"] is not None
        assert done["simulated"] == 3
        assert done["cache_hits"] == 2
        assert done["wall_seconds"] == 1.5
        assert done["result"] == EXPORT

    @pytest.mark.parametrize("terminal", sorted(TERMINAL_STATES))
    def test_terminal_states_accept_no_successor(self, store, terminal):
        store.create("r1", "alice", SPEC)
        if terminal == "completed":  # only reachable via running
            complete(store, "r1")
        else:
            store.transition("r1", terminal)
        for successor in RUN_STATES:
            with pytest.raises(ServiceError, match="invalid transition"):
                store.transition("r1", successor, result=EXPORT)

    def test_unknown_state_name_refused(self, store):
        store.create("r1", "alice", SPEC)
        with pytest.raises(ServiceError, match="unknown run state"):
            store.transition("r1", "paused")

    def test_illegal_move_changes_nothing(self, store):
        store.create("r1", "alice", SPEC)
        with pytest.raises(ServiceError):
            store.transition("r1", "completed", result=EXPORT)  # queued -> completed
        assert store.service_run("r1")["state"] == "queued"
        assert cell_rows(store, "r1") == (0, 0)

    def test_completed_needs_its_results_export(self, store):
        store.create("r1", "alice", SPEC)
        store.transition("r1", "running")
        with pytest.raises(ServiceError, match="results export"):
            store.transition("r1", "completed")
        assert store.service_run("r1")["state"] == "running"

    def test_transition_table_matches_declared_states(self):
        assert set(VALID_TRANSITIONS) == set(RUN_STATES)
        for state in TERMINAL_STATES:
            assert not VALID_TRANSITIONS[state]

    def test_failed_records_error_message(self, store):
        store.create("r1", "alice", SPEC)
        store.transition("r1", "running")
        store.transition("r1", "failed", error="ValueError: boom")
        assert store.service_run("r1")["error"] == "ValueError: boom"


class TestCompletedIsOneHistoryRow:
    def test_completed_run_is_a_history_run_with_provenance(self, store):
        store.create("r1", "alice", SPEC)
        complete(store, "r1", git_sha="abc1234")
        assert store.resolve("latest") == "r1"
        record = store.get("r1")
        assert record["payload"] == EXPORT
        assert record["kind"] == "evaluation"
        assert record["source"] == "service"
        assert record["user"] == "alice"
        assert record["git_sha"] == "abc1234"
        assert record["spec_hash"] == spec_hash(SPEC)
        assert "engine" not in record
        assert record["backend"] == "serial"
        assert cell_rows(store, "r1") == (1, 1)
        assert store.stats()["recorded"] == 1

    def test_terminal_write_is_a_single_commit(self, store):
        store.create("r1", "alice", SPEC)
        store.transition("r1", "running")
        statements = []
        store._db.set_trace_callback(statements.append)
        try:
            store.transition("r1", "completed", result=EXPORT)
        finally:
            store._db.set_trace_callback(None)
        writes = [index for index, sql in enumerate(statements)
                  if sql.lstrip().upper().startswith(("UPDATE", "INSERT"))]
        commits = [index for index, sql in enumerate(statements)
                   if sql.strip().upper() == "COMMIT"]
        # the row update, the sample and the score: all before one commit
        assert len(writes) == 3
        assert len(commits) == 1 and max(writes) < commits[0]

    def test_a_failed_cell_write_leaves_the_run_untouched(self, store):
        store.create("r1", "alice", SPEC)
        store.transition("r1", "running")
        with store._lock:
            store._db.execute(
                "CREATE TRIGGER refuse_scores BEFORE INSERT ON scores"
                " BEGIN SELECT RAISE(ABORT, 'injected'); END"
            )
        with pytest.raises(sqlite3.DatabaseError, match="injected"):
            store.transition("r1", "completed", result=EXPORT)
        record = store.service_run("r1")
        assert record["state"] == "running"
        assert record["result"] is None
        assert cell_rows(store, "r1") == (0, 0)

    def test_cancelled_keeps_partial_payload_without_cells(self, store):
        partial = {"partial": True, "samples": EXPORT["samples"]}
        store.create("r1", "alice", SPEC)
        store.transition("r1", "running")
        store.transition("r1", "cancelled", simulated=1, result=partial)
        assert store.service_run("r1")["result"] == partial
        assert cell_rows(store, "r1") == (0, 0)

    def test_failed_gets_neither_payload_nor_cells(self, store):
        store.create("r1", "alice", SPEC)
        store.transition("r1", "running")
        store.transition("r1", "failed", error="boom", result=EXPORT)
        assert store.service_run("r1")["result"] is None
        assert cell_rows(store, "r1") == (0, 0)


class TestListingAndPersistence:
    def test_list_newest_first_and_user_filter(self, store):
        store.create("r1", "alice", SPEC)
        store.create("r2", "bob", SPEC)
        store.create("r3", "alice", SPEC)
        everyone = store.service_runs()
        assert [r["run_id"] for r in everyone] == ["r3", "r2", "r1"]
        assert all("result" not in r for r in everyone)
        assert [r["run_id"] for r in store.service_runs("alice")] == ["r3", "r1"]
        assert store.service_runs("nobody") == []

    def test_service_views_skip_recorded_results(self, store):
        recorded = store.record_result(EXPORT)
        store.create("r1", "alice", SPEC)
        assert [r["run_id"] for r in store.service_runs()] == ["r1"]
        with pytest.raises(ServiceError, match="unknown run"):
            store.service_run(recorded)

    def test_reopened_database_keeps_history(self, tmp_path):
        path = str(tmp_path / "persist.db")
        with HistoryStore(path) as store:
            store.create("r1", "alice", SPEC)
            complete(store, "r1", simulated=5, cache_hits=0)
        with HistoryStore(path) as reopened:
            record = reopened.service_run("r1")
            assert record["state"] == "completed"
            assert record["simulated"] == 5
            assert record["spec"] == SPEC

    def test_concurrent_creates_all_land(self, store):
        errors = []

        def create(i):
            try:
                store.create("run-%03d" % i, "alice", SPEC)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=create, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(store.service_runs()) == 16


class TestRecover:
    def test_recover_reconciles_orphans(self, tmp_path):
        path = str(tmp_path / "crash.db")
        with HistoryStore(path) as store:
            store.create("ran", "alice", SPEC)
            store.transition("ran", "running")
            store.create("waiting", "alice", SPEC)
            store.create("done", "alice", SPEC)
            complete(store, "done", simulated=5, cache_hits=0)
            # no clean shutdown: rows left as the process died
        with HistoryStore(path) as reopened:
            assert reopened.recover() == 2
            assert reopened.service_run("ran")["state"] == "failed"
            assert "unclean" in reopened.service_run("ran")["error"]
            assert reopened.service_run("waiting")["state"] == "cancelled"
            assert reopened.service_run("done")["state"] == "completed"
            # second call is a no-op
            assert reopened.recover() == 0
