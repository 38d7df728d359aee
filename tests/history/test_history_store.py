"""HistoryStore: schema, round-trip, references, migration guard."""

import json
import sqlite3
import threading

import pytest

from repro.errors import HistoryError
from repro.history import SCHEMA_VERSION, HistoryStore
from repro.history.store import _evaluation_rows, flatten_metrics, spec_hash

from history_helpers import OLD_SERVICE_SCHEMA, scaled


class TestRecordResult:
    def test_round_trips_the_full_export(self, store, export):
        run_id = store.record_result(export, label="baseline", source="test")
        record = store.get(run_id)
        assert record["payload"] == export
        assert record["kind"] == "evaluation"
        assert record["label"] == "baseline"
        assert record["source"] == "test"
        assert record["spec_hash"] == spec_hash(export["spec"])
        assert record["noise"] == export["spec"]["noise"]

    def test_provenance_derived_from_telemetry(self, store, export):
        record = store.get(store.record_result(export))
        summary = export["telemetry"]["summary"]
        assert record["simulated"] == summary["simulated"]
        assert record["cache_hits"] == summary["cache_hits"]
        assert "engine" not in record
        assert record["backend"] == ",".join(summary["executors"])

    def test_samples_denormalize_per_cell(self, store, export):
        run_id = store.record_result(export)
        rows = store.samples_for(run_id)
        assert len(rows) == len(export["samples"])
        # every sendrecv row carries its nbytes as the size axis
        sendrecv = [row for row in rows if row["kind"] == "sendrecv"]
        assert sendrecv and all(row["size"] == 1024 for row in sendrecv)
        # applications have no size axis
        apps = [row for row in rows if row["kind"] == "application"]
        assert apps and all(row["size"] is None for row in apps)

    def test_params_encoded_once_per_distinct_value(self):
        """Each row's params column is exactly its own sample's JSON,
        even where distinct params compare equal (1, 1.0, True;
        0.0, -0.0) or repeat in another key order."""
        variants = [
            {"nbytes": 1}, {"nbytes": 1.0}, {"nbytes": True}, {"nbytes": 1},
            {"scale": 0.0}, {"scale": -0.0}, {"a": 1, "b": 2}, {"b": 2, "a": 1},
            {"app": "jpeg", "sizes": [1, 2]}, {"app": "jpeg", "sizes": [1, 2.0]},
            {}, None,
        ]
        samples = [
            {"platform": "p", "tool": "t", "kind": "k", "params": params,
             "processors": 4, "seed": index, "seconds": 0.5}
            for index, params in enumerate(variants)
        ]
        _, rows, _ = _evaluation_rows({"spec": {"tools": ["t"]}, "samples": samples})
        for row, params in zip(rows, variants):
            params = params or {}
            assert row[4] == json.dumps(params, sort_keys=True, separators=(",", ":"))
            size = params.get("nbytes")
            assert row[3] == (None if size is None else int(size))
        assert [row[6] for row in rows] == list(range(len(variants)))

    def test_cells_group_seeds_together(self, store, export):
        run_id = store.record_result(export)
        cells = store.cells(run_id)
        seeds = set(export["spec"]["seeds"])
        assert all(set(per_seed) == seeds for per_seed in cells.values())
        # 3 sendrecv-ish TPL kinds x 1 size + global_sum + 1 app = 5
        assert len(cells) == 5

    def test_scores_match_export_statistics(self, store, export):
        run_id = store.record_result(export)
        rows = store.scores_for([run_id])
        by_cell = {(r["platform"], r["profile"], r["tool"]): r for r in rows}
        for cell, tools in export["statistics"].items():
            platform, _, profile = cell.partition("/")
            for tool, stats in tools.items():
                row = by_cell[(platform, profile, tool)]
                assert row["mean"] == pytest.approx(stats["mean"])
                assert row["stddev"] == pytest.approx(stats["stddev"])
                assert row["n"] == stats["n"]

    def test_rejects_non_exports(self, store):
        with pytest.raises(HistoryError, match="no 'spec'"):
            store.record_result({"samples": []})
        with pytest.raises(HistoryError, match="no 'samples'"):
            store.record_result({"spec": {"tools": ["p4"]}})

    def test_record_is_thread_safe(self, store, export):
        errors = []

        def record():
            try:
                for _ in range(5):
                    store.record_result(export)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=record) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store.list_runs()) == 20
        assert store.stats()["recorded"] == 20


class TestRecordBench:
    REPORT = {
        "benchmark": "kernel",
        "python": "3.12.0",
        "metrics": {"kernel_events_per_sec": 1.0e6,
                    "pool": {"amortization_ratio": 3.2}},
    }

    def test_round_trip_and_metric_paths(self, store):
        run_id = store.record_bench(self.REPORT)
        record = store.get(run_id)
        assert record["kind"] == "bench"
        assert record["label"] == "kernel"  # defaults to the stamp
        assert record["payload"] == self.REPORT
        trend = store.metric_trend("metrics.pool.amortization_ratio")
        assert [point["value"] for point in trend] == [3.2]

    def test_rejects_non_reports(self, store):
        with pytest.raises(HistoryError, match="no 'metrics'"):
            store.record_bench({"benchmark": "kernel"})

    def test_flatten_matches_bench_report_view(self):
        flat = flatten_metrics({"metrics": self.REPORT["metrics"]})
        assert flat == {
            "metrics.kernel_events_per_sec": 1.0e6,
            "metrics.pool.amortization_ratio": 3.2,
        }


class TestResolve:
    def test_exact_prefix_latest_and_relative(self, store, export):
        first = store.record_result(export)
        second = store.record_result(export)
        assert store.resolve(first) == first
        assert store.resolve(first[:6]) == first
        assert store.resolve("latest") == second
        assert store.resolve("latest~1") == first

    def test_latest_respects_kind_filter(self, store, export):
        run_id = store.record_result(export)
        store.record_bench(TestRecordBench.REPORT)
        assert store.resolve("latest", kind="evaluation") == run_id

    def test_miss_ambiguity_and_malformed_are_loud(self, store, export):
        store.record_result(export)
        with pytest.raises(HistoryError, match="no recorded run"):
            store.resolve("zzzz")
        with pytest.raises(HistoryError, match="malformed"):
            store.resolve("latest~-1")
        with pytest.raises(HistoryError, match="needs 5"):
            store.resolve("latest~4")

    def test_ambiguous_prefix_names_candidates(self, store, export):
        ids = [store.record_result(export) for _ in range(40)]
        prefixes = {run_id[0] for run_id in ids}
        clash = next(p for p in prefixes
                     if sum(run_id.startswith(p) for run_id in ids) > 1)
        with pytest.raises(HistoryError, match="ambiguous"):
            store.resolve(clash)


class TestListRuns:
    def test_newest_first_and_limited(self, store, export):
        ids = [store.record_result(export) for _ in range(3)]
        runs = store.list_runs(limit=2)
        assert [run["run_id"] for run in runs] == [ids[2], ids[1]]
        assert all("payload_json" not in run for run in runs)

    def test_unknown_kind_is_refused(self, store):
        with pytest.raises(HistoryError, match="unknown run kind"):
            store.list_runs(kind="nonsense")


class TestTrends:
    def test_sample_trend_is_chronological_means(self, store, export):
        base_id = store.record_result(export)
        slow_id = store.record_result(scaled(export, 2.0))
        points = store.sample_trend("sun-ethernet", "p4", "sendrecv",
                                    size=1024)
        assert [point["run_id"] for point in points] == [base_id, slow_id]
        assert points[1]["mean_seconds"] == pytest.approx(
            2.0 * points[0]["mean_seconds"])
        assert points[0]["n"] == len(export["spec"]["seeds"])


class TestMigrationGuard:
    def test_refuses_foreign_schema_generation(self, tmp_path):
        path = str(tmp_path / "future.db")
        db = sqlite3.connect(path)
        db.execute("PRAGMA user_version=%d" % (SCHEMA_VERSION + 98))
        db.commit()
        db.close()
        with pytest.raises(HistoryError, match="schema v%d" % (SCHEMA_VERSION + 98)):
            HistoryStore(path)

    def test_refuses_a_v1_database(self, tmp_path):
        path = str(tmp_path / "v1.db")
        db = sqlite3.connect(path)
        db.execute("CREATE TABLE runs (run_id TEXT PRIMARY KEY,"
                   " payload_json TEXT NOT NULL)")
        db.execute("PRAGMA user_version=1")
        db.commit()
        db.close()
        with pytest.raises(HistoryError, match="schema v1; this build reads v2"):
            HistoryStore(path)

    def test_refuses_an_unstamped_database_it_did_not_create(self, tmp_path):
        # The table the service kept its runs in before it moved into
        # this store: user_version 0, a runs table of another shape.
        path = str(tmp_path / "repro-service.db")
        db = sqlite3.connect(path)
        db.executescript(OLD_SERVICE_SCHEMA)
        db.commit()
        db.close()
        with pytest.raises(HistoryError, match="repro-service.db holds tables"):
            HistoryStore(path)
        db = sqlite3.connect(path)
        try:  # refused, not rewritten
            assert db.execute("PRAGMA user_version").fetchone()[0] == 0
        finally:
            db.close()

    def test_refuses_a_file_that_is_not_sqlite(self, tmp_path):
        path = tmp_path / "notes.db"
        path.write_text("not a database, just a text file\n" * 200)
        with pytest.raises(HistoryError, match="cannot open .*notes.db"):
            HistoryStore(str(path))

    def test_reopening_same_generation_is_fine(self, tmp_path, export):
        path = str(tmp_path / "stable.db")
        with HistoryStore(path) as first:
            run_id = first.record_result(export)
        with HistoryStore(path) as second:
            assert second.get(run_id)["payload"] == export

    def test_unknown_run_is_loud(self, store):
        with pytest.raises(HistoryError, match="unknown run"):
            store.get("feedfacecafe")

    def test_stamps_fresh_databases(self, tmp_path):
        path = str(tmp_path / "fresh.db")
        HistoryStore(path).close()
        db = sqlite3.connect(path)
        try:
            assert db.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION
        finally:
            db.close()


class TestPayloadFidelity:
    def test_payload_json_is_canonical(self, store, export):
        run_id = store.record_result(export)
        with store._lock:
            raw = store._db.execute(
                "SELECT payload_json FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()[0]
        assert raw == json.dumps(export, sort_keys=True)
