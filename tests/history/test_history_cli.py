"""The `repro history` surface end to end, through repro.cli.main.

The full journey a CI pipeline takes: evaluate twice into one
database, list/show/diff/leaderboard over it, then gate — passing on
the honest pair and failing (exit 1) on an injected slowdown.
"""

import json

import pytest

from repro.cli import main
from repro.history import HistoryStore

from history_helpers import OLD_SERVICE_SCHEMA, TINY, scaled


def run_evaluate(db, capsys, label=None):
    argv = ["evaluate", "--tools", "p4", "--seeds", "0", "1",
            "--noise", "1.0", "--history-db", db]
    if label:
        argv += ["--history-label", label]
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.fixture
def seeded_db(tmp_path, export):
    """Two honest runs recorded via the API (fast), CLI-compatible."""
    db = str(tmp_path / "h.db")
    with HistoryStore(db) as store:
        store.record_result(export, label="first", source="cli")
        store.record_result(export, label="second", source="cli")
    return db


class TestEvaluateRecording:
    def test_evaluate_history_db_records_a_run(self, tmp_path, capsys):
        db = str(tmp_path / "cli.db")
        out = run_evaluate(db, capsys, label="smoke")
        assert "recorded run " in out
        with HistoryStore(db) as store:
            (run,) = store.list_runs()
            assert run["label"] == "smoke"
            assert run["source"] == "cli"
            assert run["kind"] == "evaluation"

    def test_unwritable_history_db_is_exit_2(self, tmp_path, capsys):
        bad = str(tmp_path / "missing-dir" / "h.db")
        assert main(["evaluate", "--tools", "p4",
                     "--history-db", bad]) == 2
        assert "cannot record history" in capsys.readouterr().out


class TestListAndShow:
    def test_list_newest_first_with_labels(self, seeded_db, capsys):
        assert main(["history", "list", "--db", seeded_db]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "evaluation" in line]
        assert len(lines) == 2
        assert "second" in lines[0] and "first" in lines[1]

    def test_show_resolves_relative_refs(self, seeded_db, capsys):
        assert main(["history", "show", "--db", seeded_db, "latest~1"]) == 0
        out = capsys.readouterr().out
        assert "first" in out and "samples" in out

    def test_show_json_round_trips(self, seeded_db, capsys):
        assert main(["history", "show", "--db", seeded_db, "latest",
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["label"] == "second"
        assert record["payload"]["spec"]["tools"] == list(TINY["tools"])

    def test_bad_reference_is_exit_2(self, seeded_db, capsys):
        assert main(["history", "show", "--db", seeded_db, "zzzz"]) == 2
        assert "error:" in capsys.readouterr().out


class TestDiffAndGate:
    def test_identical_runs_diff_clean_and_gate_passes(self, seeded_db,
                                                       capsys):
        assert main(["history", "diff", "--db", seeded_db,
                     "latest~1", "latest"]) == 0
        assert "0 regression(s)" in capsys.readouterr().out
        assert main(["history", "gate", "--db", seeded_db,
                     "latest~1", "latest"]) == 0
        assert "GATE PASS" in capsys.readouterr().out

    def test_injected_slowdown_fails_the_gate(self, seeded_db, export,
                                              capsys):
        with HistoryStore(seeded_db) as store:
            store.record_result(scaled(export, 1.5, kinds=("sendrecv",)),
                                label="slow")
        # diff stays informational (exit 0) even though cells moved
        assert main(["history", "diff", "--db", seeded_db,
                     "latest~1", "latest"]) == 0
        assert "REGRESSION" in capsys.readouterr().out
        assert main(["history", "gate", "--db", seeded_db,
                     "latest~1", "latest"]) == 1
        assert "GATE FAIL" in capsys.readouterr().out

    def test_gate_json_and_tolerance_flag(self, seeded_db, export, capsys):
        with HistoryStore(seeded_db) as store:
            store.record_result(scaled(export, 1.05))
        assert main(["history", "gate", "--db", seeded_db, "--json",
                     "--tolerance", "0.2", "latest~1", "latest"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_tolerances_file_conflicts_with_flag(self, seeded_db, tmp_path,
                                                 capsys):
        table = tmp_path / "tol.json"
        table.write_text('{"default": 0.5}')
        assert main(["history", "gate", "--db", seeded_db,
                     "--tolerances", str(table), "--tolerance", "0.5",
                     "latest~1", "latest"]) == 2
        assert "not both" in capsys.readouterr().out


class TestLeaderboardTrendAnalyze:
    def test_leaderboard_renders_and_jsons(self, seeded_db, capsys):
        assert main(["history", "leaderboard", "--db", seeded_db]) == 0
        assert "1. p4" in capsys.readouterr().out
        assert main(["history", "leaderboard", "--db", seeded_db,
                     "--json"]) == 0
        (board,) = json.loads(capsys.readouterr().out)
        assert board["rows"][0]["tool"] == "p4"

    def test_trend_over_recorded_runs(self, seeded_db, capsys):
        assert main(["history", "trend", "--db", seeded_db,
                     "--platform", "sun-ethernet", "--tool", "p4",
                     "--kind", "sendrecv"]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out and "flat" in out

    def test_analyze_runs_clean(self, seeded_db, capsys):
        assert main(["history", "analyze", "--db", seeded_db]) == 0
        assert "recommendations:" in capsys.readouterr().out


class TestRecordCommand:
    def test_record_autodetects_export_vs_bench(self, tmp_path, export,
                                                capsys):
        db = str(tmp_path / "h.db")
        export_path = tmp_path / "run.json"
        export_path.write_text(json.dumps(export))
        bench_path = tmp_path / "BENCH_kernel.json"
        bench_path.write_text(json.dumps(
            {"benchmark": "kernel", "metrics": {"kernel_events_per_sec": 9.0}}))
        assert main(["history", "record", "--db", db, str(export_path)]) == 0
        assert main(["history", "record", "--db", db, str(bench_path)]) == 0
        capsys.readouterr()
        with HistoryStore(db) as store:
            kinds = [run["kind"] for run in store.list_runs()]
        assert sorted(kinds) == ["bench", "evaluation"]

    def test_malformed_file_is_exit_2(self, tmp_path, capsys):
        db = str(tmp_path / "h.db")
        garbage = tmp_path / "garbage.json"
        garbage.write_text('{"neither": true}')
        assert main(["history", "record", "--db", db, str(garbage)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main(["history"]) == 2
        assert "usage:" in capsys.readouterr().out


class TestSchemaGuardThroughCli:
    def test_foreign_database_is_refused_loudly(self, tmp_path, capsys):
        import sqlite3

        path = str(tmp_path / "future.db")
        db = sqlite3.connect(path)
        db.execute("PRAGMA user_version=99")
        db.commit()
        db.close()
        assert main(["history", "list", "--db", path]) == 2
        assert "schema v99" in capsys.readouterr().out

    def test_unstamped_database_is_refused_by_history_and_serve(
        self, tmp_path, capsys
    ):
        import sqlite3

        path = str(tmp_path / "repro-service.db")
        db = sqlite3.connect(path)
        db.executescript(OLD_SERVICE_SCHEMA)
        db.commit()
        db.close()
        assert main(["history", "list", "--db", path]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ") and "repro-service.db holds tables" in out
        assert main(["serve", "--port", "0", "--db", path]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ") and "repro-service.db holds tables" in out


class TestDatabasesFromOlderVersions:
    def test_runs_with_the_engine_column_filled_still_read(
        self, seeded_db, export, capsys
    ):
        """Older versions filled the ``engine`` column (always
        ``"event"``); their databases still open, list, show and diff."""
        import sqlite3

        db = sqlite3.connect(seeded_db)
        db.execute("UPDATE runs SET engine = 'event'")
        db.commit()
        db.close()
        with HistoryStore(seeded_db) as store:
            store.record_result(scaled(export, 2.0), label="third", source="cli")
            assert [run["label"] for run in store.list_runs()] == [
                "third", "second", "first"]
        assert main(["history", "list", "--db", seeded_db]) == 0
        out = capsys.readouterr().out
        assert "engine" not in out and len(out.splitlines()) == 4
        assert main(["history", "show", "--db", seeded_db, "latest~2"]) == 0
        out = capsys.readouterr().out
        assert "first" in out and "engine" not in out
        assert main(["history", "diff", "--db", seeded_db,
                     "latest~2", "latest~1"]) == 0
        assert "0 regression(s)" in capsys.readouterr().out
        assert main(["history", "diff", "--db", seeded_db,
                     "latest~1", "latest"]) == 0
        assert "REGRESSION" in capsys.readouterr().out
