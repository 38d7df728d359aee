"""bench_report.py input validation and strict-metric diagnostics."""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "scripts", "bench_report.py"
))
_spec = importlib.util.spec_from_file_location("bench_report", _SCRIPT)
bench_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_report)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def report(**metrics):
    return {"benchmark": "kernel", "metrics": metrics}


@pytest.fixture
def files(tmp_path):
    def build(current, baseline):
        return (write(tmp_path, "current.json", current),
                write(tmp_path, "baseline.json", baseline))
    return build


class TestMetricsKeyValidation:
    def test_current_without_metrics_mapping_exits_2(self, files, capsys):
        current, baseline = files({"results": []}, report(a={"speedup": 2.0}))
        assert bench_report.main([current, "--baseline", baseline]) == 2
        out = capsys.readouterr().out
        assert "not a benchmark report" in out
        assert "current.json" in out

    def test_baseline_without_metrics_mapping_exits_2(self, files, capsys):
        current, baseline = files(report(a={"speedup": 2.0}), {"metrics": 3})
        assert bench_report.main([current, "--baseline", baseline]) == 2
        assert "baseline.json" in capsys.readouterr().out


class TestStrictMetricDiagnostics:
    def test_baseline_predating_a_metric_says_regenerate(self, files, capsys):
        current, baseline = files(
            report(old={"speedup": 2.0}, new={"speedup": 3.0}),
            report(old={"speedup": 2.0}),
        )
        code = bench_report.main([
            current, "--baseline", baseline,
            "--strict-metric", "metrics.new.speedup",
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "baseline predates this metric" in out
        assert "regenerate the baseline" in out

    def test_metric_missing_from_current_run_says_broken(self, files, capsys):
        current, baseline = files(
            report(old={"speedup": 2.0}),
            report(old={"speedup": 2.0}, gone={"speedup": 3.0}),
        )
        code = bench_report.main([
            current, "--baseline", baseline,
            "--strict-metric", "metrics.gone.speedup",
        ])
        assert code == 2
        assert "did not produce the metric" in capsys.readouterr().out

    def test_metric_in_neither_report_says_typo(self, files, capsys):
        current, baseline = files(
            report(old={"speedup": 2.0}), report(old={"speedup": 2.0}),
        )
        code = bench_report.main([
            current, "--baseline", baseline,
            "--strict-metric", "metrics.old.speedpu",
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "typo?" in out
        assert "metrics.old.speedup" in out  # names what IS available


class TestHappyPath:
    def test_enforced_floor_passes_and_fails(self, files, capsys):
        current, baseline = files(
            report(k={"speedup": 1.9}), report(k={"speedup": 2.0}),
        )
        args = [current, "--baseline", baseline,
                "--strict-metric", "metrics.k.speedup=0.2"]
        assert bench_report.main(args) == 0
        capsys.readouterr()
        tight = [current, "--baseline", baseline,
                 "--strict-metric", "metrics.k.speedup=0.01"]
        assert bench_report.main(tight) == 1
        assert "failed their floor" in capsys.readouterr().out


class TestToleranceTable:
    def table(self, tmp_path, entry=None):
        return write(tmp_path, "tolerances.json", {
            "__doc__": "commentary entries are skipped",
            "kernel": entry if entry is not None
            else {"metrics.k.speedup": 0.2},
        })

    def test_table_floors_enforce_like_strict_metrics(self, files, tmp_path,
                                                      capsys):
        current, baseline = files(
            report(k={"speedup": 1.0}), report(k={"speedup": 2.0}),
        )
        code = bench_report.main([
            current, "--baseline", baseline,
            "--tolerances", self.table(tmp_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "failed their floor" in out
        assert "[strict]" in out

    def test_table_floor_within_tolerance_passes(self, files, tmp_path,
                                                 capsys):
        current, baseline = files(
            report(k={"speedup": 1.9}), report(k={"speedup": 2.0}),
        )
        assert bench_report.main([
            current, "--baseline", baseline,
            "--tolerances", self.table(tmp_path),
        ]) == 0

    def test_explicit_strict_metric_overrides_the_table(self, files,
                                                        tmp_path, capsys):
        # table would fail this 50% drop; the flag loosens it to 0.9
        current, baseline = files(
            report(k={"speedup": 1.0}), report(k={"speedup": 2.0}),
        )
        assert bench_report.main([
            current, "--baseline", baseline,
            "--tolerances", self.table(tmp_path),
            "--strict-metric", "metrics.k.speedup=0.9",
        ]) == 0

    def test_unlisted_benchmark_stamp_warns_and_enforces_nothing(
            self, files, tmp_path, capsys):
        unstamped = {"benchmark": "mystery",
                     "metrics": {"k": {"speedup": 1.0}}}
        current, baseline = files(
            unstamped, dict(unstamped, metrics={"k": {"speedup": 2.0}}),
        )
        assert bench_report.main([
            current, "--baseline", baseline,
            "--tolerances", self.table(tmp_path),
        ]) == 0
        assert "no entry for benchmark 'mystery'" in capsys.readouterr().out

    def test_malformed_table_is_exit_2(self, files, tmp_path, capsys):
        current, baseline = files(
            report(k={"speedup": 2.0}), report(k={"speedup": 2.0}),
        )
        bad = write(tmp_path, "bad.json", {"kernel": "not-a-mapping"})
        assert bench_report.main([
            current, "--baseline", baseline, "--tolerances", bad,
        ]) == 2
        assert "must map benchmark stamps" in capsys.readouterr().out

    def test_committed_table_matches_the_committed_baselines(self):
        # The real CI gate: every floor in the committed table must
        # name a metric the matching committed baseline actually has,
        # or the gate silently enforces nothing.
        root = os.path.join(os.path.dirname(_SCRIPT), "..",
                            "benchmarks", "data")
        with open(os.path.join(root, "bench_tolerances.json")) as handle:
            table = json.load(handle)
        stamps = {stamp: floors for stamp, floors in table.items()
                  if not stamp.startswith("_")}
        assert set(stamps) == {"kernel"}
        for stamp, floors in stamps.items():
            with open(os.path.join(
                    root, "BENCH_%s_baseline.json" % stamp)) as handle:
                baseline = json.load(handle)
            paths = bench_report.flatten((), baseline, {})
            for path, tolerance in floors.items():
                assert path in paths, (stamp, path)
                assert 0.0 < tolerance < 1.0


class TestHistoryRecording:
    def test_history_db_appends_the_current_report(self, files, tmp_path,
                                                   capsys):
        current, baseline = files(
            report(k={"speedup": 2.0}), report(k={"speedup": 2.0}),
        )
        db = str(tmp_path / "history.db")
        assert bench_report.main([
            current, "--baseline", baseline, "--history-db", db,
        ]) == 0
        assert "recorded bench run" in capsys.readouterr().out

        from repro.history import HistoryStore

        with HistoryStore(db) as store:
            (run,) = store.list_runs(kind="bench")
            assert run["label"] == "kernel"
            trend = store.metric_trend("metrics.k.speedup")
            assert [point["value"] for point in trend] == [2.0]

    def test_unwritable_history_db_is_exit_2(self, files, tmp_path, capsys):
        current, baseline = files(
            report(k={"speedup": 2.0}), report(k={"speedup": 2.0}),
        )
        bad = str(tmp_path / "no-such-dir" / "history.db")
        assert bench_report.main([
            current, "--baseline", baseline, "--history-db", bad,
        ]) == 2
        assert "cannot record history" in capsys.readouterr().out
