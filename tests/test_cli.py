"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sun-ethernet" in out
        assert "p4" in out
        assert "table3" in out
        assert "balanced" in out


class TestUsability:
    def test_prints_matrix(self, capsys):
        assert main(["usability"]) == 0
        out = capsys.readouterr().out
        assert "Portability" in out
        assert "WS" in out


class TestExperiment:
    def test_unknown_id_rejected(self, capsys):
        assert main(["experiment", "table99"]) == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_runs_static_experiments(self, capsys):
        assert main(["experiment", "table1", "table5"]) == 0
        out = capsys.readouterr().out
        assert "2/2 artifacts" in out


class TestEvaluate:
    def test_unknown_profile_rejected(self, capsys):
        assert main(["evaluate", "--profile", "nonsense"]) == 2

    def test_unknown_platform_rejected(self, capsys):
        assert main(["evaluate", "--platform", "cray-t3d"]) == 2
        assert "error" in capsys.readouterr().out

    def test_unknown_tools_rejected_up_front(self, capsys):
        """Typos fail fast and print the live registry, like --profile."""
        assert main(["evaluate", "--tools", "p4", "linda"]) == 2
        out = capsys.readouterr().out
        assert "'linda'" in out
        assert "pvm" in out

    def test_platform_and_platforms_conflict(self, capsys):
        assert main(["evaluate", "--platform", "sun-ethernet",
                     "--platforms", "alpha-fddi"]) == 2
        assert "not both" in capsys.readouterr().out

    def test_seed_and_seeds_conflict(self, capsys):
        """--seed next to --seeds used to be silently ignored; now the
        ambiguity is an explicit error."""
        assert main(["evaluate", "--seed", "7",
                     "--seeds", "0", "1", "2"]) == 2
        out = capsys.readouterr().out
        assert "either --seed or --seeds" in out

    def test_seed_alone_still_works_as_the_single_replication(self, capsys):
        """--seed keeps its meaning; only the combination is an error
        (the spec validation error proves --seed was accepted and the
        run proceeded to platform validation)."""
        assert main(["evaluate", "--platform", "bogus", "--seed", "7"]) == 2
        assert "unknown platform" in capsys.readouterr().out

    def test_negative_noise_rejected(self, capsys):
        assert main(["evaluate", "--noise", "-1"]) == 2
        assert "noise" in capsys.readouterr().out

    @pytest.mark.slow
    def test_sweep_prints_comparison_and_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        assert main(["evaluate", "--platforms", "sun-ethernet", "sun-atm-lan",
                     "--profile", "balanced", "end-user",
                     "--processors", "2", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sun-atm-lan/end-user" in out
        assert "simulations" in out
        data = json.loads(path.read_text())
        assert set(data) == {"spec", "samples", "scores", "statistics", "telemetry"}
        assert data["telemetry"]["summary"]["simulated"] == len(data["samples"])

    @pytest.mark.slow
    def test_full_evaluation_runs(self, capsys):
        assert main(["evaluate", "--platform", "sun-atm-lan", "--processors", "2"]) == 0
        out = capsys.readouterr().out
        assert "Best tool" in out

    def test_jobs_zero_fails_early_with_clear_message(self, capsys):
        assert main(["evaluate", "--jobs", "0"]) == 2
        out = capsys.readouterr().out
        assert "jobs must be >= 1" in out
        assert "auto" in out

    def test_jobs_negative_fails_early(self, capsys):
        assert main(["evaluate", "--jobs=-3"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().out

    def test_jobs_garbage_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--jobs", "many"])
        assert excinfo.value.code == 2
        assert "'auto'" in capsys.readouterr().err

    def test_jobs_auto_is_accepted(self, capsys):
        """'auto' parses (the run proceeds to platform validation)."""
        assert main(["evaluate", "--jobs", "auto", "--platform", "bogus"]) == 2
        assert "unknown platform" in capsys.readouterr().out

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["evaluate", "--backend", "quantum"])

    @pytest.mark.slow
    def test_progress_streams_to_stderr_and_keeps_stdout_clean(self, capsys):
        assert main(["evaluate", "--tools", "p4", "--processors", "2",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "simulated" in captured.err
        assert "done" in captured.err
        assert "Best tool" in captured.out
        assert "simulated" not in captured.out

    @pytest.mark.slow
    def test_process_backend_end_to_end(self, capsys):
        assert main(["evaluate", "--tools", "p4", "--processors", "2",
                     "--backend", "process", "--jobs", "2"]) == 0
        assert "Best tool" in capsys.readouterr().out

    def test_shards_without_cache_dir_is_harmless(self, capsys):
        """--shards only shapes --cache-dir; alone it must not break
        argument validation."""
        assert main(["evaluate", "--platform", "bogus", "--shards", "4"]) == 2

    @pytest.mark.slow
    def test_cache_dir_resume_simulates_nothing(self, capsys, tmp_path):
        """The acceptance path end to end: a second launch with the
        same --cache-dir re-simulates zero jobs."""
        cache_dir = str(tmp_path / "cache")
        argv = ["evaluate", "--tools", "p4", "--processors", "2",
                "--profile", "balanced", "end-user", "--cache-dir", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "%s: 0 simulated" % cache_dir not in first
        assert "served from disk" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 simulations scored" in second
        assert "%s: 0 simulated" % cache_dir in second

    @pytest.mark.slow
    def test_cache_summary_counts_every_job(self, capsys, tmp_path):
        """Simulated plus served is the job count: a seed-collapsed job
        is served within the pass without a cache probe of its own."""
        from repro.core.spec import EvaluationSpec

        cache_dir = str(tmp_path / "cache")
        assert main(["evaluate", "--tools", "p4", "--processors", "2",
                     "--seeds", "0", "1", "2", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        match = re.search(r"%s: (\d+) simulated, (\d+) served from disk"
                          % re.escape(cache_dir), out)
        simulated, served = int(match.group(1)), int(match.group(2))
        jobs = EvaluationSpec(tools=("p4",), processors=2, seeds=(0, 1, 2)).job_count()
        assert simulated + served == jobs
        assert 0 < simulated < jobs

    @pytest.mark.slow
    def test_seeds_and_stats_report_confidence_intervals(self, capsys, tmp_path):
        """--seeds replicates the sweep; --stats aggregates it to
        mean ±95% CI per cell."""
        assert main(["evaluate", "--tools", "p4", "--processors", "2",
                     "--seeds", "0", "1", "2", "--stats",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "mean ±95% CI over 3 seeds" in out
        assert "±" in out
        assert "sun-ethernet/balanced" in out

    @pytest.mark.slow
    def test_noise_flag_runs_a_stochastic_sweep(self, capsys, tmp_path):
        """Bare --noise (amplitude 1.0) drives the seeded network
        models end to end; the noisy sweep caches under its own
        entries, so a re-run is pure cache hits."""
        cache_dir = str(tmp_path / "cache")
        argv = ["evaluate", "--tools", "p4", "--processors", "2",
                "--seeds", "0", "1", "--noise", "--stats",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "mean ±95% CI over 2 seeds" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "%s: 0 simulated" % cache_dir in second


class TestExecutorOptions:
    """``evaluate`` and ``serve`` offer the serial, process and remote
    backends and no engine choice: every miss is simulated."""

    @pytest.mark.parametrize("command", ["evaluate", "serve"])
    def test_unknown_backend_is_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--backend", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "serve"])
    def test_help_offers_three_backends(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--backend {serial,process,remote}" in out
        assert "engine" not in out.lower()


class TestNoCommand:
    def test_help_printed(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
