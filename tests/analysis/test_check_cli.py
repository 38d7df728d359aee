"""`repro check` end to end, including the HEAD-is-clean meta-test."""

import json
import os

from repro.analysis import all_rules
from repro.cli import main

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))


class TestCheckCommand:
    def test_src_tree_is_clean_on_head(self, capsys):
        # The repo's own invariants hold: this is the same invocation
        # CI's static-smoke job hard-fails on.
        assert main(["check", SRC]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_findings_exit_1_with_file_line_and_hint(self, capsys):
        path = os.path.join(FIXTURES, "locking", "bad_guarded.py")
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "bad_guarded.py:13: [locking.guarded-field]" in out
        assert "hint:" in out

    def test_rule_filter_bisects(self, capsys):
        sim = os.path.join(FIXTURES, "determinism", "sim")
        assert main(["check", "--rule", "determinism.entropy", sim]) == 1
        out = capsys.readouterr().out
        assert "determinism.entropy" in out
        assert "determinism.wall-clock" not in out
        assert "determinism.stream-name" not in out

    def test_unknown_rule_exits_2(self, capsys):
        assert main(["check", "--rule", "nope", SRC]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_missing_path_exits_2(self, capsys):
        assert main(["check", os.path.join(FIXTURES, "absent")]) == 2
        assert "no such file" in capsys.readouterr().out

    def test_json_format_round_trips(self, capsys):
        path = os.path.join(FIXTURES, "schema", "bad_cache_key.py")
        assert main(["check", "--format", "json", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["clean"] is False
        assert {f["rule"] for f in payload["findings"]} == {
            "schema.cache-key-fields"
        }

    def test_list_documents_every_rule_and_dynamic_counterparts(self, capsys):
        assert main(["check", "--list"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out
        assert "tests/analysis_checks/" in out

    def test_help_epilog_documents_every_rule_id(self, capsys):
        try:
            main(["check", "--help"])
        except SystemExit as stop:
            assert stop.code == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out
        assert "repro: allow[" in out
