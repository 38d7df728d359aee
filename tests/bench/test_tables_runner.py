"""Unit tests for table formatting, paper data, and the runner."""

import pytest

from repro.bench import experiments, paper_data
from repro.bench.runner import available_experiments, run_experiment, run_experiments
from repro.bench.tables import format_series, format_table
from repro.errors import ConfigurationError


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "333" in text

    def test_title_included(self):
        assert format_table(["a"], [["1"]], title="T").splitlines()[0] == "T"

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


class TestFormatSeries:
    def test_series_columns(self):
        text = format_series("KB", [1, 2], {"p4": [1.0, 2.0], "pvm": [3.0, 4.0]})
        assert "p4 (ms)" in text
        assert "pvm (ms)" in text
        assert "1.000" in text

    def test_none_rendered_na(self):
        text = format_series("KB", [1], {"pvm": [None]})
        assert "n/a" in text


class TestPaperData:
    def test_table3_has_eight_combos(self):
        # 3 tools x 3 networks, minus Express on the WAN.
        assert len(paper_data.TABLE3_RTT_MS) == 8
        assert ("express", "sun-atm-wan") not in paper_data.TABLE3_RTT_MS

    def test_table3_rows_cover_all_sizes(self):
        for cells in paper_data.TABLE3_RTT_MS.values():
            assert set(cells) == set(paper_data.TABLE3_SIZES_KB)

    def test_table3_values_positive_and_increasing(self):
        for cells in paper_data.TABLE3_RTT_MS.values():
            ordered = [cells[kb] for kb in sorted(cells)]
            assert all(v > 0 for v in ordered)
            assert ordered == sorted(ordered)

    def test_table4_ring_inversion_recorded(self):
        eth = paper_data.TABLE4_EXPECTED_RANKINGS["sun-ethernet"]
        assert eth["ring"] == ["p4", "express", "pvm"]
        assert eth["snd/rcv"] == ["p4", "pvm", "express"]

    def test_figure_claims_reference_real_platforms(self):
        from repro.hardware import PLATFORM_NAMES

        for key, claim in paper_data.FIGURE_CLAIMS.items():
            if "platform" in claim:
                assert claim["platform"] in PLATFORM_NAMES, key

    def test_apl_axes_cover_four_platforms(self):
        assert set(paper_data.APL_PLATFORM_AXES) == {
            "alpha-fddi",
            "sp1-switch",
            "sun-atm-wan",
            "sun-ethernet",
        }


class TestRunner:
    def test_all_fourteen_artifacts_registered(self):
        ids = available_experiments()
        assert len(ids) == 14
        for expected in ["table1", "table3", "fig2-ethernet", "fig4", "fig5", "fig8"]:
            assert expected in ids

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("table99")

    def test_unknown_ids_are_rejected_before_any_artifact_runs(self, monkeypatch):
        ran = []
        for exp_id in ("table1", "table3"):
            monkeypatch.setitem(
                experiments.EXPERIMENTS, exp_id,
                lambda scheduler, exp_id=exp_id: ran.append(exp_id),
            )
        with pytest.raises(ConfigurationError) as raised:
            run_experiments(["table1", "table99", "table3", "fig0"], echo=False)
        assert ran == []
        message = str(raised.value)
        assert "fig0, table99" in message
        assert ", ".join(available_experiments()) in message

    def test_static_experiments_run_fast_and_pass(self):
        for exp_id in ("table1", "table2", "table5"):
            result = run_experiment(exp_id)
            assert result.passed, result.render()

    def test_render_includes_checks(self):
        result = run_experiment("table1")
        text = result.render()
        assert "T1" in text
        assert "[PASS]" in text
