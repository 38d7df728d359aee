"""Unit tests for metric normalization and weight profiles."""

import pytest

from repro.core import (
    ADL,
    APL,
    BALANCED,
    END_USER,
    Measurement,
    MeasurementSet,
    PRESET_PROFILES,
    TPL,
    WeightProfile,
    aggregate_scores,
    rank_by_value,
    ratio_scores,
)
from repro.errors import EvaluationError


class TestRatioScores:
    def test_best_tool_scores_one(self):
        scores = ratio_scores({"a": 2.0, "b": 4.0})
        assert scores["a"] == 1.0
        assert scores["b"] == 0.5

    def test_unavailable_scores_zero(self):
        scores = ratio_scores({"a": 2.0, "b": None})
        assert scores["b"] == 0.0

    def test_all_unavailable(self):
        assert ratio_scores({"a": None, "b": None}) == {"a": 0.0, "b": 0.0}

    def test_zero_time_scores_one(self):
        """A zero best wins; any slower tool scores best/value = 0."""
        scores = ratio_scores({"a": 0.0, "b": 1.0})
        assert scores["a"] == 1.0
        assert scores["b"] == 0.0
        assert ratio_scores({"a": 0.0, "b": 0.0, "c": None}) == {
            "a": 1.0, "b": 1.0, "c": 0.0,
        }

    def test_scores_bounded(self):
        scores = ratio_scores({"a": 1.0, "b": 3.0, "c": 100.0})
        assert all(0.0 <= s <= 1.0 for s in scores.values())


class TestRankByValue:
    def test_orders_ascending(self):
        assert rank_by_value({"slow": 3.0, "fast": 1.0, "mid": 2.0}) == ["fast", "mid", "slow"]

    def test_unavailable_last(self):
        assert rank_by_value({"a": 1.0, "b": None}) == ["a", "b"]

    def test_ties_break_by_name(self):
        assert rank_by_value({"b": 1.0, "a": 1.0}) == ["a", "b"]


class TestMeasurementSet:
    def test_duplicate_tool_rejected(self):
        with pytest.raises(EvaluationError):
            MeasurementSet("x", [Measurement("a", 1.0), Measurement("a", 2.0)])

    def test_negative_value_rejected(self):
        with pytest.raises(EvaluationError):
            Measurement("a", -1.0)

    def test_scores_and_ranking(self):
        ms = MeasurementSet("x", [Measurement("a", 1.0), Measurement("b", 2.0)])
        assert ms.scores() == {"a": 1.0, "b": 0.5}
        assert ms.ranking() == ["a", "b"]

    def test_available_flag(self):
        assert Measurement("a", 1.0).available
        assert not Measurement("a", None).available


class TestAggregateScores:
    def test_equal_weights_mean(self):
        combined = aggregate_scores([{"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 1.0}])
        assert combined == {"a": 0.5, "b": 0.5}

    def test_weighted(self):
        combined = aggregate_scores(
            [{"a": 1.0}, {"a": 0.0}], weights=[3.0, 1.0]
        )
        assert combined["a"] == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate_scores([])

    def test_mismatched_tools_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate_scores([{"a": 1.0}, {"b": 1.0}])

    def test_zero_weights_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate_scores([{"a": 1.0}], weights=[0.0])

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate_scores([{"a": 1.0}], weights=[1.0, 2.0])


class TestWeightProfile:
    def test_normalization(self):
        profile = WeightProfile("x", {TPL: 2.0, APL: 2.0})
        assert profile.weight(TPL) == pytest.approx(0.5)
        assert profile.weight(ADL) == 0.0

    def test_overall_combination(self):
        profile = WeightProfile("x", {TPL: 1.0, APL: 3.0})
        overall = profile.overall({TPL: 1.0, APL: 0.0, ADL: 0.5})
        assert overall == pytest.approx(0.25)

    def test_missing_level_score_rejected(self):
        profile = WeightProfile("x", {TPL: 1.0, APL: 1.0})
        with pytest.raises(EvaluationError):
            profile.overall({TPL: 1.0})

    def test_negative_weight_rejected(self):
        with pytest.raises(EvaluationError):
            WeightProfile("x", {TPL: -1.0})

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            WeightProfile("x", {})

    def test_zero_sum_rejected(self):
        with pytest.raises(EvaluationError):
            WeightProfile("x", {TPL: 0.0, APL: 0.0})

    def test_presets_registered(self):
        assert set(PRESET_PROFILES) == {
            "balanced",
            "end-user",
            "application-developer",
            "tool-developer",
        }

    def test_end_user_emphasizes_apl(self):
        assert END_USER.weight(APL) > END_USER.weight(TPL)
        assert END_USER.weight(APL) > END_USER.weight(ADL)

    def test_balanced_is_uniform(self):
        assert BALANCED.weight(TPL) == pytest.approx(1 / 3)
        assert BALANCED.weight(APL) == pytest.approx(1 / 3)
        assert BALANCED.weight(ADL) == pytest.approx(1 / 3)
