"""Metric normalization: turning measurements into comparable scores.

The methodology compares tools, so scores are *relative*: for a
lower-is-better measurement set, each tool scores
``best_value / own_value`` — 1.0 for the winner, shrinking toward 0
as a tool falls behind (when the best value is 0, every slower tool
scores 0).  A tool that cannot perform an operation at all (PVM's
missing global sum) scores 0 for it, which is the natural
quantification of "Not Available".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import EvaluationError

__all__ = ["Measurement", "MeasurementSet", "ratio_scores", "aggregate_scores", "rank_by_value"]


class Measurement(object):
    """One timed observation."""

    __slots__ = ("tool", "value", "unit")

    def __init__(self, tool: str, value: Optional[float], unit: str = "s") -> None:
        if value is not None and value < 0:
            raise EvaluationError("measurement value must be non-negative")
        self.tool = tool
        self.value = value
        self.unit = unit

    def __repr__(self) -> str:
        if self.value is None:
            return "<Measurement %s: n/a>" % self.tool
        return "<Measurement %s: %g%s>" % (self.tool, self.value, self.unit)

    @property
    def available(self) -> bool:
        return self.value is not None


class MeasurementSet(object):
    """All tools' measurements of one quantity (lower is better)."""

    def __init__(self, name: str, measurements: Iterable[Measurement]) -> None:
        self.name = name
        self.measurements = list(measurements)
        tools = [m.tool for m in self.measurements]
        if len(set(tools)) != len(tools):
            raise EvaluationError("duplicate tool in measurement set %r" % name)

    def __repr__(self) -> str:
        return "<MeasurementSet %s (%d tools)>" % (self.name, len(self.measurements))

    def values(self) -> Dict[str, Optional[float]]:
        return {m.tool: m.value for m in self.measurements}

    def scores(self) -> Dict[str, float]:
        return ratio_scores(self.values())

    def ranking(self) -> List[str]:
        return rank_by_value(self.values())


def ratio_scores(values: Dict[str, Optional[float]]) -> Dict[str, float]:
    """best/value scores in [0, 1]; unavailable (None) scores 0."""
    available = {tool: v for tool, v in values.items() if v is not None}
    if not available:
        return {tool: 0.0 for tool in values}
    best = min(available.values())
    scores = {}
    for tool, value in values.items():
        if value is None:
            scores[tool] = 0.0
        elif value <= 0:
            scores[tool] = 1.0
        else:
            scores[tool] = best / value
    return scores


def aggregate_scores(
    score_sets: Iterable[Dict[str, float]],
    weights: Optional[Iterable[float]] = None,
) -> Dict[str, float]:
    """Weighted mean of several per-tool score dicts.

    All dicts must cover the same tools.
    """
    score_sets = [dict(s) for s in score_sets]
    if not score_sets:
        raise EvaluationError("nothing to aggregate")
    if weights is None:
        weights = [1.0] * len(score_sets)
    weights = [float(w) for w in weights]
    if len(weights) != len(score_sets):
        raise EvaluationError("got %d weights for %d sets" % (len(weights), len(score_sets)))
    if any(w < 0 for w in weights):
        raise EvaluationError("weights must be non-negative")
    total = sum(weights)
    if total <= 0:
        raise EvaluationError("weights sum to zero")

    tools = set(score_sets[0])
    for score_set in score_sets[1:]:
        if set(score_set) != tools:
            raise EvaluationError("score sets cover different tools")
    return {
        tool: sum(w * s[tool] for w, s in zip(weights, score_sets)) / total
        for tool in tools
    }


def rank_by_value(values: Dict[str, Optional[float]]) -> List[str]:
    """Tools ordered best (smallest) first; unavailable tools last."""
    available = sorted(
        (tool for tool, v in values.items() if v is not None),
        key=lambda tool: (values[tool], tool),
    )
    missing = sorted(tool for tool, v in values.items() if v is None)
    return available + missing
