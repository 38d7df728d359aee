"""Regression intelligence: the persistent run-history subsystem.

Every :class:`~repro.core.results.ResultSet` the repo produces is
ephemeral — one process's view of one measurement pass.  This package
is the memory on top: a :class:`HistoryStore` keeps one row per run
(full export JSON plus spec hash, git SHA, timestamps, lifecycle state
and provenance, with a denormalized ``samples`` table for SQL-side
aggregation; a row is immutable once its run is over), the diff
engine aligns two runs cell by cell and judges each delta with the
multi-seed Student-t machinery from :mod:`repro.core.stats`, the
analytics layer ranks tools and spots repeat offenders over the
recorded history, and the gate turns a diff into a CI exit code.

Surfaced as ``repro history record|list|show|diff|leaderboard|trend|
gate``, as ``run_evaluation(history_db=...)`` / ``repro evaluate
--history-db``, and by the evaluation service, which keeps its runs in
the same store (``repro serve --db``) and serves its ``GET
/api/history/...`` read endpoints from it.
"""

from repro.history.analytics import HistoryAnalysis, TrendSeries, analyze_history, trend
from repro.history.diff import CellDelta, RunDiff, Tolerances, diff_runs
from repro.history.gate import GateVerdict, run_gate
from repro.history.leaderboard import Leaderboard, LeaderboardRow, leaderboards
from repro.history.store import SCHEMA_VERSION, HistoryStore, current_git_sha

__all__ = [
    "SCHEMA_VERSION",
    "HistoryStore",
    "current_git_sha",
    "CellDelta",
    "RunDiff",
    "Tolerances",
    "diff_runs",
    "GateVerdict",
    "run_gate",
    "Leaderboard",
    "LeaderboardRow",
    "leaderboards",
    "HistoryAnalysis",
    "TrendSeries",
    "analyze_history",
    "trend",
]
