"""Structured results: one measurement pass, many scored reports.

A :class:`ResultSet` holds the samples of every
:class:`~repro.core.jobs.MeasurementJob` a spec expanded to, keyed by
the job itself.  From those it derives — *without re-simulating* —
a full :class:`~repro.core.evaluation.EvaluationReport` for any
(platform, weight profile, seed) cell of the grid, cross-platform /
cross-profile comparison tables, and a JSON export of both raw
samples and scores.  Re-weighting is a pure function of stored
samples, and everything a profile does not change — each set's
ratio scores, the level aggregates — is computed once per
(platform, seed) cell, so a profile costs one weighted sum per tool.
That is what makes multi-profile sweeps free.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

from repro.core.evaluation import EvaluationReport, ToolEvaluation
from repro.core.jobs import MeasurementJob
from repro.core.levels import ADL, APL, TPL
from repro.core.metrics import Measurement, MeasurementSet, aggregate_scores
from repro.core.stats import SampleStats, summarize
from repro.core.usability import adl_score
from repro.core.weights import WeightProfile
from repro.errors import EvaluationError

__all__ = ["ResultSet", "collect_tpl_sets", "collect_apl_sets"]

_LEVELS = ("tpl", "apl")


def _sample_index(values) -> Dict[tuple, Optional[float]]:
    """``values`` keyed by each job's field tuple, so a cell's sets are
    looked up from the spec's layout without building a job."""
    return {
        (job.kind, job.tool, job.platform, job.processors, job.params,
         job.seed, job.noise): value
        for job, value in values.items()
    }


def _collect_cell(spec, layout, index, platform: str, seed: int):
    """``({level key: [MeasurementSet]}, [missing field tuples])`` for
    one (platform, seed) cell, in ``layout`` (report) order."""
    sets = {key: [] for key in _LEVELS}
    missing = []
    for level, name, kind, processors, params in layout:
        measurements = []
        for tool in spec.tools:
            fields = (kind, tool, platform, processors, params, seed, spec.noise)
            if fields in index:
                measurements.append(Measurement(tool, index[fields]))
            else:
                missing.append(fields)
        sets[level].append(MeasurementSet(name, measurements))
    return sets, missing


def _collect(spec, platform: str, seed: int, values, level: str) -> List[MeasurementSet]:
    layout = [entry for entry in spec.set_layout() if entry[0] == level]
    sets, missing = _collect_cell(spec, layout, _sample_index(values), platform, seed)
    if missing:
        raise KeyError(MeasurementJob(*missing[0]))
    return sets[level]


def collect_tpl_sets(spec, platform: str, seed: int, values) -> List[MeasurementSet]:
    """Group TPL job samples into the classic named measurement sets."""
    return _collect(spec, platform, seed, values, "tpl")


def collect_apl_sets(spec, platform: str, seed: int, values) -> List[MeasurementSet]:
    """Group APL job samples into one measurement set per application."""
    return _collect(spec, platform, seed, values, "apl")


class ResultSet(object):
    """Samples for every job of one spec, and the scoring on top.

    Built once, a result set never changes, so it memoizes: the
    measurement sets of each (platform, seed) cell are grouped at
    construction (from the jobs already in ``values``, not a second
    expansion of the spec), and the first report of a cell keeps its
    profile-independent scores.  Every later report of that cell, for
    any profile, reads them; each report still gets its own score and
    ``detail`` dicts.
    """

    def __init__(
        self,
        spec,
        values: Dict[MeasurementJob, Optional[float]],
        telemetry: Optional[Dict[MeasurementJob, "JobTelemetry"]] = None,
    ) -> None:
        self.spec = spec
        self.values = dict(values)
        #: job -> :class:`~repro.core.scheduler.JobTelemetry` for the
        #: pass that produced this set (may be empty for hand-built
        #: sets; scoring never consults it).
        self.telemetry = dict(telemetry) if telemetry else {}
        # (platform, seed) -> level key -> measurement sets.
        self._sets = {}
        layout = spec.set_layout()
        index = _sample_index(self.values)
        missing = []
        for platform in spec.platforms:
            for seed in spec.seeds:
                self._sets[(platform, seed)], lacking = _collect_cell(
                    spec, layout, index, platform, seed
                )
                missing.extend(lacking)
        if missing:
            raise EvaluationError(
                "result set is missing %d of the spec's jobs (first: %s) — "
                "a cancelled or partial run cannot score; re-run the spec "
                "over the same cache to fill the grid"
                % (len(missing), MeasurementJob(*missing[0]).label())
            )
        # Scoring memos: (platform, seed) -> (level key -> [(set name,
        # ratio scores)], tool -> level scores); the full scored grid;
        # confidence -> seed statistics.  comparison, seed_statistics
        # and to_dict all walk the same cells, for every profile.
        self._scores = {}
        self._reports = None
        self._statistics = {}

    def __repr__(self) -> str:
        return "<ResultSet %d samples, %d report cells>" % (
            len(self.values), len(self.spec.cells()),
        )

    def value(self, job: MeasurementJob) -> Optional[float]:
        return self.values[job]

    # ------------------------------------------------------------------
    # Reconstruction of measurement sets
    # ------------------------------------------------------------------

    def _check_cell(self, platform: str, seed: Optional[int]) -> int:
        if platform not in self.spec.platforms:
            raise EvaluationError("platform %r not in spec" % platform)
        if seed is None:
            return self.spec.seeds[0]
        if seed not in self.spec.seeds:
            raise EvaluationError("seed %r not in spec" % seed)
        return seed

    def tpl_sets(self, platform: str, seed: Optional[int] = None) -> List[MeasurementSet]:
        """The named TPL measurement sets for one (platform, seed)."""
        return self._sets[(platform, self._check_cell(platform, seed))]["tpl"]

    def apl_sets(self, platform: str, seed: Optional[int] = None) -> List[MeasurementSet]:
        """The per-application measurement sets for one (platform, seed)."""
        return self._sets[(platform, self._check_cell(platform, seed))]["apl"]

    # ------------------------------------------------------------------
    # Scoring (pure re-weighting; never re-simulates)
    # ------------------------------------------------------------------

    def _resolve_profile(self, profile) -> WeightProfile:
        if profile is None:
            return self.spec.profiles[0]
        if isinstance(profile, WeightProfile):
            return profile
        for candidate in self.spec.profiles:
            if candidate.name == profile:
                return candidate
        raise EvaluationError(
            "profile %r not in spec; available: %s"
            % (profile, ", ".join(p.name for p in self.spec.profiles))
        )

    def _cell_scores(self, platform: str, seed: int):
        """The scores of one (platform, seed) cell that no profile
        changes, computed on first use."""
        cell = self._scores.get((platform, seed))
        if cell is None:
            sets = self._sets[(platform, seed)]
            set_scores = {
                key: [(s.name, s.scores()) for s in sets[key]] for key in _LEVELS
            }
            tpl = aggregate_scores([scores for _, scores in set_scores["tpl"]])
            apl = aggregate_scores([scores for _, scores in set_scores["apl"]])
            levels = {
                tool: {TPL: tpl[tool], APL: apl[tool], ADL: adl_score(tool)}
                for tool in self.spec.tools
            }
            cell = self._scores[(platform, seed)] = (set_scores, levels)
        return cell

    def report(
        self,
        platform: Optional[str] = None,
        profile: Union[WeightProfile, str, None] = None,
        seed: Optional[int] = None,
    ) -> EvaluationReport:
        """The scored report for one grid cell (defaults: first of
        each axis).  ``profile`` may be any :class:`WeightProfile`,
        even one outside the spec — re-weighting is free."""
        platform = platform if platform is not None else self.spec.platforms[0]
        seed = self._check_cell(platform, seed)
        profile = self._resolve_profile(profile)
        set_scores, levels = self._cell_scores(platform, seed)

        evaluations = []
        for tool in self.spec.tools:
            level_scores = dict(levels[tool])
            detail = {
                key: {name: scores[tool] for name, scores in set_scores[key]}
                for key in _LEVELS
            }
            evaluations.append(ToolEvaluation(
                tool, level_scores, profile.overall(level_scores), detail
            ))

        sets = self._sets[(platform, seed)]
        return EvaluationReport(
            platform, self.spec.processors, profile, evaluations,
            sets["tpl"], sets["apl"],
        )

    def reports(self) -> Dict[Tuple[str, str, int], EvaluationReport]:
        """(platform, profile name, seed) -> report, over the grid."""
        if self._reports is None:
            self._reports = {
                (platform, profile.name, seed): self.report(platform, profile, seed)
                for platform, profile, seed in self.spec.cells()
            }
        return self._reports

    def best_tools(self) -> Dict[Tuple[str, str, int], str]:
        """The winning tool of every grid cell."""
        return {cell: report.best_tool() for cell, report in self.reports().items()}

    # ------------------------------------------------------------------
    # Multi-seed statistics
    # ------------------------------------------------------------------

    def seed_statistics(
        self, confidence: float = 0.95
    ) -> Dict[Tuple[str, str, str], SampleStats]:
        """(platform, profile name, tool) -> stats of the overall
        score across the spec's seeds.

        Seeds are the replication axis, so this is the statistically
        honest view of the grid: mean, sample stddev and a t-based
        confidence interval per cell.  A single-seed spec degenerates
        cleanly (stddev and CI are exactly ``0.0``, never NaN).
        Computed once per confidence level; each call returns a new
        dict of the (immutable) stats.
        """
        if confidence in self._statistics:
            return dict(self._statistics[confidence])
        reports = self.reports()
        stats = {}
        for platform in self.spec.platforms:
            for profile in self.spec.profiles:
                overalls = {tool: [] for tool in self.spec.tools}
                for seed in self.spec.seeds:
                    scores = reports[(platform, profile.name, seed)].scores()
                    for tool in self.spec.tools:
                        overalls[tool].append(scores[tool]["overall"])
                for tool, samples in overalls.items():
                    stats[(platform, profile.name, tool)] = summarize(
                        samples, confidence
                    )
        self._statistics[confidence] = stats
        return dict(stats)

    # ------------------------------------------------------------------
    # Rendering and export
    # ------------------------------------------------------------------

    def comparison(self, stats: bool = False, confidence: float = 0.95) -> str:
        """A cross-platform / cross-profile overall-score table.

        With ``stats=True``, seeds aggregate instead of printing one
        row each: every (platform, profile) row shows ``mean ±CI``
        per tool and the winner by mean score.
        """
        if stats:
            return self._comparison_stats(confidence)
        reports = self.reports()
        lines = []
        width = max([12] + [len(tool) for tool in self.spec.tools]) + 2
        header = "Configuration".ljust(34) + "".join(
            tool.ljust(width) for tool in self.spec.tools
        ) + "best"
        lines.append(header)
        lines.append("-" * len(header))
        for (platform, profile_name, seed), report in reports.items():
            label = "%s/%s" % (platform, profile_name)
            if len(self.spec.seeds) > 1:
                label += "#%d" % seed
            scores = report.scores()
            row = label.ljust(34)
            row += "".join(
                ("%.3f" % scores[tool]["overall"]).ljust(width)
                for tool in self.spec.tools
            )
            row += report.best_tool()
            lines.append(row)
        return "\n".join(lines)

    def _comparison_stats(self, confidence: float) -> str:
        stats = self.seed_statistics(confidence)
        lines = [
            "overall score: mean ±%g%% CI over %d seed%s"
            % (confidence * 100, len(self.spec.seeds),
               "" if len(self.spec.seeds) == 1 else "s")
        ]
        width = max([14] + [len(tool) for tool in self.spec.tools]) + 2
        header = "Configuration".ljust(34) + "".join(
            tool.ljust(width) for tool in self.spec.tools
        ) + "best"
        lines.append(header)
        lines.append("-" * len(header))
        for platform in self.spec.platforms:
            for profile in self.spec.profiles:
                cells = {
                    tool: stats[(platform, profile.name, tool)]
                    for tool in self.spec.tools
                }
                row = ("%s/%s" % (platform, profile.name)).ljust(34)
                row += "".join(
                    str(cells[tool]).ljust(width) for tool in self.spec.tools
                )
                row += max(cells, key=lambda tool: cells[tool].mean)
                lines.append(row)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        samples = []
        for job, value in self.values.items():
            sample = {
                "kind": job.kind,
                "tool": job.tool,
                "platform": job.platform,
                "processors": job.processors,
                "params": job.params_dict(),
                "seed": job.seed,
                "seconds": value,
            }
            # Deterministic exports stay byte-identical to the
            # pre-noise format (golden fixtures pin this).
            if job.noise:
                sample["noise"] = job.noise
            samples.append(sample)
        scores = {}
        for (platform, profile_name, seed), report in self.reports().items():
            key = "%s/%s/seed%d" % (platform, profile_name, seed)
            scores[key] = report.scores()
        statistics = {}
        for (platform, profile_name, tool), stats in self.seed_statistics().items():
            cell = "%s/%s" % (platform, profile_name)
            statistics.setdefault(cell, {})[tool] = stats.to_dict()
        data = {
            "spec": self.spec.to_dict(),
            "samples": samples,
            "scores": scores,
            "statistics": statistics,
        }
        if self.telemetry:
            data["telemetry"] = self._telemetry_dict()
        return data

    def _telemetry_dict(self) -> dict:
        jobs = []
        for job, record in self.telemetry.items():
            entry = {
                "kind": job.kind,
                "tool": job.tool,
                "platform": job.platform,
                "processors": job.processors,
                "params": job.params_dict(),
                "seed": job.seed,
            }
            if job.noise:
                entry["noise"] = job.noise
            entry.update(record.to_dict())
            jobs.append(entry)
        walls = [
            record.wall_seconds
            for record in self.telemetry.values()
            if not record.cache_hit and record.wall_seconds is not None
        ]
        summary = {
            "simulated": sum(
                1 for record in self.telemetry.values() if not record.cache_hit
            ),
            "cache_hits": sum(
                1 for record in self.telemetry.values() if record.cache_hit
            ),
            "total_wall_seconds": sum(walls) if walls else 0.0,
            "executors": sorted({r.executor for r in self.telemetry.values()}),
        }
        return {"summary": summary, "jobs": jobs}

    def to_json(self, path: Optional[str] = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text
