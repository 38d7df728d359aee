"""Re-weighting is free: each (platform, seed) cell is scored once.

A weight profile changes only the final weighted sum of a report, so a
:class:`~repro.core.results.ResultSet` keeps every set's ratio scores
and the level aggregates per (platform, seed) cell and shares them
between profiles.  Two kinds of test guard that:

* the count — over a multi-profile, multi-seed spec, comparison,
  export and a report for a profile outside the spec score each
  (platform, seed, measurement set) triple exactly once;
* equivalence — every cell's scores, statistics, ranking and
  ``detail`` equal those of a frozen copy of the scoring as it was
  before the memo (per report, straight from the samples), on a
  deterministic spec with PVM's unavailable global sum and on a noisy
  one; and no two reports share a mutable dict.
"""

import pytest

from repro.core import metrics
from repro.core.evaluation import EvaluationReport, ToolEvaluation
from repro.core.levels import ADL, APL, TPL
from repro.core.metrics import Measurement, MeasurementSet, aggregate_scores
from repro.core.results import ResultSet
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec
from repro.core.stats import summarize
from repro.core.usability import adl_score
from repro.core.weights import PRESET_PROFILES, WeightProfile
from repro.errors import EvaluationError

_TINY = dict(
    tpl_sizes=(1024, 4096),
    global_sum_ints=2_000,
    apps=("montecarlo", "fft2d"),
    app_params={"montecarlo": {"samples": 5_000}, "fft2d": {"size": 16}},
    processors=2,
)

CUSTOM = WeightProfile("custom", {TPL: 0.5, APL: 0.1, ADL: 0.4})


def _spec(**changes):
    axes = dict(
        _TINY,
        platforms=("sun-ethernet", "sun-atm-lan"),
        profiles=tuple(PRESET_PROFILES),
        seeds=(0, 1, 2),
    )
    axes.update(changes)
    return EvaluationSpec(**axes)


@pytest.fixture(scope="module")
def deterministic():
    spec = _spec()
    return Scheduler().run(spec)


@pytest.fixture(scope="module")
def noisy():
    spec = _spec(noise=0.5, profiles=("balanced", "end-user"))
    return Scheduler().run(spec)


# ----------------------------------------------------------------------
# The scoring before the per-cell memo, frozen verbatim: sets grouped
# straight from the spec's job expansion, every report scored alone.
# ----------------------------------------------------------------------


def _frozen_collect(jobs, name, values):
    return MeasurementSet(name, [Measurement(job.tool, values[job]) for job in jobs])


def _frozen_tpl_sets(spec, platform, seed, values):
    by_kind_size = {}
    for job in spec.tpl_jobs(platform, seed):
        by_kind_size.setdefault((job.kind, job.params), []).append(job)
    sets = []
    names = {"sendrecv": "send/receive %dB", "broadcast": "broadcast %dB",
             "ring": "ring %dB"}
    for (kind, params), jobs in by_kind_size.items():
        params = dict(params)
        if kind == "global_sum":
            name = "global sum %d ints" % params["vector_ints"]
        else:
            name = names[kind] % params["nbytes"]
        sets.append(_frozen_collect(jobs, name, values))
    return sets


def _frozen_apl_sets(spec, platform, seed, values):
    by_app = {}
    for job in spec.apl_jobs(platform, seed):
        by_app.setdefault(job.params_dict()["app"], []).append(job)
    return [_frozen_collect(jobs, app, values) for app, jobs in by_app.items()]


def frozen_report(result, platform, profile, seed):
    spec = result.spec
    tpl_sets = _frozen_tpl_sets(spec, platform, seed, result.values)
    apl_sets = _frozen_apl_sets(spec, platform, seed, result.values)
    tpl_scores = aggregate_scores([s.scores() for s in tpl_sets])
    apl_scores = aggregate_scores([s.scores() for s in apl_sets])
    adl_scores = {tool: adl_score(tool) for tool in spec.tools}

    evaluations = []
    for tool in spec.tools:
        level_scores = {
            TPL: tpl_scores[tool],
            APL: apl_scores[tool],
            ADL: adl_scores[tool],
        }
        overall = profile.overall(level_scores)
        detail = {
            "tpl": {s.name: s.scores()[tool] for s in tpl_sets},
            "apl": {s.name: s.scores()[tool] for s in apl_sets},
        }
        evaluations.append(ToolEvaluation(tool, level_scores, overall, detail))

    return EvaluationReport(
        platform, spec.processors, profile, evaluations, tpl_sets, apl_sets
    )


def _sets_view(sets):
    return [(s.name, [(m.tool, m.value) for m in s.measurements]) for s in sets]


def _assert_same_report(report, frozen):
    assert report.platform_name == frozen.platform_name
    assert report.processors == frozen.processors
    assert report.profile is frozen.profile
    assert report.scores() == frozen.scores()
    assert report.ranking() == frozen.ranking()
    assert report.best_tool() == frozen.best_tool()
    assert [e.tool for e in report.evaluations] == [e.tool for e in frozen.evaluations]
    for evaluation, expected in zip(report.evaluations, frozen.evaluations):
        assert evaluation.overall == expected.overall
        assert list(evaluation.level_scores.items()) == list(expected.level_scores.items())
        assert evaluation.detail == expected.detail
        assert list(evaluation.detail) == list(expected.detail)
        for key in evaluation.detail:
            assert list(evaluation.detail[key]) == list(expected.detail[key])
    assert _sets_view(report.tpl_sets) == _sets_view(frozen.tpl_sets)
    assert _sets_view(report.apl_sets) == _sets_view(frozen.apl_sets)
    assert report.summary() == frozen.summary()


class TestScoringCount:
    def test_scores_each_set_once_whatever_the_profiles(self, deterministic, monkeypatch):
        """comparison(stats=True), to_dict() and a report for a profile
        outside the spec score each (platform, seed, set) triple
        exactly once — four profiles cost no more than one."""
        spec = deterministic.spec
        result = ResultSet(spec, deterministic.values)
        calls = []
        real = metrics.ratio_scores

        def counting(values):
            calls.append(values)
            return real(values)

        monkeypatch.setattr(metrics, "ratio_scores", counting)
        result.comparison(stats=True)
        result.to_dict()
        for platform in spec.platforms:
            for seed in spec.seeds:
                result.report(platform, CUSTOM, seed)
        # sendrecv, broadcast and ring per size, the global sum, one per app
        sets_per_cell = 3 * len(spec.tpl_sizes) + 1 + len(spec.apps)
        triples = len(spec.platforms) * len(spec.seeds) * sets_per_cell
        assert len(spec.profiles) == 4
        assert len(calls) == triples

    def test_seed_statistics_computed_once(self, deterministic, monkeypatch):
        import repro.core.results as results

        result = ResultSet(deterministic.spec, deterministic.values)
        calls = []
        real = results.summarize

        def counting(samples, confidence=0.95):
            calls.append(confidence)
            return real(samples, confidence)

        monkeypatch.setattr(results, "summarize", counting)
        result.comparison(stats=True)
        result.to_dict()
        spec = result.spec
        assert len(calls) == len(spec.platforms) * len(spec.profiles) * len(spec.tools)
        first = result.seed_statistics()
        first.clear()  # a caller's copy: the memo is untouched
        assert result.seed_statistics() == result.seed_statistics(0.95)
        assert len(result.seed_statistics()) == len(calls)
        result.seed_statistics(0.90)
        assert len(calls) == 2 * len(spec.platforms) * len(spec.profiles) * len(spec.tools)


class TestEquivalence:
    @pytest.mark.parametrize("which", ["deterministic", "noisy"])
    def test_every_cell_matches_frozen_scoring(self, which, request):
        result = request.getfixturevalue(which)
        spec = result.spec
        for platform, profile, seed in spec.cells():
            _assert_same_report(
                result.report(platform, profile, seed),
                frozen_report(result, platform, profile, seed),
            )
            _assert_same_report(
                result.reports()[(platform, profile.name, seed)],
                frozen_report(result, platform, profile, seed),
            )
            _assert_same_report(
                result.report(platform, CUSTOM, seed),
                frozen_report(result, platform, CUSTOM, seed),
            )

    @pytest.mark.parametrize("which", ["deterministic", "noisy"])
    def test_statistics_match_frozen_scoring(self, which, request):
        result = request.getfixturevalue(which)
        spec = result.spec
        stats = result.seed_statistics()
        for platform in spec.platforms:
            for profile in spec.profiles:
                overalls = {tool: [] for tool in spec.tools}
                for seed in spec.seeds:
                    scores = frozen_report(result, platform, profile, seed).scores()
                    for tool in spec.tools:
                        overalls[tool].append(scores[tool]["overall"])
                for tool, samples in overalls.items():
                    assert stats[(platform, profile.name, tool)] == summarize(samples)

    def test_pvm_global_sum_is_unavailable(self, deterministic):
        """The deterministic spec covers a None sample: PVM has no
        global sum, scores 0 for it, and the frozen scoring agrees."""
        spec = deterministic.spec
        report = deterministic.report(spec.platforms[0], "balanced", spec.seeds[0])
        (global_sum,) = [s for s in report.tpl_sets if s.name.startswith("global sum")]
        assert global_sum.values()["pvm"] is None
        pvm = [e for e in report.evaluations if e.tool == "pvm"][0]
        assert pvm.detail["tpl"][global_sum.name] == 0.0

    def test_noisy_seeds_differ(self, noisy):
        """The noisy spec really varies across seeds, so its statistics
        are not the degenerate zero-variance case."""
        stats = noisy.seed_statistics()
        assert any(cell.stddev > 0 for cell in stats.values())

    def test_missing_job_still_refused(self, deterministic):
        values = dict(deterministic.values)
        first = next(iter(values))
        del values[first]
        with pytest.raises(EvaluationError, match="missing 1 of the spec's jobs") as info:
            ResultSet(deterministic.spec, values)
        assert first.label() in str(info.value)


class TestReportsAreSeparate:
    def test_detail_and_level_dicts_are_not_shared(self, deterministic):
        spec = deterministic.spec
        platform, seed = spec.platforms[0], spec.seeds[0]
        first = deterministic.report(platform, "balanced", seed)
        second = deterministic.report(platform, "end-user", seed)
        again = deterministic.report(platform, "balanced", seed)
        expected = frozen_report(deterministic, platform, PRESET_PROFILES["balanced"], seed)
        for one, other in ((first, second), (first, again)):
            for left, right in zip(
                sorted(one.evaluations, key=lambda e: e.tool),
                sorted(other.evaluations, key=lambda e: e.tool),
            ):
                assert left.detail is not right.detail
                assert left.detail["tpl"] is not right.detail["tpl"]
                assert left.detail["apl"] is not right.detail["apl"]
                assert left.level_scores is not right.level_scores
        for evaluation in first.evaluations:
            evaluation.detail["tpl"].clear()
            evaluation.detail["apl"]["montecarlo"] = -1.0
            evaluation.level_scores[TPL] = -1.0
        _assert_same_report(again, expected)
        _assert_same_report(
            deterministic.report(platform, "balanced", seed), expected
        )
