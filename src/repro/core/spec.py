"""Declarative evaluation specs: the grid an evaluation should cover.

An :class:`EvaluationSpec` is pure data — tools x platforms x message
sizes x applications x weight profiles x seeds — validated eagerly
against the live registries and serializable to JSON.  It *describes*
an evaluation; :meth:`EvaluationSpec.jobs` expands it into the flat
list of :class:`~repro.core.jobs.MeasurementJob` simulations that a
:class:`~repro.core.scheduler.Scheduler` executes.  Because weight
profiles never influence a measurement, a spec with many profiles
still expands to one set of jobs: re-scoring is free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.jobs import MeasurementJob
from repro.core.levels import STANDARD_LEVELS
from repro.core.weights import BALANCED, PRESET_PROFILES, WeightProfile
from repro.errors import EvaluationError, validate_noise

__all__ = ["DEFAULT_APP_PARAMS", "DEFAULT_TPL_SIZES", "EvaluationSpec"]

#: Message sizes (bytes) for the TPL sweeps: small / medium / large.
DEFAULT_TPL_SIZES = (1024, 16384, 65536)

#: Quick application workloads used for scoring runs (the full paper
#: workloads live in the figure benchmarks, where runtime is expected).
DEFAULT_APP_PARAMS = {
    "jpeg": {"height": 256, "width": 256},
    "fft2d": {"size": 64},
    "montecarlo": {"samples": 200_000},
    "psrs": {"keys": 50_000},
}

ProfileLike = Union[str, WeightProfile]

#: Names an application job takes from the grid, not from ``app_params``.
_JOB_ARGUMENTS = frozenset({"app", "tool", "platform", "processors", "seed", "noise"})


def _resolve_profile(entry: ProfileLike) -> WeightProfile:
    if isinstance(entry, WeightProfile):
        return entry
    if isinstance(entry, str):
        try:
            return PRESET_PROFILES[entry]
        except KeyError:
            raise EvaluationError(
                "unknown weight profile %r; available: %s"
                % (entry, ", ".join(sorted(PRESET_PROFILES)))
            )
    raise EvaluationError(
        "profiles must be preset names or WeightProfile instances, got %r" % (entry,)
    )


def _profile_to_dict(profile: WeightProfile) -> Union[str, dict]:
    preset = PRESET_PROFILES.get(profile.name)
    if preset is not None and preset.levels == profile.levels:
        return profile.name
    return {
        "name": profile.name,
        "levels": {level.key: weight for level, weight in profile.levels.items()},
    }


def _profile_from_dict(data: Union[str, dict]) -> WeightProfile:
    if isinstance(data, str):
        return _resolve_profile(data)
    levels_by_key = {level.key: level for level in STANDARD_LEVELS}
    try:
        weights = {levels_by_key[key]: w for key, w in data["levels"].items()}
        return WeightProfile(data["name"], weights)
    except KeyError as error:
        raise EvaluationError("malformed profile entry %r (%s)" % (data, error))


@dataclass
class EvaluationSpec:
    """A composable description of one evaluation sweep.

    Every axis is a sequence; the spec covers the full cross product.
    Construction validates everything against the *live* registries,
    so tools and platforms registered at run time work like the
    built-ins and typos fail before any simulation starts.

    ``noise`` is a scalar, not an axis: it sets the amplitude of the
    platforms' seeded stochastic network models for *every* job in the
    grid (``0.0`` = deterministic).  Combined with several ``seeds``
    it is what makes :meth:`~repro.core.results.ResultSet.seed_statistics`
    report real simulated variance.
    """

    tools: Sequence[str] = ("express", "p4", "pvm")
    platforms: Sequence[str] = ("sun-ethernet",)
    processors: int = 4
    tpl_sizes: Sequence[int] = DEFAULT_TPL_SIZES
    global_sum_ints: int = 25_000
    apps: Optional[Sequence[str]] = None
    app_params: Dict[str, dict] = field(default_factory=dict)
    profiles: Sequence[ProfileLike] = (BALANCED,)
    seeds: Sequence[int] = (0,)
    noise: float = 0.0

    def __post_init__(self) -> None:
        from repro.apps.suite import BENCHMARKED_APPS, EXTENSION_APPS
        from repro.hardware.catalog import PLATFORM_NAMES
        from repro.tools.registry import TOOL_CLASSES

        self.tools = tuple(self.tools)
        self.platforms = tuple(self.platforms)
        self.tpl_sizes = tuple(int(size) for size in self.tpl_sizes)
        self.seeds = tuple(int(seed) for seed in self.seeds)

        if not self.tools:
            raise EvaluationError("spec needs at least one tool")
        unknown = [tool for tool in self.tools if tool not in TOOL_CLASSES]
        if unknown:
            raise EvaluationError(
                "unknown tools: %s; available: %s"
                % (", ".join(unknown), ", ".join(sorted(TOOL_CLASSES)))
            )
        if len(set(self.tools)) != len(self.tools):
            raise EvaluationError("duplicate tool in spec")

        if not self.platforms:
            raise EvaluationError("spec needs at least one platform")
        unknown = [name for name in self.platforms if name not in PLATFORM_NAMES]
        if unknown:
            raise EvaluationError(
                "unknown platforms: %s; available: %s"
                % (", ".join(unknown), ", ".join(PLATFORM_NAMES))
            )
        if len(set(self.platforms)) != len(self.platforms):
            raise EvaluationError("duplicate platform in spec")

        if self.processors < 2:
            raise EvaluationError("evaluation needs at least 2 processors")
        if any(size <= 0 for size in self.tpl_sizes):
            raise EvaluationError("tpl_sizes must be positive")
        if len(set(self.tpl_sizes)) != len(self.tpl_sizes):
            raise EvaluationError("duplicate message size in spec")
        if self.global_sum_ints <= 0:
            raise EvaluationError("global_sum_ints must be positive")

        # Copy the per-app dicts too: spec.app_params must never alias
        # the module-level defaults (or another spec's workloads).
        params = {name: dict(workload) for name, workload in DEFAULT_APP_PARAMS.items()}
        for name, overrides in dict(self.app_params).items():
            params[name] = dict(overrides)
        self.app_params = params
        self.apps = (
            tuple(self.apps) if self.apps is not None else tuple(sorted(DEFAULT_APP_PARAMS))
        )
        if not self.apps:
            raise EvaluationError("spec needs at least one application")
        known_apps = set(BENCHMARKED_APPS) | set(EXTENSION_APPS)
        unknown = [app for app in self.apps if app not in known_apps]
        if unknown:
            raise EvaluationError(
                "unknown applications: %s; available: %s"
                % (", ".join(unknown), ", ".join(sorted(known_apps)))
            )
        for app in self.apps:
            clash = sorted(set(self.app_params.get(app, ())) & _JOB_ARGUMENTS)
            if clash:
                raise EvaluationError(
                    "app_params[%r] sets %s, which every job sets itself"
                    % (app, ", ".join(clash))
                )

        if not self.seeds:
            raise EvaluationError("spec needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise EvaluationError("duplicate seed in spec")

        self.noise = validate_noise(self.noise, EvaluationError)

        if not self.profiles:
            raise EvaluationError("spec needs at least one weight profile")
        self.profiles = tuple(_resolve_profile(entry) for entry in self.profiles)
        names = [profile.name for profile in self.profiles]
        if len(set(names)) != len(names):
            raise EvaluationError("duplicate weight profile name in spec")

    # ------------------------------------------------------------------
    # Job expansion
    # ------------------------------------------------------------------

    def set_layout(self) -> List[Tuple[str, str, str, int, Tuple]]:
        """The measurement sets of every (platform, seed) cell, in
        report order: ``(level key, set name, kind, processors,
        params)``, one job per tool each.  The job expansion and the
        grouping of samples into sets both read it, so the two cannot
        disagree."""
        names = {"sendrecv": "send/receive %dB", "broadcast": "broadcast %dB",
                 "ring": "ring %dB"}
        layout = []
        for nbytes in self.tpl_sizes:
            for kind in ("sendrecv", "broadcast", "ring"):
                processors = 2 if kind == "sendrecv" else self.processors
                layout.append(
                    ("tpl", names[kind] % nbytes, kind, processors, (("nbytes", nbytes),))
                )
        layout.append((
            "tpl", "global sum %d ints" % self.global_sum_ints, "global_sum",
            self.processors, (("vector_ints", self.global_sum_ints),),
        ))
        for app in self.apps:
            params = (("app", app),) + tuple(self.app_params.get(app, {}).items())
            layout.append(("apl", app, "application", self.processors, tuple(sorted(params))))
        return layout

    def _level_jobs(self, level: str, platform: str, seed: int) -> List[MeasurementJob]:
        return [
            MeasurementJob(kind, tool, platform, processors, params, seed, self.noise)
            for key, _, kind, processors, params in self.set_layout() if key == level
            for tool in self.tools
        ]

    def tpl_jobs(self, platform: str, seed: int) -> List[MeasurementJob]:
        """TPL jobs for one (platform, seed) cell, in report order."""
        return self._level_jobs("tpl", platform, seed)

    def apl_jobs(self, platform: str, seed: int) -> List[MeasurementJob]:
        """APL jobs for one (platform, seed) cell, in report order."""
        return self._level_jobs("apl", platform, seed)

    def iter_jobs(self) -> Iterator[MeasurementJob]:
        """Stream the grid's jobs in report order, cell by cell.

        The scheduler consumes this lazily, so a huge sweep grid never
        materializes as one flat job list — only the current
        (platform, seed) cell's jobs exist at a time.
        """
        for platform in self.platforms:
            for seed in self.seeds:
                for job in self.tpl_jobs(platform, seed):
                    yield job
                for job in self.apl_jobs(platform, seed):
                    yield job

    def jobs(self) -> List[MeasurementJob]:
        """The flat job list covering the whole grid (may contain
        duplicates only if axes overlap, which validation forbids)."""
        return list(self.iter_jobs())

    def job_count(self) -> int:
        """How many jobs the grid expands to — closed form, no
        expansion (``Scheduler.start`` takes it on every run for the
        progress denominator).  Per (platform, seed) cell each tool
        contributes sendrecv+broadcast+ring per message size, one
        global sum, and one job per application."""
        per_tool = 3 * len(self.tpl_sizes) + 1 + len(self.apps)
        return per_tool * len(self.tools) * len(self.platforms) * len(self.seeds)

    def cells(self) -> List[Tuple[str, WeightProfile, int]]:
        """Every (platform, profile, seed) report the spec describes."""
        return [
            (platform, profile, seed)
            for platform in self.platforms
            for profile in self.profiles
            for seed in self.seeds
        ]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "tools": list(self.tools),
            "platforms": list(self.platforms),
            "processors": self.processors,
            "tpl_sizes": list(self.tpl_sizes),
            "global_sum_ints": self.global_sum_ints,
            "apps": list(self.apps),
            "app_params": {name: dict(params) for name, params in self.app_params.items()},
            "profiles": [_profile_to_dict(profile) for profile in self.profiles],
            "seeds": list(self.seeds),
        }
        # Deterministic specs serialize exactly as they did before the
        # noise knob existed, so pre-existing spec files and golden
        # fixtures stay byte-identical.
        if self.noise:
            data["noise"] = self.noise
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationSpec":
        data = dict(data)
        unknown = set(data) - {
            "tools", "platforms", "processors", "tpl_sizes", "global_sum_ints",
            "apps", "app_params", "profiles", "seeds", "noise",
        }
        if unknown:
            raise EvaluationError("unknown spec fields: %s" % ", ".join(sorted(unknown)))
        if "profiles" in data:
            data["profiles"] = [_profile_from_dict(entry) for entry in data["profiles"]]
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvaluationSpec":
        return cls.from_dict(json.loads(text))

    def with_(self, **changes) -> "EvaluationSpec":
        """A copy with some axes replaced (composable sweep building)."""
        return replace(self, **changes)
