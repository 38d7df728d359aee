"""Unit tests for the declarative EvaluationSpec and job expansion."""

import pytest

from repro.core import ADL, APL, TPL
from repro.core.jobs import MeasurementJob, application_job, sendrecv_job
from repro.core.spec import DEFAULT_APP_PARAMS, DEFAULT_TPL_SIZES, EvaluationSpec
from repro.core.weights import BALANCED, END_USER, WeightProfile
from repro.errors import EvaluationError


class TestValidation:
    def test_defaults_are_valid(self):
        spec = EvaluationSpec()
        assert spec.tools == ("express", "p4", "pvm")
        assert spec.platforms == ("sun-ethernet",)
        assert spec.tpl_sizes == DEFAULT_TPL_SIZES
        assert spec.apps == tuple(sorted(DEFAULT_APP_PARAMS))
        assert spec.profiles == (BALANCED,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tools": ()},
            {"tools": ("p4", "linda")},
            {"tools": ("p4", "p4")},
            {"platforms": ()},
            {"platforms": ("cray-t3d",)},
            {"platforms": ("sun-ethernet", "sun-ethernet")},
            {"processors": 1},
            {"tpl_sizes": (1024, 0)},
            {"tpl_sizes": (1024, 1024)},
            {"global_sum_ints": 0},
            {"apps": ()},
            {"apps": ("tetris",)},
            {"profiles": ()},
            {"profiles": ("nonsense",)},
            {"profiles": (BALANCED, "balanced")},
            {"profiles": (42,)},
            {"seeds": ()},
            {"seeds": (1, 1)},
            {"noise": -0.1},
            {"noise": float("nan")},
            {"noise": float("inf")},
            {"apps": ("montecarlo",), "app_params": {"montecarlo": {"app": "jpeg"}}},
            {"apps": ("fft2d",), "app_params": {"fft2d": {"size": 16, "seed": 3}}},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(EvaluationError):
            EvaluationSpec(**kwargs)

    def test_profile_names_resolve_to_presets(self):
        spec = EvaluationSpec(profiles=("balanced", "end-user"))
        assert spec.profiles == (BALANCED, END_USER)

    def test_error_lists_available_tools(self):
        with pytest.raises(EvaluationError, match="available: .*p4"):
            EvaluationSpec(tools=("linda",))

    def test_app_params_never_alias_defaults(self):
        spec = EvaluationSpec()
        spec.app_params["jpeg"]["height"] = 999
        assert DEFAULT_APP_PARAMS["jpeg"]["height"] == 256
        assert EvaluationSpec().app_params["jpeg"]["height"] == 256


class TestJobExpansion:
    def test_job_count_and_grid(self):
        spec = EvaluationSpec(
            tools=("p4", "pvm"),
            platforms=("sun-ethernet", "alpha-fddi"),
            tpl_sizes=(1024, 16384),
            apps=("montecarlo",),
            seeds=(0, 7),
        )
        # Per (platform, seed): 2 sizes * 3 primitives * 2 tools
        # + global sum * 2 tools + 1 app * 2 tools = 16 jobs.
        assert spec.job_count() == 16 * 2 * 2
        assert len(spec.cells()) == 2 * 1 * 2

    def test_profiles_do_not_add_jobs(self):
        one = EvaluationSpec(profiles=("balanced",))
        four = EvaluationSpec(
            profiles=("balanced", "end-user", "tool-developer", "application-developer")
        )
        assert one.jobs() == four.jobs()

    def test_jobs_are_hashable_and_unique(self):
        jobs = EvaluationSpec().jobs()
        assert len(set(jobs)) == len(jobs)

    def test_sendrecv_is_a_two_rank_run(self):
        assert sendrecv_job("p4", "sun-ethernet", 1024).processors == 2

    def test_application_job_carries_params(self):
        job = application_job("jpeg", "p4", "sun-ethernet", 4, height=64, width=64)
        assert job.params_dict() == {"app": "jpeg", "height": 64, "width": 64}

    def test_unknown_kind_rejected(self):
        with pytest.raises(EvaluationError):
            MeasurementJob("teleport", "p4", "sun-ethernet", 2)

    def test_noise_reaches_every_job(self):
        spec = EvaluationSpec(apps=("montecarlo",), noise=0.5)
        assert all(job.noise == 0.5 for job in spec.jobs())
        assert all(job.noise == 0.0 for job in spec.with_(noise=0.0).jobs())

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_invalid_job_noise_rejected(self, bad):
        """Negative is nonsense; NaN would additionally break job
        equality (NaN != NaN) and therefore caching."""
        with pytest.raises(EvaluationError):
            sendrecv_job("p4", "sun-ethernet", 1024, noise=bad)

    def test_noise_distinguishes_jobs(self):
        """A noisy job is a different measurement — different hash,
        different serialization, different cache address."""
        from repro.core.cache import job_key

        det = sendrecv_job("p4", "sun-ethernet", 1024)
        noisy = sendrecv_job("p4", "sun-ethernet", 1024, noise=1.0)
        assert det != noisy
        assert job_key(det) != job_key(noisy)
        # Deterministic serialization is byte-stable with the
        # pre-noise format (existing caches/goldens stay valid).
        assert "noise" not in det.to_dict()
        assert noisy.to_dict()["noise"] == 1.0
        assert MeasurementJob.from_dict(noisy.to_dict()) == noisy
        assert MeasurementJob.from_dict(det.to_dict()) == det
        assert "noise=1" in noisy.label() and "noise" not in det.label()


class TestSerialization:
    def test_dict_round_trip(self):
        spec = EvaluationSpec(
            tools=("p4", "express"),
            platforms=("sun-atm-lan", "sp1-switch"),
            processors=6,
            tpl_sizes=(2048,),
            global_sum_ints=1000,
            apps=("fft2d", "psrs"),
            app_params={"fft2d": {"size": 32}},
            profiles=("end-user", "tool-developer"),
            seeds=(3, 5),
        )
        clone = EvaluationSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.to_dict() == spec.to_dict()

    def test_json_round_trip_preserves_custom_profile(self):
        custom = WeightProfile("tpl-only", {TPL: 1.0, APL: 0.0, ADL: 0.0})
        spec = EvaluationSpec(profiles=(custom, "balanced"))
        clone = EvaluationSpec.from_json(spec.to_json())
        assert [p.name for p in clone.profiles] == ["tpl-only", "balanced"]
        assert clone.profiles[0].levels == custom.levels
        assert clone.jobs() == spec.jobs()

    def test_unknown_fields_rejected(self):
        with pytest.raises(EvaluationError):
            EvaluationSpec.from_dict({"tools": ["p4"], "turbo": True})

    def test_with_replaces_axes(self):
        spec = EvaluationSpec()
        wider = spec.with_(platforms=("sun-ethernet", "alpha-fddi"))
        assert wider.platforms == ("sun-ethernet", "alpha-fddi")
        assert spec.platforms == ("sun-ethernet",)

    def test_noise_round_trips(self):
        spec = EvaluationSpec(noise=1.5, seeds=(0, 1))
        assert spec.to_dict()["noise"] == 1.5
        clone = EvaluationSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.noise == 1.5
        assert clone.jobs() == spec.jobs()

    def test_deterministic_spec_serializes_without_noise_field(self):
        """noise=0 must not change the on-disk spec format: old spec
        files and the golden fixtures predate the knob."""
        assert "noise" not in EvaluationSpec().to_dict()
        assert EvaluationSpec.from_dict(EvaluationSpec().to_dict()).noise == 0.0
