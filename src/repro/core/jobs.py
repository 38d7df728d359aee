"""Measurement jobs: the atomic, cacheable unit of evaluation work.

A :class:`MeasurementJob` names one simulation — a primitive
micro-benchmark or an application run for one tool on one platform
with fixed parameters and seed.  Jobs are frozen and hashable, so a
job is its own cache key: two sweeps that share a configuration share
the measurement.  :func:`execute_job` maps a job onto the matching
function in :mod:`repro.core.measurements`; it is a module-level
function so jobs can ship to ``concurrent.futures`` worker processes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import EvaluationError, validate_noise

__all__ = [
    "JOB_KINDS",
    "MeasurementJob",
    "canonical_job",
    "execute_job",
    "sendrecv_job",
    "broadcast_job",
    "ring_job",
    "global_sum_job",
    "application_job",
]

#: Every job kind :func:`execute_job` can run.
JOB_KINDS = ("sendrecv", "broadcast", "ring", "global_sum", "application")


@dataclass(frozen=True)
class MeasurementJob:
    """One simulation to run: ``(kind, tool, platform, params, seed, noise)``.

    ``params`` is a sorted tuple of ``(name, value)`` pairs rather
    than a dict so the job stays hashable; :meth:`params_dict` gives
    the convenient view back.  ``noise`` is the seeded stochastic
    amplitude handed to :func:`~repro.hardware.catalog.build_platform`
    (``0.0`` = deterministic); it is part of the job's content
    address, so noisy and deterministic runs never share a cache
    entry.
    """

    kind: str
    tool: str
    platform: str
    processors: int
    params: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    seed: int = 0
    noise: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise EvaluationError(
                "unknown job kind %r; available: %s" % (self.kind, ", ".join(JOB_KINDS))
            )
        object.__setattr__(self, "params", tuple(sorted(tuple(self.params))))
        object.__setattr__(
            self, "noise", validate_noise(self.noise, EvaluationError)
        )

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def seed_sensitive(self) -> bool:
        """Whether this job's sample can depend on its ``seed``.

        With noise on, every medium draws from seeded streams, so every
        job can.  With it off, the TPL kinds draw nothing: Ethernet
        backoff, their only seeded draw, is installed only when noise
        is on.  An application job can unless its class clears
        :attr:`~repro.apps.base.ParallelApplication.seed_sensitive`.
        The scheduler simulates an insensitive job once per pass and
        serves that sample to every seed (see :func:`canonical_job`).
        """
        if self.noise:
            return True
        if self.kind != "application":
            return False
        return _app_seed_sensitive(dict(self.params).get("app"))

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready description (the persistent cache's entry body).

        ``noise`` appears only when nonzero: deterministic jobs keep
        the exact serialization (and therefore the exact cache keys)
        they had before the knob existed, so existing cache
        directories and golden fixtures stay valid.
        """
        data = {
            "kind": self.kind,
            "tool": self.tool,
            "platform": self.platform,
            "processors": self.processors,
            "params": [[name, value] for name, value in self.params],
            "seed": self.seed,
        }
        if self.noise:
            data["noise"] = self.noise
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MeasurementJob":
        """Rebuild a job from :meth:`to_dict` output (JSON turns the
        param pairs into lists; re-tuple them so the job hashes)."""
        return cls(
            kind=data["kind"],
            tool=data["tool"],
            platform=data["platform"],
            processors=int(data["processors"]),
            params=tuple((name, value) for name, value in data["params"]),
            seed=int(data["seed"]),
            noise=float(data.get("noise", 0.0)),
        )

    def short_label(self) -> str:
        """Compact ``kind tool@platform`` tag — sized for the one-line
        progress displays fed by the streaming run events, where the
        full :meth:`label` (params, seed, noise) would not fit."""
        return "%s %s@%s" % (self.kind, self.tool, self.platform)

    def label(self) -> str:
        """Short human-readable description (for logs and traces)."""
        inner = ", ".join("%s=%s" % item for item in self.params)
        text = "%s[%s] %s@%s/%d seed=%d" % (
            self.kind, inner, self.tool, self.platform, self.processors, self.seed,
        )
        if self.noise:
            text += " noise=%g" % self.noise
        return text


@functools.lru_cache(maxsize=None)
def _app_seed_sensitive(app: Optional[str]) -> bool:
    """The ``seed_sensitive`` declaration of the application ``app``
    (read once per app: a warm re-sweep asks for every job)."""
    from repro.apps.suite import application_class

    try:
        return application_class(app).seed_sensitive
    except KeyError:
        return True  # an unknown app: let execute_job report it


def canonical_job(job: MeasurementJob) -> MeasurementJob:
    """The name of ``job``'s seed class: ``job`` itself, or the same job
    at seed 0 when its sample cannot depend on the seed.  Jobs with
    equal canonical jobs have bit-identical samples, so a scheduler pass
    simulates the first job of each class it meets and serves that
    sample to the rest of the class.

    The copy takes the already-validated fields as they are (a warm
    re-sweep maps every job, and re-running ``__init__`` would cost
    more than the cache read it saves).
    """
    if job.seed == 0 or job.seed_sensitive():
        return job
    canonical = object.__new__(MeasurementJob)
    canonical.__dict__.update(job.__dict__, seed=0)
    return canonical


def sendrecv_job(
    tool: str, platform: str, nbytes: int, seed: int = 0, noise: float = 0.0
) -> MeasurementJob:
    """Round-trip echo between ranks 0 and 1 (always a 2-rank run)."""
    return MeasurementJob("sendrecv", tool, platform, 2, (("nbytes", nbytes),), seed, noise)


def broadcast_job(
    tool: str, platform: str, nbytes: int, processors: int, seed: int = 0,
    noise: float = 0.0,
) -> MeasurementJob:
    return MeasurementJob(
        "broadcast", tool, platform, processors, (("nbytes", nbytes),), seed, noise
    )


def ring_job(
    tool: str, platform: str, nbytes: int, processors: int, seed: int = 0,
    noise: float = 0.0,
) -> MeasurementJob:
    return MeasurementJob("ring", tool, platform, processors, (("nbytes", nbytes),), seed, noise)


def global_sum_job(
    tool: str, platform: str, vector_ints: int, processors: int, seed: int = 0,
    noise: float = 0.0,
) -> MeasurementJob:
    return MeasurementJob(
        "global_sum", tool, platform, processors, (("vector_ints", vector_ints),), seed, noise
    )


def application_job(
    app: str, tool: str, platform: str, processors: int, seed: int = 0,
    noise: float = 0.0, **app_params
) -> MeasurementJob:
    params = (("app", app),) + tuple(app_params.items())
    return MeasurementJob("application", tool, platform, processors, params, seed, noise)


def execute_job(job: MeasurementJob) -> Optional[float]:
    """Run one job's simulation and return its sample (seconds).

    ``None`` marks "Not Available" (a tool missing the primitive),
    exactly as in :mod:`repro.core.measurements`.
    """
    from repro.core import measurements

    params = job.params_dict()
    if job.kind == "sendrecv":
        return measurements.measure_sendrecv(
            job.tool, job.platform, params["nbytes"],
            processors=job.processors, seed=job.seed, noise=job.noise,
        )
    if job.kind == "broadcast":
        return measurements.measure_broadcast(
            job.tool, job.platform, params["nbytes"],
            processors=job.processors, seed=job.seed, noise=job.noise,
        )
    if job.kind == "ring":
        return measurements.measure_ring(
            job.tool, job.platform, params["nbytes"],
            processors=job.processors, seed=job.seed, noise=job.noise,
        )
    if job.kind == "global_sum":
        return measurements.measure_global_sum(
            job.tool, job.platform, params["vector_ints"],
            processors=job.processors, seed=job.seed, noise=job.noise,
        )
    if job.kind == "application":
        app_name = params.pop("app")
        return measurements.measure_application(
            app_name, job.tool, job.platform,
            processors=job.processors, seed=job.seed, noise=job.noise, **params,
        )
    raise EvaluationError("unknown job kind %r" % job.kind)
