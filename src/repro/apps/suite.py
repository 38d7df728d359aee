"""The SU PDABS suite: Table 2 and the implemented-application registry.

Table 2 of the paper lists the full Syracuse parallel/distributed
application benchmark suite by class; the paper's experiments (and
this reproduction's Figures 5-8) use one representative per class:
JPEG Compression, 2D-FFT, Monte Carlo Integration and Parallel
Sorting (PSRS).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Dict, List, Type

if TYPE_CHECKING:
    from repro.apps.base import ParallelApplication

__all__ = [
    "SU_PDABS_TABLE",
    "BENCHMARKED_APPS",
    "EXTENSION_APPS",
    "APPLICATION_CLASSES",
    "application_class",
    "create_application",
    "application_names",
]

#: Table 2 — the full SU PDABS catalog, by application class.
SU_PDABS_TABLE: Dict[str, List[str]] = {
    "Numerical Algorithms": [
        "Fast Fourier Transform",
        "LU Decomposition",
        "Linear Equation Solver",
        "Matrix Multiplication",
    ],
    "Signal/Image Processing": [
        "JPEG Compression",
        "Hough Transform",
        "Ray Tracing",
        "Data Compression",
        "Cryptology",
    ],
    "Simulation/Optimization": [
        "N-body Simulation",
        "Monte Carlo Integration",
        "Traveling Salesman",
        "Branch and Bound",
    ],
    "Utilities": [
        "ADA Compiler",
        "Parallel Sorting",
        "Parallel Search",
        "Distributed Spell Checker",
        "Distributed Make",
    ],
}

#: The four applications the paper benchmarks (Section 2.2: "we have
#: chosen JPEG Compression, Fast Fourier Transform (FFT), Monte Carlo
#: Integration and Parallel sorting"), as ``module:class``.  A class is
#: imported when first asked for, so naming the apps (validating a
#: spec, say) loads neither numpy nor the simulator.
_PAPER_FACTORIES = {
    "jpeg": "repro.apps.jpeg.parallel:JpegCompression",
    "fft2d": "repro.apps.fft.parallel:ParallelFft2d",
    "montecarlo": "repro.apps.montecarlo.parallel:MonteCarloIntegration",
    "psrs": "repro.apps.sorting.parallel:PsrsSort",
}

#: Further Table 2 entries implemented beyond the paper's figures.
_EXTENSION_FACTORIES = {
    "matmul": "repro.apps.linalg.matmul:MatrixMultiply",
    "lu": "repro.apps.linalg.lu:LuDecomposition",
}

_FACTORIES = dict(_PAPER_FACTORIES, **_EXTENSION_FACTORIES)

BENCHMARKED_APPS = tuple(sorted(_PAPER_FACTORIES))
EXTENSION_APPS = tuple(sorted(_EXTENSION_FACTORIES))


def __getattr__(name: str):
    # APPLICATION_CLASSES (app name -> Table 2 class) reads the classes,
    # so it is built on request.
    if name == "APPLICATION_CLASSES":
        return {app: application_class(app).paper_class for app in _FACTORIES}
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def application_names() -> List[str]:
    """Names accepted by :func:`create_application`."""
    return list(BENCHMARKED_APPS)


def application_class(name: str) -> Type[ParallelApplication]:
    """The application class registered as ``name``."""
    try:
        module, cls = _FACTORIES[name].split(":")
    except KeyError:
        raise KeyError(
            "unknown application %r; available: %s" % (name, ", ".join(BENCHMARKED_APPS))
        )
    return getattr(importlib.import_module(module), cls)


def create_application(name: str, **params) -> ParallelApplication:
    """Instantiate a benchmark application by name.

    Keyword parameters configure the workload size, e.g.
    ``create_application("fft2d", size=64)``.
    """
    return application_class(name)(**params)
