"""SU PDABS benchmark applications (real algorithms, simulated time).

Names resolve on first use: the registry in :mod:`repro.apps.suite`
names every application without loading numpy or the simulator.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: Public name -> the module defining it.
_EXPORTS = {
    "AppRun": "repro.apps.base",
    "ParallelApplication": "repro.apps.base",
    "split_evenly": "repro.apps.base",
    "FftWorkload": "repro.apps.fft.parallel",
    "ParallelFft2d": "repro.apps.fft.parallel",
    "JpegCompression": "repro.apps.jpeg.parallel",
    "JpegWorkload": "repro.apps.jpeg.parallel",
    "LuDecomposition": "repro.apps.linalg",
    "MatrixMultiply": "repro.apps.linalg",
    "MonteCarloIntegration": "repro.apps.montecarlo.parallel",
    "MonteCarloWorkload": "repro.apps.montecarlo.parallel",
    "PsrsSort": "repro.apps.sorting.parallel",
    "SortWorkload": "repro.apps.sorting.parallel",
    "APPLICATION_CLASSES": "repro.apps.suite",
    "BENCHMARKED_APPS": "repro.apps.suite",
    "EXTENSION_APPS": "repro.apps.suite",
    "SU_PDABS_TABLE": "repro.apps.suite",
    "application_names": "repro.apps.suite",
    "create_application": "repro.apps.suite",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
