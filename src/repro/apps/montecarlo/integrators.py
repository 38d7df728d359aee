"""Monte Carlo definite integration (the real numerics).

Section 3.3: "generate random points between the integration interval
and calculate the function values at these points and the mean of
these function values gives the value of the definite integral."
Sampling is chunked so memory stays bounded and operation counts can
be charged incrementally.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Tuple

if TYPE_CHECKING:  # numpy loads with the first sample, not with the app
    import numpy as np

from repro.hardware.node import Work

__all__ = [
    "INTEGRANDS",
    "sample_sum",
    "estimate",
    "sampling_work",
]


def _quarter_circle(x: np.ndarray) -> np.ndarray:
    """4*sqrt(1-x^2) on [0,1] integrates to pi."""
    import numpy as np

    return 4.0 * np.sqrt(1.0 - x * x)


def _witch_of_agnesi(x: np.ndarray) -> np.ndarray:
    """4/(1+x^2) on [0,1] integrates to pi."""
    return 4.0 / (1.0 + x * x)


def _damped_wave(x: np.ndarray) -> np.ndarray:
    """exp(-x)*sin(10x) on [0,1]; closed form below."""
    import numpy as np

    return np.exp(-x) * np.sin(10.0 * x)


_DAMPED_WAVE_EXACT = (10.0 - math.exp(-1.0) * (math.sin(10.0) + 10.0 * math.cos(10.0))) / 101.0

#: name -> (vectorized integrand, interval, exact value).
INTEGRANDS = {
    "quarter-circle": (_quarter_circle, (0.0, 1.0), math.pi),
    "witch-of-agnesi": (_witch_of_agnesi, (0.0, 1.0), math.pi),
    "damped-wave": (_damped_wave, (0.0, 1.0), _DAMPED_WAVE_EXACT),
}


def sample_sum(
    integrand: Callable[[np.ndarray], np.ndarray],
    interval: Tuple[float, float],
    samples: int,
    rng: np.random.Generator,
    chunk: int = 65536,
) -> Tuple[float, float]:
    """Sum and sum-of-squares of ``samples`` integrand evaluations."""
    low, high = interval
    total = 0.0
    total_sq = 0.0
    remaining = int(samples)
    while remaining > 0:
        batch = min(remaining, chunk)
        points = rng.uniform(low, high, size=batch)
        values = integrand(points)
        total += float(values.sum())
        total_sq += float((values * values).sum())
        remaining -= batch
    return total, total_sq


def estimate(
    total: float, total_sq: float, samples: int, interval: Tuple[float, float]
) -> Tuple[float, float]:
    """Integral estimate and standard error from pooled sums."""
    if samples <= 1:
        raise ValueError("need at least 2 samples")
    low, high = interval
    width = high - low
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0)
    value = width * mean
    stderr = width * math.sqrt(variance / samples)
    return value, stderr


#: Cost per sample: one uniform draw (~LCG + scale), the integrand
#: (a few transcendental-equivalent flops) and the accumulations.
_FLOPS_PER_SAMPLE = 12
_INT_OPS_PER_SAMPLE = 8


def sampling_work(samples: int) -> Work:
    """Work one node performs drawing and evaluating ``samples``."""
    return Work(
        flops=float(samples) * _FLOPS_PER_SAMPLE,
        int_ops=float(samples) * _INT_OPS_PER_SAMPLE,
    )
