"""Scalar geometry and statistics helpers used by the closed-form formulas.

Ball volumes, sphere areas, the radial integral of an exponential, the
binomial standard error and the two-sample Kolmogorov-Smirnov test.  Incomplete
gamma values, the normal distribution and the Kolmogorov distribution are taken
from ``scipy.special`` directly (``gammainc`` here, ``gammaincc`` and ``ndtr``
in ``kernel``, ``ndtr`` in ``process``).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, kolmogorov


def ball_volume(dim: int, radius: float = 1.0) -> float:
    """Volume of the Euclidean ball of the given radius in R^dim."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius**dim


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim (2 for dim=1, 2*pi for dim=2, ...)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def exp_radial_integral(alpha: float, dim: int, radius: float = math.inf) -> float:
    """Integral of exp(-alpha*|x|) over the ball B(0, radius) in R^dim.

    Equals sphere_area(d) * gamma_inc(d, alpha*R) / alpha^d; radius=inf gives
    the full-space value sphere_area(d) * (d-1)! / alpha^d.
    """
    if alpha <= 0.0:
        raise ValueError("decay rate must be positive")
    if not radius >= 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius!r}")
    full = sphere_area(dim) * math.gamma(dim) / alpha**dim
    if math.isinf(radius):
        return full
    return full * float(gammainc(dim, alpha * radius))


def ks_two_sample(x, y) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and Stephens-corrected asymptotic p-value."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([x, y])
    cdf1 = np.searchsorted(x, pooled, side="right") / n1
    cdf2 = np.searchsorted(y, pooled, side="right") / n2
    d = float(np.max(np.abs(cdf1 - cdf2)))
    ne = n1 * n2 / (n1 + n2)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    return d, float(kolmogorov(lam))


def binomial_se(p: float, n: int) -> float:
    """Standard error of a proportion p over n trials, floored at the 1/n resolution."""
    return math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
