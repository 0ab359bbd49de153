"""Scalar geometry and statistics helpers used by the closed-form formulas.

Ball volumes, sphere areas, the radial integral of an exponential and the
binomial standard error.  Incomplete gamma values, the normal distribution and
the Kolmogorov distribution are taken from ``scipy.special`` directly
(``gammainc`` here, ``gammaincc`` and ``ndtr`` in ``kernel``, ``ndtr`` and
``kolmogorov`` in ``process``).
"""
from __future__ import annotations

import math

from scipy.special import gammainc


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


def binomial_se(p: float, n: int) -> float:
    """Standard error of a proportion p over n trials, floored at the 1/n resolution."""
    return math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
