"""Single-point function families with known heat-flow behavior.

These profiles serve three roles: as the per-argument factors of product kernel
functions (harmonic module), as the phi of exponential functionals, and, for
the Gaussian bump, which carries its analytic gradient and Laplacian, as the
inner test functions of cylinder functions (both in the semigroup module).
Gaussian bumps and axis-aligned boxes convolve with the heat kernel in closed
form; the smoothed radial indicator convolves by adaptive quadrature.  All
profiles evaluate vectorized over trailing point axes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.special import i0e

from .errors import CapabilityError, SolverError

_QUAD_ABS_TOL = 1.0e-10


def _norms(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"points must have last axis {dim}, got shape {x.shape}")
    return np.linalg.norm(x, axis=-1)


@dataclass(frozen=True)
class GaussianBump:
    """amp * exp(-|x - center|^2 / (2 width^2)), with analytic gradient and Laplacian."""

    amp: float
    center: tuple[float, ...]
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        sq = np.sum((x - np.asarray(self.center)) ** 2, axis=-1)
        return self.amp * np.exp(-sq / (2.0 * self.width**2))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return self(x)[..., None] * (-(x - np.asarray(self.center)) / self.width**2)

    def laplacian(self, x):
        x = np.asarray(x, dtype=float)
        sq = np.sum((x - np.asarray(self.center)) ** 2, axis=-1)
        return self(x) * (sq / self.width**4 - self.dim / self.width**2)

    def heat_convolve(self, t: float) -> "GaussianBump":
        w2 = self.width**2
        factor = (w2 / (w2 + 2.0 * t)) ** (self.dim / 2.0)
        return GaussianBump(self.amp * factor, self.center, math.sqrt(w2 + 2.0 * t))

    def support_box(self, widths: float = 9.0):
        c = np.asarray(self.center)
        half = widths * self.width
        return c - half, c + half

    def decay_bound(self, eps: float) -> float:
        """Closed-form bound on sup |phi(x)| * exp((1+eps)|x|)."""
        c = float(np.linalg.norm(self.center))
        return abs(self.amp) * math.exp((1.0 + eps) * c + (1.0 + eps) ** 2 * self.width**2 / 2.0)


@dataclass(frozen=True)
class BoxIndicator:
    """amp * product of coordinate indicators 1[lo_i <= x_i <= hi_i]."""

    amp: float
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same length")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent in every coordinate")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        inside = np.all((x >= lo) & (x <= hi), axis=-1)
        return self.amp * inside.astype(float)

    def heat_convolve(self, t: float) -> "ErfBox":
        return ErfBox(self.amp, self.lo, self.hi, t)

    def support_box(self, widths: float = 0.0):
        return np.asarray(self.lo), np.asarray(self.hi)

    def decay_bound(self, eps: float) -> float:
        corner = math.sqrt(sum(max(abs(l), abs(h)) ** 2 for l, h in zip(self.lo, self.hi)))
        return abs(self.amp) * math.exp((1.0 + eps) * corner)


@dataclass(frozen=True)
class ErfBox:
    """Heat-convolved box: amp * prod_i (erf((hi_i-x_i)/s) - erf((lo_i-x_i)/s))/2, s = sqrt(4t)."""

    amp: float
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    t: float

    @property
    def dim(self) -> int:
        return len(self.lo)

    def __call__(self, x) -> np.ndarray:
        from scipy.special import erf

        x = np.asarray(x, dtype=float)
        s = math.sqrt(4.0 * self.t)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        factors = 0.5 * (erf((hi - x) / s) - erf((lo - x) / s))
        return self.amp * np.prod(factors, axis=-1)

    def heat_convolve(self, s: float) -> "ErfBox":
        return replace(self, t=self.t + s)

    def support_box(self, widths: float = 9.0):
        pad = widths * math.sqrt(2.0 * self.t)
        return np.asarray(self.lo) - pad, np.asarray(self.hi) + pad


@dataclass(frozen=True)
class ConstantProfile:
    """Constant 1-point factor; invariant under the heat flow (conservativity)."""

    value: float
    ndim: int

    @property
    def dim(self) -> int:
        return self.ndim

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], self.value)

    def heat_convolve(self, t: float) -> "ConstantProfile":
        return self


@dataclass(frozen=True)
class SmoothedIndicator:
    """Radial smoothed indicator amp * (1 - tanh((|x| - radius)/width)) / 2.

    Smooth, equal to ~amp inside the ball and ~0 outside, transition width
    ``width``.  Heat convolution has no closed form; see RadialHeatConvolution.
    """

    amp: float
    radius: float
    width: float
    ndim: int

    def __post_init__(self):
        if self.radius <= 0 or self.width <= 0:
            raise ValueError("radius and width must be positive")

    @property
    def dim(self) -> int:
        return self.ndim

    def radial(self, u):
        return self.amp * 0.5 * (1.0 - np.tanh((np.asarray(u) - self.radius) / self.width))

    def __call__(self, x) -> np.ndarray:
        return self.radial(_norms(x, self.ndim))

    def heat_convolve(self, t: float) -> "RadialHeatConvolution":
        return RadialHeatConvolution(self, t)

    def support_box(self, widths: float = 0.0):
        half = self.radius + 40.0 * self.width
        return -half * np.ones(self.ndim), half * np.ones(self.ndim)


def radial_heat_convolution_value(profile, t: float, rho: float, dim: int, upper: float) -> float:
    """(p_t * phi)(x) for radial phi at |x| = rho, by adaptive quadrature in d = 1, 2, 3."""
    var = 2.0 * t

    if dim == 1:

        def integrand(u):
            a = math.exp(-((u - rho) ** 2) / (2.0 * var))
            b = math.exp(-((u + rho) ** 2) / (2.0 * var))
            return float(profile.radial(u)) * (a + b) / math.sqrt(2.0 * math.pi * var)

    elif dim == 2:

        def integrand(u):
            scaled = i0e(u * rho / var)
            gauss = math.exp(-((u - rho) ** 2) / (2.0 * var))
            return float(profile.radial(u)) * (u / var) * gauss * float(scaled)

    elif dim == 3:
        if rho < 1.0e-12:

            def integrand(u):
                return (
                    float(profile.radial(u))
                    * math.sqrt(2.0 / math.pi)
                    * u
                    * u
                    / var**1.5
                    * math.exp(-u * u / (2.0 * var))
                )

        else:

            def integrand(u):
                a = math.exp(-((u - rho) ** 2) / (2.0 * var))
                b = math.exp(-((u + rho) ** 2) / (2.0 * var))
                return float(profile.radial(u)) * u / (rho * math.sqrt(2.0 * math.pi * var)) * (a - b)

    else:
        raise CapabilityError("radial heat convolution implemented for d in {1, 2, 3}")

    value, err = quad(integrand, 0.0, upper, epsabs=_QUAD_ABS_TOL * 0.1, epsrel=1.0e-12, limit=400)
    if not math.isfinite(value) or err > _QUAD_ABS_TOL:
        raise SolverError(f"radial convolution quadrature did not reach {_QUAD_ABS_TOL} (err={err})")
    return value


@dataclass(frozen=True)
class RadialHeatConvolution:
    """Numeric heat convolution of a radial profile; evaluates by quadrature."""

    base: SmoothedIndicator
    t: float

    @property
    def dim(self) -> int:
        return self.base.dim

    def _upper(self, rho: float) -> float:
        return self.base.radius + 40.0 * self.base.width + rho + 14.0 * math.sqrt(2.0 * self.t)

    def __call__(self, x) -> np.ndarray:
        rho = np.atleast_1d(_norms(x, self.dim))
        out = np.array(
            [radial_heat_convolution_value(self.base, self.t, float(r), self.dim, self._upper(float(r))) for r in rho]
        )
        return out.reshape(np.shape(_norms(x, self.dim)))
