"""Single-point function families with known heat-flow behavior.

These profiles serve three roles: as the per-argument factors of product kernel
functions (harmonic module), as the phi of exponential functionals, and, for
the Gaussian bump, which carries its analytic gradient and Laplacian, as the
inner test functions of cylinder functions (both in the semigroup module).
Gaussian bumps and axis-aligned boxes convolve with the heat kernel in closed
form.  The smoothed radial indicator convolves by one adaptive quadrature per
point against the radial heat kernel of its dimension (d = 1, 2, 3), over the
kernel's own window |x| +- 14 sqrt(2t).  All profiles evaluate vectorized over
trailing point axes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.special import exprel, i0e

from .errors import CapabilityError, SolverError
from .special import sq_dist

_QUAD_ABS_TOL = 1.0e-10


def _norms(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"points must have last axis {dim}, got shape {x.shape}")
    return np.sqrt(sq_dist(x))


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
        return self.amp * np.exp(-sq_dist(x, self.center) / (2.0 * self.width**2))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return self(x)[..., None] * (-(x - np.asarray(self.center)) / self.width**2)

    def laplacian(self, x):
        sq = sq_dist(x, self.center)
        return self.amp * np.exp(-sq / (2.0 * self.width**2)) * (sq / self.width**4 - self.dim / self.width**2)

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


def _gauss(u: float, rho: float, v: float) -> float:
    return math.exp(-((u - rho) ** 2) / (2.0 * v))


#: The radial heat kernel per dimension, with v = 2t: k(u; rho, v) du is the
#: probability that one heat step from |x| = rho lands at radius u.  Beside
#: the Gaussian factor it carries the image term (d = 1), the scaled Bessel
#: function i0e (d = 2), or exprel (d = 3), which keeps the image difference
#: free of cancellation and exact at rho = 0.
_RADIAL_HEAT_KERNELS = {
    1: lambda u, rho, v: _gauss(u, rho, v) * (1.0 + math.exp(-2.0 * u * rho / v)) / math.sqrt(2.0 * math.pi * v),
    2: lambda u, rho, v: u / v * _gauss(u, rho, v) * float(i0e(u * rho / v)),
    3: lambda u, rho, v: 2.0 * u * u / v * _gauss(u, rho, v) * float(exprel(-2.0 * u * rho / v))
    / math.sqrt(2.0 * math.pi * v),
}

#: half-width of the integration window in kernel standard deviations sqrt(2t);
#: the Gaussian mass beyond it is below 1e-40
_KERNEL_WINDOW_SDS = 14.0


@dataclass(frozen=True)
class RadialHeatConvolution:
    """(p_t * phi)(x) for a radial phi in d = 1, 2, 3: per point, one adaptive
    quadrature of phi against the radial heat kernel over the kernel's window
    [max(0, |x| - 14 sqrt(2t)), |x| + 14 sqrt(2t)]."""

    base: SmoothedIndicator
    t: float

    @property
    def dim(self) -> int:
        return self.base.dim

    def __call__(self, x) -> np.ndarray:
        rho = _norms(x, self.dim)
        kernel = _RADIAL_HEAT_KERNELS.get(self.dim)
        if kernel is None:
            raise CapabilityError("radial heat convolution implemented for d in {1, 2, 3}")
        v = 2.0 * self.t
        half = _KERNEL_WINDOW_SDS * math.sqrt(v)
        out = np.empty(rho.shape)
        for i, r in np.ndenumerate(rho):
            r = float(r)
            value, err = quad(lambda u: float(self.base.radial(u)) * kernel(u, r, v), max(0.0, r - half), r + half,
                              epsabs=_QUAD_ABS_TOL * 0.1, epsrel=1.0e-12, limit=400)
            if not math.isfinite(value) or err > _QUAD_ABS_TOL:
                raise SolverError(f"radial convolution quadrature did not reach {_QUAD_ABS_TOL} (err={err})")
            out[i] = value
        return out
