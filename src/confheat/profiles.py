"""Single-point function families with known heat-flow behavior.

These profiles serve three roles: as the per-argument factors of product kernel
functions (harmonic module), as the phi of exponential functionals, and, for
the Gaussian bump, which carries its analytic gradient and Laplacian, as the
inner test functions of cylinder functions (both in the semigroup module).
Gaussian bumps and axis-aligned boxes convolve with the heat kernel in closed
form.  The smoothed radial indicator convolves against the radial heat kernel
of its dimension (d = 1, 2, 3), over the kernel's own window |x| +- 14 sqrt(2t),
by one adaptive 21-point Gauss-Kronrod pass over all points at once: every
(point, subinterval) pair is a row of one array, and the rows whose error
estimate is too large are bisected until none is left.  All profiles evaluate
vectorized over trailing point axes, and ``gaussian_bumps`` evaluates several
Gaussian bumps in one array (a Gaussian bump's own call is its one-bump case).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf, exprel, i0e

from .errors import CapabilityError, SolverError
from .kernel import HeatKernelParams
from .special import sq_dist

_QUAD_ABS_TOL = 1.0e-10
_TINY = np.finfo(float).tiny


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
        v = gaussian_bumps((self,), x)[0]
        return v if v.ndim else v[()]

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

    def support_box(self):
        c = np.asarray(self.center)
        half = 9.0 * self.width
        return c - half, c + half

    def decay_bound(self, eps: float) -> float:
        """Closed-form bound on sup |phi(x)| * exp((1+eps)|x|)."""
        c = float(np.linalg.norm(self.center))
        return abs(self.amp) * math.exp((1.0 + eps) * c + (1.0 + eps) ** 2 * self.width**2 / 2.0)


def gaussian_bumps(bumps, x) -> np.ndarray:
    """The values of Gaussian bumps at the points x (..., dim), as (len(bumps), ...).

    Row j is amp_j * exp(-|x - c_j|^2 / (2 w_j^2)), computed for all bumps at
    once in sq_dist's fresh output: divided by -(2 w^2), exponentiated and
    scaled in place.  x / -y is -(x / y) exactly, so each row equals the plain
    expression bit for bit.
    """
    x = np.asarray(x, dtype=float)
    pad = (len(bumps),) + (1,) * (x.ndim - 1)
    v = sq_dist(x, np.array([b.center for b in bumps], dtype=float).reshape(*pad, -1))
    v /= np.array([-(2.0 * b.width**2) for b in bumps]).reshape(pad)
    np.exp(v, out=v)
    v *= np.array([b.amp for b in bumps], dtype=float).reshape(pad)
    return v


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

    def support_box(self):
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
        x = np.asarray(x, dtype=float)
        s = math.sqrt(4.0 * self.t)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        factors = 0.5 * (erf((hi - x) / s) - erf((lo - x) / s))
        return self.amp * np.prod(factors, axis=-1)

    def heat_convolve(self, s: float) -> "ErfBox":
        return replace(self, t=self.t + s)

    def support_box(self):
        pad = 9.0 * math.sqrt(2.0 * self.t)
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
        HeatKernelParams(self.ndim, t)
        return RadialHeatConvolution(self, t)

    def support_box(self):
        half = self.radius + 40.0 * self.width
        return -half * np.ones(self.ndim), half * np.ones(self.ndim)


def _gauss(u, rho, v):
    return np.exp(-((u - rho) ** 2) / (2.0 * v))


#: The radial heat kernel per dimension, with v = 2t: k(u; rho, v) du is the
#: probability that one heat step from |x| = rho lands at radius u.  Beside
#: the Gaussian factor it carries the image term (d = 1), the scaled Bessel
#: function i0e (d = 2), or exprel (d = 3), which keeps the image difference
#: free of cancellation and exact at rho = 0.  Each evaluates on arrays.
_RADIAL_HEAT_KERNELS = {
    1: lambda u, rho, v: _gauss(u, rho, v) * (1.0 + np.exp(-2.0 * u * rho / v)) / math.sqrt(2.0 * math.pi * v),
    2: lambda u, rho, v: u / v * _gauss(u, rho, v) * i0e(u * rho / v),
    3: lambda u, rho, v: 2.0 * u * u / v * _gauss(u, rho, v) * exprel(-2.0 * u * rho / v)
    / math.sqrt(2.0 * math.pi * v),
}

#: half-width of the integration window in kernel standard deviations sqrt(2t);
#: the Gaussian mass beyond it is below 1e-40
_KERNEL_WINDOW_SDS = 14.0

#: the indicator's transition region is radius +- 40 widths (the margin of
#: SmoothedIndicator.support_box); beyond it phi is within |amp| e^-80 of amp or 0
_TRANSITION_WIDTHS = 40.0

#: at most this many subintervals per point (QUADPACK's ``limit``)
_QUAD_MAX_INTERVALS = 400

#: points integrated together, so at most this many times the cap rows are live
_POINT_BLOCK = 128

# The 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21): its nodes, the
# Kronrod weights, and the weights of the embedded 10-point Gauss rule, which
# are zero at the 11 Kronrod-only nodes.
_GK21_HALF_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_GK21_HALF_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208814179165, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GK21_HALF_GAUSS = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0])
_GK21_NODES = np.concatenate([-_GK21_HALF_NODES, _GK21_HALF_NODES[-2::-1]])
#: columns: Kronrod weights, Gauss weights
_GK21_WEIGHTS = np.column_stack([np.concatenate([w, w[-2::-1]]) for w in (_GK21_HALF_KRONROD, _GK21_HALF_GAUSS)])


@dataclass(frozen=True)
class RadialHeatConvolution:
    """(p_t * phi)(x) for a radial phi in d = 1, 2, 3: the integral of phi
    against the radial heat kernel over the kernel's window
    [max(0, |x| - 14 sqrt(2t)), |x| + 14 sqrt(2t)], by adaptive 21-point
    Gauss-Kronrod quadrature run on all points at once.

    Each window starts cut at radius - 40 width, radius and radius + 40 width,
    so the rule sees the indicator's transition however wide the window.  A
    subinterval is accepted when QUADPACK's qk21 error estimate is at most
    1e-11 times its share of the window, and is bisected otherwise; a point
    that needs more than 400 subintervals raises SolverError.  So does a
    non-finite value, or a summed estimate, with QUADPACK's rounding floor of
    50 eps |value|, above 1e-10.  Other dimensions raise CapabilityError.
    """

    base: SmoothedIndicator
    t: float

    @property
    def dim(self) -> int:
        return self.base.dim

    def __call__(self, x) -> np.ndarray:
        rho = _norms(x, self.dim)
        if self.dim not in _RADIAL_HEAT_KERNELS:
            raise CapabilityError("radial heat convolution implemented for d in {1, 2, 3}")
        flat = rho.ravel()
        out = np.empty(flat.shape)
        for start in range(0, flat.size, _POINT_BLOCK):
            out[start:start + _POINT_BLOCK] = self._integrate(flat[start:start + _POINT_BLOCK])
        return out.reshape(rho.shape)

    def _integrate(self, rho: np.ndarray) -> np.ndarray:
        """The convolution at the radii ``rho`` (1-d), one row per (point, subinterval)."""
        kernel = _RADIAL_HEAT_KERNELS[self.dim]
        v = 2.0 * self.t
        n = rho.size
        half = _KERNEL_WINDOW_SDS * math.sqrt(v)
        lo, hi = np.maximum(rho - half, 0.0), rho + half
        margin = _TRANSITION_WIDTHS * self.base.width
        cuts = np.clip(self.base.radius + np.array([-margin, 0.0, margin]), lo[:, None], hi[:, None])
        edges = np.column_stack([lo, cuts, hi])
        a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        owner = np.repeat(np.arange(n), 4)
        keep = b > a
        a, b, owner = a[keep], b[keep], owner[keep]
        intervals = np.bincount(owner, minlength=n)
        value, error = np.zeros(n), np.zeros(n)
        while a.size:
            h = 0.5 * (b - a)
            u = (a + h)[:, None] + h[:, None] * _GK21_NODES
            f = self.base.radial(u) * kernel(u, rho[owner, None], v)
            resk, resg = (f @ _GK21_WEIGHTS).T
            kron = h * resk
            # QUADPACK's qk21 estimate: |K - G| grows toward the spread of f about
            # its mean while the rule does not resolve f, so a first coarse pass
            # on which K and G agree by chance is not accepted
            spread = h * (np.abs(f - 0.5 * resk[:, None]) @ _GK21_WEIGHTS[:, 0])
            err = spread * np.minimum(1.0, 200.0 * h * np.abs(resk - resg) / np.maximum(spread, _TINY)) ** 1.5
            split = err > 0.1 * _QUAD_ABS_TOL * (b - a) / (hi - lo)[owner]
            intervals += np.bincount(owner[split], minlength=n)
            if np.any(intervals > _QUAD_MAX_INTERVALS):
                raise SolverError(f"radial convolution quadrature needs more than {_QUAD_MAX_INTERVALS} subintervals")
            done = ~split
            value += np.bincount(owner[done], kron[done], minlength=n)
            error += np.bincount(owner[done], err[done], minlength=n)
            mid = a[split] + h[split]
            a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
            owner = np.tile(owner[split], 2)
        # QUADPACK's rounding floor, 50 eps times the integral of |integrand|,
        # which is |value| because the integrand has the sign of amp throughout
        error += 50.0 * np.finfo(float).eps * np.abs(value)
        if not np.all(np.isfinite(value)) or np.any(error > _QUAD_ABS_TOL):
            raise SolverError(f"radial convolution quadrature did not reach {_QUAD_ABS_TOL} "
                              f"(err={float(np.max(error))})")
        return value
