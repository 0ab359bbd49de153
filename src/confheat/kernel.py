"""Closed-form Gaussian heat kernel on R^d and its verified tail bounds.

The transition density is p(t, x, y) = (4*pi*t)^(-d/2) * exp(-|x-y|^2 / (4t)),
i.e. the displacement over time t is centered Gaussian with variance 2t per
coordinate.  Tail masses are exact regularized upper incomplete gamma values
(closed forms in d <= 3, ``scipy.special.gammaincc`` above) at one radius or an
array of radii, and the
dominating-bound certificates (constants C_t, eps_t, theta_t for the kernel
bound and C, delta for the exponential tail bound) carry a safety margin: C_t
is closed form over the whole time window, the tail C a grid maximum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaincc

#: relative / absolute tolerance for the Chapman-Kolmogorov identity check
CK_REL_TOL = 1.0e-10
CK_ABS_TOL = 1.0e-30


@dataclass(frozen=True)
class HeatKernelParams:
    """Dimension and time scale of the Gaussian transition density."""

    dim: int
    t: float

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not (isinstance(self.t, (int, float)) and math.isfinite(self.t) and self.t > 0):
            raise ValueError(f"t must be a positive finite real, got {self.t!r}")


@dataclass(frozen=True)
class BoundCertificate:
    """Constants witnessing the dominating kernel bound and the tail bound.

    ``c_t``/``eps_t`` witness p(s, x, y) <= c_t * exp(-|x-y|^(1+eps_t)); when
    ``theta_t`` is set the bound is claimed on the time window
    (t - theta_t, t + theta_t), otherwise at s = t only.  ``tail_c`` and
    ``tail_delta`` witness tau(tail_delta, r) <= tail_c * exp(-r).
    """

    c_t: float
    eps_t: float
    theta_t: float | None = None
    tail_c: float | None = None
    tail_delta: float | None = None

    def __post_init__(self):
        if self.c_t <= 0 or self.eps_t <= 0:
            raise ValueError("certificate constants must be positive")
        if self.theta_t is not None and self.theta_t <= 0:
            raise ValueError("theta_t must be positive when given")
        if (self.tail_c is None) != (self.tail_delta is None):
            raise ValueError("tail_c and tail_delta must be given together")
        if self.tail_c is not None and (self.tail_c <= 0 or self.tail_delta <= 0):
            raise ValueError("tail constants must be positive")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking a certificate on a grid; ratios <= 1 mean the bound holds."""

    passed: bool
    worst_ratio: float
    worst_pair: tuple[float, float] | None
    tail_worst_ratio: float | None = None
    tail_worst_r: float | None = None


def _as_point(x, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"expected a point in R^{dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def density(params: HeatKernelParams, x, y) -> float:
    """Transition density p(t, x, y); symmetric in (x, y), integrates to 1."""
    x = _as_point(x, params.dim)
    y = _as_point(y, params.dim)
    sq = float(np.dot(x - y, x - y))
    return (4.0 * math.pi * params.t) ** (-params.dim / 2.0) * math.exp(-sq / (4.0 * params.t))


def tail_mass(params: HeatKernelParams, r):
    """Probability that the displacement over time t exceeds radius r.

    Exactly Q(d/2, x) with x = r^2/(4t) and Q the regularized upper incomplete
    gamma; independent of the start point.  In d <= 3 it is a closed form, faster
    and more accurate than ``gammaincc``: Q(1/2, x) = erfc(sqrt(x)), Q(1, x) =
    e^-x and Q(3/2, x) = erfc(sqrt(x)) + 2 sqrt(x/pi) e^-x.  ``r`` is one
    finite, nonnegative radius, giving a Python float, or an array of them,
    giving an array of its shape.
    """
    radii = np.asarray(r, dtype=float)
    bad = ~(np.isfinite(radii) & (radii >= 0))
    if bad.any():
        raise ValueError(f"radius must be finite and nonnegative, got {float(radii[bad][0])!r}")
    if params.dim == 1:
        q = erfc(radii / (2.0 * math.sqrt(params.t)))
    else:
        x = radii * radii / (4.0 * params.t)
        if params.dim == 2:
            q = np.exp(-x)
        elif params.dim == 3:
            s = np.sqrt(x)
            q = erfc(s) + 2.0 / math.sqrt(math.pi) * s * np.exp(-x)
        else:
            q = gammaincc(params.dim / 2.0, x)
    return float(q) if q.ndim == 0 else q


def tau(dim: int, delta: float, r):
    """Worst-case tail mass sup_{t <= delta} of tail_mass; the sup is attained at t = delta.

    The Gaussian tail is strictly increasing in t for fixed r > 0, so the
    supremum over (0, delta] is the endpoint value.  Takes ``r`` as ``tail_mass`` does.
    """
    return tail_mass(HeatKernelParams(dim, delta), r)


def chapman_kolmogorov_residual(params_t: HeatKernelParams, params_s: HeatKernelParams, x, y) -> float:
    """|int p(t,x,z) p(s,z,y) dz  -  p(t+s,x,y)| via the Gaussian-convolution closed form.

    The convolution integral is evaluated by completing the square (product of
    the two normalizations times the Gaussian-overlap factor), which is a
    different floating-point path from the direct (t+s)-density; the residual
    is pure round-off and must stay below CK_REL_TOL relatively.
    """
    if params_t.dim != params_s.dim:
        raise ValueError("dimensions must agree")
    d = params_t.dim
    t, s = params_t.t, params_s.t
    x = _as_point(x, d)
    y = _as_point(y, d)
    sq = float(np.dot(x - y, x - y))
    convolved = (
        (4.0 * math.pi * t) ** (-d / 2.0)
        * (4.0 * math.pi * s) ** (-d / 2.0)
        * (4.0 * math.pi * t * s / (t + s)) ** (d / 2.0)
        * math.exp(-sq / (4.0 * (t + s)))
    )
    direct = density(HeatKernelParams(d, t + s), x, y)
    return abs(convolved - direct)


def verify_dominating_bound(params: HeatKernelParams, grid, cert: BoundCertificate) -> BoundReport:
    """Check the certificate on every (s, r) grid pair; report the worst ratio.

    The first pair, in grid order, with a nonpositive time, a negative radius
    or a time outside the certified window raises.  When the certificate
    carries tail constants, tau(tail_delta, r) <= tail_c * e^{-r} is
    additionally checked on the r-values of the grid.
    """
    grid = list(grid)
    pairs = np.asarray(grid, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("grid must be a nonempty sequence of (s, r) pairs")
    s, r = pairs.T
    theta = cert.theta_t
    if theta is not None:
        outside = ~((params.t - theta < s) & (s < params.t + theta))
    else:
        outside = np.abs(s - params.t) > 1.0e-12 * max(1.0, params.t)
    bad = (s <= 0) | (r < 0) | outside
    if bad.any():
        gs, gr = grid[int(np.argmax(bad))]
        if gs <= 0:
            raise ValueError(f"grid time must be positive, got {gs}")
        if gr < 0:
            raise ValueError(f"grid radius must be nonnegative, got {gr}")
        if theta is not None:
            raise ValueError(f"grid time {gs} outside the certified window ({params.t - theta}, {params.t + theta})")
        raise ValueError(f"certificate without theta_t only covers s = t, got s = {gs}")
    # in log space: the density and the bound underflow together far out, where their quotient is finite
    log_ratios = r ** (1.0 + cert.eps_t) - r * r / (4.0 * s) - params.dim / 2.0 * np.log(4.0 * math.pi * s)
    ratios = np.exp(log_ratios - math.log(cert.c_t))
    k = int(np.argmax(ratios))
    worst, worst_pair = float(ratios[k]), (float(s[k]), float(r[k]))
    tail_worst = None
    tail_worst_r = None
    if cert.tail_c is not None:
        mass = tau(params.dim, cert.tail_delta, r)
        # once the tail mass underflows to 0 the ratio is 0, also past r = 745 where e^-r underflows too
        tail = np.divide(mass, cert.tail_c * np.exp(-r), out=np.zeros_like(mass), where=mass > 0)
        k = int(np.argmax(tail))
        tail_worst, tail_worst_r = float(tail[k]), float(r[k])
    passed = worst <= 1.0 and (tail_worst is None or tail_worst <= 1.0)
    return BoundReport(passed, worst, worst_pair, tail_worst, tail_worst_r)


def fit_condition_certificate(
    params: HeatKernelParams,
    eps_t: float = 0.5,
    theta_t: float | None = None,
    tail_delta: float = 0.25,
    margin: float = 1.1,
    r_step: float = 0.01,
) -> BoundCertificate:
    """Certificate constants: C_t in closed form, the tail C by a grid over r, both times ``margin``.

    For 0 < eps < 1, r^(1+eps) - r^2/(4s) peaks at r*(s) = (2s(1+eps))^(1/(1-eps)),
    so log sup_r p(s, r) e^(r^(1+eps)) = h(s) = -(d/2) log(4 pi s) + ((1-eps)/2) r*^(1+eps).
    h is convex in s, so its supremum over the window is at an edge.
    """
    if theta_t is None:
        theta_t = params.t / 2.0
    if not (0 < theta_t < params.t):
        raise ValueError("theta_t must lie in (0, t)")
    if not (0 < eps_t < 1):
        raise ValueError(f"eps_t must lie in (0, 1), got {eps_t!r}")

    def h(s):
        r_star = (2.0 * s * (1.0 + eps_t)) ** (1.0 / (1.0 - eps_t))
        return -params.dim / 2.0 * math.log(4.0 * math.pi * s) + (1.0 - eps_t) / 2.0 * r_star ** (1.0 + eps_t)

    try:
        c_t = math.exp(math.log(margin) + max(h(params.t - theta_t), h(params.t + theta_t)))
    except OverflowError:
        raise ValueError(
            f"dominating constant overflows for t={params.t:g}, eps_t={eps_t:g}; "
            "use a smaller time window or a smaller exponent"
        ) from None
    tail_grid = np.arange(0.0, 25.0 + r_step, r_step)
    tail_c = float(np.max(tau(params.dim, tail_delta, tail_grid) * np.exp(tail_grid)))
    return BoundCertificate(
        c_t=c_t,
        eps_t=eps_t,
        theta_t=theta_t,
        tail_c=margin * tail_c,
        tail_delta=tail_delta,
    )
