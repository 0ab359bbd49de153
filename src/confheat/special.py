"""Geometry and statistics helpers shared by the closed-form and sampling routes.

Squared distances along the coordinate axis, sums along a short last axis, ball volumes, sphere areas, the
radial integral of an exponential and the binomial standard error.  Incomplete
gamma values, the normal distribution and the Kolmogorov distribution are
taken from ``scipy.special`` directly (``gammainc`` here, ``gammaincc`` and
``erfc`` in ``kernel``, ``ndtr`` and ``kolmogorov`` in ``process``).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

from . import rng


def sq_dist(x, y=None) -> np.ndarray:
    """Squared Euclidean distance along the last (coordinate) axis: |x|^2, or
    |x - y|^2 with ``x`` broadcast against ``y``.

    The squares are added one coordinate at a time, the order numpy's own
    reduction takes on an axis shorter than 8, so for d < 8 the result equals
    ``np.sum((x - y) ** 2, axis=-1)`` bit for bit and its square root equals
    ``np.linalg.norm(x - y, axis=-1)``.  From d = 8 on numpy sums pairwise and
    the two differ by a few ulp.  No (..., d) difference array is formed, and
    numpy's many reductions of length d become d elementwise passes.

    Memory: the output array plus at most ``rng.BLOCK_POINTS`` scratch values.
    The first square goes straight into the output; each later one goes
    through the scratch and is added in.  An output larger than the scratch is
    filled slab by slab, each slab a C-order run of whole rows along its first
    axis whose rows fit, so a slab stays in cache across the d passes.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    shape = x.shape[:-1]
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != d:
            raise ValueError(f"coordinate axes differ: {x.shape} and {y.shape}")
        if y.shape != x.shape:  # equal shapes need no broadcast (it costs more than the sum on small arrays)
            shape = np.broadcast_shapes(shape, y.shape[:-1])
    out = np.empty(shape) if d else np.zeros(shape)
    if d > 1 and out.size > rng.BLOCK_POINTS:
        return _sq_dist_slabs(out, x, y)
    term = np.empty(shape) if d > 1 else None
    for k in range(d):
        # the first square goes straight to out, the later ones through term
        dst = term if k else out
        if y is None:
            np.multiply(x[..., k], x[..., k], out=dst)
        else:
            np.subtract(x[..., k], y[..., k], out=dst)
            dst *= dst
        if k:
            out += term
    return out


def _sq_dist_slabs(out, x, y) -> np.ndarray:
    """sq_dist's coordinate loop on each C-order slab of ``out`` of at most
    ``rng.BLOCK_POINTS`` elements, through one reused scratch: runs of whole
    rows along the first axis whose rows fit, one index on each axis before it.
    The one-slab case keeps the loop inline, since a call would add about 7% to
    a (5, 2) array's time."""
    shape, d = out.shape, x.shape[-1]
    scratch = np.empty(rng.BLOCK_POINTS)
    # broadcast views with the output's axes, so one index cuts an operand and the output alike
    x = np.broadcast_to(x, (*shape, d))
    y = None if y is None else np.broadcast_to(y, (*shape, d))
    axis = 0
    while math.prod(shape[axis + 1:]) > rng.BLOCK_POINTS:
        axis += 1
    rows = rng.block_rows(math.prod(shape[axis + 1:]))
    for lead in np.ndindex(*shape[:axis]):
        for start in range(0, shape[axis], rows):
            cut = tuple(slice(i, i + 1) for i in lead) + (slice(start, start + rows),)
            part, xs, ys = out[cut], x[cut], None if y is None else y[cut]
            term = scratch[:part.size].reshape(part.shape)
            for k in range(d):
                dst = term if k else part
                if ys is None:
                    np.multiply(xs[..., k], xs[..., k], out=dst)
                else:
                    np.subtract(xs[..., k], ys[..., k], out=dst)
                    dst *= dst
                if k:
                    part += term
    return out


def last_axis_sum(a) -> np.ndarray:
    """``np.sum(a, axis=-1)``, bit for bit.

    Below 8 entries numpy adds them one at a time, in order, to a start of 0.0,
    and so does this, by whole-column adds: a (4096, 2) array takes about 6 us
    this way against about 120 us in numpy's reduction, which pays per row.
    From 8 entries on it is ``np.sum``, which then sums pairwise.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    if n >= 8:
        return np.sum(a, axis=-1)
    out = np.zeros(a.shape[:-1])
    for k in range(n):
        out += a[..., k]
    return out


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
