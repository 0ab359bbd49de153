"""Finite point configurations on centered ball windows, and their heat flow.

A Configuration is the window restriction of a (possibly infinite) configuration:
positions inside B(0, R) with integer multiplicities.  Infinite configurations
are represented by a finite window plus the exact Poisson tail of B_n beyond it
(truncation_tail_bound); nothing here ever claims to hold an infinite set.
Poisson configurations come from one batched sampler, ``poisson_points``, which
draws the counts of all replicas and then all their positions; ``diffuse``
moves every particle of a configuration by one heat step in one normal draw.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .special import ball_volume, exp_radial_integral, sq_dist

_WINDOW_SLACK = 1.0e-9


@dataclass(frozen=True)
class Window:
    """Centered ball window with Poisson intensity z (w.r.t. Lebesgue measure)."""

    radius: float
    intensity: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if not (math.isfinite(self.intensity) and self.intensity > 0):
            raise ValueError(f"intensity must be positive, got {self.intensity!r}")


@dataclass(frozen=True, eq=False)
class Configuration:
    """Finite weighted point set in R^d inside the ball B(0, window_radius).

    ``positions`` has shape (n_sites, dim); ``multiplicities`` is int per site.
    Simple configurations (all multiplicities 1) model plain point sets; higher
    multiplicities model coinciding particles, which one-dimensional flows
    cannot exclude.  ``intensity`` optionally records the Poisson intensity, for
    the exact B_n tail beyond the window (``truncation_tail_bound``).
    """

    dim: int
    positions: np.ndarray
    multiplicities: np.ndarray
    window_radius: float
    intensity: float | None = None

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=float))
        if pos.size == 0:
            pos = pos.reshape(0, self.dim)
        if pos.ndim != 2 or pos.shape[1] != self.dim:
            raise ValueError(f"positions must have shape (n, {self.dim}), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        mult = np.asarray(self.multiplicities, dtype=np.int64).reshape(-1)
        if mult.shape != (pos.shape[0],):
            raise ValueError("multiplicities must match the number of sites")
        if pos.shape[0] and mult.min() < 1:
            raise ValueError("multiplicities must be >= 1")
        if not (math.isfinite(self.window_radius) and self.window_radius > 0):
            raise ValueError(f"window_radius must be positive, got {self.window_radius!r}")
        if pos.shape[0]:
            norms = np.sqrt(sq_dist(pos))
            if norms.max() > self.window_radius * (1.0 + _WINDOW_SLACK) + _WINDOW_SLACK:
                raise ValueError("all positions must lie within the window radius")
        if self.intensity is not None and not (math.isfinite(self.intensity) and self.intensity > 0):
            raise ValueError("intensity must be positive when given")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "multiplicities", mult)

    # -- basic views -------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self.positions.shape[0]

    @property
    def total_count(self) -> int:
        """Particle count with multiplicity."""
        return int(self.multiplicities.sum())

    @property
    def is_simple(self) -> bool:
        return bool(np.all(self.multiplicities == 1))

    def expand(self) -> np.ndarray:
        """Positions repeated per multiplicity, shape (total_count, dim)."""
        return np.repeat(self.positions, self.multiplicities, axis=0)

    def same_as(self, other: "Configuration") -> bool:
        """Order-independent equality of the underlying multisets."""
        a, b = as_multiset(self), as_multiset(other)
        return (
            a.dim == b.dim
            and a.positions.shape == b.positions.shape
            and np.array_equal(a.positions, b.positions)
            and np.array_equal(a.multiplicities, b.multiplicities)
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, dim: int, window_radius: float = 1.0, intensity: float | None = None):
        return cls(dim, np.zeros((0, dim)), np.zeros(0, dtype=np.int64), window_radius, intensity)

    @classmethod
    def from_points(cls, dim: int, points, multiplicities=None, window_radius=None, intensity=None):
        pos = np.asarray(points, dtype=float).reshape(-1, dim)
        if multiplicities is None:
            mult = np.ones(pos.shape[0], dtype=np.int64)
        else:
            mult = np.asarray(multiplicities, dtype=np.int64)
        if window_radius is None:
            top = float(np.sqrt(sq_dist(pos)).max()) if pos.shape[0] else 0.0
            window_radius = top + 1.0
        return cls(dim, pos, mult, window_radius, intensity)

    # -- serialization (stable JSON schema, bit-exact round trip) -----------

    def to_dict(self) -> dict:
        doc = {
            "dim": self.dim,
            "window_radius": self.window_radius,
            "points": [[list(map(float, p)), int(m)] for p, m in zip(self.positions, self.multiplicities)],
        }
        if self.intensity is not None:
            doc["intensity"] = self.intensity
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "Configuration":
        pts = doc.get("points", [])
        pos = np.array([p for p, _ in pts], dtype=float).reshape(-1, int(doc["dim"]))
        mult = np.array([m for _, m in pts], dtype=np.int64)
        return cls(int(doc["dim"]), pos, mult, float(doc["window_radius"]), doc.get("intensity"))

    @classmethod
    def from_json(cls, text: str) -> "Configuration":
        return cls.from_dict(json.loads(text))


def as_multiset(gamma: Configuration) -> Configuration:
    """Canonical form: coincident sites merged, sites sorted lexicographically.

    Idempotent, and configurations that differ only by site order or by how a
    repeated position is split across sites map to the same canonical form.
    """
    if gamma.n_sites == 0:
        return gamma
    order = np.lexsort(gamma.positions.T[::-1])
    pos = gamma.positions[order]
    mult = gamma.multiplicities[order]
    # first row of each run of equal sorted rows
    starts = np.flatnonzero(np.concatenate([[True], np.any(pos[1:] != pos[:-1], axis=1)]))
    merged_mult = np.add.reduceat(mult, starts)
    return replace(gamma, positions=pos[starts], multiplicities=merged_mult)


def uniform_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n i.i.d. uniform draws from the ball B(0, radius) in R^dim."""
    if n == 0:
        return np.zeros((0, dim))
    g = rng.standard_normal((n, dim))
    norms = np.sqrt(sq_dist(g))
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(n) ** (1.0 / dim)
    return g * (radii / norms)[:, None]


def poisson_points(rng: np.random.Generator, m: int, window: Window, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """m independent Poisson point processes on B(0, R), as (counts, positions):
    m Poisson(z*vol) counts, then the uniform positions of all their points in
    replica order, shape (counts.sum(), dim)."""
    counts = rng.poisson(window.intensity * ball_volume(dim, window.radius), size=m)
    return counts, uniform_ball(rng, int(counts.sum()), dim, window.radius)


def sample_poisson(window: Window, dim: int, rng: np.random.Generator) -> Configuration:
    """Poisson point process on B(0, R): Poisson(z*vol) count, uniform positions."""
    counts, pos = poisson_points(rng, 1, window, dim)
    return Configuration(dim, pos, np.ones(counts[0], dtype=np.int64), window.radius, window.intensity)


def default_pad(t: float, dim: int) -> float:
    """Window enlargement after heat flow: beyond the 6-sigma displacement scale."""
    return 6.0 * math.sqrt(2.0 * t) * math.sqrt(dim) + 1.0


def diffuse(gamma: Configuration, t: float, rng: np.random.Generator) -> Configuration:
    """Move every particle (multiplicity-unfolded) by an independent heat-kernel step.

    The output window is enlarged by ``default_pad`` (6*sqrt(2t)*sqrt(d) + 1) or
    further if a particle lands outside; the particle count is preserved exactly.
    """
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0):
        raise ValueError(f"t must be positive, got {t!r}")
    start = gamma.expand()
    moved = start + math.sqrt(2.0 * t) * rng.standard_normal(start.shape)
    radius = gamma.window_radius + default_pad(t, gamma.dim)
    if moved.shape[0]:
        radius = max(radius, float(np.sqrt(sq_dist(moved)).max()) * (1.0 + _WINDOW_SLACK))
    return Configuration(
        gamma.dim,
        moved,
        np.ones(moved.shape[0], dtype=np.int64),
        radius,
        gamma.intensity,
    )


def truncation_tail_bound(R: float, n: int, dim: int, intensity: float) -> float:
    """E[sum over |x| > R of exp(-|x|/n)] under the Poisson law of intensity z, exactly.

    By Campbell's formula it is z times the integral of exp(-|x|/n) over
    |x| > R: z |S^{d-1}| (d-1)! n^d Q(d, R/n), the full-space integral times the
    regularized upper incomplete gamma, which for integer d is the Poisson tail
    Q(d, x) = e^{-x} sum_{k<d} x^k/k!.
    """
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"R must be positive, got {R!r}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    x = R / n
    q = math.exp(-x) * sum(x**k / math.factorial(k) for k in range(dim))
    return intensity * exp_radial_integral(1.0 / n, dim) * q
