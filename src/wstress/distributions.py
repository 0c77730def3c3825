"""Quantile-grid distributions, parametric baselines, and the transport metric.

Every distribution in the package is represented by its quantile function
sampled on the uniform midpoint grid ``u_i = (i - 0.5) / n`` of (0, 1).  The
midpoints avoid evaluating parametric quantiles at 0 and 1 (where lognormal
and gamma quantiles diverge) and turn every integral over (0, 1) into a plain
mean over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np
from scipy.special import gammaincinv, gammaln, ndtri, xlogy

from .errors import DegenerateGridError, ValidationError
from .kde import kde_density, silverman_bandwidth

__all__ = [
    "DEFAULT_GRID_N",
    "DENSITY_FLOOR",
    "QuantileGrid",
    "Lognormal",
    "Normal",
    "Gamma",
    "Empirical",
    "BaselineSpec",
    "DensityCurve",
    "midpoint_grid",
    "discretize",
    "wasserstein2",
    "cdf_and_density",
    "flat_segments",
    "excess_jumps",
]

DEFAULT_GRID_N = 4096
MIN_GRID_N = 16
DENSITY_FLOOR = 1e-12
FLAT_REL_TOL = 1e-9
_SQRT_2PI = np.sqrt(2 * np.pi)


def midpoint_grid(n: int) -> np.ndarray:
    """The uniform midpoint grid (i - 0.5) / n, i = 1..n."""
    return (np.arange(n) + 0.5) / n


@dataclass(frozen=True)
class QuantileGrid:
    """A quantile function sampled on the uniform midpoint grid.

    Attributes
    ----------
    q : ndarray
        Nondecreasing quantile values; ``q[i]`` represents the quantile over
        the probability cell ``((i)/n, (i+1)/n]`` (0-indexed).
    u : ndarray
        The midpoints, derived from ``len(q)``.
    """

    q: np.ndarray
    u: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1:
            raise ValidationError("quantile values must be a 1-d vector")
        if q.size < MIN_GRID_N:
            raise ValidationError(f"grid size must be at least {MIN_GRID_N}")
        if not np.isfinite(q).all():
            raise ValidationError("quantile values contain non-finite entries")
        scale = max(1.0, float(np.abs(q).max()))
        if np.any(np.diff(q) < -1e-9 * scale):
            raise ValidationError("quantile values must be nondecreasing")
        q = np.maximum.accumulate(q)  # repair float-level wiggles only
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "u", midpoint_grid(q.size))

    @property
    def n(self) -> int:
        return self.q.size


def _scaled_pdf(standard_pdf, y, loc, scale, lower):
    """Density at ``y`` of ``loc + scale * X``, where X has ``standard_pdf`` on [lower, inf].

    The arithmetic of scipy's generic continuous laws: the standard density
    at ``x = (y - loc) / scale``, divided by ``scale``, on the closed support
    ``x >= lower``; 0 below it and NaN at NaN.  A scalar ``y`` gives a scalar.
    """
    x = (np.asarray(y, dtype=float) - loc) / scale
    out = np.where(np.isnan(x), np.nan, 0.0)
    inside = x >= lower
    out[inside] = standard_pdf(x[inside]) / scale
    return out if out.ndim else out[()]


@dataclass(frozen=True)
class Lognormal:
    """Lognormal law of ``exp(mu + sigma * Z)``, Z standard normal.

    Closed forms on ``scipy.special``: the quantile is
    ``exp(sigma * ndtri(u)) * exp(mu)``; the density at y is
    ``exp(-log(x)**2 / (2 sigma**2) - log(sigma x sqrt(2 pi))) / exp(mu)``
    with ``x = y / exp(mu)``, and 0 at and below 0.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError("lognormal requires finite mu and sigma > 0")

    def quantile(self, u):
        return np.exp(self.sigma * ndtri(u)) * math.exp(self.mu)

    def _standard_pdf(self, x):
        logpdf = np.full_like(x, -np.inf)
        pos = x != 0
        xp, s = x[pos], self.sigma
        logpdf[pos] = -np.log(xp) ** 2 / (2 * (s * s)) - np.log(s * xp * _SQRT_2PI)
        return np.exp(logpdf)

    def pdf(self, y):
        return _scaled_pdf(self._standard_pdf, y, 0.0, math.exp(self.mu), 0.0)


@dataclass(frozen=True)
class Normal:
    """Normal law; the quantile is ``ndtri(u) * sigma + mu`` and the density
    ``exp(-x**2 / 2) / sqrt(2 pi) / sigma`` with ``x = (y - mu) / sigma``."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError("normal requires finite mu and sigma > 0")

    def quantile(self, u):
        return ndtri(u) * self.sigma + self.mu

    def pdf(self, y):
        return _scaled_pdf(lambda x: np.exp(-x**2 / 2.0) / _SQRT_2PI, y, self.mu, self.sigma,
                           -np.inf)


@dataclass(frozen=True)
class Gamma:
    """Gamma distribution parameterised by shape and *rate*, plus a shift.

    Closed forms on ``scipy.special``, with shape k and scale ``1 / rate``:
    the quantile is ``gammaincinv(k, u) * scale + shift``; the density at y
    is ``exp(xlogy(k - 1, x) - x - gammaln(k)) / scale`` with
    ``x = (y - shift) / scale``, and 0 below the shift.
    """

    shape: float
    rate: float
    shift: float = 0.0

    def __post_init__(self):
        ok = (
            np.isfinite(self.shape)
            and np.isfinite(self.rate)
            and np.isfinite(self.shift)
            and self.shape > 0
            and self.rate > 0
        )
        if not ok:
            raise ValidationError("gamma requires shape > 0, rate > 0, finite shift")

    def quantile(self, u):
        return gammaincinv(self.shape, u) * (1.0 / self.rate) + self.shift

    def _standard_pdf(self, x):
        k = self.shape
        return np.exp(xlogy(k - 1.0, x) - x - gammaln(k))

    def pdf(self, y):
        return _scaled_pdf(self._standard_pdf, y, self.shift, 1.0 / self.rate, 0.0)


@dataclass(frozen=True)
class Empirical:
    """Empirical baseline from a sample; quantiles use type-7 interpolation."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or s.size < 100:
            raise ValidationError("empirical baseline needs at least 100 samples")
        if not np.isfinite(s).all():
            raise ValidationError("empirical samples contain non-finite entries")
        object.__setattr__(self, "samples", np.sort(s))

    def quantile(self, u):
        return np.quantile(self.samples, u)  # numpy default = type-7 linear

    @cached_property
    def bandwidth(self) -> float:
        """Silverman bandwidth of the sample, computed on first use."""
        return silverman_bandwidth(self.samples)

    @cached_property
    def _density_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The KDE on a ``DEFAULT_GRID_N``-point grid reaching five bandwidths past the sample."""
        h = self.bandwidth
        grid = np.linspace(self.samples[0] - 5.0 * h, self.samples[-1] + 5.0 * h, DEFAULT_GRID_N)
        return grid, kde_density(self.samples, grid, bandwidth=h)

    def pdf(self, y):
        """Gaussian KDE with Silverman bandwidth, evaluated by interpolation."""
        grid, dens = self._density_table
        return np.interp(np.asarray(y, dtype=float), grid, dens, left=0.0, right=0.0)


BaselineSpec = Union[Lognormal, Normal, Gamma, Empirical]


def discretize(spec: BaselineSpec, n: int = DEFAULT_GRID_N) -> QuantileGrid:
    """Sample a baseline's quantile function on the midpoint grid."""
    return QuantileGrid(np.asarray(spec.quantile(midpoint_grid(n)), dtype=float))


def wasserstein2(a: QuantileGrid, b: QuantileGrid) -> float:
    """Order-2 transport distance between two grids of equal size.

    On the real line this is the L2 distance between quantile functions,
    here the root mean square gap across the midpoint grid.
    """
    if a.n != b.n:
        raise ValidationError("grids must have equal size")
    return float(np.sqrt(np.mean((a.q - b.q) ** 2)))


@dataclass(frozen=True)
class DensityCurve:
    """CDF and density of a quantile grid on an equally spaced value grid.

    ``raw_integral`` is the trapezoid integral of the density before it was
    normalised to one; it should be within about 1/n of 1 for absolutely
    continuous grids.
    """

    y: np.ndarray
    f: np.ndarray
    cdf: np.ndarray
    raw_integral: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        f = np.asarray(self.f, dtype=float)
        c = np.asarray(self.cdf, dtype=float)
        if not (y.size == f.size == c.size):
            raise ValidationError("density curve arrays must be equally long")
        if np.any(f < 0.0) or not np.isfinite(f).all():
            raise ValidationError("density values must be finite and nonnegative")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "cdf", c)

    def cdf_at(self, y):
        return np.interp(y, self.y, self.cdf, left=0.0, right=1.0)


def cdf_and_density(grid: QuantileGrid, value_grid_size: int = DEFAULT_GRID_N) -> DensityCurve:
    """Recover the CDF and density of a quantile grid.

    The CDF is ``np.interp(y, q, u)``, the inverse of the piecewise-linear
    quantile through ``(q_i, u_i)``; the density is its central finite
    difference on an equally spaced value grid spanning [q_1, q_n].  An
    atom of m tied cells is a CDF step of (m - 1)/n at its value (np.interp
    returns the last tie's u there); one cell's 1/n spreads over the gap
    below it.  A quantile jump spreads its cell's 1/n evenly over the gap,
    so the density there is about 1/(n * gap), not zero; only ``rn_weights``
    zeroes such gaps.  The density is floored at ``DENSITY_FLOOR``.
    """
    q = grid.q
    span = q[-1] - q[0]
    if span <= 1e-12 * max(1.0, abs(q[0])):
        raise DegenerateGridError("constant quantile grid: single atom, no density")
    if value_grid_size < 16:
        raise ValidationError("value grid needs at least 16 points")
    y = np.linspace(q[0], q[-1], value_grid_size)
    cdf = np.interp(y, q, grid.u)
    f = np.gradient(cdf, y[1] - y[0])
    integral = float(np.trapezoid(f, y))
    if integral > 0.0:
        f = f / integral
    f = np.maximum(f, DENSITY_FLOOR)
    return DensityCurve(y=y, f=f, cdf=cdf, raw_integral=integral)


def flat_segments(grid: QuantileGrid, min_cells: int = 2):
    """Maximal runs of (near-)zero quantile increments.

    Returns a list of ``(u_lo, u_hi, value)`` triples covering at least
    ``min_cells`` consecutive increments at most ``FLAT_REL_TOL`` times the
    grid's range (or 1); these are the atoms of the distribution the grid
    represents.
    """
    q = grid.q
    scale = max(1.0, float(q[-1] - q[0]))
    flat = np.diff(q) <= FLAT_REL_TOL * scale
    # a run of flat increments starts and stops where the padded mask changes
    edges = np.flatnonzero(np.diff(np.concatenate(([False], flat, [False]))))
    return [
        (float(grid.u[i]), float(grid.u[j]), float(q[i]))
        for i, j in zip(edges[::2], edges[1::2])
        if j - i >= min_cells
    ]


def excess_jumps(stressed: QuantileGrid, baseline: QuantileGrid, min_size):
    """Cells where the stressed increment exceeds the baseline's by min_size.

    ``min_size`` is one threshold for every cell or an array of ``n - 1``
    thresholds, one per increment (cell ``i`` spans ``q[i]`` to ``q[i+1]``),
    so a caller can scale it with the local baseline increment.  Returns
    ``(u, size)`` pairs at the cell boundaries ``u = (i + 1) / n``; sizes are
    the excess over the baseline increment, so a smooth baseline does not
    trigger in its own heavy tail.  This is the one jump test of the
    package: the CLI's ``jump@`` flag and the weight-zero gaps of
    :func:`wstress.reweight.rn_weights` both call it.
    """
    if stressed.n != baseline.n:
        raise ValidationError("grids must have equal size")
    min_size = np.asarray(min_size, dtype=float)
    if min_size.ndim and min_size.shape != (stressed.n - 1,):
        raise ValidationError("min_size must be a scalar or one threshold per cell")
    excess = np.diff(stressed.q) - np.diff(baseline.q)
    idx = np.flatnonzero(excess > min_size)
    boundaries = (idx + 1) / stressed.n
    return [(float(b), float(excess[i])) for b, i in zip(boundaries, idx)]
