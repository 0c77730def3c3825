"""Per-sample reweighting from a stressed output distribution.

The stressed model induces a change of measure whose density on the output
is the ratio of the stressed to the baseline output density.  Evaluating
that ratio at each Monte Carlo output sample turns baseline draws into
stressed-model expectations without re-simulation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import (
    DEFAULT_GRID_N,
    DENSITY_FLOOR,
    BaselineSpec,
    Empirical,
    QuantileGrid,
    discretize,
    excess_jumps,
)
from .errors import ValidationError
from .isotonic import as_weights
from .kde import kde_density

__all__ = [
    "SampleSet",
    "WeightSet",
    "rn_weights",
    "stressed_cdf",
    "stressed_expectation",
]

ZERO_WEIGHT_WARN_FRACTION = 0.05
#: largest ``|normalisation - 1|`` that ``rn_weights`` accepts without a warning
NORMALISATION_WARN = 0.02


@dataclass(frozen=True)
class SampleSet:
    """A Monte Carlo matrix of inputs and the univariate output."""

    X: np.ndarray
    Y: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 1 or X.shape[0] != Y.size:
            raise ValidationError("inputs must be (n_samples, n_inputs) with matching output")
        if X.shape[0] < 100:
            raise ValidationError("need at least 100 samples")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise ValidationError("samples contain non-finite entries")
        cols = tuple(self.columns)
        if len(cols) != X.shape[1]:
            raise ValidationError("column names must match the input count")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "columns", cols)

    @property
    def n_samples(self) -> int:
        return self.Y.size

    def column(self, name: str) -> np.ndarray:
        try:
            return self.X[:, self.columns.index(name)]
        except ValueError:
            raise ValidationError(f"unknown column {name!r}") from None


@dataclass(frozen=True)
class WeightSet:
    """Nonnegative per-sample weights normalised to mean one."""

    w: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        w = as_weights(self.w, np.size(self.w))
        mean = w.mean()
        if not mean > 0.0:
            raise ValidationError("weights are too small: their mean underflows to zero")
        if abs(mean - 1.0) > 1e-8:
            w = w / mean
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.w.size

    @cached_property
    def sorted_w(self) -> np.ndarray:  # sorted once for every sensitivity
        return np.sort(self.w)


def rn_weights(samples: SampleSet, baseline: BaselineSpec, stressed: QuantileGrid) -> WeightSet:
    """Per-sample density-ratio weights stressed/baseline at the output.

    The stress is the displacement ``shift = stressed.q - baseline.q`` of
    each baseline quantile.  The ratio is formed on a common equally spaced
    value grid spanning the pooled range of the baseline support, the
    stressed grid, and the observed (and, for empirical baselines,
    transported) outputs (``DEFAULT_GRID_N`` points), then linearly
    interpolated to the sample points; the baseline density is floored at
    ``DENSITY_FLOOR`` before division.

    For parametric baselines the stressed density is the difference quotient
    of the grid's CDF (as in ``cdf_and_density``) on the value grid: atoms
    keep their mass in a spike one or two cells wide at their value, so
    weights stay bounded (the spacing is ``bin_width``), quantile jumps are
    mass-free and give weight zero (counted in ``zero_weight_count``), and
    past the outer knots the ratio follows the baseline density shifted by
    the stress's mean end displacement.  For empirical baselines each sample
    moves by the displacement interpolated at its value (held at the end
    values past the end knots) and both densities are kernel estimates with
    one shared bandwidth.

    The weights' mean before ``WeightSet`` rescales it to one is
    ``meta["normalisation"]``: about the share of the stressed law that lies
    where the samples are.  A reweighting cannot move an atom or put mass
    beyond every sample, so a mean further than ``NORMALISATION_WARN`` from
    one warns that the weighted sample describes another law.
    """
    y = samples.Y
    base_grid = discretize(baseline, stressed.n)
    shift = stressed.q - base_grid.q
    empirical = isinstance(baseline, Empirical)
    # the transport map: np.interp holds the end displacement constant, so
    # past the end knots the map continues with unit slope
    moved = y + np.interp(y, base_grid.q, shift) if empirical else y

    lo = min(base_grid.q[0], stressed.q[0], float(y.min()), float(moved.min()))
    hi = max(base_grid.q[-1], stressed.q[-1], float(y.max()), float(moved.max()))
    span = hi - lo
    if span <= 0.0:
        raise ValidationError("degenerate output range")
    lo -= 1e-9 * span
    hi += 1e-9 * span
    grid = np.linspace(lo, hi, DEFAULT_GRID_N)

    f_base = np.asarray(baseline.pdf(grid), dtype=float)
    f_at_y = np.asarray(baseline.pdf(y), dtype=float)
    if np.any(f_at_y <= 0.0):
        raise ValidationError(
            "baseline density vanishes at observed outputs; weights undefined"
        )

    if empirical:
        # Match estimators: the transported samples are a sample of the
        # stressed law with the same size and tail granularity as the
        # baseline sample, so smoothing both with the same kernel and
        # bandwidth keeps the ratio free of one-sided estimator artifacts;
        # quantile jumps and atoms smear consistently on both sides.
        g_stressed = kde_density(moved, grid, bandwidth=baseline.bandwidth)
    else:
        # an atom's CDF step keeps its mass wherever the grid points fall;
        # a density spike interpolated onto this grid would not
        dy = float(grid[1] - grid[0])
        g_stressed = np.gradient(np.interp(grid, stressed.q, stressed.u), dy)
        # Stress-induced quantile jumps are mass-free value intervals: zero
        # the density strictly inside them.  A jump is an increment that
        # dwarfs the baseline increment at the same rank, which leaves
        # natural tail spreading alone.
        b_inc = np.diff(base_grid.q)
        for u, _ in excess_jumps(stressed, base_grid, 5.0 * (b_inc + dy)):
            j = round(u * stressed.n) - 1
            pad = max(dy, float(b_inc[j]))
            gap = (grid > stressed.q[j] + pad) & (grid < stressed.q[j + 1] - pad)
            g_stressed[gap] = 0.0
        # Tail continuation: the grid reconstruction is reliable only where
        # knots are dense, so beyond the last few knots (where the stress
        # acts as a locally constant displacement) the stressed density is
        # the baseline density shifted by the mean displacement there.
        k = min(16, stressed.n // 8)
        for tail, d in ((grid > stressed.q[-k], shift[-k:].mean()),
                        (grid < stressed.q[k - 1], shift[:k].mean())):
            g_stressed[tail] = baseline.pdf(grid[tail] - d)
    ratio = g_stressed / np.maximum(f_base, DENSITY_FLOOR)

    w = np.interp(y, grid, ratio)
    zero_count = int(np.sum(w < 1e-10))
    zero_fraction = zero_count / y.size
    meta = {
        "zero_weight_count": zero_count,
        "zero_weight_fraction": zero_fraction,
        "high_zero_fraction": zero_fraction > ZERO_WEIGHT_WARN_FRACTION,
        "bin_width": float(grid[1] - grid[0]),
        "normalisation": float(w.mean()),
    }
    if meta["high_zero_fraction"]:
        warnings.warn(
            f"{zero_fraction:.1%} of samples received zero weight; the stress "
            "removes mass from a region the baseline samples heavily",
            stacklevel=2,
        )
    if w.mean() <= 0.0:
        raise ValidationError("all weights vanished; stress incompatible with samples")
    off = meta["normalisation"] - 1.0
    if abs(off) > NORMALISATION_WARN:
        warnings.warn(
            f"the weights {'lose' if off < 0 else 'gain'} {abs(off):.1%} of the stressed "
            f"law's mass (normalisation {meta['normalisation']:.4f}), so the weighted "
            "sample describes another law; a reweighting cannot move an atom or put "
            "mass beyond every sample",
            stacklevel=2,
        )
    return WeightSet(w=w, meta=meta)


@dataclass(frozen=True)
class WeightedEcdf:
    """Right-continuous weighted empirical distribution function."""

    x: np.ndarray
    p: np.ndarray

    def __call__(self, query):
        idx = np.searchsorted(self.x, np.asarray(query, dtype=float), side="right")
        padded = np.concatenate(([0.0], self.p))
        return padded[idx]


def stressed_cdf(values, weights: WeightSet) -> WeightedEcdf:
    """Weighted empirical CDF of a sample column under the stressed measure."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size != weights.n:
        raise ValidationError("values and weights must be equally long vectors")
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(weights.w[order]) / weights.n
    return WeightedEcdf(x=v[order], p=cum)


def stressed_expectation(values, weights: WeightSet) -> float:
    """Weighted sample mean: the expectation under the stressed measure."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size != weights.n:
        raise ValidationError("values and weights must be equally long vectors")
    return float(np.mean(v * weights.w))
