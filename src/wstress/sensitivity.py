"""Reverse sensitivity measures and the moment-independent delta measure.

The reverse sensitivity of an input statistic s(X) to a reweighting w is the
change of its weighted mean, normalised by the largest change achievable by
any reweighting with the same weight distribution.  Those extremes are
attained by sorting: pairing the largest weights with the largest (smallest)
values of s, so the bounds are plain rearrangement sums.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputColumnError, ValidationError
from .kde import _grid_cells, _subsample_density, kde_density, weighted_quantile
from .reweight import WeightSet

__all__ = [
    "SensitivityResult",
    "reverse_sensitivity",
    "bivariate_reverse_sensitivity",
    "delta_measure",
    "identity_s",
    "power_s",
    "tail_indicator_s",
    "joint_tail_indicator_s",
]

_ZERO_NUMERATOR = 1e-12
DELTA_GRID_SIZE = 512
DELTA_BINS = 20  # equal-probability input bins of the delta measure
DELTA_MIN_PER_BIN = 50  # the fewest samples a delta-measure bin may hold


@dataclass(frozen=True)
class SensitivityResult:
    """One reverse-sensitivity value with its normalisation diagnostics."""

    value: float
    numerator: float
    max_bound: float
    min_bound: float


def reverse_sensitivity(
    s_values, weights: WeightSet | Sequence[WeightSet]
) -> SensitivityResult | list[SensitivityResult]:
    """Normalised change of mean(s) under the reweighting, in [-1, 1].

    The numerator is mean(w * s) - mean(s).  The upper bound pairs the
    ascending sort of s with the ascending sort of w (most comonotone
    rearrangement); the lower bound pairs it with the descending sort.  Sign
    conventions: a positive numerator is divided by the upper bound, a
    negative one by the (negative) lower bound with a sign flip, and
    0/0 reports 0.  Ties in s may be ordered arbitrarily by the sort: every
    tie order yields the same bound value.

    ``weights`` is one weight set or a list or tuple of them; the sequence
    form returns a list with one result per entry, each equal to the
    one-set call, and sorts s once.
    """
    s = np.asarray(s_values, dtype=float)
    many = isinstance(weights, (list, tuple))
    sets = weights if many else [weights]
    if s.ndim != 1 or any(s.size != wset.n for wset in sets):
        raise ValidationError("s-values and weights must be equally long vectors")
    if not np.isfinite(s).all():
        raise ValidationError("s-values contain non-finite entries")
    s_mean = float(np.mean(s))
    s_sorted = np.sort(s)
    results = [_sensitivity_sorted(s, s_mean, s_sorted, wset) for wset in sets]
    return results if many else results[0]


def _sensitivity_sorted(s, s_mean, s_sorted, weights: WeightSet) -> SensitivityResult:
    """One reverse sensitivity from s, its mean and its ascending sort."""
    numerator = float(np.mean(weights.w * s)) - s_mean
    w_sorted = weights.sorted_w
    max_bound = float(np.mean(s_sorted * w_sorted)) - s_mean
    min_bound = float(np.mean(s_sorted * w_sorted[::-1])) - s_mean
    snap = 1e-12 * (abs(numerator) + abs(max_bound) + abs(min_bound))
    if abs(numerator) <= _ZERO_NUMERATOR * max(1.0, abs(s_mean)):
        value = 0.0
    elif numerator > 0.0:
        # equality of the rearrangement bound is exact comonotonicity; snap
        # float-summation hair so the attainment cases report exactly +-1
        value = 1.0 if numerator >= max_bound - snap else numerator / max_bound
    else:
        value = -1.0 if numerator <= min_bound + snap else -(numerator / min_bound)
    value = float(np.clip(value, -1.0, 1.0))
    return SensitivityResult(value, numerator, max_bound, min_bound)


def bivariate_reverse_sensitivity(s_values, weights: WeightSet) -> SensitivityResult:
    """Deprecated: call :func:`reverse_sensitivity` on the s(X_i, X_j) vector."""
    warnings.warn("bivariate_reverse_sensitivity is deprecated; use reverse_sensitivity",
                  DeprecationWarning, stacklevel=2)
    return reverse_sensitivity(s_values, weights)


def identity_s(x):
    return np.asarray(x, dtype=float)


def power_s(x, k: int):
    return np.asarray(x, dtype=float) ** k


def tail_indicator_s(x, alpha: float):
    """1{x > empirical alpha-quantile of x} (type-7 quantile under P)."""
    x = np.asarray(x, dtype=float)
    return (x > np.quantile(x, alpha)).astype(float)


def joint_tail_indicator_s(x_i, x_j, alpha: float):
    """Joint exceedance indicator above the inputs' own alpha-quantiles."""
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    return (
        (x_i > np.quantile(x_i, alpha)) & (x_j > np.quantile(x_j, alpha))
    ).astype(float)


def delta_measure(
    y,
    x,
    weights: WeightSet | None | Sequence[WeightSet | None] = None,
) -> float | list:
    """Moment-independent sensitivity of the output to one input or to each of several.

    Estimator: partition the input into ``DELTA_BINS`` (weighted)
    equal-probability bins by rank, estimate the output density marginally
    and within each bin by Gaussian KDE with the Silverman bandwidth on a
    shared grid of ``DELTA_GRID_SIZE`` points spanning the 0.1%-99.9%
    weighted quantile range, and average half the L1 gap between conditional
    and marginal densities over bins.  Values lie in [0, 1]; binning by rank
    makes the estimate invariant under strictly monotone transforms of the
    input.  A bin must hold ``DELTA_MIN_PER_BIN`` samples, so n >= 1000.

    ``x`` is one input vector as long as ``y``, or an ``(n, k)`` array of k
    inputs; the 2-D form returns a list with one entry per column, each equal
    to the 1-D call on that column, and raises ``InputColumnError`` for a
    column with a too-small bin.
    ``weights`` is ``None`` (the unweighted sample), one weight set, or a
    list or tuple of them; the sequence form gives one value per entry, each
    equal to the one-set call.

    The call sorts y once, and each input column once, whatever the number
    of weight sets.  The output side of a weight set (the weighted range, its
    grid, the marginal KDE and each sample's grid cell) is computed once for
    all columns.  A column's bins under a weight set come from its x order,
    and one stable argsort of the small integer bin labels taken in y order
    (a linear radix sort) lists each bin's members in ascending y; each
    bin's KDE is ``kde_density``'s arithmetic on their grid cells, without
    its checks.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or x.ndim not in (1, 2) or x.shape[0] != y.size:
        raise ValidationError("output must be a vector, input a vector or matrix of as many rows")
    n = y.size
    many = isinstance(weights, (list, tuple))
    sets = weights if many else [weights]
    if any(wset is not None and wset.n != n for wset in sets):
        raise ValidationError("weights must match the samples in length")
    if n < DELTA_BINS * DELTA_MIN_PER_BIN:
        raise ValidationError(
            f"need at least {DELTA_BINS * DELTA_MIN_PER_BIN} samples for {DELTA_BINS} bins"
        )
    y_order = np.argsort(y, kind="stable")
    ys = y[y_order]
    # each weight set's output side, made when first needed, so errors come
    # in the order of the one-column, one-set calls
    sides: list[_OutputSide | None] = [None] * len(sets)
    values = []
    for j, column in enumerate(x.T if x.ndim == 2 else [x]):
        x_order = np.argsort(column, kind="stable")
        x_rank = np.empty(n, dtype=np.intp)
        x_rank[x_order] = np.arange(n)
        x_rank_y = x_rank[y_order]
        per_set = []
        for k, wset in enumerate(sets):
            if sides[k] is None:
                sides[k] = _OutputSide.of(ys, y_order, wset)
            try:
                per_set.append(_delta_sorted(sides[k], x_order, x_rank_y))
            except ValidationError as exc:  # a bin too small for this column
                if x.ndim == 1:
                    raise
                raise InputColumnError(j, str(exc)) from exc
        values.append(per_set if many else per_set[0])
    return values if x.ndim == 2 else values[0]


@dataclass(frozen=True)
class _OutputSide:
    """What the delta measure needs of y and one weight set, for any input."""

    w: np.ndarray  # the weights in sample order
    wy: np.ndarray  # the weights in y order
    ys: np.ndarray  # y ascending
    grid: np.ndarray
    f_marginal: np.ndarray
    cells: np.ndarray  # each ys entry's grid cell

    @classmethod
    def of(cls, ys, y_order, wset) -> _OutputSide:
        w = np.ones(ys.size) if wset is None else wset.w
        wy = w[y_order]
        lo, hi = weighted_quantile(ys, [0.001, 0.999], wy)
        if hi <= lo:
            raise ValidationError("degenerate output range")
        grid = np.linspace(lo, hi, DELTA_GRID_SIZE)
        f_marginal = kde_density(ys, grid, weights=wy)
        return cls(w, wy, ys, grid, f_marginal, _grid_cells(ys, grid))


def _delta_sorted(side: _OutputSide, x_order, x_rank_y) -> float:
    """One delta measure from an output side, the x order and each y-sorted sample's x rank."""
    n = side.ys.size
    cum = np.cumsum(side.w[x_order])
    edges = np.searchsorted(cum, np.arange(1, DELTA_BINS) * cum[-1] / DELTA_BINS, side="left")
    edges = np.concatenate(([0], edges + 1, [n]))
    labels = np.repeat(np.arange(DELTA_BINS, dtype=np.min_scalar_type(DELTA_BINS)),
                       np.diff(edges))
    by_bin = np.argsort(labels[x_rank_y], kind="stable")
    total = 0.0
    for b in range(DELTA_BINS):
        members = by_bin[edges[b] : edges[b + 1]]
        if members.size < DELTA_MIN_PER_BIN:
            raise ValidationError(
                f"bin {b} of {DELTA_BINS} holds {members.size} samples; "
                f"each needs DELTA_MIN_PER_BIN = {DELTA_MIN_PER_BIN}"
            )
        wb = side.wy[members]
        if wb.sum() <= 0.0:
            continue
        f_bin = _subsample_density(side.ys[members], side.cells[members], wb, side.grid)
        p_bin = wb.sum() / cum[-1]
        total += p_bin * 0.5 * float(np.trapezoid(np.abs(f_bin - side.f_marginal), side.grid))
    return float(np.clip(total, 0.0, 1.0))
