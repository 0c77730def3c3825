"""Plain, weighted, and smoothed isotonic projections of grid-sampled functions.

``pav`` is an exact, single-pass pool-adjacent-violators solver for the
weighted isotonic regression

    min sum_i w_i * (x_i - values_i)**2   s.t.  x_1 <= x_2 <= ... <= x_n.

Nondecreasing input is returned as it is; anything else is pooled by
scipy's compiled O(n) pool-adjacent-violators (``isotonic_regression``,
Busing 2022), whose fits agree with a left-to-right pooling loop to within
a few ulps.

``spav`` adds a squared-increment penalty ``sum_i zeta_i * (x_{i+1} - x_i)**2``
that discourages large jumps; it is solved as an equality-constrained
quadratic program on the pooled block structure, where each equality solve
is a symmetric tridiagonal system (O(n)).

``project`` wraps both for functions sampled on an abscissa grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded
from scipy.optimize import isotonic_regression

from .errors import NotConvergedError, ValidationError

__all__ = ["GridFunction", "as_weights", "pav", "spav", "project", "projection_jacobian"]


@dataclass(frozen=True)
class GridFunction:
    """A real function sampled on strictly increasing abscissae in (0, 1)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if u.ndim != 1 or v.ndim != 1 or u.size != v.size:
            raise ValidationError("abscissae and values must be 1-d and equally long")
        if u.size < 2:
            raise ValidationError("need at least two grid points")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValidationError("grid function contains non-finite entries")
        if u[0] <= 0.0 or u[-1] >= 1.0 or np.any(np.diff(u) <= 0.0):
            raise ValidationError("abscissae must be strictly increasing within (0, 1)")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.u.size


def as_weights(weights, n: int) -> np.ndarray:
    """Validate a weight vector: length ``n``, finite, >= 0, not all zero."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.ndim != 1 or w.size != n:
        raise ValidationError(f"weights must be a vector of length {n}")
    if not np.isfinite(w).all():
        raise ValidationError("weights contain non-finite entries")
    if np.any(w < 0.0):
        raise ValidationError("weights must be nonnegative")
    if not np.any(w > 0.0):
        raise ValidationError("weights must not be all zero")
    return w


def _validated_values(values) -> np.ndarray:
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.ndim != 1 or v.size == 0:
        raise ValidationError("values must be a nonempty 1-d vector")
    if not np.isfinite(v).all():
        raise ValidationError("values contain non-finite entries")
    return v


def _pav_blocks(v: np.ndarray, w: np.ndarray):
    """Pooled block structure of the weighted isotonic regression.

    Returns (ends, means): ``ends[j]`` is the exclusive end index of block j
    and ``means[j]`` its pooled value.  Nondecreasing input is its own fit,
    one singleton block per cell, so :func:`pav` is exactly idempotent.
    Other input is pooled by scipy's compiled PAVA on the positive-weight
    cells, which pools ties too; a zero-weight cell joins the block on its
    left (leading ones the first block), at no cost to the objective.
    """
    if not np.any(v[1:] < v[:-1]):
        return np.arange(1, v.size + 1), v.copy()
    pos = np.flatnonzero(w > 0.0)
    fit = isotonic_regression(v[pos], weights=w[pos])
    starts = pos[fit.blocks[:-1]]
    return np.append(starts[1:], v.size), fit.x[fit.blocks[:-1]]


def pav(values, weights=None) -> np.ndarray:
    """Weighted isotonic regression via pool-adjacent-violators.

    Parameters
    ----------
    values : array_like
        Data to project onto nondecreasing vectors.
    weights : array_like, optional
        Nonnegative weights, same length; defaults to all-ones.

    Returns
    -------
    ndarray
        A minimiser of ``sum w_i (x_i - values_i)**2`` over nondecreasing
        ``x``, unique on the positive-weight cells.  Nondecreasing input is
        returned unchanged, so applying ``pav`` twice is a no-op; otherwise
        a zero-weight cell takes the value of the nearest positive-weight
        cell on its left (on its right if there is none).
    """
    v = _validated_values(values)
    w = np.ones(v.size) if weights is None else as_weights(weights, v.size)
    return _pav_fit(v, w)


def _pav_fit(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`pav` on values and weights that are already validated."""
    ends, means = _pav_blocks(v, w)
    return means if means.size == v.size else _expand(ends, means)


def spav(values, weights=None, zeta: float = 0.0, u=None) -> np.ndarray:
    """Smoothed isotonic regression with a squared-increment penalty.

    The per-increment penalty coefficients are ``zeta / (u[i+1] - u[i])**2``;
    ``u`` defaults to the uniform midpoint grid on (0, 1), for which the
    coefficient is ``zeta * n**2``.  ``zeta = 0`` reproduces :func:`pav`
    exactly.  Non-finite abscissae, and penalties that overflow or swamp the
    weights so the system is numerically singular, raise ValidationError.
    """
    v = _validated_values(values)
    if not np.isfinite(zeta) or zeta < 0.0:
        raise ValidationError("smoothing parameter zeta must be finite and >= 0")
    w = np.ones(v.size) if weights is None else as_weights(weights, v.size)
    if zeta == 0.0 or v.size == 1:
        return _pav_fit(v, w)
    n = v.size
    if u is None:
        spacing = np.full(n - 1, 1.0 / n)
    else:
        ua = np.asarray(u, dtype=float)
        if ua.shape != v.shape:
            raise ValidationError("abscissae must match the values in length")
        if not np.isfinite(ua).all():
            raise ValidationError("abscissae contain non-finite entries")
        spacing = np.diff(ua)
        if np.any(spacing <= 0.0):
            raise ValidationError("abscissae must be strictly increasing (no ties)")
    with np.errstate(over="ignore", divide="ignore"):
        penalties = zeta / spacing**2
    if not np.isfinite(penalties).all():
        raise ValidationError("increment penalty zeta / spacing**2 overflows")
    try:
        return _smoothed_isotonic(v, w, penalties)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"increment penalty too large for the weights: {exc}") from exc


def _solve_block_system(ends, v, w, pen):
    """Minimise the smoothed objective with all within-block ties enforced.

    The reduced unknowns are one value per block; only the penalty terms at
    block boundaries survive, giving a symmetric positive-definite
    tridiagonal system solved in O(n).
    """
    starts = np.concatenate(([0], ends[:-1]))
    cw = np.concatenate(([0.0], np.cumsum(w)))
    cwv = np.concatenate(([0.0], np.cumsum(w * v)))
    block_w = cw[ends] - cw[starts]
    rhs = cwv[ends] - cwv[starts]
    if block_w.size == 1:  # the weights are not all zero
        return rhs / block_w
    return solveh_banded(_block_banded(block_w, pen[ends[:-1] - 1]), rhs)


def _block_banded(block_w, boundary):
    """The block system in upper banded form: block weights plus boundary penalties."""
    diag = block_w + np.append(boundary, 0.0) + np.append(0.0, boundary)
    return np.vstack((np.append(0.0, -boundary), diag))


def projection_jacobian(x, outputs, inputs, zeta: float = 0.0) -> np.ndarray:
    """``outputs @ P @ inputs.T``, for the derivative ``P`` of the fit ``x``.

    ``x`` is an unweighted :func:`spav` fit on the midpoint grid; rows are
    directions.  With the blocks (runs of exact ties in ``x``) held fixed,
    ``P = E A^-1 E.T`` for the block membership ``E`` and the block system
    ``A``; at ``zeta = 0``, ``A`` is diagonal and only pooled cells move.
    """
    first = np.concatenate(([True], x[1:] != x[:-1]))
    pooled = ~(first & np.append(first[1:], True))
    cells = np.flatnonzero(pooled) if zeta == 0.0 else np.arange(x.size)
    if cells.size == 0:
        return outputs @ inputs.T
    out, inp = outputs[:, cells], inputs[:, cells]
    starts = np.flatnonzero(first[cells])
    sizes = np.diff(np.append(starts, cells.size))
    block_inp = np.add.reduceat(inp, starts, axis=1).T
    if zeta == 0.0 or starts.size == 1:
        solved = block_inp / sizes[:, None]
    else:
        boundary = np.full(starts.size - 1, zeta / (1.0 / x.size) ** 2)
        solved = solveh_banded(_block_banded(sizes, boundary), block_inp)
    return outputs @ inputs.T - out @ inp.T + np.add.reduceat(out, starts, axis=1) @ solved


def _expand(ends, block_values):
    starts = np.concatenate(([0], ends[:-1]))
    return np.repeat(block_values, ends - starts)


def _smoothed_isotonic(v, w, pen):
    """Primal active-set QP on the pooled block structure.

    Starts from the (feasible) plain isotonic fit and solves the tridiagonal
    equality system on the current blocks in each pass.  A feasible solution
    becomes the iterate, and every tie with a multiplier below ``-dual_tol``
    is released at once.  The objective never rises, and a zero-length step
    still opens a released tie, so a long pooled block splits in one pass
    and a fit takes a few O(n) passes at any n.
    """
    n = v.size
    ends, block_vals = _pav_blocks(v, w)
    x = _expand(ends, block_vals)
    scale = max(1.0, float(np.abs(v).max()))
    dual_tol = 1e-10 * scale * max(1.0, w.max(), pen.max())
    feas_tol = 1e-13 * scale

    for _ in range(8 * n + 100):
        b = _solve_block_system(ends, v, w, pen)
        gaps = np.diff(b)
        if gaps.size == 0 or gaps.min() >= -feas_tol:
            x = _expand(ends, np.maximum.accumulate(b))
            splits = _negative_ties(ends, x, v, w, pen, dual_tol)
            if splits.size == 0:
                return x
            ends = np.sort(np.concatenate((ends, splits + 1)))
            continue
        # Step from the current feasible iterate toward b until a block gap
        # closes, then merge every boundary that became tight.
        cur = x[np.concatenate(([0], ends[:-1]))]
        gap0 = np.diff(cur)
        dgap = gaps - gap0
        closing = dgap < 0.0
        steps = np.full(gap0.size, np.inf)
        steps[closing] = gap0[closing] / -dgap[closing]
        t = float(steps.min())
        tight = steps <= t + 1e-15 * (1.0 + t)
        moved = cur + t * (b - cur)
        keep_boundary = ~tight
        ends = ends[np.concatenate((keep_boundary, [True]))]
        first_member = np.concatenate(([0], np.flatnonzero(keep_boundary) + 1))
        x = _expand(ends, np.maximum.accumulate(moved[first_member]))
    raise NotConvergedError("smoothed isotonic active set did not terminate")


def _negative_ties(ends, x, v, w, pen, tol):
    """Indices of every tie whose multiplier ``mu = -cumsum(grad)`` is below -tol.

    A block's last index is a boundary (zero multiplier by block optimality)
    or the end of the vector, so it is masked out.
    """
    grad = 2.0 * w * (x - v)
    inc = np.diff(x)
    grad[:-1] -= 2.0 * pen * inc
    grad[1:] += 2.0 * pen * inc
    mu = -np.cumsum(grad)
    mu[ends - 1] = np.inf
    return np.flatnonzero(mu < -tol)


def project(f: GridFunction, weights=None, zeta: float = 0.0) -> GridFunction:
    """Weighted (optionally smoothed) isotonic projection of a grid function."""
    return GridFunction(f.u, spav(f.v, weights, zeta=zeta, u=f.u))
