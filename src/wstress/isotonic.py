"""Plain, weighted, and smoothed isotonic projections of quantile grids.

``pav`` is an exact, single-pass pool-adjacent-violators solver for the
weighted isotonic regression

    min sum_i w_i * (x_i - values_i)**2   s.t.  x_1 <= x_2 <= ... <= x_n.

Nondecreasing input is returned as it is; anything else is pooled by
scipy's compiled O(n) pool-adjacent-violators (``isotonic_regression``,
Busing 2022), whose fits agree with a left-to-right pooling loop to within
a few ulps.

``spav`` fits unit weights on the midpoint grid of (0, 1) with a
squared-increment penalty ``zeta * n**2 * sum_i (x_{i+1} - x_i)**2`` that
discourages large jumps; it is solved as an equality-constrained quadratic
program on the pooled block structure, where each equality solve is a
symmetric tridiagonal system (O(n)).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solveh_banded
from scipy.optimize import isotonic_regression

from .errors import NotConvergedError, ValidationError

__all__ = ["as_weights", "pav", "spav", "projection_jacobian"]


def as_weights(weights, n: int) -> np.ndarray:
    """The one weight check: not all zero (nor empty), shape ``(n,)``, >= 0, with a finite sum."""
    w = np.asarray(weights, dtype=float)
    if not w.any():
        raise ValidationError("weights must not be all zero")
    if w.shape != (n,):
        raise ValidationError(f"weights must be a vector of length {n}")
    with np.errstate(over="ignore"):  # finite entries whose sum overflows fail below
        total = w.sum()
    if not (w.min() >= 0.0 and np.isfinite(total)):  # a NaN fails the min test
        raise ValidationError("weights must be finite and nonnegative, with a finite sum")
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


def spav(values, zeta: float = 0.0) -> np.ndarray:
    """Smoothed isotonic regression of a grid with a squared-increment penalty.

    Minimises ``sum (x_i - values_i)**2 + pen * sum (x_{i+1} - x_i)**2``
    over nondecreasing ``x``, where ``pen = zeta * n**2`` is ``zeta`` over
    the squared spacing of the midpoint grid on (0, 1).  ``zeta = 0``
    reproduces :func:`pav` exactly.  A penalty that overflows, or that
    swamps the unit weights so the system is numerically singular, raises
    ValidationError.
    """
    v = _validated_values(values)
    if not np.isfinite(zeta) or zeta < 0.0:
        raise ValidationError("smoothing parameter zeta must be finite and >= 0")
    if zeta == 0.0 or v.size == 1:
        return _pav_fit(v, np.ones(v.size))
    with np.errstate(over="ignore"):
        pen = _penalty(zeta, v.size)
    if not np.isfinite(pen):
        raise ValidationError("increment penalty zeta * n**2 overflows")
    try:
        return _smoothed_isotonic(v, pen)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"increment penalty too large for the weights: {exc}") from exc


def _penalty(zeta: float, n: int) -> float:
    """The increment penalty: ``zeta`` over the squared midpoint-grid spacing."""
    return zeta / (1.0 / n) ** 2


def _solve_block_system(ends, v, pen):
    """Minimise the smoothed objective with all within-block ties enforced.

    The reduced unknowns are one value per block; only the penalty terms at
    block boundaries survive, giving a symmetric positive-definite
    tridiagonal system solved in O(n).
    """
    sizes = np.diff(ends, prepend=0)
    rhs = np.diff(np.cumsum(v)[ends - 1], prepend=0.0)
    if sizes.size == 1:
        return rhs / sizes
    return solveh_banded(_block_banded(sizes, pen), rhs)


def _block_banded(sizes, pen):
    """The block system in upper banded form: block sizes plus boundary penalties."""
    boundary = np.full(sizes.size - 1, pen)
    diag = sizes + np.append(boundary, 0.0) + np.append(0.0, boundary)
    return np.vstack((np.append(0.0, -boundary), diag))


def projection_jacobian(x, outputs, inputs, zeta: float = 0.0) -> np.ndarray:
    """``outputs @ P @ inputs.T``, for the derivative ``P`` of the fit ``x``.

    ``x`` is a :func:`spav` fit; rows are directions.  With the blocks (runs
    of exact ties in ``x``) held fixed, ``P = E A^-1 E.T`` for the block
    membership ``E`` and the block system ``A``; at ``zeta = 0``, ``A`` is
    diagonal and only pooled cells move.
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
        solved = solveh_banded(_block_banded(sizes, _penalty(zeta, x.size)), block_inp)
    return outputs @ inputs.T - out @ inp.T + np.add.reduceat(out, starts, axis=1) @ solved


def _expand(ends, block_values):
    starts = np.concatenate(([0], ends[:-1]))
    return np.repeat(block_values, ends - starts)


def _smoothed_isotonic(v, pen):
    """Primal active-set QP on the pooled block structure.

    Starts from the (feasible) plain isotonic fit and solves the tridiagonal
    equality system on the current blocks in each pass.  A feasible solution
    becomes the iterate, and every tie with a multiplier below ``-dual_tol``
    is released at once.  The objective never rises, and a zero-length step
    still opens a released tie, so a long pooled block splits in one pass
    and a fit takes a few O(n) passes at any n.
    """
    n = v.size
    ends, block_vals = _pav_blocks(v, np.ones(n))
    x = _expand(ends, block_vals)
    scale = max(1.0, float(np.abs(v).max()))
    dual_tol = 1e-10 * scale * max(1.0, pen)
    feas_tol = 1e-13 * scale

    for _ in range(8 * n + 100):
        b = _solve_block_system(ends, v, pen)
        gaps = np.diff(b)
        if gaps.size == 0 or gaps.min() >= -feas_tol:
            x = _expand(ends, np.maximum.accumulate(b))
            splits = _negative_ties(ends, x, v, pen, dual_tol)
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


def _negative_ties(ends, x, v, pen, tol):
    """Indices of every tie whose multiplier ``mu = -cumsum(grad)`` is below -tol.

    A block's last index is a boundary (zero multiplier by block optimality)
    or the end of the vector, so it is masked out.
    """
    grad = 2.0 * (x - v)
    inc = np.diff(x)
    grad[:-1] -= 2.0 * pen * inc
    grad[1:] += 2.0 * pen * inc
    mu = -np.cumsum(grad)
    mu[ends - 1] = np.inf
    return np.flatnonzero(mu < -tol)

