"""Weighted Gaussian kernel density estimation with the Silverman rule.

The estimator is binned: each sample's weight goes to its nearest grid point
(bins centred on the grid), and the binned weights are convolved with a
Gaussian kernel.  That keeps the cost O(n + m) instead of O(n * m);
nearest-bin assignment shifts a sample by at most half a grid cell, which is
small whenever the bandwidth spans a few grid cells (the callers guarantee
that).  Binning is one ``searchsorted`` of the samples into the sorted bin
edges and one ``bincount`` of their weights, so the samples are never sorted;
it assigns every sample to the same bin as ``np.histogram`` over those
edges would (half-open bins, the last one closed).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .isotonic import as_weights

__all__ = ["silverman_bandwidth", "kde_density", "weighted_quantile"]


def _checked_weights(values: np.ndarray, weights) -> np.ndarray:
    """The checked weights of nonempty ``values``, ones for ``None``; not normalised."""
    if values.size == 0:
        raise ValidationError("values must be a nonempty vector")
    return np.ones(values.size) if weights is None else as_weights(weights, values.size)


def weighted_quantile(values, probs, weights=None):
    """Left-continuous weighted quantile(s): smallest x with weighted CDF >= p."""
    v = np.asarray(values, dtype=float)
    p = np.atleast_1d(np.asarray(probs, dtype=float))
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValidationError("quantile levels must lie in [0, 1]")
    w = _checked_weights(v, weights)
    out = _quantile(v, p, w / w.sum())
    return out if np.ndim(probs) else float(out[0])


def _quantile(v: np.ndarray, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``weighted_quantile``'s arithmetic on normalised weights."""
    order = np.argsort(v, kind="stable")
    cw = np.cumsum(w[order])
    idx = np.searchsorted(cw, p * cw[-1], side="left")
    idx = np.minimum(idx, v.size - 1)
    return v[order][idx]


def silverman_bandwidth(values, weights=None) -> float:
    """Classic Silverman rule of thumb, 0.9 * min(sd, IQR/1.34) * n**(-1/5).

    With weights, the moments are weighted and the sample size is replaced by
    the effective size (sum w)**2 / sum w**2.
    """
    v = np.asarray(values, dtype=float)
    w = _checked_weights(v, weights)
    return _bandwidth(v, w / w.sum())


def _bandwidth(v: np.ndarray, w: np.ndarray) -> float:
    """``silverman_bandwidth``'s arithmetic on normalised weights."""
    mean = float(np.sum(w * v))
    sd = float(np.sqrt(max(np.sum(w * (v - mean) ** 2), 0.0)))
    # renormalised, as the public weighted_quantile would
    q25, q75 = _quantile(v, np.array([0.25, 0.75]), w / w.sum())
    iqr = q75 - q25
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    if spread <= 0.0:
        spread = max(sd, 1e-12 * max(1.0, abs(mean)))
    neff = 1.0 / float(np.sum(w**2))
    return 0.9 * spread * neff ** (-0.2)


def kde_density(values, grid, weights=None, bandwidth=None) -> np.ndarray:
    """Gaussian KDE evaluated on an equally spaced grid.

    Samples outside the grid are clipped onto its boundary cells; the result
    integrates to ~1 over the grid up to kernel mass lost at the edges.  The
    bandwidth defaults to the Silverman bandwidth of the weighted samples.
    """
    v = np.asarray(values, dtype=float)
    if np.isnan(v).any():
        raise ValidationError("KDE samples contain NaN")
    g = np.asarray(grid, dtype=float)
    if g.size < 8:
        raise ValidationError("KDE grid needs at least 8 points")
    dx = g[1] - g[0]
    # points far from zero are rounded to their own ulp, so the spacing may
    # vary by a few ulps of the grid's magnitude
    atol = 4.0 * np.spacing(np.abs(g).max())
    if dx <= 0.0 or not np.allclose(np.diff(g), dx, rtol=1e-8, atol=atol):
        raise ValidationError("KDE grid must be equally spaced and increasing")
    w = _checked_weights(v, weights)
    return _subsample_density(v, _grid_cells(v, g), w, g, bandwidth)


def _grid_cells(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Each sample's nearest cell of an equally spaced grid, clipped onto its ends."""
    dx = grid[1] - grid[0]
    edges = np.concatenate((grid - 0.5 * dx, [grid[-1] + 0.5 * dx]))
    clipped = np.clip(values, edges[0], edges[-1])
    return np.minimum(np.searchsorted(edges, clipped, side="right") - 1, grid.size - 1)


def _subsample_density(values: np.ndarray, cells: np.ndarray, weights: np.ndarray,
                       grid: np.ndarray, bandwidth=None) -> np.ndarray:
    """``kde_density`` with nothing checked, for samples whose ``_grid_cells`` are known.

    The weights must be checked already, with a positive sum.  Normalised,
    they are summed into their cells and convolved with a Gaussian kernel of
    the bandwidth given or else of the Silverman bandwidth on the
    renormalised weights.
    """
    w = weights / weights.sum()
    h = _bandwidth(values, w / w.sum()) if bandwidth is None else float(bandwidth)
    dx = grid[1] - grid[0]
    h = max(h, 0.51 * dx)  # kernel must resolve on the grid
    hist = np.bincount(cells, weights=w, minlength=grid.size)
    radius = int(np.ceil(4.0 * h / dx))
    ks = np.arange(-radius, radius + 1) * dx
    kernel = np.exp(-0.5 * (ks / h) ** 2)
    kernel /= kernel.sum() * dx
    # the grid's part of the full convolution; mode="same" would return the
    # kernel's length when the kernel is longer than the grid
    return np.convolve(hist, kernel)[radius : radius + grid.size]
