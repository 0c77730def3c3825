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


def _normalized_weights(values: np.ndarray, weights) -> np.ndarray:
    if values.size == 0:
        raise ValidationError("values must be a nonempty vector")
    if weights is None:
        return np.full(values.size, 1.0 / values.size)
    w = as_weights(weights, values.size)
    return w / w.sum()


def weighted_quantile(values, probs, weights=None):
    """Left-continuous weighted quantile(s): smallest x with weighted CDF >= p."""
    v = np.asarray(values, dtype=float)
    p = np.atleast_1d(np.asarray(probs, dtype=float))
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValidationError("quantile levels must lie in [0, 1]")
    w = _normalized_weights(v, weights)
    order = np.argsort(v, kind="stable")
    cw = np.cumsum(w[order])
    idx = np.searchsorted(cw, p * cw[-1], side="left")
    idx = np.minimum(idx, v.size - 1)
    out = v[order][idx]
    return out if np.ndim(probs) else float(out[0])


def silverman_bandwidth(values, weights=None) -> float:
    """Classic Silverman rule of thumb, 0.9 * min(sd, IQR/1.34) * n**(-1/5).

    With weights, the moments are weighted and the sample size is replaced by
    the effective size (sum w)**2 / sum w**2.
    """
    v = np.asarray(values, dtype=float)
    w = _normalized_weights(v, weights)
    mean = float(np.sum(w * v))
    sd = float(np.sqrt(max(np.sum(w * (v - mean) ** 2), 0.0)))
    q25, q75 = weighted_quantile(v, [0.25, 0.75], w)
    iqr = q75 - q25
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    if spread <= 0.0:
        spread = max(sd, 1e-12 * max(1.0, abs(mean)))
    neff = 1.0 / float(np.sum(w**2))
    return 0.9 * spread * neff ** (-0.2)


def kde_density(values, grid, weights=None, bandwidth=None) -> np.ndarray:
    """Gaussian KDE evaluated on an equally spaced grid.

    Samples outside the grid are clipped onto its boundary cells; the result
    integrates to ~1 over the grid up to kernel mass lost at the edges.
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
    w = _normalized_weights(v, weights)
    h = silverman_bandwidth(v, w) if bandwidth is None else float(bandwidth)
    h = max(h, 0.51 * dx)  # kernel must resolve on the grid
    edges = np.concatenate((g - 0.5 * dx, [g[-1] + 0.5 * dx]))
    clipped = np.clip(v, edges[0], edges[-1])
    cells = np.minimum(np.searchsorted(edges, clipped, side="right") - 1, g.size - 1)
    hist = np.bincount(cells, weights=w, minlength=g.size)
    radius = int(np.ceil(4.0 * h / dx))
    ks = np.arange(-radius, radius + 1) * dx
    kernel = np.exp(-0.5 * (ks / h) ** 2)
    kernel /= kernel.sum() * dx
    return np.convolve(hist, kernel, mode="same")
