"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from wstress.distributions import Lognormal, QuantileGrid, discretize, midpoint_grid
from wstress.kde import silverman_bandwidth


def histogram_kde(values, grid, weights=None, bandwidth=None):
    """The binned Gaussian KDE built on ``np.histogram``: the reference for ``kde_density``."""
    v = np.asarray(values, dtype=float)
    w = np.ones(v.size) if weights is None else np.asarray(weights, dtype=float)
    w = w / w.sum()
    dx = grid[1] - grid[0]
    h = silverman_bandwidth(v, w) if bandwidth is None else bandwidth
    h = max(h, 0.51 * dx)
    edges = np.concatenate((grid - 0.5 * dx, [grid[-1] + 0.5 * dx]))
    hist, _ = np.histogram(np.clip(v, edges[0], edges[-1]), bins=edges, weights=w)
    radius = int(np.ceil(4.0 * h / dx))
    ks = np.arange(-radius, radius + 1) * dx
    kernel = np.exp(-0.5 * (ks / h) ** 2)
    kernel /= kernel.sum() * dx
    return np.convolve(hist, kernel, mode="same")


def pav_loop_blocks(v, w):
    """Pool-adjacent-violators on numpy arrays, one cell at a time over all of ``v``.

    The reference for ``isotonic.pav``.  It pools only on a strict decrease
    and gives a zero-weight block the plain mean of its values; ``pav``
    pools ties too and gives a zero-weight cell the value of its left
    neighbour, so the two agree to a few ulps on positive-weight cells.
    """
    n = v.size
    ends = np.empty(n, dtype=np.intp)
    means = np.empty(n)
    wsum = np.empty(n)
    wvsum = np.empty(n)
    vsum = np.empty(n)
    m = 0
    for i in range(n):
        bw = w[i]
        bwv = w[i] * v[i]
        bv = v[i]
        end = i + 1
        mu = v[i]
        while m > 0 and means[m - 1] > mu:
            m -= 1
            bw += wsum[m]
            bwv += wvsum[m]
            bv += vsum[m]
            start = ends[m - 1] if m > 0 else 0
            mu = bwv / bw if bw > 0.0 else bv / (end - start)
        ends[m] = end
        means[m] = mu
        wsum[m] = bw
        wvsum[m] = bwv
        vsum[m] = bv
        m += 1
    return ends[:m].copy(), means[:m].copy()


def block_partitions(n):
    """All ways to cut 1..n into consecutive blocks (2**(n-1) of them)."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        ends = [i + 1 for i, c in enumerate(cuts) if c] + [n]
        yield ends


def smoothed_isotonic_oracle(values, weights=None, penalties=None):
    """Exhaustive QP oracle for (smoothed) isotonic regression.

    Enumerates every block partition, solves the reduced least-squares
    problem by dense linear algebra, keeps feasible candidates, and returns
    the one with the smallest objective.  Independent of the implementation
    under test: no pooling, no banded solves.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    pen = np.zeros(n - 1) if penalties is None else np.asarray(penalties, dtype=float)
    diff = np.diff(np.eye(n), axis=0)

    def objective(x):
        return float(np.sum(w * (x - v) ** 2) + np.sum(pen * np.diff(x) ** 2))

    best_x, best_obj = None, np.inf
    for ends in block_partitions(n):
        starts = [0] + ends[:-1]
        m = len(ends)
        design = np.zeros((n, m))
        for j, (s, e) in enumerate(zip(starts, ends)):
            design[s:e, j] = 1.0
        quad = design.T @ np.diag(w) @ design
        quad += design.T @ diff.T @ np.diag(pen) @ diff @ design
        rhs = design.T @ (w * v)
        b, *_ = np.linalg.lstsq(quad, rhs, rcond=None)
        x = design @ b
        if np.any(np.diff(x) < -1e-11):
            continue
        obj = objective(x)
        if obj < best_obj - 1e-15:
            best_obj, best_x = obj, x
    return best_x


def assert_smoothed_isotonic_kkt(values, x, weights=None, penalties=None, rtol=1e-8):
    """KKT certificate of ``x`` as the smoothed isotonic fit of ``values``.

    The QP is ``min sum w (x - v)**2 + sum pen * diff(x)**2`` subject to
    ``diff(x) >= 0``.  With ``g`` its gradient at ``x``, the tie multipliers
    are ``mu = -cumsum(g)[:-1]``; ``x`` is optimal iff it is nondecreasing,
    ``sum(g) = 0``, ``mu >= 0`` and ``mu = 0`` wherever ``x`` increases.
    Independent of the implementation under test: it uses only the gradient.
    """
    v = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    n = v.size
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    pen = np.zeros(n - 1) if penalties is None else np.asarray(penalties, dtype=float)
    inc = np.diff(x)
    grad = 2.0 * w * (x - v)
    grad[:-1] -= 2.0 * pen * inc
    grad[1:] += 2.0 * pen * inc
    csum = np.cumsum(grad)
    mu = -csum[:-1]
    scale = max(1.0, float(np.abs(v).max()))
    tol = rtol * scale * max(1.0, float(w.max()), float(pen.max(initial=0.0)))
    assert float(inc.min(initial=0.0)) >= 0.0, "fit decreases"
    assert abs(float(csum[-1])) <= tol, f"stationarity residual {csum[-1]:.3g} > {tol:.3g}"
    assert float(mu.min(initial=0.0)) >= -tol, f"negative tie multiplier {mu.min():.3g}"
    slack = float(np.abs(mu[inc > 0.0]).max(initial=0.0))
    assert slack <= tol, f"complementarity violated: {slack:.3g} > {tol:.3g}"


def assert_integral_kkt(baseline_q, spec, model, tol):
    """KKT certificate of ``model`` as the solution of the integral stress ``spec``.

    The QP is ``min mean (x - q)**2`` over nondecreasing ``x`` subject to
    ``mean(h_k * x) <= c_k`` and ``mean(g_l * x**2) <= d_l``.  With
    multipliers ``lam, mu >= 0`` its stationarity condition says ``x`` is the
    isotonic regression of ``(q - sum lam_k h_k) / L`` with weights
    ``L = 1 + sum mu_l g_l``, computed here by ``pav_loop_blocks``.  Every
    bound must hold to ``tol * max(1, |bound|)``, and bind to the same
    tolerance where its multiplier is positive.
    """
    q = np.asarray(baseline_q, dtype=float)
    x = model.stressed.q
    lam, mu = model.multipliers, model.multipliers_quadratic
    assert lam.shape == (len(spec.linear),) and mu.shape == (len(spec.quadratic),)
    assert float(np.min(lam, initial=0.0)) >= 0.0 and float(np.min(mu, initial=0.0)) >= 0.0
    achieved = np.asarray([np.mean(c.h * x) for c in spec.linear]
                          + [np.mean(c.h * x**2) for c in spec.quadratic])
    bounds = np.asarray([c.bound for c in (*spec.linear, *spec.quadratic)])
    scale = tol * np.maximum(1.0, np.abs(bounds))
    gap = achieved - bounds
    assert np.all(gap <= scale), f"bound violated by {gap.max():.3g}"
    binding = np.concatenate((lam, mu)) > 0.0
    assert np.all(np.abs(gap[binding]) <= scale[binding]), "complementarity violated"
    weights = 1.0 + sum((mu_l * c.h for mu_l, c in zip(mu, spec.quadratic)), np.zeros(q.size))
    shifted = q - sum((lam_k * c.h for lam_k, c in zip(lam, spec.linear)), np.zeros(q.size))
    ends, means = pav_loop_blocks(shifted / weights, weights)
    fit = np.repeat(means, np.diff(ends, prepend=0))
    np.testing.assert_allclose(x, fit, rtol=1e-12, atol=1e-12 * float(np.abs(q).max()))


def assert_utility_kkt(baseline_q, spec, model, tol):
    """KKT certificate of ``model`` as the solution of the utility stress ``spec``.

    The problem is ``min mean (x - q)**2`` over nondecreasing ``x`` subject to
    ``mean(u(x)) >= floor`` and ``mean(gamma_k * x) = c_k``.  With a floor
    multiplier ``lam1 >= 0`` and risk-measure multipliers ``mu``, its
    stationarity condition says ``x - lam1 * u'(x)`` is the isotonic
    regression of ``q + sum mu_k gamma_k``, computed here by
    ``pav_loop_blocks``.  The floor and every risk measure must hold to
    ``tol * max(1, |target|)``, and the floor must bind to the same tolerance
    where ``lam1`` is positive.
    """
    q = np.asarray(baseline_q, dtype=float)
    x = model.stressed.q
    lam1, mu = model.multipliers[0], model.multipliers[1:]
    assert mu.shape == (len(spec.constraints),)
    assert lam1 >= 0.0, f"negative floor multiplier {lam1:.3g}"
    assert float(np.diff(x).min(initial=0.0)) >= 0.0, "stressed grid decreases"
    floor_gap = float(np.mean(spec.utility.value(x))) - spec.floor
    floor_scale = tol * max(1.0, abs(spec.floor))
    assert floor_gap >= -floor_scale, f"floor violated by {-floor_gap:.3g}"
    if lam1 > 0.0:
        assert abs(floor_gap) <= floor_scale, "complementarity violated"
    for c in spec.constraints:
        gap = float(np.mean(c.weight.values * x)) - c.target
        assert abs(gap) <= tol * max(1.0, abs(c.target)), f"risk measure off by {gap:.3g}"
    shifted = q + sum((m * c.weight.values for m, c in zip(mu, spec.constraints)),
                      np.zeros(q.size))
    ends, means = pav_loop_blocks(shifted, np.ones(q.size))
    fit = np.repeat(means, np.diff(ends, prepend=0))
    gap = float(np.abs(x - lam1 * spec.utility.marginal(x) - fit).max())
    assert gap <= 1e-9 * max(1.0, float(np.abs(x).max())), f"stationarity gap {gap:.3g}"


def uniform_grid(n=4096):
    """Quantile grid of the standard uniform distribution."""
    return QuantileGrid(midpoint_grid(n))


@pytest.fixture(scope="session")
def lognormal_spec():
    return Lognormal(mu=7.0 / 8.0, sigma=0.5)


@pytest.fixture(scope="session")
def lognormal_grid(lognormal_spec):
    return discretize(lognormal_spec, 4096)
