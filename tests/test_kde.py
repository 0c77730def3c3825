import numpy as np
import pytest
from conftest import histogram_kde

import wstress.distributions as distributions
from wstress.distributions import Empirical, discretize
from wstress.errors import ValidationError
from wstress.kde import kde_density, silverman_bandwidth, weighted_quantile


def edge_and_outside_samples(grid, rng, n):
    """Samples exactly on every bin edge, far outside the grid, and in between."""
    dx = grid[1] - grid[0]
    edges = np.concatenate((grid - 0.5 * dx, [grid[-1] + 0.5 * dx]))
    outside = [grid[0] - 10.0, grid[-1] + 10.0, -np.inf, np.inf]
    inner = rng.uniform(grid[0] - 2 * dx, grid[-1] + 2 * dx, n - edges.size - len(outside))
    return rng.permutation(np.concatenate((edges, outside, inner)))


class TestKdeBinning:
    def test_bins_match_histogram_exactly(self):
        # 1024 unit-weight samples: every binned weight is k / 1024, exact in
        # both summations, so equal bins give bit-equal densities
        rng = np.random.default_rng(5)
        grid = np.linspace(-1.0, 1.0, 64)
        v = edge_and_outside_samples(grid, rng, 1024)
        ours = kde_density(v, grid, bandwidth=0.1)
        assert np.array_equal(ours, histogram_kde(v, grid, bandwidth=0.1))

    def test_weighted_density_matches_histogram(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 3.0, 200)
        v = edge_and_outside_samples(grid, rng, 5000)
        w = rng.exponential(size=v.size)
        ours = kde_density(v, grid, weights=w, bandwidth=0.05)
        ref = histogram_kde(v, grid, w, bandwidth=0.05)
        assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_kernel_wider_than_the_grid(self):
        # 4h spans 180 cells of a 16-point grid: still one value per grid point,
        # each the truncated-kernel sum of the binned weights
        grid = np.linspace(0.0, 1.0, 16)
        dx = grid[1] - grid[0]
        v = np.array([0.1, 0.5, 0.93, 2.0])
        h = 3.0
        ours = kde_density(v, grid, bandwidth=h)
        ks = np.arange(-180, 181) * dx
        norm = np.exp(-0.5 * (ks / h) ** 2).sum() * dx
        centres = grid[np.minimum(np.round(np.clip(v, 0.0, 1.0) / dx).astype(int), 15)]
        ref = np.exp(-0.5 * ((grid[:, None] - centres[None, :]) / h) ** 2).sum(axis=1) / 4 / norm
        assert ours.shape == grid.shape
        np.testing.assert_allclose(ours, ref, rtol=1e-12)

    def test_nan_sample_rejected(self):
        grid = np.linspace(0.0, 1.0, 16)
        with pytest.raises(ValidationError):
            kde_density(np.array([0.2, np.nan, 0.5]), grid, bandwidth=0.1)

    @pytest.mark.parametrize("call", [
        lambda: kde_density([], np.linspace(0.0, 1.0, 16)),
        lambda: weighted_quantile([], 0.5),
        lambda: silverman_bandwidth([]),
    ], ids=["kde_density", "weighted_quantile", "silverman_bandwidth"])
    def test_empty_sample_rejected(self, call):
        with pytest.raises(ValidationError, match="^values must be a nonempty vector"):
            call()


class TestEmpiricalDensityCache:
    def test_bandwidth_computed_once_and_lazily(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return silverman_bandwidth(*args, **kwargs)

        monkeypatch.setattr(distributions, "silverman_bandwidth", counting)
        rng = np.random.default_rng(11)
        emp = Empirical(rng.lognormal(size=3000))
        discretize(emp, 256)
        assert calls == []
        y = np.linspace(-1.0, 20.0, 500)
        first = emp.pdf(y)
        second = emp.pdf(y)
        emp.pdf(y[:10])
        assert len(calls) == 1
        assert np.array_equal(first, second)

    def test_pdf_equals_uncached_estimate(self):
        rng = np.random.default_rng(13)
        emp = Empirical(rng.gamma(2.0, size=4000))
        emp.pdf(1.0)  # fill the cache
        y = np.linspace(-2.0, 15.0, 777)
        h = silverman_bandwidth(emp.samples)
        grid = np.linspace(emp.samples[0] - 5.0 * h, emp.samples[-1] + 5.0 * h, 4096)
        dens = kde_density(emp.samples, grid, bandwidth=h)
        expected = np.interp(y, grid, dens, left=0.0, right=0.0)
        assert emp.bandwidth == h
        assert np.array_equal(emp.pdf(y), expected)


class TestKdeGridCheck:
    """The equal-spacing check allows the rounding of points far from zero."""

    OFFSET = 1e8

    def test_offset_grid_matches_the_unshifted_grid(self):
        rng = np.random.default_rng(17)
        v = rng.normal(0.0, 100.0, 5000)
        grid = np.linspace(-500.0, 500.0, 4096)
        shifted = np.linspace(self.OFFSET - 500.0, self.OFFSET + 500.0, 4096)
        ref = kde_density(v, grid, bandwidth=10.0)
        ours = kde_density(v + self.OFFSET, shifted, bandwidth=10.0)
        assert np.abs(ours - ref).max() <= 1e-6 * ref.max()

    def test_offset_empirical_pdf(self):
        rng = np.random.default_rng(19)
        v = rng.normal(0.0, 100.0, 5000)
        y = np.linspace(-400.0, 400.0, 101)
        ours = Empirical(self.OFFSET + v).pdf(self.OFFSET + y)
        ref = Empirical(v).pdf(y)
        assert np.abs(ours - ref).max() <= 1e-4 * ref.max()

    @pytest.mark.parametrize("offset, bump", [(0.0, 1e-6), (1e8, 1e-6)])
    def test_uneven_grid_raises(self, offset, bump):
        grid = np.linspace(offset - 500.0, offset + 500.0, 4096)
        grid[2000] += bump
        with pytest.raises(ValidationError, match="equally spaced"):
            kde_density(np.full(10, offset), grid, bandwidth=10.0)
