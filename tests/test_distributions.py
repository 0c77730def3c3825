import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import uniform_grid
from wstress.distributions import (
    DENSITY_FLOOR,
    FLAT_REL_TOL,
    DensityCurve,
    Empirical,
    Gamma,
    Lognormal,
    Normal,
    QuantileGrid,
    cdf_and_density,
    discretize,
    excess_jumps,
    flat_segments,
    midpoint_grid,
    wasserstein2,
)
from wstress.errors import DegenerateGridError, ValidationError


class TestDiscretize:
    def test_normal_midpoint_definition(self):
        # definitional: q_i = Phi^-1((i - 0.5)/n) (smallest allowed grid)
        grid = discretize(Normal(0.0, 1.0), 16)
        np.testing.assert_allclose(grid.q, stats.norm.ppf(midpoint_grid(16)))

    def test_empirical_order_statistic_interpolation(self):
        rng = np.random.default_rng(5)
        sample = np.sort(rng.normal(size=500))
        grid = discretize(Empirical(sample), 64)
        np.testing.assert_allclose(grid.q, np.quantile(sample, midpoint_grid(64)))

    def test_lognormal_grid_mean(self):
        # closed-form lognormal mean exp(mu + sigma^2 / 2) = e
        grid = discretize(Lognormal(7.0 / 8.0, 0.5), 4096)
        assert abs(grid.q.mean() - np.e) / np.e < 0.005

    def test_gamma_quantiles_match_probabilities(self):
        spec = Gamma(shape=5.0, rate=0.2, shift=25.0)
        grid = discretize(spec, 64)
        back = stats.gamma.cdf(grid.q - 25.0, a=5.0, scale=5.0)
        np.testing.assert_allclose(back, midpoint_grid(64), atol=1e-10)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            Lognormal(0.0, -1.0)
        with pytest.raises(ValidationError):
            Gamma(shape=0.0, rate=1.0)
        with pytest.raises(ValidationError):
            Empirical(np.arange(10.0))

    def test_empirical_cdf_round_trip(self):
        rng = np.random.default_rng(9)
        sample = rng.normal(size=400)
        n = 256
        grid = discretize(Empirical(sample), n)
        # reconstructed CDF within 1/n of the ECDF in sup norm at the knots
        ecdf = np.searchsorted(np.sort(sample), grid.q, side="right") / sample.size
        assert np.abs(ecdf - grid.u).max() <= 1.0 / n + 1e-12


def _scipy_law(spec):
    """The scipy.stats law whose arithmetic a baseline's closed forms copy."""
    if isinstance(spec, Lognormal):
        return stats.lognorm(s=spec.sigma, scale=math.exp(spec.mu))
    if isinstance(spec, Normal):
        return stats.norm(loc=spec.mu, scale=spec.sigma)
    return stats.gamma(a=spec.shape, scale=1.0 / spec.rate, loc=spec.shift)


def _assert_same(got, want):
    """Equal values, NaN where NaN, and the sign of every zero."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


PARAMETRIC = [
    Lognormal(0.875, 0.5),
    Lognormal(-2.0, 1.7),
    Normal(1.0, 3.0),
    Gamma(2.0, 0.5),
    Gamma(0.7, 3.0, shift=-1.5),
    Gamma(1.0, 1.0),
    Gamma(5.0, 0.2, shift=25.0),
]


@pytest.mark.parametrize("spec", PARAMETRIC, ids=repr)
class TestClosedFormsMatchScipyStats:
    """The closed forms on scipy.special equal scipy.stats bit for bit."""

    EDGES_U = np.array([0.0, -0.0, 1.0, np.nan, -0.5, 1.5, 1e-300, 1.0 - 1e-16])

    def test_quantile(self, spec):
        u = np.concatenate([midpoint_grid(257), midpoint_grid(4096), self.EDGES_U,
                            np.random.default_rng(3).uniform(size=2000)])
        with np.errstate(invalid="ignore"):
            _assert_same(spec.quantile(u), _scipy_law(spec).ppf(u))

    def test_pdf(self, spec):
        law = _scipy_law(spec)
        edge = law.ppf(0.0)  # 0, the shift, or -inf
        y = np.concatenate([
            law.ppf(midpoint_grid(4096)),
            [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf), edge - 1.0,
             0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300],
            np.linspace(-5.0, 60.0, 2001),
        ])
        with np.errstate(all="ignore"):
            _assert_same(spec.pdf(y), law.pdf(y))

    @pytest.mark.parametrize("x", [0.3, 0.0, -0.0, 7.5])
    def test_scalar_in_scalar_out(self, spec, x):
        law = _scipy_law(spec)
        with np.errstate(all="ignore"):
            for got, want in ((spec.quantile(x), law.ppf(x)), (spec.pdf(x), law.pdf(x))):
                assert type(got) is type(want) is np.float64
                _assert_same(got, want)


class TestQuantileGrid:
    def test_rejects_decreasing(self):
        q = np.linspace(0, 1, 32)
        q[10] = q[9] - 0.5
        with pytest.raises(ValidationError):
            QuantileGrid(q)

    def test_rejects_small_grid(self):
        with pytest.raises(ValidationError):
            QuantileGrid(np.linspace(0, 1, 8))


class TestWasserstein:
    def test_identical_grids(self):
        g = uniform_grid(64)
        assert wasserstein2(g, g) == 0.0

    def test_point_masses(self):
        a = QuantileGrid(np.full(16, 1.0))
        b = QuantileGrid(np.full(16, 4.0))
        assert wasserstein2(a, b) == pytest.approx(3.0)

    def test_uniform_scaling(self):
        # int_0^1 u^2 du = 1/3
        n = 4096
        a = uniform_grid(n)
        b = QuantileGrid(2.0 * midpoint_grid(n))
        assert wasserstein2(a, b) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-3)

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            wasserstein2(uniform_grid(32), uniform_grid(64))

    def test_metric_properties_random_triples(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            grids = [
                QuantileGrid(np.sort(rng.normal(size=32))) for _ in range(3)
            ]
            a, b, c = grids
            assert wasserstein2(a, b) == pytest.approx(wasserstein2(b, a), abs=1e-9)
            assert wasserstein2(a, c) <= wasserstein2(a, b) + wasserstein2(b, c) + 1e-9


class TestCdfAndDensity:
    def test_uniform_density(self):
        curve = cdf_and_density(uniform_grid(4096), 4096)
        inner = (curve.y > 0.05) & (curve.y < 0.95)
        assert np.abs(curve.f[inner] - 1.0).max() < 0.02

    def test_atom_produces_cdf_jump(self):
        n = 4096
        q = midpoint_grid(n).copy()
        flat = (q > 0.8) & (q <= 0.9)
        v = q[flat][0]
        q[flat] = v
        curve = cdf_and_density(QuantileGrid(q), 4096)
        jump = curve.cdf_at(v + 1e-6) - curve.cdf_at(v - 2e-3)
        assert jump == pytest.approx(0.1, abs=0.01)

    def test_atom_above_a_gap_steps_at_its_value(self):
        # a 5% atom at 1.0 directly above an open gap from 0.9
        n = 4096
        u = midpoint_grid(n)
        q = np.where(u < 0.9, u, np.where(u < 0.95, 1.0, 1.0 + (u - 0.95)))
        curve = cdf_and_density(QuantileGrid(q), 4096)
        dy = curve.y[1] - curve.y[0]
        rise = curve.cdf_at(1.0 + dy) - curve.cdf_at(1.0 - dy)
        assert rise == pytest.approx(np.mean(q == 1.0), abs=1.0 / n)
        assert curve.cdf_at(1.0 - dy) - curve.cdf_at(q[q < 1.0].max() + dy) <= 2.0 / n

    def test_interp_on_tied_knots(self):
        # cdf_and_density's atoms rest on this: below a tie np.interp heads
        # for the first tie's fp, at the tie it returns the last tie's fp
        xp = np.array([0.0, 1.0, 1.0, 1.0, 2.0])
        fp = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        below = np.interp(1.0 - 1e-9, xp, fp)
        assert below == pytest.approx(0.1, abs=1e-9) and below < 0.1
        assert np.interp(1.0, xp, fp) == 0.3
        assert np.interp(1.5, xp, fp) == pytest.approx(0.35, abs=1e-15)

    def test_lognormal_density_matches_pdf(self):
        spec = Lognormal(7.0 / 8.0, 0.5)
        grid = discretize(spec, 4096)
        curve = cdf_and_density(grid, 4096)
        lo, hi = spec.quantile(0.05), spec.quantile(0.95)
        inner = (curve.y >= lo) & (curve.y <= hi)
        rel = np.abs(curve.f[inner] / spec.pdf(curve.y[inner]) - 1.0)
        assert rel.max() < 0.02

    def test_degenerate_grid(self):
        with pytest.raises(DegenerateGridError):
            cdf_and_density(QuantileGrid(np.full(32, 2.0)))

    def test_density_is_the_difference_quotient_of_the_cdf(self):
        # central differences inside, one-sided at the ends, bit for bit,
        # on grids with atoms and gaps
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(16, 300))
            increments = rng.exponential(size=n - 1) * (rng.random(n - 1) < 0.8)
            increments[rng.integers(n - 1)] += 50.0 * rng.random()
            q = rng.normal() + np.concatenate(([0.0], np.cumsum(increments)))
            curve = cdf_and_density(QuantileGrid(q), int(rng.integers(16, 700)))
            cdf, dy = curve.cdf, curve.y[1] - curve.y[0]
            f = np.empty(cdf.size)
            f[1:-1] = (cdf[2:] - cdf[:-2]) / (2.0 * dy)
            f[0] = (cdf[1] - cdf[0]) / dy
            f[-1] = (cdf[-1] - cdf[-2]) / dy
            integral = float(np.trapezoid(f, curve.y))
            assert curve.raw_integral == integral
            assert curve.f.tobytes() == np.maximum(f / integral, DENSITY_FLOOR).tobytes()

    def test_integral_near_one(self):
        spec = Lognormal(0.0, 1.0)
        curve = cdf_and_density(discretize(spec, 4096), 4096)
        assert 0.99 <= curve.raw_integral <= 1.01
        assert np.trapezoid(curve.f, curve.y) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_negative_density(self):
        with pytest.raises(ValidationError):
            DensityCurve(
                y=np.linspace(0, 1, 8),
                f=np.array([1.0] * 7 + [-0.1]),
                cdf=np.linspace(0, 1, 8),
                raw_integral=1.0,
            )


class TestStructureDetectors:
    def test_flat_segment_detection(self):
        n = 1024
        q = midpoint_grid(n).copy()
        flat = (q > 0.3) & (q <= 0.5)
        q[flat] = q[flat][0]
        segments = flat_segments(QuantileGrid(q))
        assert len(segments) == 1
        lo, hi, value = segments[0]
        assert lo < 0.4 < hi
        assert value == pytest.approx(q[flat][0])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([0.0, 0.0, 1e-12, 0.5, 2.0]), min_size=15, max_size=80),
           st.integers(1, 4))
    def test_flat_segments_match_a_scan(self, increments, min_cells):
        q = np.concatenate(([0.0], np.cumsum(increments)))
        grid = QuantileGrid(q)
        flat = np.diff(q) <= FLAT_REL_TOL * max(1.0, q[-1] - q[0])
        expected = []  # maximal runs of flat increments, one cell at a time
        i = 0
        while i < flat.size:
            j = i
            while j < flat.size and flat[j]:
                j += 1
            if j - i >= min_cells:
                expected.append((float(grid.u[i]), float(grid.u[j]), float(q[i])))
            i = max(j, i + 1)
        assert flat_segments(grid, min_cells=min_cells) == expected

    def test_jump_detection_relative_to_baseline(self):
        n = 1024
        base = QuantileGrid(midpoint_grid(n))
        q = midpoint_grid(n).copy()
        q[q > 0.7] += 0.25
        stressed = QuantileGrid(q)
        jumps = excess_jumps(stressed, base, min_size=0.1)
        assert len(jumps) == 1
        assert jumps[0][0] == pytest.approx(0.7, abs=2.0 / n)
        assert jumps[0][1] == pytest.approx(0.25, abs=1e-9)

    def test_smooth_grid_has_no_flags(self):
        base = discretize(Lognormal(0.0, 1.0), 1024)
        assert flat_segments(base) == []
        assert excess_jumps(base, base, min_size=1e-6) == []

    def test_per_cell_threshold_matches_scalar_rule(self):
        n = 1024
        base = discretize(Lognormal(0.0, 0.5), n)
        u = midpoint_grid(n)
        stressed = QuantileGrid(base.q + 0.2 * (u > 0.3) + 0.05 * (u > 0.6) + 0.6 * (u > 0.9))
        thresholds = np.linspace(0.01, 0.5, n - 1)
        per_cell = excess_jumps(stressed, base, thresholds)
        # cell i is reported under its own threshold exactly when the scalar
        # rule with that threshold reports it
        expected = [
            jump
            for i, t in enumerate(thresholds)
            for jump in excess_jumps(stressed, base, t)
            if jump[0] == (i + 1) / n
        ]
        assert per_cell == expected
        assert [round(b, 2) for b, _ in per_cell] == [0.3, 0.9]
        with pytest.raises(ValidationError):
            excess_jumps(stressed, base, thresholds[:-1])
