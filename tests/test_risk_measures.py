import numpy as np
import pytest

from conftest import uniform_grid
from wstress.distributions import QuantileGrid, discretize, Lognormal, midpoint_grid
from wstress.errors import UtilityDomainError, ValidationError
from wstress.risk_measures import (
    CustomUtility,
    HARAUtility,
    alpha_beta_weight,
    custom_weight,
    es_weight,
    eval_rm,
    expected_utility,
    make_gamma,
    mean_sd,
    mean_weight,
    rvar_weight,
    var,
    var_plus,
)


class TestWeights:
    def test_all_weights_integrate_to_one(self):
        n = 4096
        for w in (
            mean_weight(n),
            es_weight(0.95, n),
            alpha_beta_weight(0.9, 0.1, 0.5, n),
            rvar_weight(0.8, 0.9, n),
            custom_weight(np.linspace(0.1, 2.0, n)),
        ):
            assert abs(w.values.mean() - 1.0) <= 1e-8
            assert np.all(w.values >= 0.0)

    def test_es_definition(self):
        w = es_weight(0.95, 4096)
        u = midpoint_grid(4096)
        raw = (u > 0.95) / 0.05
        np.testing.assert_allclose(w.values, raw / raw.mean())

    def test_alpha_beta_p0_equals_es(self):
        n = 4096
        np.testing.assert_array_equal(
            alpha_beta_weight(0.9, 0.1, 0.0, n).values, es_weight(0.9, n).values
        )

    def test_alpha_beta_p1_is_lower_tail(self):
        n = 1024
        w = alpha_beta_weight(0.1, 0.1, 1.0, n)
        u = midpoint_grid(n)
        assert np.all(w.values[u >= 0.1] == 0.0)
        assert np.all(w.values[u < 0.1] > 0.0)

    def test_parameter_domains(self):
        with pytest.raises(ValidationError):
            es_weight(1.0, 64)
        with pytest.raises(ValidationError):
            alpha_beta_weight(0.1, 0.9, 0.5, 64)  # beta > alpha
        with pytest.raises(ValidationError):
            rvar_weight(0.9, 0.8, 64)
        with pytest.raises(ValidationError):
            make_gamma("nope", 64)

    @pytest.mark.parametrize(
        "kind, params, missing",
        [
            ("es", {}, "alpha"),
            ("rvar", {"alpha": 0.5}, "beta"),
            ("alpha_beta", {"beta": 0.1}, "alpha, p"),
        ],
        ids=["es", "rvar", "alpha_beta"],
    )
    def test_make_gamma_names_missing_parameters(self, kind, params, missing):
        with pytest.raises(ValidationError, match=f"needs parameter\\(s\\) {missing}$"):
            make_gamma(kind, 64, **params)

    def test_make_gamma_dispatches_to_each_builder(self):
        assert make_gamma("MEAN", 64).values.tobytes() == mean_weight(64).values.tobytes()
        assert make_gamma("es", 64, alpha=0.9).params == (0.9,)
        assert make_gamma("rvar", 64, alpha=0.2, beta=0.6).params == (0.2, 0.6)
        assert make_gamma("alpha_beta", 64, alpha=0.9, beta=0.1, p=0.5).params == (0.9, 0.1, 0.5)

    def test_coherence_marker(self):
        assert es_weight(0.9, 256).is_nondecreasing
        assert mean_weight(256).is_nondecreasing
        assert not alpha_beta_weight(0.9, 0.1, 0.5, 256).is_nondecreasing


class TestEvalRm:
    def test_mean_weight_gives_mean(self, lognormal_grid):
        assert eval_rm(lognormal_grid, mean_weight(4096)) == pytest.approx(
            lognormal_grid.q.mean()
        )

    def test_es_of_uniform(self):
        # int_alpha^1 u du / (1 - alpha) = (1 + alpha) / 2
        g = uniform_grid(4096)
        assert eval_rm(g, es_weight(0.9, 4096)) == pytest.approx(0.95, abs=1e-3)

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            eval_rm(uniform_grid(64), es_weight(0.9, 128))

    def test_monotone_in_grid(self):
        rng = np.random.default_rng(3)
        q = np.sort(rng.normal(size=256))
        a = QuantileGrid(q)
        b = QuantileGrid(q - rng.uniform(0.0, 0.5, size=256).max())
        for w in (es_weight(0.8, 256), alpha_beta_weight(0.7, 0.2, 0.3, 256)):
            assert eval_rm(a, w) >= eval_rm(b, w)

    def test_rvar_limit_approximates_var(self):
        g = uniform_grid(4096)
        rv = eval_rm(g, rvar_weight(0.89999, 0.9, 4096))
        assert abs(rv - var(g, 0.9)) <= 1e-3


class TestVar:
    def test_uniform(self):
        g = uniform_grid(4096)
        assert abs(var(g, 0.9) - 0.9) <= 1.0 / 4096
        assert abs(var_plus(g, 0.9) - 0.9) <= 1.0 / 4096

    def test_flat_segment_sides(self):
        n = 4096
        q = midpoint_grid(n).copy()
        flat = (q > 0.8) & (q <= 0.9)
        v = q[flat][0]
        q[flat] = v
        g = QuantileGrid(q)
        assert var(g, 0.85) == v
        assert var_plus(g, 0.9) > v  # first value right of the flat

    def test_var_leq_var_plus(self):
        rng = np.random.default_rng(17)
        g = QuantileGrid(np.sort(rng.normal(size=512)))
        for alpha in rng.uniform(0.01, 0.99, size=50):
            assert var(g, alpha) <= var_plus(g, alpha)

    def test_sandwich_with_interval_weight(self):
        rng = np.random.default_rng(19)
        g = QuantileGrid(np.sort(rng.normal(size=1024)))
        for _ in range(30):
            a = rng.uniform(0.05, 0.9)
            b = rng.uniform(a + 1e-4, 0.99)
            rv = eval_rm(g, rvar_weight(a, b, 1024))
            assert var(g, a) - 1e-12 <= rv <= var_plus(g, b) + 1e-12

    def test_level_domain(self):
        with pytest.raises(ValidationError):
            var(uniform_grid(64), 0.0)


class TestMeanSd:
    def test_constant_grid(self):
        g = QuantileGrid(np.full(32, 3.25))
        assert mean_sd(g) == (3.25, 0.0)

    def test_uniform_closed_form(self):
        m, sd = mean_sd(uniform_grid(4096))
        assert m == pytest.approx(0.5, abs=1e-3)
        assert sd == pytest.approx(np.sqrt(1.0 / 12.0), abs=1e-3)

    def test_lognormal_mean(self, lognormal_grid):
        m, _ = mean_sd(lognormal_grid)
        assert abs(m - np.e) / np.e < 0.005


class TestUtilities:
    def test_linear_utility_is_mean(self, lognormal_grid):
        u = CustomUtility(value_fn=lambda x: x, marginal_fn=lambda x: np.ones_like(x))
        assert expected_utility(lognormal_grid, u) == pytest.approx(
            lognormal_grid.q.mean()
        )

    def test_hara_plugin_value(self):
        # (1-eta)/eta * (a c/(1-eta) + b)**eta = (2c + 5)**0.5 at eta = 1/2
        g = QuantileGrid(np.full(64, 3.0))
        u = HARAUtility(a=1.0, b=5.0, eta=0.5)
        assert expected_utility(g, u) == pytest.approx(np.sqrt(11.0))

    def test_jensen(self, lognormal_grid):
        u = HARAUtility(a=1.0, b=5.0, eta=0.5)
        m, _ = mean_sd(lognormal_grid)
        assert expected_utility(lognormal_grid, u) <= float(u.value(m))

    def test_domain_violation(self):
        g = QuantileGrid(np.linspace(-10.0, 1.0, 64))
        u = HARAUtility(a=1.0, b=5.0, eta=0.5)  # needs x > -2.5
        with pytest.raises(UtilityDomainError):
            expected_utility(g, u)

    def test_parameter_domain(self):
        with pytest.raises(ValidationError):
            HARAUtility(a=-1.0, b=5.0, eta=0.5)
        with pytest.raises(ValidationError):
            HARAUtility(a=1.0, b=5.0, eta=1.0)

    def test_convex_marginal_rejected(self):
        g = discretize(Lognormal(0.0, 0.5), 64)
        convex = CustomUtility(value_fn=lambda x: x**2, marginal_fn=lambda x: 2 * x)
        with pytest.raises(ValidationError):
            expected_utility(g, convex)
