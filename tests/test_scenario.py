import threading

import numpy as np
import pytest
from scipy import stats

from wstress import scenario
from wstress.errors import ValidationError
from wstress.risk_measures import es_weight, eval_rm, expected_utility, HARAUtility
from wstress.scenario import (
    SpatialConfig,
    correlation_matrix,
    default_locations,
    generate,
    table1_stresses,
)
from wstress.distributions import Empirical, discretize


@pytest.fixture(scope="module")
def output_100k():
    return generate(SpatialConfig(n_samples=100_000, seed=7))


class TestGenerate:
    def test_comonotone_regime_has_unit_rank_correlation(self):
        out = generate(SpatialConfig(n_samples=20_000, seed=3))
        rows = out.theta == 0
        assert rows.sum() > 500
        l1 = out.samples.column("L1")[rows]
        l7 = out.samples.column("L7")[rows]
        rho = stats.spearmanr(l1, l7).statistic
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_zero_distance_gives_unit_correlation(self):
        locations = default_locations()
        locations[1] = locations[0]
        for theta in (0.4, 5.0):
            corr = correlation_matrix(locations, theta)
            assert corr[0, 1] == pytest.approx(1.0)

    def test_marginal_means(self, output_100k):
        # gamma mean shape/rate = 25 m, plus the shift 25
        for m in range(1, 11):
            expected = 25.0 * m + 25.0
            observed = output_100k.samples.column(f"L{m}").mean()
            assert abs(observed - expected) / expected < 0.02

    def test_minimum_loss_and_total(self, output_100k):
        X = output_100k.samples.X
        assert X.min() >= 25.0
        assert output_100k.samples.Y.min() >= 250.0
        np.testing.assert_allclose(output_100k.samples.Y, X.sum(axis=1), rtol=1e-12)

    def test_regime_frequencies(self, output_100k):
        n = output_100k.samples.n_samples
        for r, p in enumerate((0.05, 0.6, 0.35)):
            count = int((output_100k.theta == r).sum())
            sd = np.sqrt(n * p * (1 - p))
            assert abs(count - n * p) <= 3 * sd

    def test_reproducible(self):
        a = generate(SpatialConfig(n_samples=1000, seed=11))
        b = generate(SpatialConfig(n_samples=1000, seed=11))
        np.testing.assert_array_equal(a.samples.X, b.samples.X)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_equals_its_scipy_stats_formulation(self, monkeypatch):
        # stats.norm.cdf maps the correlated normals, stats.gamma.ppf the marginals
        config = SpatialConfig(n_samples=2000, seed=13)
        closed_form = generate(config)
        uniforms = []

        def norm_cdf(x):
            uniforms.append(stats.norm.cdf(x))
            return uniforms[-1]

        monkeypatch.setattr(scenario, "ndtr", norm_cdf)
        reference = generate(config)
        np.testing.assert_array_equal(closed_form.samples.X, reference.samples.X)
        for m in range(scenario.N_LOCATIONS):
            rate = scenario.MARGINAL_RATE_PER_LOCATION / (m + 1)
            loss = stats.gamma.ppf(uniforms[0][:, m], a=scenario.MARGINAL_SHAPE, scale=1.0 / rate)
            np.testing.assert_array_equal(closed_form.samples.X[:, m],
                                          loss + scenario.MARGINAL_SHIFT)

    def test_rank_correlation_decreases_with_distance(self, output_100k):
        config = output_100k.config
        rows = output_100k.theta == 1  # theta = 0.4 spans a real decay range
        X = output_100k.samples.X[rows]
        dists, rhos = [], []
        for i in range(10):
            for j in range(i + 1, 10):
                dists.append(np.linalg.norm(config.locations[i] - config.locations[j]))
                rhos.append(stats.spearmanr(X[:, i], X[:, j]).statistic)
        trend = stats.spearmanr(dists, rhos).statistic
        assert trend < -0.9
        # in the fast-decay regime only the closest pair keeps correlation
        rows5 = output_100k.theta == 2
        X5 = output_100k.samples.X[rows5]
        rhos5 = {
            (i, j): stats.spearmanr(X5[:, i], X5[:, j]).statistic
            for i in range(10)
            for j in range(i + 1, 10)
        }
        closest = min(
            rhos5,
            key=lambda ij: np.linalg.norm(config.locations[ij[0]] - config.locations[ij[1]]),
        )
        far = [r for ij, r in rhos5.items() if ij != closest]
        assert rhos5[closest] > np.median(far) + 0.02

    def test_mixture_consistency(self, output_100k):
        X = output_100k.samples.X
        rows5 = output_100k.theta == 2
        for i, j in ((0, 1), (3, 8), (2, 9)):
            rho_all = stats.spearmanr(X[:, i], X[:, j]).statistic
            rho_theta5 = stats.spearmanr(X[rows5, i], X[rows5, j]).statistic
            assert rho_theta5 - 0.01 <= rho_all <= 1.0

    def test_invalid_configs(self):
        with pytest.raises(ValidationError):
            SpatialConfig(locations=np.zeros((3, 2)))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            SpatialConfig(seed=seed)

    @pytest.mark.parametrize("n_samples", [150.5, "1000"])
    def test_n_samples_must_be_an_integer(self, n_samples):
        with pytest.raises(ValidationError, match="^n_samples must be an integer"):
            SpatialConfig(n_samples=n_samples, seed=1)

    def test_singular_correlation_factorises(self):
        # two locations in one place: Cholesky fails on the singular matrix
        # and the eigendecomposition couples the pair comonotonically
        loc = default_locations()
        loc[3] = loc[7]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(correlation_matrix(loc, scenario.THETA_VALUES[1]))
        out = generate(SpatialConfig(n_samples=2000, seed=5, locations=loc))
        assert np.isfinite(out.samples.X).all()
        np.testing.assert_array_equal(np.argsort(out.samples.column("L4")),
                                      np.argsort(out.samples.column("L8")))

    def test_leaves_no_thread_running(self):
        before = threading.active_count()
        generate(SpatialConfig(n_samples=2000, seed=17))
        assert threading.active_count() == before

    def test_same_arrays_from_a_worker_thread(self):
        config = SpatialConfig(n_samples=5000, seed=19)
        here = generate(config)
        there = []
        worker = threading.Thread(target=lambda: there.append(generate(config)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and len(there) == 1
        np.testing.assert_array_equal(there[0].samples.X, here.samples.X)
        np.testing.assert_array_equal(there[0].samples.Y, here.samples.Y)
        np.testing.assert_array_equal(there[0].theta, here.theta)


class TestTable1Stresses:
    def test_stress_pair(self, output_100k):
        model1, model2 = table1_stresses(output_100k)
        baseline = model1.baseline
        u = HARAUtility(1.0, 5.0, 0.5)
        es80 = es_weight(0.8, baseline.n)
        es95 = es_weight(0.95, baseline.n)

        # stress 1: ES at 0.8 pinned at baseline (0% bump), ES at 0.95 +1%
        base80 = eval_rm(baseline, es80)
        base95 = eval_rm(baseline, es95)
        assert eval_rm(model1.stressed, es80) == pytest.approx(base80, rel=1e-6)
        assert eval_rm(model1.stressed, es95) == pytest.approx(1.01 * base95, rel=1e-6)

        # the second stress dominates the first in transport distance
        assert model2.w2 > model1.w2

        # and increases all three metrics above their baseline values
        base_u = expected_utility(baseline, u)
        assert expected_utility(model2.stressed, u) >= base_u * (1 - 1e-9)
        assert eval_rm(model2.stressed, es80) >= base80
        assert eval_rm(model2.stressed, es95) >= base95
