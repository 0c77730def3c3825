import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from wstress.distributions import Empirical, Gamma, Lognormal, discretize
from wstress.errors import ValidationError
from wstress import reweight
from wstress.kde import kde_density, weighted_quantile
from wstress.reweight import (
    SampleSet,
    WeightSet,
    rn_weights,
    stressed_cdf,
    stressed_expectation,
)
from wstress.risk_measures import es_weight, eval_rm, mean_sd, var, var_plus
from wstress.stress_solvers import (
    MeanVarRm,
    RmConstraint,
    RmStress,
    VarStress,
    solve,
    solve_mean_var_rm,
    solve_rm,
    solve_var,
)


def make_samples(rng, n=50_000):
    y = rng.lognormal(mean=7.0 / 8.0, sigma=0.5, size=n)
    return SampleSet(X=y[:, None], Y=y, columns=("X1",))


class TestSampleSet:
    def test_rejects_a_repeated_column_name(self):
        x = np.random.default_rng(3).lognormal(size=(200, 3))
        with pytest.raises(ValidationError, match="column name 'L1' is repeated"):
            SampleSet(X=x, Y=x.sum(axis=1), columns=("L1", "L2", "L1"))

    def test_sorted_Y_is_the_stable_ascending_order(self):
        y = np.round(np.random.default_rng(3).lognormal(size=500), 1)  # with ties
        samples = SampleSet(X=y[:, None], Y=y, columns=("X1",))
        order, ascending = samples.sorted_Y
        np.testing.assert_array_equal(order, np.argsort(y, kind="stable"))
        np.testing.assert_array_equal(ascending, np.sort(y))
        assert samples.sorted_Y is samples.sorted_Y  # computed once


class TestWeightSet:
    def test_normalises_to_mean_one(self):
        w = WeightSet(np.array([1.0, 3.0, 2.0, 2.0]))
        assert w.w.mean() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            WeightSet(np.array([-0.1, 1.0]))

    def test_rejects_a_mean_that_underflows(self):
        with pytest.raises(ValidationError, match="mean underflows to zero"):
            WeightSet(np.array([5e-324, 0.0]))


class TestRnWeights:
    def test_identity_stress_weights_near_one(self):
        rng = np.random.default_rng(101)
        samples = make_samples(rng)
        spec = Lognormal(7.0 / 8.0, 0.5)
        stressed = discretize(spec, 4096)
        w = rn_weights(samples, spec, stressed)
        lo, hi = spec.quantile(0.01), spec.quantile(0.99)
        central = (samples.Y > lo) & (samples.Y < hi)
        assert np.abs(w.w[central] - 1.0).max() <= 0.02

    def test_atom_gets_largest_weights(self):
        rng = np.random.default_rng(103)
        samples = make_samples(rng)
        spec = Lognormal(7.0 / 8.0, 0.5)
        base = discretize(spec, 4096)
        q = base.q.copy()
        flat = (base.u > 0.5) & (base.u <= 0.6)
        atom_value = q[flat][0]
        q[flat] = atom_value
        from wstress.distributions import QuantileGrid

        with pytest.warns(UserWarning, match="zero weight"):  # gap above the atom
            w = rn_weights(samples, spec, QuantileGrid(q))
        # the atom's mass sits in a spike within a value cell or two of its value
        near_atom = np.abs(samples.Y - atom_value) <= 2 * w.meta["bin_width"]
        assert near_atom.any()
        assert w.w.max() == w.w[near_atom].max()
        assert w.w[near_atom].max() > 5.0

    @pytest.mark.parametrize("spec", [Lognormal(0.0, 0.5), Gamma(2.0, 1.0)],
                             ids=["lognormal", "gamma"])
    def test_right_quantile_stress_keeps_its_atom(self, spec):
        # var_plus(0.9) +5% puts an atom at the target right above a mass-free
        # jump from the baseline 0.9-quantile, and the weights must carry it.
        # Seed 113, one uniform in each 1/n stratum: plain draws add a
        # sampling error of about 3e-3 to `normalisation`, because the atom
        # rests on a few dozen heavy weights.  Measured (lognormal, gamma):
        # normalisation 0.99977, 0.99977; share below q90 0.89996, 0.89999;
        # right 0.905-quantile 1.9913 (target 1.9930), 4.0843 (4.0845).
        rng = np.random.default_rng(113)
        n = 100_000
        y = np.asarray(spec.quantile((np.arange(n) + rng.random(n)) / n))  # sorted
        base = discretize(spec, 4096)
        q90 = var_plus(base, 0.9)
        target = 1.05 * q90
        stressed = solve_var(base, VarStress(0.9, target, "right")).stressed
        w = rn_weights(SampleSet(X=y[:, None], Y=y, columns=("X1",)), spec, stressed)
        assert abs(w.meta["normalisation"] - 1.0) <= 2e-3
        share = np.cumsum(w.w) / w.w.sum()
        assert share[y < q90][-1] == pytest.approx(0.9, abs=3e-3)
        # the stressed CDF is 0.9 all across the jump, so the right quantile
        # at 0.9 itself flips with the last digits of that share; 0.905 lies
        # inside the atom ([0.9, 0.916] lognormal, [0.9, 0.914] gamma)
        right_q = y[np.searchsorted(share, 0.905, side="right")]
        assert right_q == pytest.approx(target, rel=5e-3)

    def test_gap_samples_get_zero_weight_and_flag(self):
        rng = np.random.default_rng(105)
        samples = make_samples(rng)
        spec = Lognormal(7.0 / 8.0, 0.5)
        base = discretize(spec, 4096)
        w50 = es_weight(0.5, 4096)
        target = 1.6 * eval_rm(base, w50)
        model = solve_rm(base, RmStress((RmConstraint(w50, target),)))
        with pytest.warns(UserWarning):
            w = rn_weights(samples, spec, model.stressed)
        assert w.meta["zero_weight_count"] > 0
        assert w.meta["high_zero_fraction"]

    def test_stress_that_moves_an_atom_warns_of_lost_mass(self):
        # an excess-of-loss output: most draws sit on the atom at zero, and an
        # sd +20% stress at the held mean moves that atom below every sample
        rng = np.random.default_rng(5)
        losses = rng.lognormal(0.0, 1.0, size=(20_000, 3))
        y = np.maximum(losses.sum(axis=1) - 4.5, 0.0)
        samples = SampleSet(X=losses, Y=y, columns=("L1", "L2", "L3"))
        spec = Empirical(y)
        base = discretize(spec, 1024)
        mean, sd = mean_sd(base)
        model = solve_mean_var_rm(base, MeanVarRm(mean=mean, sd=1.2 * sd))
        with pytest.warns(UserWarning, match=r"the weights lose \d+\.\d% of the stressed") as rec:
            w = rn_weights(samples, spec, model.stressed)
        assert w.meta["normalisation"] < 1.0 - reweight.NORMALISATION_WARN
        lost = f"{1.0 - w.meta['normalisation']:.1%}"
        assert any(lost in str(r.message) for r in rec)

    def test_expectation_consistency(self):
        rng = np.random.default_rng(107)
        samples = make_samples(rng, n=100_000)
        spec = Lognormal(7.0 / 8.0, 0.5)
        base = discretize(spec, 4096)
        w95 = es_weight(0.95, 4096)
        model = solve_rm(base, RmStress((RmConstraint(w95, 1.05 * eval_rm(base, w95)),)))
        w = rn_weights(samples, spec, model.stressed)
        stressed_mean = float(np.mean(model.stressed.q))
        assert stressed_expectation(samples.Y, w) == pytest.approx(
            stressed_mean, rel=0.015
        )

    def test_quantile_round_trip(self):
        rng = np.random.default_rng(109)
        samples = make_samples(rng, n=100_000)
        spec = Lognormal(7.0 / 8.0, 0.5)
        base = discretize(spec, 4096)
        w80 = es_weight(0.8, 4096)
        model = solve_rm(base, RmStress((RmConstraint(w80, 1.05 * eval_rm(base, w80)),)))
        w = rn_weights(samples, spec, model.stressed)
        for alpha in (0.5, 0.9):
            sample_q = weighted_quantile(samples.Y, alpha, w.w)
            grid_q = var(model.stressed, alpha)
            assert sample_q == pytest.approx(grid_q, rel=0.02)

    def test_empirical_baseline_kde_path(self):
        rng = np.random.default_rng(111)
        samples = make_samples(rng, n=20_000)
        spec = Empirical(samples.Y)
        stressed = discretize(spec, 1024)
        w = rn_weights(samples, spec, stressed)
        central = (samples.Y > np.quantile(samples.Y, 0.05)) & (
            samples.Y < np.quantile(samples.Y, 0.95)
        )
        assert np.abs(w.w[central] - 1.0).max() < 0.1

    def test_parametric_tails_follow_the_shifted_baseline(self):
        # past the outer knots each tail's ratio is f(y - d) / f(y), with d the
        # mean displacement of that tail's last (first) k knots
        rng = np.random.default_rng(107)
        samples = make_samples(rng)
        spec = Lognormal(7.0 / 8.0, 0.5)
        base = discretize(spec, 1024)
        mean, sd = mean_sd(base)
        stressed = solve_mean_var_rm(base, MeanVarRm(mean=mean, sd=0.8 * sd)).stressed
        w = rn_weights(samples, spec, stressed)
        k, y, pad = 16, samples.Y, 2.0 * w.meta["bin_width"]
        shift = stressed.q - base.q
        for tail, d in ((y > stressed.q[-k] + pad, shift[-k:].mean()),
                        (y < stressed.q[k - 1] - pad, shift[:k].mean())):
            expected = spec.pdf(y[tail] - d) / spec.pdf(y[tail]) / w.meta["normalisation"]
            assert tail.sum() > 100
            np.testing.assert_allclose(w.w[tail], expected, rtol=1e-3, atol=1e-4)

    def test_empirical_transport_is_the_rank_to_quantile_map(self, monkeypatch):
        # the displacement map equals rank -> stressed quantile, continued with
        # unit slope past the end knots, written out as the reference
        moved = []

        def capturing(values, grid, **kwargs):
            moved.append(np.array(values))
            return kde_density(values, grid, **kwargs)

        monkeypatch.setattr(reweight, "kde_density", capturing)
        rng = np.random.default_rng(113)
        samples = make_samples(rng, n=20_000)
        spec = Empirical(samples.Y)
        base = discretize(spec, 512)
        w95 = es_weight(0.95, 512)
        stress = RmStress((RmConstraint(w95, 1.1 * eval_rm(base, w95)),))
        stressed = solve_rm(base, stress).stressed
        rn_weights(samples, spec, stressed)
        y = samples.Y
        ref = np.interp(np.interp(y, base.q, base.u), stressed.u, stressed.q)
        top, bottom = y > base.q[-1], y < base.q[0]
        ref[top] = stressed.q[-1] + (y[top] - base.q[-1])
        ref[bottom] = stressed.q[0] + (y[bottom] - base.q[0])
        assert top.any() and bottom.any()
        # rn_weights transports Y in ascending (stable) order
        ref = ref[np.argsort(y, kind="stable")]
        assert np.abs(moved[0] - ref).max() <= 1e-12 * np.abs(ref).max()


def _atom_samples():
    # an excess-of-loss output: 58% of the draws tie on the atom at zero
    losses = np.random.default_rng(5).lognormal(0.0, 1.0, size=(20_000, 3))
    y = np.maximum(losses.sum(axis=1) - 4.5, 0.0)
    return SampleSet(X=losses, Y=y, columns=("L1", "L2", "L3"))


def _lognormal_samples():
    n = 20_000
    rng = np.random.default_rng(5)
    y = np.exp(0.875 + 0.5 * ndtri((np.arange(n) + rng.random(n)) / n))
    rng.shuffle(y)
    return SampleSet(X=y[:, None], Y=y, columns=("X1",))


def _sd_up(base):
    mean, sd = mean_sd(base)
    return MeanVarRm(mean=mean, sd=1.2 * sd)


def _var_right(base):
    return VarStress(0.9, 1.05 * var_plus(base, 0.9), "right")


def _es95_up(base):
    w95 = es_weight(0.95, base.n)
    return RmStress((RmConstraint(w95, 1.1 * eval_rm(base, w95)),))


ROW_ORDER_CASES = {
    "atom-sd_up": (_atom_samples, None, _sd_up),
    "atom-var_right": (_atom_samples, None, _var_right),
    "lognormal-var_right": (_lognormal_samples, Lognormal(0.875, 0.5), _var_right),
    "lognormal-es_up": (_lognormal_samples, Lognormal(0.875, 0.5), _es95_up),
}


class TestRowOrder:
    """``rn_weights`` evaluates on Y sorted once; the weights come back in sample order."""

    @staticmethod
    def weights(samples, spec, make_stress):
        spec = Empirical(samples.Y) if spec is None else spec
        base = discretize(spec, 1024)
        model = solve(base, make_stress(base))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the atom's lost mass
            return model, rn_weights(samples, spec, model.stressed)

    @pytest.mark.parametrize("case", ROW_ORDER_CASES)
    def test_permuting_rows_permutes_the_weights(self, case):
        build_samples, spec, make_stress = ROW_ORDER_CASES[case]
        samples = build_samples()
        perm = np.random.default_rng(17).permutation(samples.n_samples)
        shuffled = SampleSet(X=samples.X[perm], Y=samples.Y[perm], columns=samples.columns)
        model, w = self.weights(samples, spec, make_stress)
        model_shuffled, w_shuffled = self.weights(shuffled, spec, make_stress)
        np.testing.assert_array_equal(model_shuffled.stressed.q, model.stressed.q)
        np.testing.assert_array_equal(model_shuffled.multipliers, model.multipliers)
        # WeightSet divides by the mean, which sums in the other row order
        np.testing.assert_allclose(w_shuffled.w, w.w[perm], rtol=4 * np.finfo(float).eps,
                                   atol=0.0)
        if case == "lognormal-var_right":
            assert w.meta["zero_weight_count"] > 0  # the jump's mass-free gap

    @pytest.mark.parametrize("case", ROW_ORDER_CASES)
    def test_equal_bits_to_an_evaluation_in_sample_order(self, case):
        build_samples, spec, make_stress = ROW_ORDER_CASES[case]
        samples = build_samples()
        _, w = self.weights(samples, spec, make_stress)
        unsorted = SampleSet(X=samples.X, Y=samples.Y, columns=samples.columns)
        # every step on the outputs then runs on Y as given, one lookup per sample
        unsorted.__dict__["sorted_Y"] = (np.arange(unsorted.n_samples), unsorted.Y)
        _, w_unsorted = self.weights(unsorted, spec, make_stress)
        assert w.w.tobytes() == w_unsorted.w.tobytes()
        assert w.meta == w_unsorted.meta


class TestStressedCdf:
    def test_unit_weights_give_ecdf(self):
        rng = np.random.default_rng(113)
        v = rng.normal(size=500)
        cdf = stressed_cdf(v, WeightSet(np.ones(500)))
        order = np.sort(v)
        assert cdf(order[249]) == pytest.approx(250 / 500)
        assert cdf(order[-1]) == pytest.approx(1.0)

    def test_all_mass_on_one_sample(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        w = WeightSet(np.array([0.0, 0.0, 4.0, 0.0]))
        cdf = stressed_cdf(v, w)
        assert cdf(2.9) == 0.0
        assert cdf(3.0) == pytest.approx(1.0)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(115)
        v = rng.normal(size=300)
        w = WeightSet(rng.uniform(0.0, 2.0, size=300))
        cdf = stressed_cdf(v, w)
        queries = np.linspace(v.min() - 1, v.max() + 1, 200)
        vals = cdf(queries)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-9


class TestStressedExpectation:
    def test_unit_weights(self):
        v = np.arange(10.0)
        assert stressed_expectation(v, WeightSet(np.ones(10))) == pytest.approx(4.5)

    def test_constant_values(self):
        rng = np.random.default_rng(117)
        w = WeightSet(rng.uniform(0.1, 2.0, size=64))
        assert stressed_expectation(np.full(64, 3.3), w) == pytest.approx(3.3)

    def test_two_point_arithmetic(self):
        w = WeightSet(np.array([0.5, 1.5]))
        assert stressed_expectation(np.array([0.0, 1.0]), w) == pytest.approx(0.75)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            stressed_expectation(np.ones(3), WeightSet(np.ones(4)))
