import numpy as np
import pytest
from conftest import histogram_kde

from wstress import sensitivity
from wstress.errors import InputColumnError, ValidationError
from wstress.kde import weighted_quantile
from wstress.reweight import WeightSet
from wstress.sensitivity import (
    bivariate_reverse_sensitivity,
    delta_measure,
    joint_tail_indicator_s,
    reverse_sensitivity,
    tail_indicator_s,
)


def weights_from(raw):
    return WeightSet(np.asarray(raw, dtype=float))


class TestReverseSensitivity:
    def test_comonotone_attains_one_exactly(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=500)
        w = weights_from(np.exp(0.5 * s))  # nondecreasing transform of s
        assert reverse_sensitivity(s, w).value == 1.0

    def test_counter_monotone_attains_minus_one_exactly(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=500)
        w = weights_from(np.exp(-0.5 * s))
        assert reverse_sensitivity(s, w).value == -1.0

    def test_unit_weights_give_zero(self):
        rng = np.random.default_rng(7)
        s = rng.normal(size=200)
        assert reverse_sensitivity(s, weights_from(np.ones(200))).value == 0.0

    def test_frozen_rearrangement_arithmetic(self):
        # mean(ws) = 2.75, mean(s) = 2.5, sorted pairing gives 3.0
        s = np.array([1.0, 2.0, 3.0, 4.0])
        w = weights_from([0.5, 1.5, 0.5, 1.5])
        res = reverse_sensitivity(s, w)
        assert res.numerator == pytest.approx(0.25)
        assert res.max_bound == pytest.approx(0.5)
        assert res.value == pytest.approx(0.5)

    def test_range_property(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(5, 200))
            s = rng.normal(size=n) * rng.uniform(0.1, 10)
            w = weights_from(rng.uniform(0.0, 2.0, size=n) + 1e-9)
            value = reverse_sensitivity(s, w).value
            assert -1.0 <= value <= 1.0

    def test_bounds_order(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(5, 100))
            s = rng.normal(size=n)
            w = weights_from(rng.uniform(0.0, 3.0, size=n) + 1e-9)
            res = reverse_sensitivity(s, w)
            assert res.min_bound - 1e-9 <= res.numerator <= res.max_bound + 1e-9

    def test_shuffle_null(self):
        rng = np.random.default_rng(13)
        n = 5000
        s = rng.normal(size=n)
        base = np.exp(0.4 * rng.normal(size=n))
        hits = 0
        for _ in range(200):
            w = weights_from(rng.permutation(base))
            if abs(reverse_sensitivity(s, w).value) <= 3.0 / np.sqrt(n):
                hits += 1
        assert hits >= 198  # >= 99% of shuffles

    def test_constant_s_reports_zero(self):
        w = weights_from(np.array([0.5, 1.5, 1.0]))
        assert reverse_sensitivity(np.full(3, 2.0), w).value == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            reverse_sensitivity(np.ones(3), weights_from(np.ones(4)))
        with pytest.raises(ValidationError):
            reverse_sensitivity(np.ones(3), [weights_from(np.ones(3)), weights_from(np.ones(4))])

    @pytest.mark.parametrize("container", [list, tuple])
    def test_sequence_of_weight_sets_matches_one_call_each(self, container, monkeypatch):
        rng = np.random.default_rng(23)
        s = rng.normal(size=300)
        sets = [weights_from(np.exp(k * s) + rng.uniform(0.0, 0.1, size=300))
                for k in (-0.5, 0.0, 0.3)]
        singles = [reverse_sensitivity(s, w) for w in sets]
        sorts = []
        original_sort = np.sort

        def counting_sort(*args, **kwargs):
            sorts.append(1)
            return original_sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        assert reverse_sensitivity(s, container(sets)) == singles  # bit for bit
        assert len(sorts) == 1  # s once; the weights were sorted by the single calls


class TestBivariate:
    def test_independent_pair_near_zero(self):
        # the normalised value of a sparse indicator is noisy at a single
        # draw, so the independence property is checked on the average of
        # repeated draws against the Monte Carlo tolerance
        rng = np.random.default_rng(17)
        n = 20_000
        values = []
        for _ in range(20):
            x_i = rng.normal(size=n)
            x_j = rng.normal(size=n)
            s = joint_tail_indicator_s(x_i, x_j, 0.8)
            w = weights_from(np.exp(0.3 * rng.normal(size=n)))  # independent of s
            values.append(abs(reverse_sensitivity(s, w).value))
        assert np.mean(values) <= 3.0 / np.sqrt(n)

    def test_comonotone_joint_indicator(self):
        rng = np.random.default_rng(19)
        n = 5000
        x = rng.normal(size=n)
        s = joint_tail_indicator_s(x, x, 0.9)
        w = weights_from(1.0 + 2.0 * s)
        assert reverse_sensitivity(s, w).value == 1.0

    def test_deprecated_alias_warns_and_delegates(self):
        rng = np.random.default_rng(29)
        s = joint_tail_indicator_s(rng.normal(size=500), rng.normal(size=500), 0.8)
        w = weights_from(np.exp(0.3 * rng.normal(size=500)))
        with pytest.warns(DeprecationWarning, match="use reverse_sensitivity"):
            result = bivariate_reverse_sensitivity(s, w)
        assert result == reverse_sensitivity(s, w)


class TestDeltaMeasure:
    def test_independent_input_small(self):
        rng = np.random.default_rng(23)
        n = 100_000
        y = rng.normal(size=n)
        x = rng.normal(size=n)
        assert delta_measure(y, x) <= 0.05

    def test_perfect_dependence_large(self):
        rng = np.random.default_rng(29)
        n = 100_000
        x = rng.normal(size=n)
        assert delta_measure(x.copy(), x) >= 0.9

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(31)
        n = 20_000
        x = rng.lognormal(size=n)
        y = x + rng.normal(size=n)
        a = delta_measure(y, x)
        b = delta_measure(y, np.log(x))
        assert a == pytest.approx(b, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(37)
        n = 5000
        y = rng.normal(size=n)
        x = 0.5 * y + rng.normal(size=n)
        val = delta_measure(y, x)
        assert 0.0 <= val <= 1.0

    def test_insufficient_samples(self):
        rng = np.random.default_rng(41)
        with pytest.raises(ValidationError):
            delta_measure(rng.normal(size=500), rng.normal(size=500))

    def test_weighted_version_runs(self):
        rng = np.random.default_rng(43)
        n = 20_000
        x = rng.normal(size=n)
        y = x + 0.5 * rng.normal(size=n)
        w = WeightSet(np.exp(0.2 * rng.normal(size=n)))
        val = delta_measure(y, x, weights=w)
        assert 0.0 < val < 1.0


class TestSFunctions:
    def test_tail_indicator_threshold(self):
        x = np.arange(100.0)
        s = tail_indicator_s(x, 0.9)
        assert s.sum() == pytest.approx(np.sum(x > np.quantile(x, 0.9)))


def delta_reference(y, x, w, bins=20):
    """The delta estimator with a per-bin argsort and ``np.histogram`` binning."""
    lo, hi = weighted_quantile(y, [0.001, 0.999], w)
    grid = np.linspace(lo, hi, 512)
    f_marginal = histogram_kde(y, grid, w)
    order = np.argsort(x, kind="stable")
    cum = np.cumsum(w[order])
    edges = np.searchsorted(cum, np.arange(1, bins) * cum[-1] / bins, side="left")
    edges = np.concatenate(([0], edges + 1, [y.size]))
    total = 0.0
    for b in range(bins):
        members = order[edges[b] : edges[b + 1]]
        f_bin = histogram_kde(y[members], grid, w[members])
        total += w[members].sum() / cum[-1] * 0.5 * np.trapezoid(np.abs(f_bin - f_marginal), grid)
    return total


class TestDeltaMeasureWeightSets:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(47)
        n = 20_000
        # rounded input and output: ties in both orders
        x = np.round(rng.normal(size=n), 1)
        y = np.round(x + 0.7 * rng.normal(size=n), 2)
        sets = [WeightSet(np.exp(0.3 * rng.normal(size=n))), WeightSet(1.0 + (y > 1.0))]
        return y, x, sets

    def test_sequence_equals_single_calls(self, data):
        y, x, sets = data
        many = delta_measure(y, x, [None, *sets])
        single = [delta_measure(y, x)] + [delta_measure(y, x, weights=w) for w in sets]
        assert isinstance(many, list) and len(many) == 3
        assert all(isinstance(v, float) for v in single)
        assert many == pytest.approx(single, rel=1e-12, abs=1e-12)
        assert delta_measure(y, x, (sets[0],)) == pytest.approx([single[1]], abs=1e-12)

    def test_matches_per_bin_histogram_estimator(self, data):
        y, x, sets = data
        got = delta_measure(y, x, [None, *sets])
        ref = [delta_reference(y, x, np.ones(y.size))] + [
            delta_reference(y, x, w.w) for w in sets
        ]
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_weight_length_mismatch_rejected(self, data, monkeypatch):
        # every set's length is checked up front, so the first set is never computed
        y, x, _ = data
        calls = []
        monkeypatch.setattr(sensitivity, "kde_density", lambda *a, **k: calls.append(a))
        with pytest.raises(ValidationError, match="weights must match the samples in length"):
            delta_measure(y, x, [None, WeightSet(np.ones(y.size - 1))])
        assert calls == []


def inputs(n):
    """Output and three inputs: independent, output-linked, and a tied monotone transform of
    the first."""
    rng = np.random.default_rng(53)
    x0 = rng.normal(size=n)
    x1 = rng.normal(size=n)
    y = x0 + 0.7 * x1 + 0.5 * rng.normal(size=n)
    return y, np.column_stack((x0, x1, np.round(x0**3, 1)))


def empty_last_bin(x):
    """Weights whose last equal-probability bin of ``x`` holds only zero weights.

    Every bin holds n/20 samples: unit weights below, then one sample with a
    little over a bin's mass, then the top n/20 samples of ``x`` at zero.
    """
    n = x.size
    per_bin = n // 20
    order = np.argsort(x, kind="stable")
    w = np.ones(n)
    w[order[n - per_bin - 1]] = per_bin + 0.5
    w[order[n - per_bin:]] = 0.0
    return WeightSet(w)


def one_column_calls(y, x, weights):
    """Each column's 1-D delta measure, or the ValidationError it raises."""
    out = []
    for j in range(x.shape[1]):
        try:
            out.append(delta_measure(y, x[:, j], weights))
        except ValidationError as exc:
            out.append(exc)
    return out


class TestDeltaMeasureColumns:
    @pytest.mark.parametrize("n", [1000, 20_000])
    @pytest.mark.parametrize("kind", ["unweighted", "random", "empty_last_bin"])
    def test_each_column_equals_its_one_column_call(self, n, kind, monkeypatch):
        y, x = inputs(n)
        rng = np.random.default_rng(59)
        weights = {"unweighted": None,
                   "random": WeightSet(np.exp(0.3 * rng.normal(size=n))),
                   "empty_last_bin": empty_last_bin(x[:, 0])}[kind]
        expected = one_column_calls(y, x, [None, weights])
        failed = [j for j, e in enumerate(expected) if isinstance(e, Exception)]
        if failed:
            # equal-probability bins of 1000 samples each hold 50 only without weights
            assert n == 1000 and kind != "unweighted"
            with pytest.raises(InputColumnError) as info:
                delta_measure(y, x, [None, weights])
            assert info.value.column == failed[0]
            assert info.value.reason == str(expected[failed[0]])
            return
        densities = []
        real = sensitivity._subsample_density
        monkeypatch.setattr(sensitivity, "_subsample_density",
                            lambda *a: densities.append(1) or real(*a))
        assert delta_measure(y, x, [None, weights]) == expected
        assert delta_measure(y, x, weights) == [e[1] for e in expected]
        # the zero-weight bin of the first column is skipped, in both calls
        skipped = 1 if kind == "empty_last_bin" else 0
        assert len(densities) == (2 * 3 * 20 - skipped) + (3 * 20 - skipped)

    @pytest.mark.parametrize("n", [1000, 20_000])
    def test_empty_last_bin_keeps_every_bin_full(self, n):
        # the shared-order columns hold n/20 samples per bin, so their values exist
        y, x = inputs(n)
        weights = empty_last_bin(x[:, 0])
        got = delta_measure(y, x[:, [0, 2]], weights)
        assert got == [delta_measure(y, x[:, 0], weights), delta_measure(y, x[:, 2], weights)]

    def test_small_bin_names_its_column(self):
        # the weights fill column 0's bins exactly; column 1 orders them otherwise
        y, x = inputs(1000)
        weights = empty_last_bin(x[:, 0])
        with pytest.raises(ValidationError, match="bin"):
            delta_measure(y, x[:, 1], weights)
        with pytest.raises(InputColumnError, match=r"^input column 1: bin \d+ of 20 holds") as info:
            delta_measure(y, x, weights)
        assert info.value.column == 1

    @pytest.mark.parametrize("shape", [(999, 3), (999,), (1001, 3), (1000, 3, 1)])
    def test_input_shape_must_match_the_output(self, shape):
        y = np.random.default_rng(61).normal(size=1000)
        with pytest.raises(ValidationError, match="^output must be a vector"):
            delta_measure(y, np.ones(shape))
