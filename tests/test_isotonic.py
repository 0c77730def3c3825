import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_smoothed_isotonic_kkt, pav_loop_blocks, smoothed_isotonic_oracle
from wstress import isotonic
from wstress.distributions import Lognormal, discretize
from wstress.errors import ValidationError
from wstress.isotonic import GridFunction, as_weights, pav, project, spav
from wstress.risk_measures import es_weight, eval_rm
from wstress.stress_solvers import RmConstraint, RmStress, solve


class TestPav:
    def test_pools_violators_to_mean(self):
        # oracle: brute-force quadratic minimisation over block partitions
        oracle = smoothed_isotonic_oracle([3.0, 1.0, 2.0])
        out = pav([3.0, 1.0, 2.0])
        np.testing.assert_allclose(out, oracle, atol=1e-12)
        np.testing.assert_allclose(out, [2.0, 2.0, 2.0], atol=1e-12)

    def test_monotone_input_is_identity(self):
        np.testing.assert_array_equal(pav([1.0, 2.0, 3.0], [0.3, 2.0, 1.0]),
                                      [1.0, 2.0, 3.0])

    def test_weighted_pooling(self):
        # pooled weighted mean (2*1 + 0*3) / 4
        np.testing.assert_allclose(pav([2.0, 0.0], [1.0, 3.0]), [0.5, 0.5])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValidationError):
            pav([1.0, 2.0], [1.0])

    def test_non_finite_raises(self):
        with pytest.raises(ValidationError):
            pav([1.0, np.nan])

    def test_all_zero_weights_raise(self):
        with pytest.raises(ValidationError):
            pav([1.0, 2.0], [0.0, 0.0])

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(2, 40)
            v = rng.normal(size=n) * 10
            w = rng.uniform(0.1, 3.0, size=n)
            once = pav(v, w)
            np.testing.assert_array_equal(pav(once, w), once)

    def test_weighted_mean_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(2, 60)
            v = rng.normal(size=n) * 5
            w = rng.uniform(0.0, 2.0, size=n)
            if not w.any():
                w[0] = 1.0
            out = pav(v, w)
            assert abs(np.sum(w * out) - np.sum(w * v)) <= 1e-10 * max(1.0, np.abs(v).max())

    def test_output_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = rng.integers(2, 80)
            out = pav(rng.normal(size=n), rng.uniform(0.05, 2.0, size=n))
            assert np.all(np.diff(out) >= -1e-12)

    def test_matches_oracle_short_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = rng.integers(2, 7)
            v = rng.normal(size=n) * 4
            w = rng.uniform(0.1, 2.0, size=n)
            np.testing.assert_allclose(
                pav(v, w), smoothed_isotonic_oracle(v, w), atol=1e-9
            )


GAP = isotonic._WINDOW_GAP


@st.composite
def pav_problems(draw):
    """(v, w) rising with a few drops, or tied, noisy, monotone or decreasing throughout."""
    n = draw(st.integers(1, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["drops", "ties", "noisy", "monotone", "decreasing"]))
    if kind == "ties":
        v = np.sort(rng.integers(0, 6, size=n)).astype(float)
    elif kind == "noisy":
        v = rng.normal(size=n)
    else:
        v = np.cumsum(rng.uniform(0.0, 1.0, size=n) * (rng.uniform(size=n) < 0.8))
        if kind == "decreasing":
            v = -v
    if kind in ("drops", "ties") and n > 1:
        # drops between cells p and p+1: clusters start at cell 0, mid-vector
        # or cell n-2 and step by 1, 3, exactly one gap, or just over it
        p = draw(st.sampled_from([0, n // 2, n - 2]))
        for _ in range(draw(st.integers(1, 6))):
            if p > n - 2:
                break
            size = draw(st.sampled_from([1e-3, 1.0, 10.0 * (abs(v[-1] - v[0]) + 1.0)]))
            v[p + 1:] -= size
            p += draw(st.sampled_from([1, 3, GAP, GAP + 1, GAP + 2, 5 * GAP]))
    v = v * draw(st.sampled_from([1.0, 1e-3, 1e3, np.pi]))
    weights = draw(st.sampled_from(["ones", "uniform", "zeros", "integers"]))
    if weights == "ones":
        w = np.ones(n)
    elif weights == "integers":
        w = rng.integers(1, 4, size=n).astype(float)
    else:
        w = rng.uniform(0.0, 2.0, size=n)
        if weights == "zeros":
            w[rng.uniform(size=n) < draw(st.sampled_from([0.3, 0.9, 1.0]))] = 0.0
    return v, w


def assert_same_blocks(v, w):
    """Windowed pooling equals the full loop bit for bit, and so does the kernel."""
    ends, means = isotonic._pav_blocks(v, w)
    for full_ends, full_means in (isotonic._pav_kernel(v, w), pav_loop_blocks(v, w)):
        np.testing.assert_array_equal(ends, full_ends)
        assert means.tobytes() == full_means.tobytes()


class TestWindowedPav:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(pav_problems())
    def test_matches_full_loop_bit_for_bit(self, problem):
        assert_same_blocks(*problem)

    @pytest.mark.parametrize("where", ["first", "last", "one_gap_apart", "overlapping"])
    def test_edge_violations(self, where):
        n = 8 * GAP
        v = np.linspace(0.0, 1.0, n)
        drops = {"first": [0], "last": [n - 2],
                 "one_gap_apart": [2 * GAP, 3 * GAP, 4 * GAP],
                 "overlapping": [2 * GAP, 3 * GAP + 1]}[where]
        for p in drops:
            v[p + 1:] -= 0.4
        assert_same_blocks(v, np.ones(n))

    def test_window_pools_into_the_window_it_touches(self):
        # the first window doubles right to end exactly where the second
        # starts; the second's pool then falls below the first's last block
        # but stays above that block's last cell, so only comparing with the
        # block mean merges them
        pad, rise, eps, d = isotonic._WINDOW_PAD, 1e-3, 1e-4, 200
        stop = d + 3 * pad + 4
        d2 = stop + pad
        assert d2 - d > GAP
        n = d2 + 200
        v = np.arange(n) * rise
        v[d + 1:stop] = v[d] - eps
        v[stop:] += 1.0
        target = v[d] - eps * (1.0 - 0.5 / (stop - d))
        v[d2 + 1] = target * (d2 + 2 - stop) - v[stop:d2 + 1].sum()
        assert_same_blocks(v, np.ones(n))
        ends, _ = isotonic._pav_blocks(v, np.ones(n))
        assert not np.any((ends > d) & (ends < d2 + 2))

    def test_long_rise_ending_in_large_drop_widens_repeatedly(self, monkeypatch):
        n = 4096
        v = np.linspace(0.0, 1.0, n)
        v[-1] = -50.0
        runs = []
        kernel = isotonic._pav_kernel

        def counting(v, w, floor=-np.inf):
            runs.append(v.size)
            return kernel(v, w, floor)

        monkeypatch.setattr(isotonic, "_pav_kernel", counting)
        ends, _ = isotonic._pav_blocks(v, np.ones(n))
        assert len(runs) >= 5  # the window doubled several times
        assert n - ends[-2] > 8 * GAP  # the drop pools far back into the rise
        assert_same_blocks(v, np.ones(n))

    def test_nondecreasing_input_skips_the_loop(self, monkeypatch):
        monkeypatch.setattr(isotonic, "_pav_kernel", None)
        v = np.array([-0.0, 0.0, 0.0, 1.0, 2.0])
        ends, means = isotonic._pav_blocks(v, np.ones(5))
        assert ends.tolist() == [1, 2, 3, 4, 5]
        assert means.tobytes() == v.tobytes()

    @pytest.mark.parametrize("bumps", [[(0.95, 0.10)], [(0.8, 0.0), (0.95, 0.05)]],
                             ids=["es95_up", "es95_up_es80_held"])
    def test_rm_stress_pools_a_small_share_of_the_grid(self, monkeypatch, bumps):
        # a silent fallback to the full loop would pass every correctness test
        n = 4096
        grid = discretize(Lognormal(0.875, 0.5), n)
        pooled, calls = [], []
        kernel, blocks = isotonic._pav_kernel, isotonic._pav_blocks

        def counting_kernel(v, w, floor=-np.inf):
            pooled.append(v.size)
            return kernel(v, w, floor)

        def counting_blocks(v, w):
            calls.append(v.size)
            return blocks(v, w)

        monkeypatch.setattr(isotonic, "_pav_kernel", counting_kernel)
        monkeypatch.setattr(isotonic, "_pav_blocks", counting_blocks)
        stress = RmStress(tuple(
            RmConstraint(es_weight(a, n), eval_rm(grid, es_weight(a, n)) * (1.0 + b))
            for a, b in bumps))
        solve(grid, stress)
        assert calls and set(calls) == {n}
        assert sum(pooled) <= len(calls) * n // 8


class TestSpav:
    def test_zero_smoothing_reproduces_pav(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = rng.integers(2, 30)
            v = rng.normal(size=n)
            w = rng.uniform(0.2, 2.0, size=n)
            np.testing.assert_array_equal(spav(v, w, zeta=0.0), pav(v, w))

    def test_negative_smoothing_raises(self):
        with pytest.raises(ValidationError):
            spav([1.0, 2.0], zeta=-1e-9)

    def test_large_smoothing_flattens_monotone_data(self):
        v = np.array([1.0, 2.0, 3.0])
        out = spav(v, zeta=100.0)
        assert np.all(np.diff(out) >= -1e-12)
        assert out.max() - out.min() < v.max() - v.min()
        assert abs(out.sum() - v.sum()) <= 1e-8  # unit weights: mean preserved

    def test_matches_qp_oracle(self):
        # small-n oracle via exhaustive active-set enumeration
        n = 3
        u = (np.arange(n) + 0.5) / n
        pen = 0.01 / np.diff(u) ** 2
        v = np.array([3.0, 1.0, 2.0])
        w = np.ones(n)
        np.testing.assert_allclose(
            spav(v, w, zeta=0.01), smoothed_isotonic_oracle(v, w, pen), atol=1e-9
        )

    def test_matches_qp_oracle_random(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            u = (np.arange(n) + 0.5) / n
            zeta = float(rng.uniform(0.0, 0.05))
            pen = zeta / np.diff(u) ** 2
            v = rng.normal(size=n) * 3
            w = rng.uniform(0.1, 2.0, size=n)
            np.testing.assert_allclose(
                spav(v, w, zeta=zeta),
                smoothed_isotonic_oracle(v, w, pen),
                atol=1e-9,
            )

    def test_limit_to_pav(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            v = rng.uniform(0.0, 1.0, size=n)
            w = rng.uniform(0.5, 1.5, size=n)
            gap = np.abs(spav(v, w, zeta=1e-8) - pav(v, w)).max()
            assert gap <= 1e-6

    def test_limit_trend(self):
        v = np.array([0.9, 0.1, 0.5, 0.4, 0.8])
        gaps = [
            np.abs(spav(v, zeta=z) - pav(v)).max() for z in (1e-2, 1e-4, 1e-6)
        ]
        assert gaps[0] >= gaps[1] >= gaps[2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_abscissae_raise(self, bad):
        with pytest.raises(ValidationError):
            spav([3.0, 1.0, 2.0], zeta=1e-3, u=[0.1, 0.5, bad])

    def test_overflowing_penalty_raises(self):
        # zeta * n**2 overflows to inf on the default grid
        with pytest.raises(ValidationError):
            spav(np.linspace(1.0, 0.0, 64), zeta=1e306)

    def test_penalty_too_large_for_weights_raises(self):
        # finite penalties, but the tridiagonal system is numerically singular
        with pytest.raises(ValidationError):
            spav([3.0, 1.0, 2.0], zeta=1e300)

    def test_large_noisy_fit_satisfies_kkt(self):
        n, zeta = 4096, 1e-4
        u = (np.arange(n) + 0.5) / n
        v = np.log(u / (1.0 - u)) + 0.5 * np.random.default_rng(41).normal(size=n)
        x = spav(v, zeta=zeta)
        assert_smoothed_isotonic_kkt(v, x, penalties=np.full(n - 1, zeta * n * n))
        assert np.unique(x).size < n  # the fit has ties, so the test is not vacuous


@st.composite
def smoothing_problems(draw):
    """Random (v, w, zeta, u): some zero weights, non-uniform abscissae."""
    n = draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        v += np.linspace(0.0, 2.0 * np.abs(v).max(), n)  # mostly increasing
    w = rng.uniform(0.0, 2.0, size=n)
    w[rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    w[rng.integers(n)] = 1.0  # not all zero
    gaps = rng.uniform(0.2, 1.0, size=n + 1)
    u = np.cumsum(gaps)[:-1] / gaps.sum()
    zeta = draw(st.sampled_from([0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0]))
    return v, w, zeta, u


class TestSpavProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(smoothing_problems())
    def test_kkt_conditions(self, problem):
        v, w, zeta, u = problem
        x = spav(v, w, zeta=zeta, u=u)
        assert_smoothed_isotonic_kkt(v, x, w, zeta / np.diff(u) ** 2)


class TestProject:
    def test_monotone_function_unchanged(self):
        u = (np.arange(8) + 0.5) / 8
        f = GridFunction(u, np.sort(np.random.default_rng(3).normal(size=8)))
        out = project(f)
        np.testing.assert_array_equal(out.v, f.v)

    def test_decreasing_function_projects_to_mean(self):
        u = (np.arange(32) + 0.5) / 32
        f = GridFunction(u, -u)
        out = project(f)
        np.testing.assert_allclose(out.v, np.full(32, (-u).mean()), atol=1e-12)

    def test_constant_weights_match_unweighted(self):
        rng = np.random.default_rng(31)
        u = (np.arange(16) + 0.5) / 16
        v = rng.normal(size=16)
        f = GridFunction(u, v)
        np.testing.assert_allclose(
            project(f, np.full(16, 3.7)).v, project(f).v, atol=1e-12
        )

    def test_rejects_tied_abscissae(self):
        with pytest.raises(ValidationError):
            GridFunction(np.array([0.2, 0.2, 0.6]), np.array([1.0, 2.0, 3.0]))


class TestWeights:
    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            as_weights([-1.0, 1.0], 2)

    def test_accepts_zero_mixed_with_positive(self):
        w = as_weights([0.0, 1.0], 2)
        assert w.tolist() == [0.0, 1.0]
