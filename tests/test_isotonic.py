import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from conftest import assert_smoothed_isotonic_kkt, pav_loop_blocks, smoothed_isotonic_oracle
from wstress import isotonic
from wstress.errors import ValidationError
from wstress.isotonic import _expand, as_weights, pav, spav
from wstress.kde import kde_density, silverman_bandwidth, weighted_quantile
from wstress.reweight import WeightSet


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


#: A drop spacing wide enough that clusters of drops pool apart.
GAP = 64


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
            w[rng.integers(n)] = 1.0  # not all zero
    return v, w


def assert_matches_loop(v, w):
    """``pav`` agrees with the one-cell-at-a-time pooling loop.

    On positive-weight cells the fits agree to a few ulps of max|v|, and so
    do the objectives; the fit is nondecreasing.  Nondecreasing input comes
    back unchanged; otherwise a zero-weight cell equals the nearest
    positive-weight cell on its left, or on its right if there is none.
    """
    x = pav(v, w)
    ref = _expand(*pav_loop_blocks(v, w))
    pos = w > 0.0
    scale = float(np.abs(v).max(initial=0.0))
    tol = 8.0 * np.finfo(float).eps * scale
    assert np.abs(x - ref)[pos].max() <= tol
    objective, ref_objective = np.sum(w * (x - v) ** 2), np.sum(w * (ref - v) ** 2)
    assert abs(objective - ref_objective) <= 1e-12 * ref_objective + tol**2 * np.sum(w)
    assert np.all(np.diff(x) >= 0.0)
    if np.all(np.diff(v) >= 0.0):
        assert x.tobytes() == v.tobytes()
    else:
        owner = np.maximum.accumulate(np.where(pos, np.arange(v.size), -1))
        owner[owner < 0] = np.flatnonzero(pos)[0]
        assert x.tobytes() == x[owner].tobytes()


class TestWindowedPav:
    """``pav`` against the pooling loop on drops at the edges, clustered or far apart."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(pav_problems())
    def test_matches_full_loop(self, problem):
        assert_matches_loop(*problem)

    @pytest.mark.parametrize("where", ["first", "last", "one_gap_apart", "overlapping"])
    def test_edge_violations(self, where):
        n = 8 * GAP
        v = np.linspace(0.0, 1.0, n)
        drops = {"first": [0], "last": [n - 2],
                 "one_gap_apart": [2 * GAP, 3 * GAP, 4 * GAP],
                 "overlapping": [2 * GAP, 3 * GAP + 1]}[where]
        for p in drops:
            v[p + 1:] -= 0.4
        assert_matches_loop(v, np.ones(n))

    def test_nondecreasing_input_skips_the_loop(self, monkeypatch):
        monkeypatch.setattr(isotonic, "isotonic_regression", None)
        v = np.array([-0.0, 0.0, 0.0, 1.0, 2.0])
        ends, means = isotonic._pav_blocks(v, np.ones(5))
        assert ends.tolist() == [1, 2, 3, 4, 5]
        assert means.tobytes() == v.tobytes()


class TestSpav:
    def test_zero_smoothing_reproduces_pav(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            v = rng.normal(size=rng.integers(2, 30))
            np.testing.assert_array_equal(spav(v, zeta=0.0), pav(v))

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
        np.testing.assert_allclose(
            spav(v, zeta=0.01), smoothed_isotonic_oracle(v, np.ones(n), pen), atol=1e-9
        )

    def test_matches_qp_oracle_random(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            u = (np.arange(n) + 0.5) / n
            zeta = float(rng.uniform(0.0, 0.05))
            pen = zeta / np.diff(u) ** 2
            v = rng.normal(size=n) * 3
            np.testing.assert_allclose(
                spav(v, zeta=zeta), smoothed_isotonic_oracle(v, np.ones(n), pen), atol=1e-9
            )

    def test_limit_to_pav(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            v = rng.uniform(0.0, 1.0, size=n)
            gap = np.abs(spav(v, zeta=1e-8) - pav(v)).max()
            assert gap <= 1e-6

    def test_limit_trend(self):
        v = np.array([0.9, 0.1, 0.5, 0.4, 0.8])
        gaps = [
            np.abs(spav(v, zeta=z) - pav(v)).max() for z in (1e-2, 1e-4, 1e-6)
        ]
        assert gaps[0] >= gaps[1] >= gaps[2]

    def test_overflowing_penalty_raises(self):
        # zeta * n**2 overflows to inf on the default grid
        with pytest.raises(ValidationError):
            spav(np.linspace(1.0, 0.0, 64), zeta=1e306)

    @pytest.mark.filterwarnings("error")
    def test_penalty_whose_block_diagonal_overflows_raises(self):
        # zeta * n**2 is finite, but n + 2 * zeta * n**2 is not
        with pytest.raises(ValidationError, match="overflows the block system"):
            spav(np.random.default_rng(0).normal(size=64), zeta=3e304)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values", [[1e308, 1e308, 0.0, 1.0], [1e308, 1e308]],
                             ids=["pooled", "nondecreasing"])
    def test_values_whose_sums_overflow_raise(self, values):
        with pytest.raises(ValidationError, match="overflow"):
            spav(values, zeta=1e-4)

    @pytest.mark.filterwarnings("error")
    def test_pav_refuses_a_pooled_sum_that_overflows(self):
        with pytest.raises(ValidationError, match="overflows"):
            pav([1e308, 1e308, 0.0, 1.0])
        np.testing.assert_array_equal(pav([1e308, 1e308]), [1e308, 1e308])  # nothing pooled

    def test_penalty_too_large_for_weights_raises(self):
        # a finite penalty, but the tridiagonal system is numerically singular
        with pytest.raises(ValidationError):
            spav([3.0, 1.0, 2.0, 5.0], zeta=1e300)

    def test_huge_penalty_on_one_pooled_block_is_optimal(self):
        # pav pools [3, 1, 2] into one block, which no penalty can move; a
        # constant fit has a zero penalty gradient, so the plain certificate
        # applies at its tight tolerance
        x = spav([3.0, 1.0, 2.0], zeta=1e300)
        np.testing.assert_array_equal(x, [2.0, 2.0, 2.0])
        assert_smoothed_isotonic_kkt([3.0, 1.0, 2.0], x)

    def test_large_noisy_fit_satisfies_kkt(self):
        n, zeta = 4096, 1e-4
        u = (np.arange(n) + 0.5) / n
        v = np.log(u / (1.0 - u)) + 0.5 * np.random.default_rng(41).normal(size=n)
        x = spav(v, zeta=zeta)
        assert_smoothed_isotonic_kkt(v, x, penalties=np.full(n - 1, zeta * n * n))
        assert np.unique(x).size < n  # the fit has ties, so the test is not vacuous

    @pytest.mark.parametrize("zeta", [1e-5, 1e-3])
    def test_long_pooled_blocks_take_few_passes(self, zeta, monkeypatch):
        # a staircase with one drop: pav pools thousands of cells per block,
        # and releasing one tie per block per pass would take ~1600 passes
        passes = []
        solve = isotonic._solve_block_system
        monkeypatch.setattr(
            isotonic, "_solve_block_system", lambda *a: passes.append(1) or solve(*a)
        )
        n = 16384
        u = (np.arange(n) + 0.5) / n
        v = np.floor(10.0 * u) - 3.0 * (u > 0.8)
        x = spav(v, zeta=zeta)
        assert_smoothed_isotonic_kkt(v, x, penalties=np.full(n - 1, zeta * n * n))
        assert len(passes) <= 40

    def test_block_ends_are_never_released(self):
        # blocks {0, 1} and {2, 3}; the first sits 5 above its mean, so the
        # multiplier at its end, cell 1, is -10, though it is a boundary
        ends, v = np.array([2, 4]), np.array([0.0, 0.0, 10.0, 10.0])
        x = np.array([5.0, 5.0, 10.0, 10.0])
        splits = isotonic._negative_ties(ends, x, v, 1.0, 1e-10)
        assert splits.tolist() == [0, 2]
        assert np.intersect1d(splits, ends - 1).size == 0


class TestTridiagonalSolve:
    @pytest.mark.parametrize("columns", [None, 3])
    def test_equals_the_banded_solver_bit_for_bit(self, columns):
        # the block system in scipy's upper banded form, built as the fit
        # used to build it: sizes + boundary penalties, -pen above the diagonal
        rng = np.random.default_rng(31)
        for pen in 10.0 ** np.arange(-2, 13):
            sizes = rng.integers(1, 40, size=int(rng.integers(2, 300)))
            shape = sizes.size if columns is None else (sizes.size, columns)
            rhs = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0)
            boundary = np.full(sizes.size - 1, pen)
            diag = sizes + np.append(boundary, 0.0) + np.append(0.0, boundary)
            banded = np.vstack((np.append(0.0, -boundary), diag))
            kept = rhs.copy()
            x = isotonic._solve_tridiagonal(sizes, pen, rhs)
            assert x.tobytes() == solveh_banded(banded, rhs).tobytes()
            assert rhs.tobytes() == kept.tobytes()


@st.composite
def smoothing_problems(draw):
    """Random (v, zeta): noisy values, some trending upward.

    Optional step drops make long pooled blocks, and rounding makes exact
    ties, so a pass can release many ties of one block at once.
    """
    n = draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        v += np.linspace(0.0, 2.0 * np.abs(v).max(), n)  # mostly increasing
    if draw(st.booleans()):
        size = np.abs(v).max()
        for at in rng.integers(0, n, size=draw(st.integers(1, 5))):
            v[at:] -= rng.exponential(size)
        if draw(st.booleans()):
            step = size / 8.0
            v = np.round(v / step) * step
    zeta = draw(st.sampled_from([0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0]))
    return v, zeta


class TestSpavProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(smoothing_problems())
    def test_kkt_conditions(self, problem):
        v, zeta = problem
        n = v.size
        x = spav(v, zeta=zeta)
        assert_smoothed_isotonic_kkt(v, x, penalties=np.full(n - 1, zeta / (1.0 / n) ** 2))


def _tie_runs(x):
    """Indices where a fit increases: the block boundaries it was built on."""
    return np.flatnonzero(x[1:] != x[:-1])


class TestProjectionJacobian:
    @pytest.mark.parametrize("zeta", [0.0, 1e-5, 1e-4])
    def test_matches_central_differences(self, zeta):
        # noisy data with pooled blocks; the probes are small enough to keep
        # every block, where the projection is linear in its input
        rng = np.random.default_rng(13)
        n = 64
        v = np.sort(rng.normal(size=n)) + 0.5 * np.sin(np.arange(n))
        x = spav(v, zeta=zeta)
        assert 2 < _tie_runs(x).size < n - 1
        inputs, outputs = rng.normal(size=(2, n)), rng.normal(size=(3, n))
        h = 1e-6
        columns = []
        for direction in inputs:
            up, down = spav(v + h * direction, zeta=zeta), spav(v - h * direction, zeta=zeta)
            assert np.array_equal(_tie_runs(up), _tie_runs(x))
            assert np.array_equal(_tie_runs(down), _tie_runs(x))
            columns.append(outputs @ (up - down) / (2.0 * h))
        jac = isotonic.projection_jacobian(x, outputs, inputs, zeta)
        np.testing.assert_allclose(jac, np.column_stack(columns), rtol=0.0,
                                   atol=1e-7 * np.abs(jac).max())

    def test_block_means_and_identity_at_zero_smoothing(self):
        rng = np.random.default_rng(5)
        inputs, outputs = rng.normal(size=(2, 6)), rng.normal(size=(1, 6))
        increasing = np.arange(6.0)
        np.testing.assert_allclose(isotonic.projection_jacobian(increasing, outputs, inputs),
                                   outputs @ inputs.T, rtol=1e-14)
        # blocks {0}, {1, 2, 3}, {4, 5}
        x = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 2.0])
        averaging = np.zeros((6, 6))
        averaging[0, 0] = 1.0
        averaging[1:4, 1:4] = 1.0 / 3.0
        averaging[4:, 4:] = 0.5
        np.testing.assert_allclose(isotonic.projection_jacobian(x, outputs, inputs),
                                   outputs @ averaging @ inputs.T, rtol=1e-12)

    def test_one_smoothed_block_is_its_mean(self):
        inputs = np.arange(5.0)[None, :]
        jac = isotonic.projection_jacobian(np.ones(5), np.ones((1, 5)), inputs, zeta=1e-3)
        np.testing.assert_allclose(jac, [[inputs.sum()]], rtol=1e-14)


N_VALUES = 6
#: (id, weights, what the error says); the vector of length message names N_VALUES,
#: or, for a WeightSet, the size of the vector itself
MALFORMED_WEIGHTS = [
    ("negative", [1.0, -1.0, 1.0, 1.0, 1.0, 1.0], "weights must be finite and nonnegative"),
    ("nan", [1.0, np.nan, 1.0, 1.0, 1.0, 1.0], "weights must be finite and nonnegative"),
    ("inf", [1.0, np.inf, 1.0, 1.0, 1.0, 1.0], "weights must be finite and nonnegative"),
    ("sum_overflows", np.full(N_VALUES, 1e308), "weights must be finite and nonnegative"),
    ("all_zero", np.zeros(N_VALUES), "weights must not be all zero"),
    ("empty", [], "weights must not be all zero"),
    ("wrong_length", np.ones(N_VALUES + 1), f"weights must be a vector of length {N_VALUES}"),
    ("two_d", np.ones((2, 3)), f"weights must be a vector of length {N_VALUES}"),
    ("zero_d", 1.0, "weights must be a vector of length"),
]
WEIGHT_TAKERS = {
    "pav": lambda w: pav(np.arange(float(N_VALUES)), w),
    "kde_density": lambda w: kde_density(np.arange(float(N_VALUES)), np.linspace(0, 5, 16), w),
    "weighted_quantile": lambda w: weighted_quantile(np.arange(float(N_VALUES)), 0.5, w),
    "silverman_bandwidth": lambda w: silverman_bandwidth(np.arange(float(N_VALUES)), w),
    "WeightSet": WeightSet,
}


class TestWeights:
    @pytest.mark.parametrize("taker, weights, message", [
        pytest.param(taker, weights, message, id=f"{name}-{case}")
        for case, weights, message in MALFORMED_WEIGHTS
        for name, taker in WEIGHT_TAKERS.items()
        # a WeightSet takes its length from its vector
        if (case, name) != ("wrong_length", "WeightSet")
    ])
    def test_every_taker_rejects_with_one_message(self, taker, weights, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            taker(weights)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            as_weights([-1.0, 1.0], 2)

    def test_accepts_zero_mixed_with_positive(self):
        w = as_weights([0.0, 1.0], 2)
        assert w.tolist() == [0.0, 1.0]
