import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from conftest import (
    assert_integral_kkt,
    assert_mean_var_kkt,
    assert_rm_kkt,
    assert_utility_kkt,
    uniform_grid,
)
from wstress.distributions import (
    Lognormal,
    QuantileGrid,
    cdf_and_density,
    discretize,
    excess_jumps,
    flat_segments,
    midpoint_grid,
    wasserstein2,
)
from wstress.errors import NoSolutionError, NotConvergedError, UtilityDomainError, ValidationError
from wstress import stress_solvers
from wstress.isotonic import pav, spav
from wstress.risk_measures import (
    CustomUtility,
    HARAUtility,
    alpha_beta_weight,
    es_weight,
    eval_rm,
    expected_utility,
    mean_sd,
    rvar_weight,
    var,
    var_plus,
)
from wstress.stress_solvers import (
    IntegralStress,
    LinearConstraint,
    MeanVarRm,
    QuadraticConstraint,
    RmConstraint,
    RmStress,
    UtilityRm,
    VarStress,
    multiplier_search,
    solve,
    solve_coherent,
    solve_integral,
    solve_mean_var_rm,
    solve_rm,
    solve_utility_rm,
    solve_var,
)


def _slsqp_nearest(base, equalities, inequalities=()):
    """The nondecreasing grid nearest ``base`` under equality constraints, by SLSQP.

    ``equalities`` are (function, gradient) pairs, and so are ``inequalities``,
    each met where its function is >= 0.  The objective is the mean squared
    gap, on the scale of the constraints, so the line search converges
    whatever the BLAS thread count.
    """
    n = base.n
    diff = np.diff(np.eye(n), axis=0)
    constraints = [{"type": "ineq", "fun": lambda g: diff @ g, "jac": lambda g: diff}]
    constraints += [{"type": "eq", "fun": f, "jac": j} for f, j in equalities]
    constraints += [{"type": "ineq", "fun": f, "jac": j} for f, j in inequalities]
    oracle = optimize.minimize(
        lambda g: float(np.mean((g - base.q) ** 2)),
        base.q,
        jac=lambda g: 2.0 * (g - base.q) / n,
        constraints=constraints,
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    assert oracle.success, oracle.message
    return oracle


def _rm_equalities(constraints):
    return [(lambda g, c=c: c.weight.values @ g / g.size - c.target,
             lambda g, c=c: c.weight.values / g.size) for c in constraints]


def _assert_matches_oracle(base, model, oracle, atol=1e-8):
    ours = float(np.mean((model.stressed.q - base.q) ** 2))
    assert ours <= oracle.fun + 1e-12
    assert np.abs(model.stressed.q - oracle.x).max() <= atol


@st.composite
def feasible_grids(draw):
    """A lognormal baseline of at most 512 cells and a nondecreasing grid near it.

    The grid ``q + t * max(q - q_k, 0) + c`` bends the baseline's tail above
    its cell k by a slope factor 1 + t in [0.7, 1.3] and shifts it by c, so
    any target read off it is feasible.
    """
    n = draw(st.sampled_from([16, 64, 512]))
    base = discretize(Lognormal(mu=0.875, sigma=0.5), n)
    q = base.q
    k = int(draw(st.floats(0.3, 0.95)) * n)
    bent = q + draw(st.floats(-0.3, 0.3)) * np.maximum(q - q[k], 0.0) + draw(st.floats(-0.2, 0.2))
    return base, QuantileGrid(bent)


@st.composite
def rm_stresses(draw):
    """One to three ES equalities at distinct levels, with targets read off a feasible grid."""
    base, bent = draw(feasible_grids())
    levels = draw(st.lists(st.sampled_from([0.5, 0.8, 0.9, 0.95]), min_size=1, max_size=3,
                           unique=True))
    weights = [es_weight(a, base.n) for a in levels]
    return base, RmStress(tuple(RmConstraint(w, eval_rm(bent, w)) for w in weights))


@st.composite
def mean_var_stresses(draw):
    """A mean and sd with up to one ES, with targets read off a feasible grid."""
    base, bent = draw(feasible_grids())
    m, sd = mean_sd(bent)
    levels = draw(st.lists(st.sampled_from([0.8, 0.9, 0.95]), max_size=1))
    weights = [es_weight(a, base.n) for a in levels]
    return base, MeanVarRm(mean=m, sd=sd,
                           constraints=tuple(RmConstraint(w, eval_rm(bent, w)) for w in weights))


class TestSolveRm:
    @pytest.mark.parametrize("weights_bumps", [
        [(es_weight(0.9, 64), 0.05)],
        [(es_weight(0.8, 64), -0.04)],
        [(es_weight(0.5, 64), 0.02), (es_weight(0.9, 64), -0.03)],
        [(es_weight(0.5, 64), 0.0), (rvar_weight(0.6, 0.9, 64), 0.03),
         (es_weight(0.95, 64), -0.02)],
    ])
    def test_against_slsqp_oracle(self, weights_bumps):
        base = discretize(Lognormal(7.0 / 8.0, 0.5), 64)
        constraints = tuple(RmConstraint(w, (1.0 + b) * eval_rm(base, w))
                            for w, b in weights_bumps)
        model = solve_rm(base, RmStress(constraints), tol=1e-10)
        _assert_matches_oracle(base, model, _slsqp_nearest(base, _rm_equalities(constraints)))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rm_stresses())
    def test_kkt_certificate(self, stress):
        base, spec = stress
        tol = 1e-9
        assert_rm_kkt(base.q, spec, solve_rm(base, spec, tol=tol), tol)

    @pytest.mark.parametrize("bump", [0.05, -0.03])
    def test_smoothed_solution_is_a_fixed_point(self, lognormal_grid, bump):
        # the stressed grid is spav of the baseline moved along the weights
        zeta = 1e-4
        w80, w95 = es_weight(0.8, 4096), es_weight(0.95, 4096)
        constraints = (RmConstraint(w80, eval_rm(lognormal_grid, w80)),
                       RmConstraint(w95, (1.0 + bump) * eval_rm(lognormal_grid, w95)))
        model = solve_rm(lognormal_grid, RmStress(constraints), zeta=zeta)
        gammas = np.vstack([w80.values, w95.values])
        rebuilt = spav(lognormal_grid.q + gammas.T @ model.multipliers, zeta=zeta)
        q = model.stressed.q
        assert np.abs(q - rebuilt).max() <= 4 * np.spacing(np.abs(q).max())
        for c in constraints:
            achieved = eval_rm(model.stressed, c.weight)
            assert abs(achieved - c.target) <= 1e-6 * max(1.0, abs(c.target))

    def test_baseline_already_feasible(self, lognormal_grid):
        w = es_weight(0.9, 4096)
        spec = RmStress((RmConstraint(w, eval_rm(lognormal_grid, w)),))
        model = solve_rm(lognormal_grid, spec)
        np.testing.assert_allclose(model.stressed.q, lognormal_grid.q, atol=1e-9)
        assert abs(model.multipliers[0]) <= 1e-6

    def test_uniform_es_closed_form(self):
        # lam = (r - rho) / mean(gamma^2) = 0.00475 analytically, jump 0.0475
        g = uniform_grid(4096)
        w = es_weight(0.9, 4096)
        model = solve_rm(g, RmStress((RmConstraint(w, 0.9975),)), tol=1e-9)
        jump = model.stressed.q - g.q
        tail = g.u > 0.9
        assert np.abs(jump[~tail]).max() <= 1e-3
        assert np.abs(jump[tail] - 0.0475).max() <= 1e-3
        assert abs(eval_rm(model.stressed, w) - 0.9975) <= 1e-9

    def test_alpha_beta_structure(self, lognormal_grid):
        # flat part straddling beta = 0.1 and an upward jump at alpha = 0.9
        for p in (0.25, 0.5, 0.75):
            w = alpha_beta_weight(0.9, 0.1, p, 4096)
            target = 1.10 * eval_rm(lognormal_grid, w)
            model = solve_rm(lognormal_grid, RmStress((RmConstraint(w, target),)))
            assert abs(eval_rm(model.stressed, w) - target) <= 1e-6 * abs(target)
            flats = flat_segments(model.stressed, min_cells=3)
            assert any(lo < 0.1 < hi for lo, hi, _ in flats)
            jumps = excess_jumps(model.stressed, lognormal_grid, min_size=0.05)
            assert any(abs(u - 0.9) <= 2e-3 for u, _ in jumps)

    def test_monotone_output(self, lognormal_grid):
        w = alpha_beta_weight(0.8, 0.2, 0.6, 4096)
        model = solve_rm(
            lognormal_grid, RmStress((RmConstraint(w, 1.2 * eval_rm(lognormal_grid, w)),))
        )
        assert np.all(np.diff(model.stressed.q) >= -1e-12)


class TestSolveCoherent:
    def test_identity_at_baseline_value(self, lognormal_grid):
        w = es_weight(0.95, 4096)
        model = solve_coherent(lognormal_grid, w, eval_rm(lognormal_grid, w))
        np.testing.assert_array_equal(model.stressed.q, lognormal_grid.q)
        assert model.multipliers[0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_generic_solver(self):
        g = uniform_grid(4096)
        w = es_weight(0.9, 4096)
        closed = solve_coherent(g, w, 0.9975)
        generic = solve_rm(g, RmStress((RmConstraint(w, 0.9975),)), tol=1e-10)
        assert np.abs(closed.stressed.q - generic.stressed.q).max() <= 1e-6

    def test_output_already_monotone(self, lognormal_grid):
        w = es_weight(0.8, 4096)
        model = solve_coherent(lognormal_grid, w, 1.3 * eval_rm(lognormal_grid, w))
        projected = pav(model.stressed.q)
        np.testing.assert_array_equal(projected, model.stressed.q)

    def test_gates(self, lognormal_grid):
        w_bad = alpha_beta_weight(0.9, 0.1, 0.5, 4096)
        with pytest.raises(ValidationError):
            solve_coherent(lognormal_grid, w_bad, 10.0)
        w = es_weight(0.9, 4096)
        with pytest.raises(ValidationError):
            solve_coherent(lognormal_grid, w, eval_rm(lognormal_grid, w) - 1.0)


class TestSolveMeanVarRm:
    def test_identity(self, lognormal_grid):
        m, sd = mean_sd(lognormal_grid)
        model = solve_mean_var_rm(lognormal_grid, MeanVarRm(mean=m, sd=sd))
        assert np.abs(model.stressed.q - lognormal_grid.q).max() <= 1e-5

    def test_affine_family(self, lognormal_grid):
        # with no risk-measure constraints the optimum is the affine reshape
        m, sd = mean_sd(lognormal_grid)
        model = solve_mean_var_rm(
            lognormal_grid, MeanVarRm(mean=m, sd=1.2 * sd), tol=1e-10
        )
        expected = m + 1.2 * (lognormal_grid.q - m)
        assert np.abs(model.stressed.q - expected).max() <= 1e-6

    def test_scale_guard(self):
        # the reshaping divides by 1 + lam_scale, about 1 / (spread factor); the
        # guard on it (1e-6) leaves room for x1e5 and rejects x1e6
        base = discretize(Lognormal(0.875, 0.5), 512)
        m, sd = mean_sd(base)
        with pytest.raises(NotConvergedError, match="scale multiplier pinned near -1"):
            solve_mean_var_rm(base, MeanVarRm(mean=m, sd=1e6 * sd))
        model = solve_mean_var_rm(base, MeanVarRm(mean=m, sd=1e5 * sd))
        assert model.multipliers[1] == pytest.approx(-0.99999, rel=1e-9)

    def test_fixed_mean_es_and_spread_bump(self, lognormal_grid):
        # ES pinned to baseline + sd up 20% => density drop inside (5.5, 6.1)
        m, sd = mean_sd(lognormal_grid)
        w = es_weight(0.95, 4096)
        base_es = eval_rm(lognormal_grid, w)
        model = solve_mean_var_rm(
            lognormal_grid,
            MeanVarRm(mean=m, sd=1.2 * sd, constraints=(RmConstraint(w, base_es),)),
        )
        scale = np.maximum(1.0, np.abs([m, 1.2 * sd, base_es]))
        assert np.all(np.abs(model.residuals) <= 1e-6 * scale)
        curve = cdf_and_density(model.stressed, 4096)
        left = np.median(curve.f[(curve.y > 5.35) & (curve.y < 5.65)])
        right = np.median(curve.f[(curve.y > 5.85) & (curve.y < 6.10)])
        assert right < 0.5 * left  # the density steps down inside (5.5, 6.1)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(mean_var_stresses())
    def test_kkt_certificate(self, stress):
        base, spec = stress
        tol = 1e-9
        assert_mean_var_kkt(base.q, spec, solve_mean_var_rm(base, spec, tol=tol), tol)

    def test_against_slsqp_oracle(self):
        base = discretize(Lognormal(7.0 / 8.0, 0.5), 64)
        m, sd = mean_sd(base)
        w = es_weight(0.9, 64)
        spec = MeanVarRm(mean=m, sd=1.1 * sd,
                         constraints=(RmConstraint(w, 1.02 * eval_rm(base, w)),))
        model = solve_mean_var_rm(base, spec, tol=1e-10)

        def spread(g):
            return np.sqrt(np.mean((g - np.mean(g)) ** 2))

        equalities = [
            (lambda g: np.mean(g) - spec.mean, lambda g: np.full(g.size, 1.0 / g.size)),
            (lambda g: spread(g) - spec.sd,
             lambda g: (g - np.mean(g)) / (g.size * spread(g))),
            *_rm_equalities(spec.constraints),
        ]
        _assert_matches_oracle(base, model, _slsqp_nearest(base, equalities))

    def test_smoothed_solution_is_a_fixed_point(self, lognormal_grid):
        # the stressed grid is spav of the affine reshaping the multipliers give
        zeta = 1e-4
        m, sd = mean_sd(lognormal_grid)
        w = es_weight(0.95, 4096)
        spec = MeanVarRm(mean=m, sd=1.1 * sd,
                         constraints=(RmConstraint(w, 1.05 * eval_rm(lognormal_grid, w)),))
        model = solve_mean_var_rm(lognormal_grid, spec, zeta=zeta)
        lam = model.multipliers
        reshaped = lognormal_grid.q + lam[0] + lam[1] * m + lam[2] * w.values
        rebuilt = spav(reshaped / (1.0 + lam[1]), zeta=zeta)
        q = model.stressed.q
        assert np.abs(q - rebuilt).max() <= 4 * np.spacing(np.abs(q).max())
        achieved = [*mean_sd(model.stressed), eval_rm(model.stressed, w)]
        targets = [spec.mean, spec.sd, spec.constraints[0].target]
        for value, target in zip(achieved, targets):
            assert abs(value - target) <= 1e-6 * max(1.0, abs(target), spec.sd)

    def test_infeasible_spread_reports(self, lognormal_grid):
        m, sd = mean_sd(lognormal_grid)
        with pytest.raises(ValidationError):
            MeanVarRm(mean=m, sd=-1.0)


_KKT_BASELINE = discretize(Lognormal(mu=0.875, sigma=0.5), 512)


@st.composite
def integral_stresses(draw):
    """One to four bounds on disjoint probability bands of ``_KKT_BASELINE``.

    Each bound is linear or quadratic and moves its band's baseline value by
    a bump in [-8%, +4%]; a positive bump leaves the bound slack.  Scaling
    the baseline by 0.9 meets every such bound, so each stress is feasible.
    """
    q = _KKT_BASELINE.q
    u = midpoint_grid(q.size)
    slots = draw(st.integers(1, 4))
    linear, quadratic = [], []
    for j in range(slots):
        width = 0.96 / slots
        start = 0.02 + j * width + draw(st.floats(0.0, 0.5)) * width
        h = ((u > start) & (u <= start + draw(st.floats(0.1, 0.5)) * width)).astype(float)
        h *= draw(st.floats(0.5, 2.0))
        bump = draw(st.floats(-0.08, 0.04))
        if draw(st.booleans()):
            linear.append(LinearConstraint(h=h, bound=float(np.mean(h * q)) * (1.0 + bump)))
        else:
            quadratic.append(
                QuadraticConstraint(h=h, bound=float(np.mean(h * q**2)) * (1.0 + bump))
            )
    return IntegralStress(linear=tuple(linear), quadratic=tuple(quadratic))


@st.composite
def utility_stresses(draw):
    """A baseline of at most 512 cells and a HARA floor with up to two ES equalities.

    The floor moves the baseline's expected utility by a bump in [-0.5%, +3%]
    (a negative bump leaves it slack); each ES at a distinct level moves by
    a bump in [-4%, +4%], and a negative one makes the projection pool.
    """
    n = draw(st.sampled_from([16, 64, 512]))
    base = discretize(Lognormal(mu=0.875, sigma=0.5), n)
    utility = HARAUtility(1.0, 5.0, 0.5)
    levels = draw(st.lists(st.sampled_from([0.5, 0.8, 0.9, 0.95]), max_size=2, unique=True))
    constraints = tuple(
        RmConstraint(w, (1.0 + draw(st.floats(-0.04, 0.04))) * eval_rm(base, w))
        for w in (es_weight(a, n) for a in levels)
    )
    floor = (1.0 + draw(st.floats(-0.005, 0.03))) * expected_utility(base, utility)
    return base, UtilityRm(utility=utility, floor=floor, constraints=constraints)


class TestSolveIntegral:
    def test_all_slack(self, lognormal_grid):
        m, _ = mean_sd(lognormal_grid)
        spec = IntegralStress(
            linear=(LinearConstraint(h=np.ones(4096), bound=m + 1.0),),
            quadratic=(
                QuadraticConstraint(
                    h=np.ones(4096), bound=float(np.mean(lognormal_grid.q**2)) + 1.0
                ),
            ),
        )
        model = solve_integral(lognormal_grid, spec)
        np.testing.assert_array_equal(model.stressed.q, lognormal_grid.q)
        assert np.all(model.multipliers == 0.0)
        assert np.all(model.multipliers_quadratic == 0.0)

    def test_slack_bound_reads_as_met(self, lognormal_spec):
        # an inequality's residual is its violation: a bound met with more
        # than 5 to spare reads about 0, just as the binding one does
        n = 1024
        grid = discretize(lognormal_spec, n)
        upper = (midpoint_grid(n) > 0.5).astype(float)
        m = float(np.mean(grid.q))
        spec = IntegralStress(linear=(LinearConstraint(h=np.ones(n), bound=m - 0.25),
                                      LinearConstraint(h=upper, bound=m + 5.0)))
        model = solve_integral(grid, spec)
        assert float(np.mean(upper * model.stressed.q)) - (m + 5.0) < -5.0
        assert model.multipliers[1] == 0.0
        np.testing.assert_allclose(model.residuals, 0.0, atol=1e-6 * (m + 5.0))

    def test_mean_shift(self, lognormal_grid):
        # h == 1 binding at mean - delta is a pure downward shift by delta
        m, _ = mean_sd(lognormal_grid)
        delta = 0.25
        spec = IntegralStress(
            linear=(LinearConstraint(h=np.ones(4096), bound=m - delta),)
        )
        model = solve_integral(lognormal_grid, spec, tol=1e-9)
        np.testing.assert_allclose(
            model.stressed.q, lognormal_grid.q - delta, atol=1e-7
        )
        assert model.multipliers[0] == pytest.approx(delta, abs=1e-6)

    def test_quadratic_scaling(self, lognormal_grid):
        # h == 1 on the second moment: solution is baseline / Lambda with
        # constant Lambda = sqrt(E q^2 / bound)
        second = float(np.mean(lognormal_grid.q**2))
        bound = 0.9 * second
        spec = IntegralStress(
            quadratic=(QuadraticConstraint(h=np.ones(4096), bound=bound),)
        )
        model = solve_integral(lognormal_grid, spec, tol=1e-9)
        lam_expected = np.sqrt(second / bound)
        np.testing.assert_allclose(
            model.stressed.q, lognormal_grid.q / lam_expected, rtol=1e-6
        )
        assert model.multipliers_quadratic[0] == pytest.approx(
            lam_expected - 1.0, abs=1e-5
        )

    def test_against_slsqp_oracle(self):
        # two linear bounds and one quadratic bound, solved as a QP by
        # scipy's SLSQP; the objective is the mean squared gap, on the scale
        # of the constraints, so the line search converges whatever the
        # BLAS thread count
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(41)
        n = 64
        base = QuantileGrid(np.sort(rng.normal(size=n)))
        u = midpoint_grid(n)
        h1 = np.ones(n)
        h2 = (u > 0.5).astype(float)
        c1 = float(np.mean(base.q)) - 0.3
        c2 = float(np.mean(h2 * base.q)) - 0.1
        hq = np.ones(n)
        cq = 0.95 * float(np.mean(base.q**2))
        spec = IntegralStress(
            linear=(
                LinearConstraint(h=h1, bound=c1),
                LinearConstraint(h=h2, bound=c2),
            ),
            quadratic=(QuadraticConstraint(h=hq, bound=cq),),
        )
        model = solve_integral(base, spec, tol=1e-9)

        diff = np.diff(np.eye(n), axis=0)
        constraints = [
            {"type": "ineq", "fun": lambda g: diff @ g, "jac": lambda g: diff},
            {"type": "ineq", "fun": lambda g: c1 - h1 @ g / n, "jac": lambda g: -h1 / n},
            {"type": "ineq", "fun": lambda g: c2 - h2 @ g / n, "jac": lambda g: -h2 / n},
            {"type": "ineq", "fun": lambda g: cq - hq @ g**2 / n,
             "jac": lambda g: -2.0 * hq * g / n},
        ]
        oracle = optimize.minimize(
            lambda g: float(np.mean((g - base.q) ** 2)),
            base.q,
            jac=lambda g: 2.0 * (g - base.q) / n,
            constraints=constraints,
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 1000},
        )
        assert oracle.success, oracle.message
        ours = float(np.sum((model.stressed.q - base.q) ** 2))
        assert ours <= n * oracle.fun + 1e-10
        assert np.abs(model.stressed.q - oracle.x).max() <= 1e-8

    def test_kkt_with_sixteen_disjoint_bands(self, lognormal_grid):
        # 16 constraints on disjoint probability bands, linear and quadratic
        # alternating, every third one slack at the baseline
        n = lognormal_grid.n
        q = lognormal_grid.q
        u = midpoint_grid(n)
        linear, quadratic = [], []
        for j in range(16):
            lo = 0.05 + j * 0.9 / 16
            h = ((u > lo) & (u <= lo + 0.3 * 0.9 / 16)).astype(float)
            slack = 0.05 if j % 3 == 2 else 0.0
            if j % 2 == 0:
                bound = float(np.mean(h * q)) * (0.98 + slack)
                linear.append(LinearConstraint(h=h, bound=bound))
            else:
                bound = float(np.mean(h * q**2)) * (0.96 + slack)
                quadratic.append(QuadraticConstraint(h=h, bound=bound))
        spec = IntegralStress(linear=tuple(linear), quadratic=tuple(quadratic))
        tol = 1e-6
        model = solve_integral(lognormal_grid, spec, tol=tol)
        qs = model.stressed.q
        assert np.all(np.diff(qs) >= 0.0)
        mults = np.concatenate((model.multipliers, model.multipliers_quadratic))
        achieved = [float(np.mean(c.h * qs)) for c in linear]
        achieved += [float(np.mean(c.h * qs**2)) for c in quadratic]
        bounds = np.asarray([c.bound for c in (*linear, *quadratic)])
        scale = np.maximum(1.0, np.abs(bounds))
        assert mults.size == 16
        assert np.all(mults >= 0.0)
        assert np.all(achieved <= bounds + tol * scale)
        active = mults > 0.0
        np.testing.assert_array_less(np.abs(achieved - bounds)[active], tol * scale[active])
        # slack constraints (met by the baseline) keep a zero multiplier,
        # and every constraint the baseline violates binds
        slack_at_baseline = np.asarray(
            [np.mean(c.h * q) for c in linear] + [np.mean(c.h * q**2) for c in quadratic]
        ) <= bounds
        assert np.all(mults[slack_at_baseline] == 0.0)
        assert np.all(active[~slack_at_baseline])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(integral_stresses())
    def test_kkt_certificate(self, spec):
        tol = 1e-9
        assert_integral_kkt(_KKT_BASELINE.q, spec, solve_integral(_KKT_BASELINE, spec, tol=tol),
                            tol)

    def test_constraint_functions_off_the_grid_raise(self, lognormal_grid):
        # one function per constraint, each of the grid's length
        n = lognormal_grid.n
        for h in ([np.ones(n), np.ones(n + 1)], [np.ones(n - 1)]):
            spec = IntegralStress(linear=tuple(LinearConstraint(h=v, bound=1.0) for v in h))
            with pytest.raises(ValidationError, match="length differs from the grid"):
                solve_integral(lognormal_grid, spec)

    def test_budget_exhaustion_reports_nonnegative_multipliers(self, lognormal_grid, monkeypatch):
        monkeypatch.setattr(stress_solvers, "MAX_ITER", 0)
        m, _ = mean_sd(lognormal_grid)
        spec = IntegralStress(
            linear=(
                LinearConstraint(h=np.ones(4096), bound=m - 0.2),
                LinearConstraint(h=np.ones(4096), bound=m + 5.0),
            )
        )
        with pytest.raises(NotConvergedError) as info:
            solve_integral(lognormal_grid, spec)
        assert np.all(info.value.multipliers >= 0.0)
        assert info.value.residuals is not None

    def test_kkt_conditions(self, lognormal_grid):
        m, _ = mean_sd(lognormal_grid)
        spec = IntegralStress(
            linear=(
                LinearConstraint(h=np.ones(4096), bound=m - 0.2, name="mean"),
                LinearConstraint(h=np.ones(4096), bound=m + 5.0, name="slack"),
            )
        )
        model = solve_integral(lognormal_grid, spec)
        assert np.all(model.multipliers >= -1e-10)
        achieved = model.stressed.q.mean()
        # active constraint at equality, slack constraint with zero multiplier
        assert abs(achieved - (m - 0.2)) <= 1e-6 * max(1.0, abs(m))
        assert model.multipliers[1] == 0.0


class TestSolveVar:
    def test_uniform_left_formula(self):
        # alpha_F = 0.8 from the baseline rank of the target, then constant
        g = uniform_grid(4096)
        model = solve_var(g, VarStress(alpha=0.9, value=0.8, kind="left"))
        inside = (g.u > 0.8) & (g.u <= 0.9)
        expected = g.q.copy()
        expected[inside] = 0.8
        assert np.abs(model.stressed.q - expected).max() <= 1.0 / 4096
        assert var(model.stressed, 0.9) == pytest.approx(0.8, abs=1e-12)

    def test_upward_left_stress_has_no_solution(self):
        g = uniform_grid(4096)
        with pytest.raises(NoSolutionError):
            solve_var(g, VarStress(alpha=0.9, value=0.95, kind="left"))

    def test_identity_at_baseline_quantile(self, lognormal_grid):
        q = var(lognormal_grid, 0.9)
        model = solve_var(lognormal_grid, VarStress(alpha=0.9, value=q, kind="left"))
        np.testing.assert_array_equal(model.stressed.q, lognormal_grid.q)

    def test_right_branch(self):
        g = uniform_grid(4096)
        model = solve_var(g, VarStress(alpha=0.9, value=0.95, kind="right"))
        assert var_plus(model.stressed, 0.9) == pytest.approx(0.95, abs=1e-12)
        inside = (g.u > 0.9) & (g.u <= 0.95)
        np.testing.assert_allclose(model.stressed.q[inside], 0.95)
        with pytest.raises(NoSolutionError):
            solve_var(g, VarStress(alpha=0.9, value=0.85, kind="right"))

    @pytest.mark.parametrize("kind, target, message", [
        ("left", 100.0, "no solution: target 100 exceeds the baseline left quantile 4.50814 "
         "at level 0.9; a left-quantile stress must move the quantile down (use "
         "kind='right' or an interval risk measure to move it up)"),
        ("right", 0.1, "no solution: target 0.1 is below the baseline right quantile 4.55803 "
         "at level 0.9; a right-quantile stress must move the quantile up (use "
         "kind='left' or an interval risk measure to move it down)"),
    ], ids=["left", "right"])
    def test_refusal_names_the_side(self, kind, target, message):
        g = discretize(Lognormal(0.875, 0.5), 256)
        with pytest.raises(NoSolutionError) as err:
            solve_var(g, VarStress(alpha=0.9, value=target, kind=kind))
        assert str(err.value) == message

    @pytest.mark.parametrize("kind, target, name", [("left", 0.5, "var(0.9)"),
                                                    ("right", 0.95, "var_plus(0.9)")],
                             ids=["left", "right"])
    def test_constraint_name(self, kind, target, name):
        model = solve_var(uniform_grid(256), VarStress(alpha=0.9, value=target, kind=kind))
        assert model.constraint_names == (name,)

    @pytest.mark.parametrize("alpha", [0.001, 0.999])
    @pytest.mark.parametrize("kind", ["left", "right"])
    def test_baseline_quantile_target_leaves_the_grid(self, kind, alpha):
        # at these levels the band is empty or one cell already at the target
        g = discretize(Lognormal(0.875, 0.5), 256)
        target = (var if kind == "left" else var_plus)(g, alpha)
        model = solve_var(g, VarStress(alpha=alpha, value=target, kind=kind))
        np.testing.assert_array_equal(model.stressed.q, g.q)
        np.testing.assert_array_equal(model.residuals, [0.0])
        assert model.w2 == 0.0


class TestSolveUtilityRm:
    @pytest.mark.parametrize("with_es", [False, True])
    def test_against_slsqp_oracle(self, with_es):
        # a binding floor 1% above the baseline's expected utility, alone or
        # with ES at 0.8 raised 2%; the floor is an SLSQP inequality
        base = discretize(Lognormal(7.0 / 8.0, 0.5), 64)
        u = HARAUtility(1.0, 5.0, 0.5)
        floor = 1.01 * expected_utility(base, u)
        w = es_weight(0.8, 64)
        es = (RmConstraint(w, 1.02 * eval_rm(base, w)),) if with_es else ()
        model = solve_utility_rm(base, UtilityRm(u, floor, es), tol=1e-10)
        assert model.multipliers[0] > 0.0
        oracle = _slsqp_nearest(base, _rm_equalities(es), [
            (lambda g: float(np.mean(u.value(g))) - floor, lambda g: u.marginal(g) / g.size)])
        _assert_matches_oracle(base, model, oracle, atol=1e-7)

    @pytest.mark.parametrize("with_es", [False, True])
    def test_unbounded_domain_binds(self, with_es):
        # the exponential (CARA) utility is defined on the whole line
        base = discretize(Lognormal(7.0 / 8.0, 0.5), 64)
        u = CustomUtility(value_fn=lambda x: -2.0 * np.exp(-x / 2.0),
                          marginal_fn=lambda x: np.exp(-x / 2.0))
        base_u = expected_utility(base, u)
        w = es_weight(0.8, 64)
        es = (RmConstraint(w, 1.02 * eval_rm(base, w)),) if with_es else ()
        spec = UtilityRm(u, base_u + 0.01 * abs(base_u), es)
        model = solve_utility_rm(base, spec, tol=1e-10)
        assert model.multipliers[0] > 0.0
        assert_utility_kkt(base.q, spec, model, 1e-10)

    def test_inverse_bracket_stays_in_the_domain(self):
        # nu(x) = x + 2 on x >= 0: the roots of 0.5 and 1 lie below the domain
        u = CustomUtility(value_fn=lambda x: -x, marginal_fn=lambda x: -np.ones_like(x),
                          domain_min=0.0)
        with pytest.raises(UtilityDomainError, match="could not bracket"):
            stress_solvers._inverse_shifted_marginal(np.array([0.5, 1.0, 5.0]), u, 2.0)
        x = stress_solvers._inverse_shifted_marginal(np.array([5.0, 9.0]), u, 2.0)
        np.testing.assert_array_equal(x, [3.0, 7.0])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(utility_stresses())
    def test_kkt_certificate(self, stress):
        base, spec = stress
        tol = 1e-9
        assert_utility_kkt(base.q, spec, solve_utility_rm(base, spec, tol=tol), tol)

    def test_slack_utility_is_identity(self, lognormal_grid):
        u = HARAUtility(1.0, 5.0, 0.5)
        floor = expected_utility(lognormal_grid, u) - 0.1
        model = solve_utility_rm(lognormal_grid, UtilityRm(utility=u, floor=floor))
        np.testing.assert_array_equal(model.stressed.q, lognormal_grid.q)
        assert model.multipliers[0] == 0.0

    def test_slack_utility_keeps_the_smoothing(self, lognormal_spec):
        # with no risk-measure constraint, a slack floor returns the smoothed
        # baseline, not the raw one
        grid = discretize(lognormal_spec, 1024)
        u = HARAUtility(1.0, 5.0, 0.5)
        floor = expected_utility(grid, u) - 0.1
        model = solve_utility_rm(grid, UtilityRm(utility=u, floor=floor), zeta=1e-4)
        np.testing.assert_array_equal(model.stressed.q, spav(grid.q, zeta=1e-4))
        assert model.w2 > 0.0
        assert model.multipliers[0] == 0.0
        # the floor is met by about 0.1, and its residual is the violation, 0
        assert expected_utility(model.stressed, u) - floor > 0.09
        assert model.residuals[0] == 0.0

    def test_zero_utility_multiplier_matches_rm_solver(self, lognormal_grid):
        u = HARAUtility(1.0, 5.0, 0.5)
        w = es_weight(0.95, 4096)
        target = 1.1 * eval_rm(lognormal_grid, w)
        rm_only = solve_rm(lognormal_grid, RmStress((RmConstraint(w, target),)))
        floor = expected_utility(rm_only.stressed, u) - 0.05
        model = solve_utility_rm(
            lognormal_grid,
            UtilityRm(utility=u, floor=floor, constraints=(RmConstraint(w, target),)),
        )
        np.testing.assert_allclose(model.stressed.q, rm_only.stressed.q, atol=1e-9)
        assert model.multipliers[0] == 0.0

    @pytest.mark.parametrize("zeta", [0.0, 1e-4])
    @pytest.mark.parametrize("with_es", [False, True])
    def test_custom_utility_reproduces_hara(self, lognormal_grid, zeta, with_es, monkeypatch):
        # the same utility from callables: central differences of u' stand in
        # for the closed-form curvature, which only polishes the inverse
        hara = HARAUtility(1.0, 5.0, 0.5)
        custom = CustomUtility(value_fn=hara.value, marginal_fn=hara.marginal,
                               domain_min=hara.domain_min)
        curvatures = []
        curvature = CustomUtility.curvature

        def counting_curvature(self, x):
            curvatures.append(1)
            return curvature(self, x)

        monkeypatch.setattr(CustomUtility, "curvature", counting_curvature)
        w = es_weight(0.95, 4096)
        es = (RmConstraint(w, 1.03 * eval_rm(lognormal_grid, w)),) if with_es else ()
        floor = 1.01 * expected_utility(lognormal_grid, hara)
        models = [solve_utility_rm(lognormal_grid, UtilityRm(u, floor, es), zeta=zeta)
                  for u in (hara, custom)]
        assert curvatures and models[0].multipliers[0] > 0.0
        assert models[1].evaluations == models[0].evaluations
        np.testing.assert_allclose(models[1].stressed.q, models[0].stressed.q,
                                   rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(models[1].multipliers, models[0].multipliers,
                                   rtol=1e-9, atol=1e-12)

    def test_binding_utility_with_es_pair(self, lognormal_grid):
        # ES down at 0.8, up at 0.95, utility floor above baseline: the
        # solution keeps a flat near u = 0.8 and a jump at u = 0.95
        u = HARAUtility(1.0, 5.0, 0.5)
        w80 = es_weight(0.8, 4096)
        w95 = es_weight(0.95, 4096)
        base_u = expected_utility(lognormal_grid, u)
        spec = UtilityRm(
            utility=u,
            floor=1.01 * base_u,
            constraints=(
                RmConstraint(w80, 0.9 * eval_rm(lognormal_grid, w80)),
                RmConstraint(w95, 1.1 * eval_rm(lognormal_grid, w95)),
            ),
        )
        model = solve_utility_rm(lognormal_grid, spec)
        assert model.multipliers[0] >= 0.0
        assert expected_utility(model.stressed, u) >= spec.floor - 1e-6 * abs(spec.floor)
        scale = np.maximum(1.0, np.abs(np.asarray([c.target for c in spec.constraints])))
        assert np.all(np.abs(model.residuals[1:]) <= 1e-6 * scale)
        flats = flat_segments(model.stressed, min_cells=3)
        assert any(lo < 0.8 < hi for lo, hi, _ in flats)
        jumps = excess_jumps(model.stressed, lognormal_grid, min_size=0.05)
        assert any(abs(x - 0.95) <= 2e-3 for x, _ in jumps)


class TestMultiplierSearch:
    def test_closed_form_single_constraint(self, lognormal_grid):
        w = es_weight(0.9, 4096)
        target = 1.2 * eval_rm(lognormal_grid, w)
        closed = solve_coherent(lognormal_grid, w, target)
        generic = solve_rm(
            lognormal_grid, RmStress((RmConstraint(w, target),)), tol=1e-12
        )
        assert abs(generic.multipliers[0] - closed.multipliers[0]) <= 1e-8

    def test_zero_residual_returns_in_one_evaluation(self):
        calls = []

        def residual(lam):
            calls.append(lam.copy())
            return np.array([0.0])

        result = multiplier_search(residual, np.zeros(1))
        assert result.evaluations == 1
        assert result.multipliers[0] == 0.0

    def test_two_constraint_case_against_nested_bisection(self):
        # independent oracle: outer/inner bisection on the two ES levels
        n = 256
        base = discretize(Lognormal(7.0 / 8.0, 0.5), n)
        w1 = es_weight(0.7, n)
        w2 = es_weight(0.9, n)
        t1 = 1.05 * eval_rm(base, w1)
        t2 = 1.10 * eval_rm(base, w2)
        gammas = np.vstack([w1.values, w2.values])

        def stressed(lams):
            return QuantileGrid(pav(base.q + gammas.T @ lams))

        def inner(l1):
            lo, hi = -5.0, 5.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if eval_rm(stressed(np.array([l1, mid])), w2) < t2:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        lo, hi = -5.0, 5.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if eval_rm(stressed(np.array([mid, inner(mid)])), w1) < t1:
                lo = mid
            else:
                hi = mid
        l1 = 0.5 * (lo + hi)
        oracle = np.array([l1, inner(l1)])

        spec = RmStress((RmConstraint(w1, t1), RmConstraint(w2, t2)))
        model = solve_rm(base, spec, tol=1e-8)
        scale = np.maximum(1.0, np.abs([t1, t2]))
        assert np.all(np.abs(model.residuals) <= 1e-8 * scale)
        oracle_grid = stressed(oracle)
        assert np.abs(model.stressed.q - oracle_grid.q).max() <= 1e-5

    def test_budget_exhaustion_raises(self):
        def impossible(lam):
            return np.array([1.0 + lam[0] ** 2])

        with pytest.raises(NotConvergedError) as err:
            multiplier_search(impossible, np.zeros(1), max_iter=5)
        assert err.value.residuals is not None


    def test_converged_start_returns_within_a_zero_budget(self):
        result = multiplier_search(lambda lam: lam - 1.0, [1.0], max_iter=0)
        np.testing.assert_array_equal(result.multipliers, [1.0])
        np.testing.assert_array_equal(result.residuals, [0.0])
        assert result.evaluations == 1

    def test_exact_jacobian_solves_a_linear_map_in_one_step(self):
        matrix = np.array([[2.0, 1.0], [0.5, 3.0]])
        target = np.array([1.0, -2.0])
        result = multiplier_search(lambda lam: matrix @ lam - target, np.zeros(2),
                                   tol=1e-12, jacobian=lambda lam: matrix)
        assert result.evaluations == 2  # the start and the one Newton step
        np.testing.assert_allclose(result.multipliers, np.linalg.solve(matrix, target),
                                   rtol=1e-14)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_singular_or_non_finite_jacobian_falls_back_to_bisection(self, bad, monkeypatch):
        sweeps = []
        bisection = stress_solvers._bisection_sweep

        def recording_sweep(*args):
            sweeps.append(1)
            return bisection(*args)

        monkeypatch.setattr(stress_solvers, "_bisection_sweep", recording_sweep)
        result = multiplier_search(lambda lam: lam**3 - 8.0, np.zeros(1), tol=1e-9,
                                   jacobian=lambda lam: np.array([[bad]]))
        assert sweeps
        assert abs(result.multipliers[0] - 2.0) <= 1e-9

    def test_budget_exhaustion_with_a_jacobian_reports_the_best_residuals(self):
        # the Jacobian 2 lam vanishes at the start, which is also the best point
        with pytest.raises(NotConvergedError) as err:
            multiplier_search(lambda lam: np.array([1.0 + lam[0] ** 2]), np.zeros(1),
                              max_iter=5, jacobian=lambda lam: np.array([[2.0 * lam[0]]]))
        np.testing.assert_array_equal(err.value.residuals, [1.0])
        np.testing.assert_array_equal(err.value.multipliers, [0.0])


class TestSmoothedSolves:
    def test_constraints_hold_with_smoothing(self, lognormal_grid):
        w = es_weight(0.9, 4096)
        target = 1.1 * eval_rm(lognormal_grid, w)
        model = solve_rm(
            lognormal_grid, RmStress((RmConstraint(w, target),)), zeta=1e-4
        )
        assert abs(eval_rm(model.stressed, w) - target) <= 1e-6 * abs(target)
        assert np.all(np.diff(model.stressed.q) >= -1e-12)

    def test_smoothing_shrinks_jumps(self, lognormal_grid):
        w = es_weight(0.9, 4096)
        target = 1.1 * eval_rm(lognormal_grid, w)
        spec = RmStress((RmConstraint(w, target),))
        rough = solve_rm(lognormal_grid, spec, zeta=0.0)
        smooth = solve_rm(lognormal_grid, spec, zeta=1e-4)
        assert np.diff(smooth.stressed.q).max() < np.diff(rough.stressed.q).max()


def _record_searches(monkeypatch):
    """Record the evaluations of every ``multiplier_search`` the solvers make."""
    searched = []

    def recording_search(*args, **kwargs):
        result = multiplier_search(*args, **kwargs)
        searched.append(result.evaluations)
        return result

    monkeypatch.setattr(stress_solvers, "multiplier_search", recording_search)
    return searched


class TestSolveCounts:
    def test_slack_probe_reuses_the_iterate(self, lognormal_grid, monkeypatch):
        # four disjoint bands, one slack at the baseline: a probe of the slack
        # multiplier maps back onto the current iterate, whose projection
        # must still be cached, so pav runs once per distinct multiplier vector
        q = lognormal_grid.q
        u = midpoint_grid(lognormal_grid.n)
        linear, quadratic = [], []
        for j in range(4):
            lo = 0.05 + j * 0.9 / 4
            h = ((u > lo) & (u <= lo + 0.3 * 0.9 / 4)).astype(float)
            slack = 0.05 if j % 3 == 2 else 0.0
            if j % 2 == 0:
                bound = float(np.mean(h * q)) * (0.985 + slack)
                linear.append(LinearConstraint(h=h, bound=bound))
            else:
                bound = float(np.mean(h * q**2)) * (0.97 + slack)
                quadratic.append(QuadraticConstraint(h=h, bound=bound))
        calls = []

        def counting_pav(*args, **kwargs):
            calls.append(1)
            return pav(*args, **kwargs)

        monkeypatch.setattr(stress_solvers, "pav", counting_pav)
        model = solve_integral(
            lognormal_grid, IntegralStress(linear=tuple(linear), quadratic=tuple(quadratic))
        )
        assert model.multipliers_quadratic[0] > 0.0 and model.multipliers[1] == 0.0
        assert len(calls) <= 13

    def test_binding_utility_counts_the_rm_presolve(self, lognormal_grid, monkeypatch):
        searched = _record_searches(monkeypatch)
        u = HARAUtility(1.0, 5.0, 0.5)
        w = es_weight(0.95, 4096)
        spec = UtilityRm(
            utility=u,
            floor=1.01 * expected_utility(lognormal_grid, u),
            constraints=(RmConstraint(w, 1.03 * eval_rm(lognormal_grid, w)),),
        )
        model = solve_utility_rm(lognormal_grid, spec)
        assert model.multipliers[0] > 0.0
        assert len(searched) == 2  # the rm-only pre-solve, then the joint search
        assert model.evaluations == sum(searched)

    def test_binding_utility_alone_counts_its_search(self, lognormal_grid, monkeypatch):
        # without risk measures the pre-solve is the one floor check on the
        # baseline, counted as on the slack branch
        searched = _record_searches(monkeypatch)
        u = HARAUtility(1.0, 5.0, 0.5)
        spec = UtilityRm(utility=u, floor=1.01 * expected_utility(lognormal_grid, u))
        model = solve_utility_rm(lognormal_grid, spec)
        assert model.multipliers[0] > 0.0
        assert model.evaluations == 1 + sum(searched) and len(searched) == 1

    @pytest.mark.parametrize("zeta", [0.0, 1e-4])
    def test_binding_utility_alone_counts_every_projection(self, lognormal_grid, zeta,
                                                           monkeypatch):
        # the smoothed floor check is one spav call; evaluations count it
        calls = []

        def counting_spav(*args, **kwargs):
            calls.append(1)
            return spav(*args, **kwargs)

        monkeypatch.setattr(stress_solvers, "spav", counting_spav)
        u = HARAUtility(1.0, 5.0, 0.5)
        spec = UtilityRm(utility=u, floor=1.01 * expected_utility(lognormal_grid, u))
        model = solve_utility_rm(lognormal_grid, spec, zeta=zeta)
        assert model.multipliers[0] > 0.0
        assert model.evaluations == 6
        if zeta > 0.0:
            assert len(calls) == model.evaluations


    @pytest.mark.parametrize("family", ["rm", "mean_var_rm"])
    def test_smoothed_search_takes_no_difference_probes(self, lognormal_grid, family,
                                                       monkeypatch):
        # the exact Jacobian is read off the current grid, so every spav call
        # is the start or a Newton step: 3 and 4 of them, where forward
        # differences took 7 and 13
        calls = []

        def counting_spav(*args, **kwargs):
            calls.append(1)
            return spav(*args, **kwargs)

        monkeypatch.setattr(stress_solvers, "spav", counting_spav)
        w80, w95 = es_weight(0.8, 4096), es_weight(0.95, 4096)
        es95 = RmConstraint(w95, 1.05 * eval_rm(lognormal_grid, w95))
        if family == "rm":
            spec = RmStress((RmConstraint(w80, eval_rm(lognormal_grid, w80)), es95))
            expected = 3
        else:
            m, sd = mean_sd(lognormal_grid)
            spec = MeanVarRm(mean=m, sd=1.1 * sd, constraints=(es95,))
            expected = 4
        model = solve(lognormal_grid, spec, zeta=1e-4)
        assert model.evaluations == expected
        assert len(calls) == model.evaluations


class TestZetaValidation:
    @pytest.mark.parametrize("zeta", [-1.0, float("nan"), float("inf")])
    def test_invalid_zeta_raises(self, lognormal_grid, zeta):
        w = es_weight(0.9, 4096)
        rm = RmStress((RmConstraint(w, 1.1 * eval_rm(lognormal_grid, w)),))
        with pytest.raises(ValidationError, match="zeta"):
            solve_rm(lognormal_grid, rm, zeta=zeta)
        # the quantile family does not smooth, but solve() still checks zeta
        quantile = VarStress(alpha=0.9, value=var(lognormal_grid, 0.9), kind="left")
        with pytest.raises(ValidationError, match="zeta"):
            solve(lognormal_grid, quantile, zeta=zeta)
