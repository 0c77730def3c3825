"""Solvers for the transport-closest stressed quantile grid.

Every solver in this module answers the same question: which nondecreasing
grid is closest (root mean square over the midpoint grid) to a baseline
quantile grid while hitting user constraints.  The constraint families are

* ``RmStress``       -- equality constraints on distortion risk measures;
* ``MeanVarRm``      -- fixed mean, standard deviation, and risk measures;
* ``IntegralStress`` -- linear/quadratic integral inequality constraints;
* ``VarStress``      -- a left or right quantile pinned at a level;
* ``UtilityRm``      -- an expected-utility floor plus risk measures.

Each family has a known solution shape: an isotonic projection of the
baseline quantile plus multiplier-weighted constraint directions (scaled, or
pushed through the inverse of x - lam * u'(x) for the utility family).  The
multipliers are found by one damped Newton iteration on the constraint
residuals, falling back to coordinate-wise bisection at projection kinks.

Every searched family shares one search path: each gives ``_search`` a map
from multipliers to the stressed grid and one from that grid to the
residuals; ``_search`` memoises the first, searches and models the solution.
The rm and mean/variance families give it their exact Jacobian too
(``isotonic.projection_jacobian``); the utility and integral families take
forward differences.  The integral family's upper bounds go through
``_search``'s normal map (Robinson 1992), which keeps their multipliers
nonnegative and starts the bounds the baseline meets as slack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from .distributions import QuantileGrid, wasserstein2
from .errors import (
    NoSolutionError,
    NotConvergedError,
    UtilityDomainError,
    ValidationError,
)
from .isotonic import pav, projection_jacobian, spav
from .risk_measures import (
    DistortionWeight,
    UtilitySpec,
    _quantile_cell,
    eval_rm,
    expected_utility,
)

__all__ = [
    "RmConstraint",
    "RmStress",
    "MeanVarRm",
    "LinearConstraint",
    "QuadraticConstraint",
    "IntegralStress",
    "VarStress",
    "UtilityRm",
    "StressSpec",
    "StressedModel",
    "SearchResult",
    "multiplier_search",
    "solve_rm",
    "solve_coherent",
    "solve_mean_var_rm",
    "solve_integral",
    "solve_var",
    "solve_utility_rm",
    "solve",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-6
MAX_ITER = 200  # the outer-iteration budget of every solver's multiplier search
_SCALE_GUARD = 1e-6  # |1 + lam_scale| in the mean/variance family


@dataclass(frozen=True)
class RmConstraint:
    """One distortion risk measure pinned to a target value."""

    weight: DistortionWeight
    target: float

    def __post_init__(self):
        if not np.isfinite(self.target):
            raise ValidationError("risk-measure target must be finite")


@dataclass(frozen=True)
class RmStress:
    constraints: tuple[RmConstraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.constraints:
            raise ValidationError("need at least one risk-measure constraint")


@dataclass(frozen=True)
class MeanVarRm:
    mean: float
    sd: float
    constraints: tuple[RmConstraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not (np.isfinite(self.mean) and np.isfinite(self.sd) and self.sd > 0):
            raise ValidationError("need finite target mean and sd > 0")


@dataclass(frozen=True)
class _IntegralConstraint:
    """Upper bound on a grid mean weighted by h, with h >= 0 on the grid."""

    h: np.ndarray
    bound: float
    name: str

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if np.any(h < 0.0) or not np.isfinite(h).all():
            raise ValidationError("constraint function h must be finite and >= 0")
        if not np.isfinite(self.bound):
            raise ValidationError("constraint bound must be finite")
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class LinearConstraint(_IntegralConstraint):
    """Upper bound on the grid mean of h * q, with h >= 0 on the grid."""

    name: str = "linear"


@dataclass(frozen=True)
class QuadraticConstraint(_IntegralConstraint):
    """Upper bound on the grid mean of h * q**2, with h >= 0 on the grid."""

    name: str = "quadratic"


@dataclass(frozen=True)
class IntegralStress:
    linear: tuple[LinearConstraint, ...] = ()
    quadratic: tuple[QuadraticConstraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "linear", tuple(self.linear))
        object.__setattr__(self, "quadratic", tuple(self.quadratic))
        if not self.linear and not self.quadratic:
            raise ValidationError("need at least one integral constraint")


@dataclass(frozen=True)
class VarStress:
    """Pin the left ('left') or right ('right') quantile at level alpha."""

    alpha: float
    value: float
    kind: str = "left"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("quantile level must lie in (0, 1)")
        if self.kind not in ("left", "right"):
            raise ValidationError("kind must be 'left' or 'right'")
        if not np.isfinite(self.value):
            raise ValidationError("quantile target must be finite")


@dataclass(frozen=True)
class UtilityRm:
    utility: UtilitySpec
    floor: float
    constraints: tuple[RmConstraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not np.isfinite(self.floor):
            raise ValidationError("utility floor must be finite")


StressSpec = Union[RmStress, MeanVarRm, IntegralStress, VarStress, UtilityRm]


@dataclass(frozen=True)
class StressedModel:
    """A converged stress: baseline, stressed grid, multipliers, diagnostics.

    Each residual is achieved - target.  An inequality (an integral bound or
    the utility floor) reports its violation, which is within the solver
    tolerance of 0 whether the bound binds or is slack.
    """

    baseline: QuantileGrid
    stressed: QuantileGrid
    multipliers: np.ndarray
    residuals: np.ndarray
    constraint_names: tuple[str, ...]
    w2: float
    zeta: float = 0.0
    multipliers_quadratic: np.ndarray = field(default_factory=lambda: np.empty(0))
    evaluations: int = 0


@dataclass(frozen=True)
class SearchResult:
    multipliers: np.ndarray
    residuals: np.ndarray
    evaluations: int


def multiplier_search(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    lam0,
    *,
    scale=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
    lower=None,
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SearchResult:
    """Find multipliers driving a residual map to zero.

    Damped Newton on the Jacobian ``jacobian(lam)``, or without one on
    forward differences (step 1e-6 * (1+|lam|)); when the Jacobian is
    singular or non-finite or the step fails to reduce the residual, one
    coordinate-wise bisection sweep is used instead.  Residuals are compared
    against ``tol`` after division by ``scale`` (default: ones).  ``lower``
    optionally bounds multipliers from below (projected steps).  A start
    that already meets ``tol`` returns at once, after one evaluation.

    Raises ``NotConvergedError`` with the best residuals seen if the budget
    of ``max_iter`` outer iterations is exhausted.
    """
    lam = np.atleast_1d(np.asarray(lam0, dtype=float)).copy()
    d = lam.size
    sc = np.ones(d) if scale is None else np.maximum(np.asarray(scale, dtype=float), 1e-12)
    lo = np.full(d, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    lam = np.maximum(lam, lo)
    evaluations = 0

    def scaled(l):
        nonlocal evaluations
        evaluations += 1
        return np.asarray(residual_fn(l), dtype=float) / sc

    r = scaled(lam)
    best = (np.inf, lam, r)
    for it in range(max_iter + 1):
        norm = float(np.abs(r).max())
        if norm <= tol:
            return SearchResult(lam, r * sc, evaluations)
        if norm < best[0]:
            best = (norm, lam, r)
        if it == max_iter:
            break
        if jacobian is not None:
            jac = np.asarray(jacobian(lam), dtype=float) / sc[:, None]
        else:
            jac = np.empty((d, d))
            for k in range(d):
                h = 1e-6 * (1.0 + abs(lam[k]))
                probe = lam.copy()
                probe[k] += h
                jac[:, k] = (scaled(probe) - r) / h
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step = np.full(d, np.nan)
        # damped Newton: halve the step until the residual falls
        for t in 0.5 ** np.arange(12) if np.isfinite(step).all() else ():
            cand = np.maximum(lam + t * step, lo)
            rc = scaled(cand)
            if float(np.abs(rc).max()) < norm:  # norm > tol: a candidate within tol falls
                lam, r = cand, rc
                break
        else:
            lam, r = _bisection_sweep(scaled, lam, r, lo, tol)
    raise NotConvergedError(
        "multiplier search exhausted its iteration budget",
        residuals=best[2] * sc,
        multipliers=best[1],
    )


def _bisection_sweep(scaled, lam, r, lo, tol):
    """One pass of per-coordinate bracketing bisection on the residual map."""
    lam = lam.copy()

    def at(k, x):
        probe = lam.copy()
        probe[k] = x
        return scaled(probe)[k]

    for k in range(lam.size):
        if abs(r[k]) <= tol:
            continue
        a, fa, b = lam[k], r[k], None
        width = max(1.0, abs(a)) * 0.25
        for _ in range(40):
            for cand in (a + width, max(a - width, lo[k])):
                if cand == a:
                    continue
                fc = at(k, cand)
                if np.sign(fc) != np.sign(fa) or fc == 0.0:
                    b, fb = cand, fc
                    break
            if b is not None:
                break
            width *= 2.0
        if b is None:
            continue
        # plain bisection: the residual is continuous but only piecewise smooth
        xa, xb, fxa = (a, b, fa) if a < b else (b, a, fb)
        for _ in range(60):
            mid = 0.5 * (xa + xb)
            fm = at(k, mid)
            if abs(fm) <= tol:
                xa = xb = mid
                break
            if np.sign(fm) == np.sign(fxa):
                xa, fxa = mid, fm
            else:
                xb = mid
        lam[k] = 0.5 * (xa + xb)
    return lam, scaled(lam)


def _projection_cache(builder):
    """Memoise ``builder`` on the multiplier vector's bytes.

    Two entries hold the current iterate while a finite-difference probe of
    the utility or integral search is evaluated, so a probe that maps back
    onto the iterate (a slack integral constraint) does not rebuild it, and
    an exact Jacobian reads the iterate's grid without rebuilding it.  The
    utility family also keys its projection on the risk-measure multipliers
    alone, which a utility-multiplier probe leaves as they are.
    """
    cached = functools.lru_cache(maxsize=2)(lambda key: builder(np.frombuffer(key)))
    return lambda lam: cached(np.asarray(lam, dtype=float).tobytes())


def _isotonic(values, zeta: float):
    """``pav`` at zeta = 0, so plain solves never enter ``spav``; ``spav`` checks zeta."""
    return pav(values) if zeta == 0.0 else spav(values, zeta=zeta)


def _target_scale(targets):
    return np.maximum(1.0, np.abs(np.asarray(targets, dtype=float)))


def _model(baseline, stressed_q, multipliers, residuals, names, zeta, evaluations):
    stressed = QuantileGrid(stressed_q)
    return StressedModel(
        baseline=baseline,
        stressed=stressed,
        multipliers=np.atleast_1d(np.asarray(multipliers, dtype=float)),
        residuals=np.atleast_1d(np.asarray(residuals, dtype=float)),
        constraint_names=tuple(names),
        w2=wasserstein2(baseline, stressed),
        zeta=zeta,
        evaluations=evaluations,
    )


def _rows(vectors, n, what):
    """Stack constraint vectors, each of shape ``(n,)``, as the rows of a ``(k, n)`` array."""
    rows = [np.asarray(v, dtype=float) for v in vectors]
    if any(r.shape != (n,) for r in rows):
        raise ValidationError(f"{what} length differs from the grid")
    return np.reshape(rows, (-1, n))


def _rm_arrays(baseline, constraints):
    gammas = _rows([c.weight.values for c in constraints], baseline.n, "distortion weight")
    targets = np.asarray([c.target for c in constraints], dtype=float)
    return gammas, targets, [f"{c.weight.tag}{c.weight.params}" for c in constraints]


def _search(baseline, build, residual, scale, names, zeta, tol,
            lower=None, jacobian=None, upper=0):
    """Find one multiplier per name in ``names`` with ``residual(build(lam)) = 0``.

    ``build`` maps multipliers to the stressed grid and is memoised, so the
    solution is not rebuilt and ``jacobian(lam, stressed)``, if given, reads
    it.  The model counts the search's evaluations.  The first ``upper``
    residuals are upper bounds (met when <= 0) with multipliers >= 0, solved
    as the zero of Robinson's normal map in free variables z: lam = max(z, 0)
    and F(z) = residual - min(z, 0), so a bound with z <= 0 is slack by -z.
    Their search starts at z = min(F(0), 0), one counted evaluation, so the
    bounds the unstressed projection meets start slack and their probes reuse
    the memoised iterate.  The rest start at 0.  ``jacobian`` is in lam, not z,
    so it serves searches without upper bounds.
    """
    d = len(names)
    bounded = np.arange(d) < upper
    stressed_for = _projection_cache(build)

    def lam_of(z):
        return np.where(bounded, np.maximum(z, 0.0), z) if upper else z

    def normal_map(z):
        r = residual(stressed_for(lam_of(z)))
        return r - np.where(bounded, np.minimum(z, 0.0), 0.0) if upper else r

    start = np.zeros(d)
    if upper:
        start = np.where(bounded, np.minimum(normal_map(start), 0.0), 0.0)
    exact = None if jacobian is None else (lambda lam: jacobian(lam, stressed_for(lam)))
    try:
        result = multiplier_search(normal_map, start, scale=scale, tol=tol,
                                   max_iter=MAX_ITER, lower=lower, jacobian=exact)
    except NotConvergedError as exc:
        raise NotConvergedError(str(exc), residuals=exc.residuals,
                                multipliers=lam_of(exc.multipliers)) from exc
    lam = lam_of(result.multipliers)
    return _model(baseline, stressed_for(lam), lam, result.residuals, names, zeta,
                  result.evaluations + bool(upper))


def solve_rm(
    baseline: QuantileGrid,
    spec: RmStress,
    zeta: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> StressedModel:
    """Stress distortion risk measures to target values.

    The stressed quantile is the isotonic projection of the baseline quantile
    plus a multiplier-weighted sum of the distortion weights; the multipliers
    are chosen so every risk measure hits its target.
    """
    gammas, targets, names = _rm_arrays(baseline, spec.constraints)
    return _search(
        baseline,
        lambda lam: _isotonic(baseline.q + gammas.T @ lam, zeta=zeta),
        lambda qs: qs @ gammas.T / baseline.n - targets,
        _target_scale(targets), names, zeta, tol,
        jacobian=lambda lam, qs: projection_jacobian(qs, gammas, gammas, zeta) / baseline.n,
    )


def solve_coherent(
    baseline: QuantileGrid,
    weight: DistortionWeight,
    target: float,
) -> StressedModel:
    """Closed form for one coherent risk measure stressed upward.

    Requires a (numerically) nondecreasing distortion weight and a target at
    or above the baseline value; then baseline quantile plus a nonnegative
    multiple of the weight is already nondecreasing and no projection is
    needed.
    """
    base_value = eval_rm(baseline, weight)
    if not weight.is_nondecreasing:
        raise ValidationError("weight is not nondecreasing: use solve_rm")
    if target < base_value - 1e-12 * max(1.0, abs(base_value)):
        raise ValidationError("target below the baseline value: use solve_rm")
    lam = (target - base_value) / float(np.mean(weight.values**2))
    qs = baseline.q + lam * weight.values
    achieved = float(np.mean(qs * weight.values))
    return _model(
        baseline, qs, [lam], [achieved - target],
        [f"{weight.tag}{weight.params}"], 0.0, 1,
    )


def solve_mean_var_rm(
    baseline: QuantileGrid,
    spec: MeanVarRm,
    zeta: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> StressedModel:
    """Stress the mean and standard deviation, optionally with risk measures.

    The stressed quantile is the projection of an affine reshaping of the
    baseline quantile: (baseline + shift + scale_mult * target_mean + rm
    terms) / (1 + scale_mult).  The scale multiplier is kept away from -1,
    where the reshaping degenerates.
    """
    gammas, rm_targets, rm_names = _rm_arrays(baseline, spec.constraints)

    def reshaped(lam):
        denom = 1.0 + lam[1]
        if abs(denom) < _SCALE_GUARD:
            denom = _SCALE_GUARD if denom >= 0.0 else -_SCALE_GUARD
        ell = baseline.q + lam[0] + lam[1] * spec.mean + gammas.T @ lam[2:]
        return ell / denom, denom

    def jacobian(lam, qs):
        # chain rule through ell / denom; a clamped denom does not move
        ell, denom = reshaped(lam)
        dell = np.vstack((np.ones(ell.size), spec.mean - ell * (denom == 1.0 + lam[1]), gammas))
        centred = qs - np.mean(qs)
        rows = np.vstack((np.ones(ell.size), centred / np.sqrt(np.mean(centred**2)), gammas))
        return projection_jacobian(qs, rows, dell / denom, zeta) / baseline.n

    def residual(qs):
        m, sd = float(np.mean(qs)), float(np.sqrt(np.mean((qs - np.mean(qs)) ** 2)))
        rm = qs @ gammas.T / baseline.n - rm_targets
        return np.concatenate(([m - spec.mean, sd - spec.sd], rm))

    targets = np.concatenate(([spec.mean, spec.sd], rm_targets))
    model = _search(
        baseline, lambda lam: _isotonic(reshaped(lam)[0], zeta=zeta), residual,
        np.maximum(_target_scale(targets), spec.sd), ["mean", "sd", *rm_names],
        zeta, tol, jacobian=jacobian,
    )
    if abs(1.0 + model.multipliers[1]) < _SCALE_GUARD:
        raise NotConvergedError(
            "degenerate solution: scale multiplier pinned near -1",
            residuals=model.residuals,
            multipliers=model.multipliers,
        )
    return model


def solve_integral(
    baseline: QuantileGrid,
    spec: IntegralStress,
    tol: float = DEFAULT_TOL,
) -> StressedModel:
    """Linear and quadratic integral inequality constraints.

    The stressed quantile is the weighted isotonic projection of
    (baseline - sum lam_k h_k) / Lambda with Lambda = 1 + sum lamq_l hq_l and
    projection weights Lambda; multipliers enter with a minus sign in the
    numerator so that the KKT multipliers of the upper-bound constraints are
    nonnegative.  The problem is a strictly convex QP, so its KKT conditions
    (lam >= 0, achieved <= bound, complementarity) have one solution, which
    ``_search`` finds on its normal map with every constraint an upper bound.
    """
    lin_h = _rows([c.h for c in spec.linear], baseline.n, "constraint function")
    quad_h = _rows([c.h for c in spec.quadratic], baseline.n, "constraint function")
    constraints = (*spec.linear, *spec.quadratic)
    bounds = np.asarray([c.bound for c in constraints], dtype=float)
    d = len(spec.linear)

    def build(lam):
        weights = np.maximum(1.0 + quad_h.T @ lam[d:], 1e-9)
        return pav((baseline.q - lin_h.T @ lam[:d]) / weights, weights)

    def residual(qs):
        return np.concatenate((lin_h @ qs, quad_h @ qs**2)) / baseline.n - bounds

    model = _search(baseline, build, residual, _target_scale(bounds),
                    [c.name for c in constraints], 0.0, tol, upper=bounds.size)
    return replace(model, multipliers=model.multipliers[:d],
                   multipliers_quadratic=model.multipliers[d:])


def solve_var(baseline: QuantileGrid, spec: VarStress) -> StressedModel:
    """Pin a left or right grid quantile at a target value.

    The stressed grid is the baseline projected onto the grids whose level-
    alpha cell k (the one ``var``/``var_plus`` reads) holds the target: the
    target is written into cell k and into every cell on k's far side that
    crosses or meets it (cells up to k at or above the target on the left,
    cells from k on at or below it on the right); the rest is the baseline.
    A level within half a cell of 0 or 1 pins the end cell, as ``var`` and
    ``var_plus`` read it.  Stressing the left quantile upward (or the right
    quantile downward) has no solution: the minimising sequence loses
    left-continuity in the limit.
    """
    left = spec.kind == "left"
    k = _quantile_cell(baseline.n, spec.alpha, left)
    base = float(baseline.q[k])
    if (spec.value > base) if left else (spec.value < base):
        verb, way, other, back = ("exceeds", "down", "right", "up") if left else (
            "is below", "up", "left", "down")
        raise NoSolutionError(
            f"no solution: target {spec.value:.6g} {verb} the baseline {spec.kind} "
            f"quantile {base:.6g} at level {spec.alpha}; a {spec.kind}-quantile "
            f"stress must move the quantile {way} (use kind='{other}' or an "
            f"interval risk measure to move it {back})"
        )
    qs = baseline.q.copy()
    far = qs[:k + 1] if left else qs[k:]
    far[(far >= spec.value) if left else (far <= spec.value)] = spec.value
    name = "var" if left else "var_plus"
    return _model(baseline, qs, [], [qs[k] - spec.value], [f"{name}({spec.alpha})"], 0.0, 1)


def _inverse_shifted_marginal(values, utility, lam1):
    """Left-inverse of nu(x) = x - lam1 * u'(x), evaluated pointwise.

    ``nu`` is strictly increasing with slope >= 1 for concave u and lam1 >= 0,
    so each point has a unique root; found by bracketed bisection with Newton
    polish.  Raises if no bracket exists inside the utility's domain.
    """
    y = np.asarray(values, dtype=float)
    if lam1 == 0.0:
        return y.copy()
    domain_min = utility.domain_min
    bounded = np.isfinite(domain_min)
    # on an unbounded domain the points just inside it are -inf (-inf + 1e-9 * inf is NaN)
    pad = 1.0 + abs(domain_min) if bounded else 0.0

    def nu(x):
        return x - lam1 * utility.marginal(x)

    guess = np.maximum(y, domain_min + 1e-9 * pad)
    radius = lam1 * (np.abs(utility.marginal(guess)) + 1.0)
    lo = np.maximum(y - radius, domain_min + 1e-12 * pad)
    hi = y + radius
    for _ in range(80):
        bad_lo = nu(lo) > y
        bad_hi = nu(hi) < y
        if not bad_lo.any() and not bad_hi.any():
            break
        span = np.maximum(hi - lo, 1e-6)
        halfway = domain_min + (lo - domain_min) / 2.0 if bounded else -np.inf
        lo = np.where(bad_lo, np.maximum(lo - span, halfway), lo)
        hi = np.where(bad_hi, hi + span, hi)
    else:
        raise UtilityDomainError("could not bracket the utility inverse on its domain")
    x = 0.5 * (lo + hi)
    tol_abs = 1e-10 * max(1.0, float(np.max(np.abs(y))))
    # a converged cell never moves again, so the loop runs on the open cells
    # alone and writes each one back into x as it closes
    cells, xa, ya = np.arange(y.size), x, y
    for _ in range(200):
        fx = nu(xa) - ya
        still_open = ~(np.abs(fx) <= tol_abs)  # a NaN stays open
        if not still_open.all():
            x[cells] = xa
            cells, xa, ya, fx, lo, hi = (a[still_open] for a in (cells, xa, ya, fx, lo, hi))
        if cells.size == 0:
            break
        too_high = fx > 0.0
        lo = np.where(too_high, lo, xa)
        hi = np.where(too_high, xa, hi)
        slope = 1.0 - lam1 * utility.curvature(xa)
        newton = xa - fx / np.maximum(slope, 1.0)
        inside = (newton > lo) & (newton < hi)
        xa = np.where(inside, newton, 0.5 * (lo + hi))
    else:
        raise NotConvergedError("utility inverse did not converge on the grid")
    return x


def solve_utility_rm(
    baseline: QuantileGrid,
    spec: UtilityRm,
    zeta: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> StressedModel:
    """Expected-utility floor combined with risk-measure equalities.

    The utility constraint is an inequality: if the risk-measure-only
    solution already satisfies it the utility multiplier is zero; otherwise
    the constraint binds and the solution is the inverse of
    x - lam1 * u'(x) applied to the projected risk-measure solution.  The
    reported ``evaluations`` include the pre-solve's: the risk-measure-only
    solve, or the one floor check of the (smoothed) baseline without one.
    """
    gammas, rm_targets, rm_names = _rm_arrays(baseline, spec.constraints)
    names = ["utility", *rm_names]
    if spec.constraints:
        pre = solve_rm(baseline, RmStress(spec.constraints), zeta=zeta, tol=tol)
    else:
        pre = _model(baseline, _isotonic(baseline.q, zeta), [], [], [], zeta, 1)
    base_util = expected_utility(pre.stressed, spec.utility)
    if base_util >= spec.floor - tol * max(1.0, abs(spec.floor)):
        return replace(pre, multipliers=np.concatenate(([0.0], pre.multipliers)),
                       residuals=np.concatenate(([min(base_util - spec.floor, 0.0)],
                                                 pre.residuals)),
                       constraint_names=tuple(names))

    projected = _projection_cache(lambda mu: _isotonic(baseline.q + gammas.T @ mu, zeta=zeta))

    def build(lam):
        return _inverse_shifted_marginal(projected(lam[1:]), spec.utility, max(lam[0], 0.0))

    def residual(qs):
        utility = float(np.mean(spec.utility.value(qs))) - spec.floor
        return np.concatenate(([utility], qs @ gammas.T / baseline.n - rm_targets))

    targets = np.concatenate(([spec.floor], rm_targets))
    lower = np.concatenate(([0.0], np.full(rm_targets.size, -np.inf)))
    model = _search(baseline, build, residual, _target_scale(targets), names, zeta, tol,
                    lower=lower)
    return replace(model, evaluations=pre.evaluations + model.evaluations)


def solve(
    baseline: QuantileGrid,
    spec: StressSpec,
    zeta: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> StressedModel:
    """Dispatch a stress specification to its solver.

    ``zeta`` must be finite and >= 0 for every family, including the
    quantile and integral families, which do not smooth.
    """
    if not 0.0 <= zeta < np.inf:
        raise ValidationError("smoothing parameter zeta must be finite and >= 0")
    if isinstance(spec, RmStress):
        return solve_rm(baseline, spec, zeta=zeta, tol=tol)
    if isinstance(spec, MeanVarRm):
        return solve_mean_var_rm(baseline, spec, zeta=zeta, tol=tol)
    if isinstance(spec, IntegralStress):
        return solve_integral(baseline, spec, tol=tol)
    if isinstance(spec, VarStress):
        return solve_var(baseline, spec)
    if isinstance(spec, UtilityRm):
        return solve_utility_rm(baseline, spec, zeta=zeta, tol=tol)
    raise ValidationError(f"unknown stress specification: {type(spec).__name__}")
