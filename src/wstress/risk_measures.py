"""Distortion weights, risk-measure evaluation, quantiles, moments, utilities.

A distortion risk measure is the integral of the quantile function against a
nonnegative weight integrating to one.  Weights are stored pre-normalised on
the grid (discrete mean exactly 1, even when the analytic normaliser differs
at finite n) so that the solvers' Lagrange systems stay consistent with grid
integrals.

The left quantile itself is *not* expressible as a square-integrable
distortion weight; it is stressed by the dedicated quantile solver in
``stress_solvers`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .distributions import QuantileGrid, midpoint_grid
from .errors import UtilityDomainError, ValidationError

__all__ = [
    "DistortionWeight",
    "mean_weight",
    "es_weight",
    "alpha_beta_weight",
    "rvar_weight",
    "custom_weight",
    "make_gamma",
    "eval_rm",
    "var",
    "var_plus",
    "mean_sd",
    "HARAUtility",
    "CustomUtility",
    "UtilitySpec",
    "expected_utility",
]

_NORMALISATION_TOL = 1e-8


@dataclass(frozen=True)
class DistortionWeight:
    """A distortion weight sampled on the midpoint grid, discrete mean 1."""

    values: np.ndarray
    tag: str = "custom"
    params: tuple = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValidationError("distortion weight must be a vector")
        if not np.isfinite(v).all() or np.any(v < 0.0):
            raise ValidationError("distortion weight must be finite and nonnegative")
        if abs(v.mean() - 1.0) > _NORMALISATION_TOL:
            raise ValidationError("distortion weight must integrate to one")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def is_nondecreasing(self) -> bool:
        """Numeric coherence marker; gates the closed-form solver path."""
        return bool(np.all(np.diff(self.values) >= -1e-12))


def _normalised(raw: np.ndarray, tag: str, params: tuple) -> DistortionWeight:
    mean = raw.mean()
    if mean <= 0.0:
        raise ValidationError(f"{tag} weight vanishes on this grid")
    return DistortionWeight(values=raw / mean, tag=tag, params=params)


def mean_weight(n: int) -> DistortionWeight:
    """The constant weight: the risk measure is the mean."""
    return DistortionWeight(values=np.ones(n), tag="mean")


def es_weight(alpha: float, n: int) -> DistortionWeight:
    """Expected-shortfall weight 1{u > alpha} / (1 - alpha) at midpoints."""
    if not 0.0 <= alpha < 1.0:
        raise ValidationError("ES level must lie in [0, 1)")
    u = midpoint_grid(n)
    raw = (u > alpha).astype(float) / (1.0 - alpha)
    return _normalised(raw, "es", (alpha,))


def alpha_beta_weight(alpha: float, beta: float, p: float, n: int) -> DistortionWeight:
    """Two-tail weight (p 1{u<beta} + (1-p) 1{u>=alpha}) / (p beta + (1-p)(1-alpha)).

    ``p = 0`` reduces to expected shortfall at ``alpha``; ``p = 1`` (with
    ``alpha = beta``) to the conditional lower tail expectation at ``beta``.
    """
    if not (0.0 < beta <= alpha < 1.0):
        raise ValidationError("alpha-beta weight requires 0 < beta <= alpha < 1")
    if not 0.0 <= p <= 1.0:
        raise ValidationError("mixing parameter p must lie in [0, 1]")
    u = midpoint_grid(n)
    eta = p * beta + (1.0 - p) * (1.0 - alpha)
    raw = (p * (u < beta) + (1.0 - p) * (u >= alpha)) / eta
    return _normalised(raw, "alpha_beta", (alpha, beta, p))


def rvar_weight(alpha: float, beta: float, n: int) -> DistortionWeight:
    """Interval average weight 1{alpha < u <= beta} / (beta - alpha).

    Cells partially covered by (alpha, beta] get fractional mass so that
    narrow bands still produce a valid weight and the evaluation converges
    to the left/right quantile as the band shrinks.
    """
    if not (0.0 <= alpha < beta <= 1.0):
        raise ValidationError("interval weight requires 0 <= alpha < beta <= 1")
    edges = np.arange(n + 1) / n
    overlap = np.minimum(edges[1:], beta) - np.maximum(edges[:-1], alpha)
    raw = np.maximum(overlap, 0.0) * n / (beta - alpha)
    return _normalised(raw, "rvar", (alpha, beta))


def custom_weight(values, tag: str = "custom") -> DistortionWeight:
    raw = np.asarray(values, dtype=float)
    if np.any(raw < 0.0) or not np.isfinite(raw).all():
        raise ValidationError("custom weight must be finite and nonnegative")
    return _normalised(raw, tag, ())


#: each kind ``make_gamma`` builds: its weight function and the parameters it takes before n
GAMMA_KINDS = {
    "mean": (mean_weight, ()),
    "es": (es_weight, ("alpha",)),
    "alpha_beta": (alpha_beta_weight, ("alpha", "beta", "p")),
    "rvar": (rvar_weight, ("alpha", "beta")),
}


def make_gamma(kind: str, n: int, **params) -> DistortionWeight:
    """Dispatch on a tag: es(alpha) | alpha_beta(alpha, beta, p) | rvar(alpha, beta) | mean."""
    kind = kind.lower()
    if kind not in GAMMA_KINDS:
        raise ValidationError(f"unknown distortion weight kind: {kind!r}")
    build, names = GAMMA_KINDS[kind]
    if missing := [k for k in names if k not in params]:
        raise ValidationError(f"{kind} weight needs parameter(s) {', '.join(missing)}")
    return build(*(params[k] for k in names), n)


def eval_rm(grid: QuantileGrid, weight: DistortionWeight) -> float:
    """Distortion risk measure: the grid mean of quantiles times the weight."""
    if weight.n != grid.n:
        raise ValidationError("weight and grid sizes differ")
    return float(np.mean(grid.q * weight.values))


def _quantile_cell(n: int, alpha: float, left: bool) -> int:
    """The cell a level-alpha grid quantile reads: the one place it is computed.

    The grid is read as a step function jumping at the midpoints: the left
    quantile reads the last midpoint at or below alpha, the right quantile
    the first one strictly above it.  Clamped onto the grid, so a level
    within half a cell of 0 or 1 reads the end cell.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError("quantile level must lie in (0, 1)")
    idx = int(np.floor(alpha * n - 0.5 if left else alpha * n + 0.5))
    return min(max(idx, 0), n - 1)


def var(grid: QuantileGrid, alpha: float) -> float:
    """Left-continuous grid quantile: the last midpoint at or below alpha."""
    return float(grid.q[_quantile_cell(grid.n, alpha, True)])


def var_plus(grid: QuantileGrid, alpha: float) -> float:
    """Right-continuous grid quantile: the first midpoint strictly above alpha."""
    return float(grid.q[_quantile_cell(grid.n, alpha, False)])


def mean_sd(grid: QuantileGrid) -> tuple[float, float]:
    """Grid mean and (population) standard deviation."""
    m = float(np.mean(grid.q))
    sd = float(np.sqrt(np.mean((grid.q - m) ** 2)))
    return m, sd


@dataclass(frozen=True)
class HARAUtility:
    """Hyperbolic absolute risk aversion: (1-eta)/eta * (a x/(1-eta) + b)**eta.

    Requires a > 0 and eta < 1, eta != 0 (the formula degenerates at 0 and 1);
    concavity holds for all admissible eta.  The domain is x > -b(1-eta)/a.
    """

    a: float
    b: float
    eta: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and np.isfinite(self.eta)):
            raise ValidationError("utility parameters must be finite")
        if self.a <= 0.0:
            raise ValidationError("utility scale a must be positive")
        if not math.isfinite(float(self.a) * float(self.a)):  # curvature takes a**2
            raise ValidationError(f"utility scale a is too large: a**2 overflows (a = {self.a!r})")
        if self.eta >= 1.0 or self.eta == 0.0:
            raise ValidationError("risk-aversion exponent must satisfy eta < 1, eta != 0")

    @property
    def domain_min(self) -> float:
        return -self.b * (1.0 - self.eta) / self.a

    def _base(self, x):
        x = np.asarray(x, dtype=float)
        base = self.a * x / (1.0 - self.eta) + self.b
        if np.any(base <= 0.0):
            raise UtilityDomainError(
                f"utility undefined: a*x/(1-eta)+b <= 0 at x <= {self.domain_min:.6g}"
            )
        return base

    def value(self, x):
        return (1.0 - self.eta) / self.eta * self._base(x) ** self.eta

    def marginal(self, x):
        return self.a * self._base(x) ** (self.eta - 1.0)

    def curvature(self, x):
        return -(self.a**2) * self._base(x) ** (self.eta - 2.0)


@dataclass(frozen=True)
class CustomUtility:
    """Concave utility given by callables for u and u'."""

    value_fn: Callable
    marginal_fn: Callable
    domain_min: float = -math.inf

    def value(self, x):
        return np.asarray(self.value_fn(np.asarray(x, dtype=float)), dtype=float)

    def marginal(self, x):
        return np.asarray(self.marginal_fn(np.asarray(x, dtype=float)), dtype=float)

    def curvature(self, x):
        x = np.asarray(x, dtype=float)
        h = 1e-6 * (1.0 + np.abs(x))
        return (self.marginal(x + h) - self.marginal(x - h)) / (2.0 * h)


UtilitySpec = Union[HARAUtility, CustomUtility]


def expected_utility(grid: QuantileGrid, utility: UtilitySpec) -> float:
    """Expected utility of the grid: the mean of u over quantile values.

    Checks concavity numerically: the marginal must be nonincreasing across
    the grid's value range.
    """
    vals = utility.value(grid.q)
    if not np.isfinite(vals).all():
        raise UtilityDomainError("utility evaluates to non-finite values on the grid")
    marg = utility.marginal(grid.q)
    scale = max(1.0, float(np.abs(marg).max()))
    if np.any(np.diff(marg) > 1e-8 * scale) and np.any(np.diff(grid.q) > 0):
        raise ValidationError("utility marginal increases on the grid: not concave")
    return float(np.mean(vals))
