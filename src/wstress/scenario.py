"""Built-in spatial insurance portfolio: regime-mixture Gaussian copula.

Ten losses at fixed planar locations, each shifted-gamma distributed with a
location-dependent rate, coupled through a Gaussian copula whose correlation
decays exponentially with the distance between locations.  A latent regime
variable scales the decay: regime 0 is full comonotonicity (a disaster
state), larger regimes decorrelate distant locations.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv, ndtr

from .distributions import DEFAULT_GRID_N, Empirical, discretize
from .errors import ValidationError
from .reweight import SampleSet
from .risk_measures import HARAUtility, es_weight, eval_rm, expected_utility
from .stress_solvers import RmConstraint, StressedModel, UtilityRm, solve_utility_rm

__all__ = ["SpatialConfig", "ScenarioOutput", "default_locations", "generate",
           "table1_stresses"]

N_LOCATIONS = 10
#: Copula decay rates of the regimes and their probabilities.
THETA_VALUES = (0.0, 0.4, 5.0)
THETA_PROBS = (0.05, 0.6, 0.35)
#: Location m (0-based) loses MARGINAL_SHIFT plus a gamma variate of this
#: shape and rate MARGINAL_RATE_PER_LOCATION / (m + 1).
MARGINAL_SHAPE = 5.0
MARGINAL_RATE_PER_LOCATION = 0.2
MARGINAL_SHIFT = 25.0
#: Seed behind the default location layout; documented so runs are
#: reproducible and overridable via SpatialConfig(locations=...).
DEFAULT_LOCATION_SEED = 2


def default_locations() -> np.ndarray:
    """Ten planar locations drawn from Uniform([0, 1]^2) with ``DEFAULT_LOCATION_SEED``.

    The unit square keeps every exp(-theta * distance) correlation positive
    in a meaningful sense even in the fastest-decay regime (theta = 5), so
    all regimes couple the losses rather than degenerating to independence.
    """
    rng = np.random.default_rng(DEFAULT_LOCATION_SEED)
    return rng.uniform(0.0, 1.0, size=(N_LOCATIONS, 2))


@dataclass(frozen=True)
class SpatialConfig:
    """Parameters of the spatial portfolio simulation."""

    n_samples: int = 100_000
    seed: int = 0
    locations: np.ndarray = field(default_factory=default_locations)

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        if loc.shape != (N_LOCATIONS, 2) or not np.isfinite(loc).all():
            raise ValidationError(f"locations must be a finite ({N_LOCATIONS}, 2) array")
        if not isinstance(self.n_samples, (int, np.integer)):
            raise ValidationError(f"n_samples must be an integer, got {self.n_samples!r}")
        if self.n_samples < 100:
            raise ValidationError("need at least 100 samples")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "locations", loc)


@dataclass(frozen=True)
class ScenarioOutput:
    """Simulated losses, their total, and the per-sample regime label."""

    samples: SampleSet
    theta: np.ndarray
    config: SpatialConfig


def correlation_matrix(locations: np.ndarray, theta: float) -> np.ndarray:
    """exp(-theta * distance) between all location pairs."""
    diff = locations[:, None, :] - locations[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    return np.exp(-theta * dist)


def _copula_factor(corr: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        # near-singular regime: clip tiny negative eigenvalues
        vals, vecs = np.linalg.eigh(corr)
        return vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0)))


def generate(config: SpatialConfig) -> ScenarioOutput:
    """Simulate the portfolio; deterministic for a fixed seed.

    Per sample: draw the regime, correlate standard normals through the
    regime's copula factor, map to uniforms, and invert the shifted-gamma
    marginals.  The comonotone regime (theta = 0) broadcasts a single shared
    normal instead of factorising its rank-one correlation matrix.

    The marginal inversions, one ``gammaincinv`` call per location, are split
    between the calling thread and one helper thread (``gammaincinv``
    releases the interpreter lock); each writes its own columns, so the
    result does not depend on the split, and the helper has ended before
    ``generate`` returns.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_samples
    regimes = rng.choice(len(THETA_VALUES), size=n, p=THETA_PROBS)
    # one (n, N_LOCATIONS) array goes from normals to correlated normals to
    # losses in place; the regimes' rows are disjoint, so each reads only its
    # own untouched normals
    losses = rng.standard_normal((n, N_LOCATIONS))
    for r, theta in enumerate(THETA_VALUES):
        rows = regimes == r
        if not rows.any():
            continue
        if theta == 0.0:
            losses[rows] = losses[rows, 0][:, None]
        else:
            factor = _copula_factor(correlation_matrix(config.locations, theta))
            losses[rows] = losses[rows] @ factor.T
    uniforms = ndtr(losses)
    half = N_LOCATIONS // 2
    with ThreadPoolExecutor(max_workers=1) as helper:
        rest = helper.submit(_invert_marginals, losses, uniforms, range(half, N_LOCATIONS))
        _invert_marginals(losses, uniforms, range(half))
        rest.result()
    columns = tuple(f"L{m + 1}" for m in range(N_LOCATIONS))
    samples = SampleSet(X=losses, Y=losses.sum(axis=1), columns=columns)
    return ScenarioOutput(samples=samples, theta=regimes, config=config)


def _invert_marginals(losses: np.ndarray, uniforms: np.ndarray, locations: range) -> None:
    """Write the shifted-gamma quantiles of ``uniforms`` into ``losses``, column by column."""
    for m in locations:
        rate = MARGINAL_RATE_PER_LOCATION / (m + 1)
        losses[:, m] = gammaincinv(MARGINAL_SHAPE, uniforms[:, m]) * (1.0 / rate) + MARGINAL_SHIFT


#: Relative bumps (utility, ES@0.8, ES@0.95) of the two standard stresses.
STRESS1_BUMPS = (0.00, 0.00, 0.01)
STRESS2_BUMPS = (0.01, 0.01, 0.03)
HARA_PARAMS = (1.0, 5.0, 0.5)


def table1_stresses(output: ScenarioOutput) -> tuple[StressedModel, StressedModel]:
    """The two standard portfolio stresses on the total loss.

    Stress 1 bumps only the far-tail expected shortfall (+1% at level 0.95),
    holding the utility and the 0.8-level expected shortfall at their
    baseline values; stress 2 bumps all three (+1%, +1%, +3%).  Both are
    solved unsmoothed on ``DEFAULT_GRID_N`` cells at the default tolerance.
    """
    baseline = discretize(Empirical(output.samples.Y), DEFAULT_GRID_N)
    utility = HARAUtility(*HARA_PARAMS)
    base_util = expected_utility(baseline, utility)
    es80 = es_weight(0.8, baseline.n)
    es95 = es_weight(0.95, baseline.n)
    base80 = eval_rm(baseline, es80)
    base95 = eval_rm(baseline, es95)

    models = []
    for bump_u, bump80, bump95 in (STRESS1_BUMPS, STRESS2_BUMPS):
        spec = UtilityRm(
            utility=utility,
            floor=base_util * (1.0 + bump_u),
            constraints=(
                RmConstraint(es80, base80 * (1.0 + bump80)),
                RmConstraint(es95, base95 * (1.0 + bump95)),
            ),
        )
        models.append(solve_utility_rm(baseline, spec))
    return models[0], models[1]
