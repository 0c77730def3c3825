"""The three benchmark workloads: seeded inputs, operations and output checks.

Every workload exposes ``setup()`` (builds inputs and warms up; repeatable),
``ops(cycle)`` (the seeded operation list of one cycle) and ``close()``.
The solve workloads draw fresh inputs for every cycle from (seed, cycle), so
a run averages over several draws and its figures depend little on the seed;
``cli_portfolio`` repeats one input so its passes can be compared byte for
byte.  An operation is timed by the harness; its ``check`` runs outside the
timed region and raises ``CheckError`` when the output is wrong.

Solver outputs are compared with ``references.json``, recorded by
``record_references.py`` on the commit that introduced this benchmark.
Seeds therefore choose among a finite catalogue of stress variants (and, for
``cli_portfolio``, among a pool of scenario seeds), so that every seeded
input has a recorded reference.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

import wstress as ws
from wstress import cli

from harness import CheckError, Op
from tracing import Patcher

GRID_N = 4096
SOLVER_TOL = ws.stress_solvers.DEFAULT_TOL
#: Reference tolerances: w2 and multipliers may move by this share of
#: max(1, |reference|) -- the solver tolerance, with room for a different
#: multiplier engine that converges to the same residual tolerance.
W2_RTOL = 1e-6
MULT_RTOL = 1e-5
REFERENCES = Path(__file__).with_name("references.json")

HARA = (1.0, 5.0, 0.5)
#: Scenario seed behind the empirical baseline of solve_sweep.
EMPIRICAL_SCENARIO_SEED = 7
#: Scenario seeds the cli_portfolio workload chooses from.
CLI_SCENARIO_SEEDS = (7, 11, 19, 23, 31, 43, 59, 71)


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# baselines and the stress catalogue


def make_baselines(n_samples: int = 100_000) -> dict[str, tuple[Any, ws.QuantileGrid]]:
    """Baseline specs and their grids at ``GRID_N``, keyed by name."""
    emp = ws.Empirical(
        ws.generate(ws.SpatialConfig(n_samples=n_samples, seed=EMPIRICAL_SCENARIO_SEED)).samples.Y
    )
    specs = {
        "lognormal": ws.Lognormal(mu=0.875, sigma=0.5),
        "gamma": ws.Gamma(shape=2.0, rate=0.5),
        "empirical": emp,
    }
    return {k: (v, ws.discretize(v, GRID_N)) for k, v in specs.items()}


@dataclass(frozen=True)
class Case:
    """One catalogued solve: a slot of the cycle and the variant the seed chose."""

    slot: str
    family: str
    baseline: str
    params: tuple
    zeta: float = 0.0

    @property
    def key(self) -> str:
        return f"{self.slot}/{self.params!r}/{self.zeta!r}"


def _es(alpha):
    return ws.es_weight(alpha, GRID_N)


def _rm(grid, weights_bumps):
    return tuple(ws.RmConstraint(w, ws.eval_rm(grid, w) * (1.0 + b)) for w, b in weights_bumps)


def build_spec(case: Case, grid: ws.QuantileGrid):
    """The stress specification of a case, with targets relative to the baseline."""
    p = case.params
    if case.family == "rm":
        return ws.RmStress(_rm(grid, [(_es(a), b) for a, b in p]))
    if case.family == "rm_mixed":
        (a, b, pmix, bump_ab), (lo, hi, bump_rv) = p
        return ws.RmStress(_rm(grid, [
            (ws.alpha_beta_weight(a, b, pmix, GRID_N), bump_ab),
            (ws.rvar_weight(lo, hi, GRID_N), bump_rv),
        ]))
    if case.family == "mean_var_rm":
        mean_bump, sd_bump, rm = p
        m, sd = ws.mean_sd(grid)
        return ws.MeanVarRm(
            mean=m * (1.0 + mean_bump), sd=sd * (1.0 + sd_bump),
            constraints=_rm(grid, [(_es(a), b) for a, b in rm]),
        )
    if case.family == "utility_rm":
        floor_bump, rm = p
        utility = ws.HARAUtility(*HARA)
        return ws.UtilityRm(
            utility=utility,
            floor=ws.expected_utility(grid, utility) * (1.0 + floor_bump),
            constraints=_rm(grid, [(_es(a), b) for a, b in rm]),
        )
    if case.family == "var":
        side, alpha, bump = p
        base = ws.var(grid, alpha) if side == "left" else ws.var_plus(grid, alpha)
        return ws.VarStress(alpha=alpha, value=base * (1.0 + bump), kind=side)
    if case.family == "integral":
        k, bump = p
        u = ws.midpoint_grid(GRID_N)
        linear, quadratic = [], []
        spacing = 0.9 / k
        for j in range(k):
            # disjoint probability bands, so the constraints violated by the
            # baseline are the optimal active set; linear and quadratic upper
            # bounds alternate, and every third one is slack
            lo = 0.05 + j * spacing
            h = ((u > lo) & (u <= lo + 0.3 * spacing)).astype(float)
            slack = 0.05 if j % 3 == 2 else 0.0
            if j % 2 == 0:
                bound = float(np.mean(h * grid.q)) * (1.0 - bump + slack)
                linear.append(ws.LinearConstraint(h=h, bound=bound, name=f"lin{j}"))
            else:
                bound = float(np.mean(h * grid.q**2)) * (1.0 - 2 * bump + slack)
                quadratic.append(ws.QuadraticConstraint(h=h, bound=bound, name=f"quad{j}"))
        return ws.IntegralStress(linear=tuple(linear), quadratic=tuple(quadratic))
    raise ValueError(f"unknown family {case.family!r}")


#: solve_sweep slots: (slot, family, baseline, variants).  Every cycle holds
#: each slot once; the seed picks the variant and the order.  A slot's
#: variants take the same number of evaluations, so runs stay comparable.
SWEEP_SLOTS = (
    ("rm1_up_ln", "rm", "lognormal", [((0.9, 0.05),), ((0.95, 0.10),), ((0.975, 0.15),)]),
    ("rm1_down_ga", "rm", "gamma", [((0.8, -0.05),), ((0.9, -0.03),), ((0.9, -0.05),)]),
    ("rm2_ln", "rm", "lognormal", [((0.8, -0.02), (0.95, 0.03)), ((0.8, 0.0), (0.95, 0.05)),
                                   ((0.8, 0.02), (0.95, 0.01))]),
    ("rm3_emp", "rm", "empirical", [((0.5, 0.0), (0.8, 0.01), (0.95, 0.03)),
                                    ((0.5, 0.01), (0.8, 0.0), (0.95, 0.02)),
                                    ((0.5, -0.01), (0.8, 0.0), (0.95, 0.02))]),
    ("rm_mixed_ga", "rm_mixed", "gamma", [((0.9, 0.1, 0.5, -0.03), (0.5, 0.9, 0.01)),
                                          ((0.9, 0.1, 0.5, -0.03), (0.5, 0.9, 0.02)),
                                          ((0.9, 0.1, 0.5, 0.03), (0.5, 0.9, 0.02))]),
    ("mv_ln", "mean_var_rm", "lognormal", [(0.0, 0.2, ()), (0.05, -0.1, ()), (-0.02, 0.1, ())]),
    ("mv_es_ga", "mean_var_rm", "gamma", [(0.0, 0.15, ((0.95, 0.03),)),
                                          (0.0, 0.15, ((0.95, 0.05),)),
                                          (0.0, 0.2, ((0.95, 0.05),))]),
    ("mv_es_emp", "mean_var_rm", "empirical", [(0.0, 0.15, ((0.95, 0.03),)),
                                               (0.01, 0.2, ((0.95, 0.03),)),
                                               (0.01, 0.2, ((0.95, 0.05),))]),
    ("util_ln", "utility_rm", "lognormal", [(0.01, ()), (0.02, ()), (0.005, ())]),
    ("util_es_ga", "utility_rm", "gamma", [(0.005, ((0.95, 0.03),)), (0.01, ((0.95, 0.03),)),
                                           (0.01, ((0.9, 0.03),))]),
    ("table1_s1_emp", "utility_rm", "empirical", [(0.0, ((0.8, 0.0), (0.95, 0.01)))]),
    ("table1_s2_emp", "utility_rm", "empirical", [(0.01, ((0.8, 0.01), (0.95, 0.03)))]),
    ("var_left_ln", "var", "lognormal", [("left", 0.5, -0.05), ("left", 0.9, -0.1),
                                         ("left", 0.75, -0.08)]),
    ("var_right_ga", "var", "gamma", [("right", 0.9, 0.05), ("right", 0.95, 0.1),
                                      ("right", 0.8, 0.08)]),
    ("var_emp", "var", "empirical", [("left", 0.9, -0.03), ("right", 0.95, 0.05),
                                     ("right", 0.9, 0.04)]),
    ("int_k1", "integral", "lognormal", [(1, 0.01), (1, 0.02), (1, 0.03)]),
    ("int_k2", "integral", "gamma", [(2, 0.02), (2, 0.025), (2, 0.03)]),
    ("int_k4", "integral", "lognormal", [(4, 0.015), (4, 0.02), (4, 0.025)]),
    ("int_k8", "integral", "gamma", [(8, 0.015), (8, 0.02), (8, 0.025)]),
    ("int_k12", "integral", "lognormal", [(12, 0.015), (12, 0.02), (12, 0.025)]),
)

SMOOTH_ZETAS = (1e-6, 1e-5, 1e-4)
#: smooth_fit solve slots, each at every zeta of SMOOTH_ZETAS.
SMOOTH_SOLVE_SLOTS = (
    # spav's cost swings several-fold between nearby rm and mean-var targets,
    # so these two slots have one variant each and runs stay comparable
    ("s_rm_ln", "rm", "lognormal", [((0.8, 0.0), (0.95, 0.05))]),
    ("s_mv_ga", "mean_var_rm", "gamma", [(0.0, 0.1, ((0.95, 0.05),))]),
    ("s_util_ln", "utility_rm", "lognormal", [(0.01, ((0.95, 0.03),)), (0.01, ((0.95, 0.04),)),
                                              (0.015, ((0.95, 0.03),))]),
)
FIT_SIZES = (512, 1024, 2048)
FIT_ZETAS = (1e-6, 1e-4)


def catalogue() -> list[Case]:
    """Every case any seed can draw: the set references are recorded for."""
    cases = [Case(s, f, b, v) for s, f, b, vs in SWEEP_SLOTS for v in vs]
    cases += [Case(s, f, b, v, z) for s, f, b, vs in SMOOTH_SOLVE_SLOTS for v in vs
              for z in SMOOTH_ZETAS]
    return cases


def draw_sweep_cases(seed: int, cycle: int = 0) -> list[Case]:
    """A solve_sweep cycle: one variant per slot, in seeded order."""
    rng = np.random.default_rng([seed, 1, cycle])
    cases = [Case(s, f, b, vs[int(rng.integers(len(vs)))]) for s, f, b, vs in SWEEP_SLOTS]
    return [cases[i] for i in rng.permutation(len(cases))]


def draw_smooth_items(seed: int, cycle: int = 0) -> list[tuple]:
    """A smooth_fit cycle, in seeded order.

    Items are ``("fit", n, zeta, values)`` with seeded noisy nondecreasing
    data, or ``("solve", case)``.
    """
    rng = np.random.default_rng([seed, 2, cycle])
    items: list[tuple] = []
    for n in FIT_SIZES:
        u = ws.midpoint_grid(n)
        for zeta in FIT_ZETAS:
            trend = ws.Lognormal(mu=0.875, sigma=0.5).quantile(u)
            values = trend + 0.25 * rng.standard_normal(n)
            items.append(("fit", n, zeta, values))
    for s, f, b, vs in SMOOTH_SOLVE_SLOTS:
        for zeta in SMOOTH_ZETAS:
            items.append(("solve", Case(s, f, b, vs[int(rng.integers(len(vs)))], zeta)))
    return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# output checks


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def _scale(target) -> float:
    return max(1.0, abs(float(target)))


def check_nondecreasing(q: np.ndarray, what: str):
    drop = float(np.min(np.diff(q))) if q.size > 1 else 0.0
    _require(drop >= -1e-9 * max(1.0, float(np.max(np.abs(q)))),
             f"{what}: grid decreases by {-drop:.3g}")


def check_constraints(spec, model) -> None:
    """Recompute every constraint on the stressed grid; compare with the tolerance."""
    q = model.stressed.q
    n = q.size
    slack = 1.0 + 1e-9  # recomputation rounding

    def equal(value, target, scale, what):
        _require(abs(value - target) <= SOLVER_TOL * scale * slack,
                 f"{what}: residual {value - target:.3g} beyond tol*{scale:.3g}")

    def rm_all(constraints):
        for c in constraints:
            equal(float(q @ c.weight.values / n), c.target, _scale(c.target), c.weight.tag)

    if isinstance(spec, ws.RmStress):
        rm_all(spec.constraints)
    elif isinstance(spec, ws.MeanVarRm):
        mean = float(np.mean(q))
        equal(mean, spec.mean, max(_scale(spec.mean), spec.sd), "mean")
        equal(float(np.sqrt(np.mean((q - mean) ** 2))), spec.sd, _scale(spec.sd), "sd")
        for c in spec.constraints:
            equal(float(q @ c.weight.values / n), c.target, max(_scale(c.target), spec.sd),
                  c.weight.tag)
    elif isinstance(spec, ws.UtilityRm):
        eu = float(np.mean(spec.utility.value(q)))
        scale = _scale(spec.floor)
        _require(eu >= spec.floor - SOLVER_TOL * scale * slack, "utility floor violated")
        if model.multipliers[0] > 0.0:
            equal(eu, spec.floor, scale, "binding utility")
        rm_all(spec.constraints)
    elif isinstance(spec, ws.VarStress):
        grid = ws.QuantileGrid(q)
        got = ws.var(grid, spec.alpha) if spec.kind == "left" else ws.var_plus(grid, spec.alpha)
        equal(got, spec.value, _scale(spec.value), "quantile")
    elif isinstance(spec, ws.IntegralStress):
        mults = np.concatenate((model.multipliers, model.multipliers_quadratic))
        achieved = [float(np.mean(c.h * q)) for c in spec.linear]
        achieved += [float(np.mean(c.h * q**2)) for c in spec.quadratic]
        bounds = [c.bound for c in spec.linear] + [c.bound for c in spec.quadratic]
        _require(bool(np.all(mults >= -1e-10)), "negative integral multiplier")
        for k, (a, b) in enumerate(zip(achieved, bounds)):
            _require(a <= b + SOLVER_TOL * _scale(b) * slack, f"integral constraint {k} violated")
            if mults[k] > 0.0:
                equal(a, b, _scale(b), f"active integral constraint {k}")
    check_nondecreasing(q, "stressed grid")


def check_reference(ref: dict, w2: float, multipliers, what: str) -> None:
    _require(abs(w2 - ref["w2"]) <= W2_RTOL * _scale(ref["w2"]),
             f"{what}: w2 {w2!r} differs from reference {ref['w2']!r}")
    mults = np.asarray(multipliers, dtype=float)
    want = np.asarray(ref["multipliers"], dtype=float)
    _require(mults.shape == want.shape, f"{what}: {mults.size} multipliers, expected {want.size}")
    tol = MULT_RTOL * np.maximum(1.0, np.abs(want))
    _require(bool(np.all(np.abs(mults - want) <= tol)),
             f"{what}: multipliers {mults.tolist()} differ from reference {want.tolist()}")


def model_multipliers(model) -> list[float]:
    return [*map(float, model.multipliers), *map(float, model.multipliers_quadratic)]


def check_spav_kkt(values: np.ndarray, x: np.ndarray, zeta: float) -> None:
    """KKT certificate of the smoothed isotonic fit on the uniform midpoint grid.

    With g the objective gradient, the tie multipliers mu = -cumsum(g) must be
    nonnegative, vanish where the fit increases, and sum(g) must vanish.
    """
    n = values.size
    pen = zeta * n * n
    inc = np.diff(x)
    grad = 2.0 * (x - values)
    grad[:-1] -= 2.0 * pen * inc
    grad[1:] += 2.0 * pen * inc
    csum = np.cumsum(grad)
    mu = -csum[:-1]
    tol = 1e-8 * max(1.0, float(np.abs(values).max())) * max(1.0, pen)
    _require(abs(float(csum[-1])) <= tol, f"spav n={n}: stationarity {csum[-1]:.3g}")
    _require(float(inc.min()) >= 0.0, f"spav n={n}: fit decreases")
    _require(float(mu.min()) >= -tol, f"spav n={n}: negative tie multiplier {mu.min():.3g}")
    _require(float(np.abs(mu[inc > 0.0]).max(initial=0.0)) <= tol,
             f"spav n={n}: complementarity violated")


# ---------------------------------------------------------------------------
# workloads


class SolveWorkload:
    """Shared machinery of solve_sweep and smooth_fit: catalogued solves."""

    def __init__(self, seed: int):
        self.seed = seed
        self.references = load_references()["solves"]
        self.baselines: dict = {}

    def counters(self) -> dict:
        return {}

    def close(self):
        pass

    def _solve_op(self, case: Case) -> Op:
        grid = self.baselines[case.baseline][1]
        spec = build_spec(case, grid)
        ref = self.references[case.key]

        def run():
            return ws.solve(grid, spec, zeta=case.zeta)

        def check(model):
            check_constraints(spec, model)
            check_reference(ref, model.w2, model_multipliers(model), case.key)

        return Op(f"{case.family}@{case.baseline}", run, check)

    def _warm_up(self):
        """One small solve per family, so lazy set-up is done before timing."""
        spec = ws.Lognormal(0.875, 0.5)
        grid = ws.discretize(spec, 256)
        w = ws.es_weight(0.95, 256)
        stresses = [
            ws.RmStress((ws.RmConstraint(w, 1.05 * ws.eval_rm(grid, w)),)),
            ws.MeanVarRm(mean=ws.mean_sd(grid)[0], sd=1.1 * ws.mean_sd(grid)[1]),
            ws.VarStress(alpha=0.9, value=1.05 * ws.var_plus(grid, 0.9), kind="right"),
            ws.IntegralStress(linear=(ws.LinearConstraint(
                h=np.ones(256), bound=0.98 * float(np.mean(grid.q))),)),
            ws.UtilityRm(utility=ws.HARAUtility(*HARA),
                         floor=1.01 * ws.expected_utility(grid, ws.HARAUtility(*HARA))),
        ]
        for s in stresses:
            ws.solve(grid, s)
            ws.solve(grid, s, zeta=1e-5)
        ws.spav(grid.q + 0.1 * np.sin(np.arange(256)), zeta=1e-5)


class SolveSweep(SolveWorkload):
    """One operation is one ``wstress.solve`` at zeta = 0 from the seeded catalogue."""

    def setup(self):
        self.baselines = make_baselines()
        self._warm_up()

    def ops(self, cycle: int = 0) -> list[Op]:
        return [self._solve_op(case) for case in draw_sweep_cases(self.seed, cycle)]


class SmoothFit(SolveWorkload):
    """One operation is a ``spav`` fit or a zeta > 0 solve from the seeded catalogue."""

    def setup(self):
        specs = {"lognormal": ws.Lognormal(mu=0.875, sigma=0.5),
                 "gamma": ws.Gamma(shape=2.0, rate=0.5)}
        self.baselines = {k: (v, ws.discretize(v, GRID_N)) for k, v in specs.items()}
        self._warm_up()

    def ops(self, cycle: int = 0) -> list[Op]:
        out = []
        for item in draw_smooth_items(self.seed, cycle):
            if item[0] == "solve":
                out.append(self._solve_op(item[1]))
                continue
            _, n, zeta, values = item

            def run(values=values, zeta=zeta):
                return ws.spav(values, zeta=zeta)

            def check(x, values=values, zeta=zeta):
                check_spav_kkt(values, x, zeta)

            out.append(Op(f"spav@{n}", run, check))
        return out


def cli_config(out_dir: Path, scenario_seed: int, n_samples: int = 100_000) -> dict:
    """The cli_portfolio run configuration (the README's reference scenario)."""
    return {
        "grid_n": GRID_N,
        "zeta": 0.0,
        "out": str(out_dir),
        "input": {
            "csv": str(out_dir / "samples.csv"),
            "scenario": {"n_samples": n_samples, "seed": scenario_seed},
            "output_column": "Y",
        },
        "baseline": {"kind": "empirical"},
        "stresses": [
            {"name": "es_up", "kind": "rm",
             "constraints": [{"gamma": "es", "alpha": 0.95, "bump": 0.10}]},
            {"name": "sd_up", "kind": "mean_var_rm", "mean": {"bump": 0.0},
             "sd": {"bump": 0.2}},
            {"name": "floor", "kind": "utility_rm",
             "utility": {"a": HARA[0], "b": HARA[1], "eta": HARA[2]},
             "floor": {"bump": 0.01},
             "constraints": [{"gamma": "es", "alpha": 0.8, "bump": 0.01},
                             {"gamma": "es", "alpha": 0.95, "bump": 0.03}]},
            {"name": "var_right", "kind": "var", "side": "right", "alpha": 0.9, "bump": 0.05},
        ],
        "sensitivity": {
            "s_functions": ["identity", "power:2", "tail:0.95"],
            "pairs": [["L5", "L10"]],
            "delta": True,
        },
    }


def write_config(path: Path, config: dict):
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")


def parse_summary(text: str) -> dict[str, dict]:
    """Per-stress w2, multipliers and residuals from ``summary.txt``."""
    out: dict[str, dict] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("[stress "):
            current = out.setdefault(line[len("[stress "):-1], {"residuals": []})
        elif current is None:
            continue
        elif line.startswith("w2 = "):
            current["w2"] = float(line.split(" = ", 1)[1])
        elif line.startswith("converged = "):
            current["converged"] = line.endswith("true")
        elif line.startswith("multipliers"):
            body = line.split(" = ", 1)[1].strip("[]")
            current.setdefault("multipliers", [])
            current["multipliers"] += [float(v) for v in body.split(",") if v.strip()]
        elif line.startswith("constraint ") and "residual = " in line:
            current["residuals"].append(float(line.rsplit("= ", 1)[1]))
    return out


def read_csv_column(path: Path, column: str) -> np.ndarray:
    """One column of a wstress CSV, parsed with ``float`` (exact for 17 digits)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    j = lines[0].rstrip("\n").split(",").index(column)
    return np.array([float(line.split(",")[j]) for line in lines[1:]])


def cli_scenario_seed(seed: int) -> int:
    rng = np.random.default_rng([seed, 3])
    return CLI_SCENARIO_SEEDS[int(rng.integers(len(CLI_SCENARIO_SEEDS)))]


class CliPortfolio:
    """One operation is ``simulate`` -> ``stress`` -> ``sensitivity`` via ``cli.main``."""
    COMMANDS = ("simulate", "stress", "sensitivity")
    #: ten inputs times three s-functions, plus the one pair
    SENSITIVITY_ROWS_PER_STRESS = 10 * 3 + 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.scenario_seed = cli_scenario_seed(seed)
        self.work_dir = work_dir
        self.references = load_references()["cli_portfolio"][str(self.scenario_seed)]
        self.summary: bytes | None = None
        self.bytes_written = 0
        self.cfg_path = work_dir / "run.yaml"
        self.out_dir = work_dir / "out"
        self.config: dict = {}

    def setup(self):
        """Write the configuration; warm up with a full pass on a small scenario."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        warm_dir = self.work_dir / "warm"
        warm_cfg = self.work_dir / "warm.yaml"
        write_config(warm_cfg, cli_config(warm_dir, self.scenario_seed, n_samples=2000))
        for command in self.COMMANDS:
            if cli.main([command, str(warm_cfg)]) != 0:
                raise RuntimeError(f"warm-up {command} failed")
        shutil.rmtree(warm_dir)
        self.config = cli_config(self.out_dir, self.scenario_seed)
        write_config(self.cfg_path, self.config)

    def counters(self) -> dict:
        return {"cli.bytes_written": self.bytes_written}

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def ops(self, cycle: int = 0) -> list[Op]:
        return [Op("cli_pass", self._run, self._check)]

    def _run(self):
        captured: list = []
        times = {}
        codes = {}
        for command in self.COMMANDS:
            if command == "stress":
                with Patcher() as patch:
                    patch.function(ws.reweight, "rn_weights", lambda fn: _capturing(fn, captured))
                    t0 = time.perf_counter()
                    codes[command] = cli.main([command, str(self.cfg_path)])
            else:
                t0 = time.perf_counter()
                codes[command] = cli.main([command, str(self.cfg_path)])
            times[f"{command}_s"] = time.perf_counter() - t0
        return {"codes": codes, "times": times, "weights": captured}

    def _check(self, result):
        _require(all(c == 0 for c in result["codes"].values()), f"exit codes {result['codes']}")
        summary = (self.out_dir / "summary.txt").read_bytes()
        if self.summary is None:
            self.summary = summary
        _require(summary == self.summary, "summary.txt differs between passes")
        parsed = parse_summary(summary.decode("utf-8"))
        names = [s["name"] for s in self.config["stresses"]]
        _require(list(parsed) == names, f"summary stresses {list(parsed)}")
        _require(len(result["weights"]) == len(names), "weights not captured for every stress")
        for name, wset in zip(names, result["weights"]):
            entry = parsed[name]
            _require(entry.get("converged", False), f"{name} did not converge")
            q = read_csv_column(self.out_dir / f"{name}_quantiles.csv", "stressed_q")
            check_nondecreasing(q, name)
            scale = max(1.0, float(np.abs(q).max()))
            _require(all(abs(r) <= SOLVER_TOL * scale for r in entry["residuals"]),
                     f"{name}: residuals {entry['residuals']}")
            check_reference(self.references[name], entry["w2"], entry["multipliers"], name)
            w = read_csv_column(self.out_dir / f"{name}_weights.csv", "weight")
            _require(np.array_equal(w, wset.w), f"{name}: weights CSV does not round-trip")
        s = read_csv_column(self.out_dir / "sensitivity.csv", "S")
        _require(s.size == len(names) * self.SENSITIVITY_ROWS_PER_STRESS,
                 f"sensitivity rows {s.size}")
        _require(bool(np.all(np.abs(s) <= 1.0)), "sensitivity S outside [-1, 1]")
        self.bytes_written = sum(p.stat().st_size for p in self.out_dir.iterdir())
        return result["times"]


def _capturing(fn: Callable, sink: list) -> Callable:
    def capture(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    return capture


WORKLOADS = ("cli_portfolio", "solve_sweep", "smooth_fit")


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "cli_portfolio":
        return CliPortfolio(seed, work_dir)
    if name == "solve_sweep":
        return SolveSweep(seed)
    if name == "smooth_fit":
        return SmoothFit(seed)
    raise ValueError(f"unknown workload {name!r}")
