"""Batch front-end: ingest samples or a scenario, run stresses, emit CSVs.

Subcommands
-----------
``stress``       solve every configured stress; write per-stress quantile,
                 density, and weight CSVs plus a run summary.
``sensitivity``  reverse sensitivities (and optional delta measures) per
                 stress x input x s-function, as one long CSV.
``simulate``     generate the built-in spatial portfolio sample CSV.
``smooth``       apply the smoothed isotonic fit to one CSV column.

Exit codes: 0 ok, 1 I/O or configuration error, 2 solver non-convergence,
3 no-solution (quantile stress direction).  Configuration is a single YAML
document; ``--seed``, ``--out``, ``--grid-n`` and ``--zeta`` override it.
Every emitted CSV carries the configuration hash in a leading comment line
(the simulate sample CSV keeps a bare header for interoperability; its hash
lives in the metadata sidecar).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import yaml

from .distributions import (
    DEFAULT_GRID_N,
    Empirical,
    Gamma,
    Lognormal,
    Normal,
    QuantileGrid,
    cdf_and_density,
    discretize,
    excess_jumps,
    flat_segments,
    midpoint_grid,
)
from .errors import NoSolutionError, NotConvergedError, WstressError
from .isotonic import spav
from .reweight import SampleSet, rn_weights
from .risk_measures import (
    HARAUtility,
    eval_rm,
    expected_utility,
    make_gamma,
    mean_sd,
    var,
    var_plus,
)
from .scenario import SpatialConfig, generate
from .sensitivity import (
    delta_measure,
    identity_s,
    joint_tail_indicator_s,
    power_s,
    reverse_sensitivity,
    tail_indicator_s,
)
from .stress_solvers import (
    IntegralStress,
    LinearConstraint,
    MeanVarRm,
    QuadraticConstraint,
    RmConstraint,
    RmStress,
    UtilityRm,
    VarStress,
    solve,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_NO_SOLUTION = 3

FLOAT_FMT = "{:.17g}"
#: rows formatted per ``%`` operation by ``_write_csv``; bounds its memory
CSV_CHUNK_ROWS = 8192


class ConfigError(WstressError):
    """The run configuration is malformed."""


# ----------------------------------------------------------------------------
# configuration loading


def load_config(path: str, overrides: dict) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a mapping")
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    config.setdefault("grid_n", DEFAULT_GRID_N)
    config.setdefault("zeta", 0.0)
    config.setdefault("seed", 0)
    config.setdefault("out", "wstress-out")
    for key, kind in (("grid_n", int), ("zeta", float)):
        try:
            config[key] = kind(config[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {key!r} must be a number, got {config[key]!r}") from exc
    return config


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing required key {key!r}")
    return config[key]


# ----------------------------------------------------------------------------
# sample and baseline resolution


def _read_csv_table(path: str) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV table: a header row, then rows of floats.

    Blank lines and lines starting with ``#`` are skipped.  Returns the
    stripped column names and the data as a (rows, columns) float array;
    an unreadable file, a missing data row, a non-numeric cell or a ragged
    row raises :class:`ConfigError`.  The header goes through ``csv.reader``;
    the data lines are parsed in one ``np.loadtxt`` call, which accepts the
    same quoted cells, CRLF endings and padded cells.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = [ln for ln in fh if ln.strip("\r\n") and not ln.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 2:
        raise ConfigError(f"{path} has no data rows")
    header = [h.strip() for h in next(csv.reader(lines[:1]))]
    try:
        data = np.loadtxt(lines[1:], delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: data rows must be numeric and equally long ({exc})") from exc
    if data.shape[1] != len(header):
        raise ConfigError(f"{path}: {data.shape[1]} data columns under {len(header)} names")
    return header, data


def read_sample_csv(path: str, output_column: str = "Y") -> tuple[SampleSet, np.ndarray | None]:
    """Read a sample CSV; returns the sample set and the theta column if present."""
    header, data = _read_csv_table(path)
    if output_column not in header:
        raise ConfigError(f"sample file lacks output column {output_column!r}")
    y = data[:, header.index(output_column)]
    theta = None
    input_cols = []
    for j, name in enumerate(header):
        if name == output_column:
            continue
        if name == "theta":
            theta = data[:, j]
            continue
        input_cols.append((name, j))
    X = data[:, [j for _, j in input_cols]]
    names = tuple(name for name, _ in input_cols)
    return SampleSet(X=X, Y=y, columns=names), theta


def resolve_samples(config: dict) -> tuple[SampleSet | None, np.ndarray | None]:
    section = config.get("input")
    if section is None:
        return None, None
    if "csv" in section:
        return read_sample_csv(section["csv"], section.get("output_column", "Y"))
    if "scenario" in section:
        out = generate(_scenario_config(config))
        return out.samples, out.theta
    raise ConfigError("input section needs either 'csv' or 'scenario'")


def _scenario_config(config: dict) -> SpatialConfig:
    """The spatial scenario of ``input.scenario``; its seed defaults to the run seed."""
    section = (config.get("input") or {}).get("scenario") or {}
    kwargs = {
        "n_samples": int(section.get("n_samples", 100_000)),
        "seed": int(section.get("seed", config["seed"])),
    }
    if "locations" in section:
        kwargs["locations"] = np.asarray(section["locations"], dtype=float)
    return SpatialConfig(**kwargs)


def resolve_baseline(config: dict, samples: SampleSet | None):
    section = config.get("baseline", {"kind": "empirical"})
    kind = section.get("kind", "empirical").lower()

    def number(key, default=None):
        value = section.get(key, default)
        if value is None:
            raise ConfigError(f"{kind} baseline is missing {key!r}")
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{kind} baseline {key!r} must be a number, got {value!r}") from exc

    if kind == "empirical":
        if samples is None:
            raise ConfigError("empirical baseline requires input samples")
        return Empirical(samples.Y)
    if kind == "lognormal":
        return Lognormal(mu=number("mu"), sigma=number("sigma"))
    if kind == "normal":
        return Normal(mu=number("mu"), sigma=number("sigma"))
    if kind == "gamma":
        return Gamma(shape=number("shape"), rate=number("rate"), shift=number("shift", 0.0))
    raise ConfigError(f"unknown baseline kind {kind!r}")


# ----------------------------------------------------------------------------
# stress construction


def _resolve_target(entry: dict, baseline_value: float, what: str) -> float:
    if "target" in entry:
        return float(entry["target"])
    if "bump" in entry:
        return baseline_value * (1.0 + float(entry["bump"]))
    raise ConfigError(f"{what} needs either 'target' or 'bump'")


def _rm_constraints(entries, baseline: QuantileGrid) -> tuple[RmConstraint, ...]:
    out = []
    for entry in entries or []:
        kind = entry.get("gamma", "es")
        params = {
            k: float(entry[k]) for k in ("alpha", "beta", "p") if k in entry
        }
        weight = make_gamma(kind, baseline.n, **params)
        target = _resolve_target(entry, eval_rm(baseline, weight), f"{kind} constraint")
        out.append(RmConstraint(weight=weight, target=target))
    return tuple(out)


def _integral_h(entry: dict, n: int) -> np.ndarray:
    kind = entry.get("h", "const")
    u = midpoint_grid(n)
    if kind == "const":
        return np.ones(n)
    if kind == "upper_indicator":
        return (u > float(entry["alpha"])).astype(float)
    if kind == "lower_indicator":
        return (u < float(entry["alpha"])).astype(float)
    raise ConfigError(f"unknown integral constraint function {kind!r}")


def build_stress(entry: dict, baseline: QuantileGrid):
    kind = _require(entry, "kind").lower()
    if kind == "rm":
        return RmStress(_rm_constraints(_require(entry, "constraints"), baseline))
    if kind == "mean_var_rm":
        base_mean, base_sd = mean_sd(baseline)
        mean = _resolve_target(entry.get("mean", {"bump": 0.0}), base_mean, "mean")
        sd = _resolve_target(entry.get("sd", {"bump": 0.0}), base_sd, "sd")
        return MeanVarRm(
            mean=mean, sd=sd, constraints=_rm_constraints(entry.get("constraints"), baseline)
        )
    if kind == "var":
        alpha = float(_require(entry, "alpha"))
        side = entry.get("side", "left")
        base = var(baseline, alpha) if side == "left" else var_plus(baseline, alpha)
        return VarStress(alpha=alpha, value=_resolve_target(entry, base, "var"), kind=side)
    if kind == "utility_rm":
        usec = entry.get("utility", {})
        utility = HARAUtility(
            a=float(usec.get("a", 1.0)),
            b=float(usec.get("b", 5.0)),
            eta=float(usec.get("eta", 0.5)),
        )
        floor = _resolve_target(
            _require(entry, "floor"), expected_utility(baseline, utility), "utility floor"
        )
        return UtilityRm(
            utility=utility,
            floor=floor,
            constraints=_rm_constraints(entry.get("constraints"), baseline),
        )
    if kind == "integral":
        linear = []
        for sub in entry.get("linear", []) or []:
            h = _integral_h(sub, baseline.n)
            base = float(np.mean(h * baseline.q))
            linear.append(
                LinearConstraint(
                    h=h, bound=_resolve_target(sub, base, "linear bound"),
                    name=sub.get("name", f"linear{len(linear)}"),
                )
            )
        quadratic = []
        for sub in entry.get("quadratic", []) or []:
            h = _integral_h(sub, baseline.n)
            base = float(np.mean(h * baseline.q**2))
            quadratic.append(
                QuadraticConstraint(
                    h=h, bound=_resolve_target(sub, base, "quadratic bound"),
                    name=sub.get("name", f"quadratic{len(quadratic)}"),
                )
            )
        return IntegralStress(linear=tuple(linear), quadratic=tuple(quadratic))
    raise ConfigError(f"unknown stress kind {kind!r}")


# ----------------------------------------------------------------------------
# output helpers


def _column_cells(column) -> tuple[list, str]:
    """A column's cells as a list, with the ``%`` conversion that writes them."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        # plain Python numbers format faster than numpy scalars, to the same text
        return column.tolist(), "%.17g"
    cells = list(column)
    if any(isinstance(v, str) for v in cells):
        return [v if isinstance(v, str) else FLOAT_FMT.format(v) for v in cells], "%s"
    return cells, "%.17g"


def _write_csv(path: Path, header: list[str], columns: list, hash_line: str | None):
    """Write columns as CSV rows: numbers at 17 significant digits, strings as they are.

    Rows are formatted ``CSV_CHUNK_ROWS`` at a time by one ``%`` operation;
    ``%.17g`` gives the same text as ``FLOAT_FMT``.  As with ``zip``, the
    shortest column sets the row count.
    """
    cells = [_column_cells(c) for c in columns]
    row_fmt = ",".join(fmt for _, fmt in cells) + "\n"
    columns = [col for col, _ in cells]
    n_rows = min(map(len, columns), default=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if hash_line:
            fh.write(f"# config_hash={hash_line}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            chunk = [col[start : start + CSV_CHUNK_ROWS] for col in columns]
            rows = min(CSV_CHUNK_ROWS, n_rows - start)
            fh.write((row_fmt * rows) % tuple(chain.from_iterable(zip(*chunk))))


def _structure_flags(model) -> str:
    flats = flat_segments(model.stressed, min_cells=3)
    base_inc = np.diff(model.baseline.q)
    # a jump must beat a global floor and dwarf the local baseline increment,
    # so affine rescaling of a heavy tail does not raise a flag
    jump_floor = 10.0 * max(float(np.median(base_inc)), 1e-12)
    jumps = excess_jumps(model.stressed, model.baseline, np.maximum(jump_floor, base_inc))
    flags = [f"flat@{0.5 * (lo + hi):.3f}" for lo, hi, _ in flats]
    if jumps:
        u, _ = max(jumps, key=lambda jump: jump[1])
        flags.append(f"jump@{u:.3f}")
    return ", ".join(flags) if flags else "none"


def _summary_stress_lines(name: str, model) -> list[str]:
    lines = [f"[stress {name}]", "converged = true"]
    lines.append(f"w2 = {FLOAT_FMT.format(model.w2)}")
    lines.append(f"zeta = {FLOAT_FMT.format(model.zeta)}")
    mults = ", ".join(FLOAT_FMT.format(v) for v in model.multipliers)
    lines.append(f"multipliers = [{mults}]")
    if model.multipliers_quadratic.size:
        mq = ", ".join(FLOAT_FMT.format(v) for v in model.multipliers_quadratic)
        lines.append(f"multipliers_quadratic = [{mq}]")
    for cname, res in zip(model.constraint_names, model.residuals):
        lines.append(f"constraint {cname}: residual = {FLOAT_FMT.format(res)}")
    lines.append(f"structure = {_structure_flags(model)}")
    return lines


# ----------------------------------------------------------------------------
# subcommands


def _prepare(config: dict, samples: SampleSet | None):
    """Shared set-up of ``stress`` and ``sensitivity``.

    Checks ζ and the stress list, resolves samples and baseline, discretises
    the baseline and builds every stress before it creates the output
    directory, so a bad configuration leaves nothing behind.  Returns
    (output directory, [(stress name, stress spec)], samples, baseline
    distribution, baseline grid).
    """
    entries = _require(config, "stresses")
    if not entries:
        raise ConfigError("need at least one stress")
    if not 0.0 <= config["zeta"] < np.inf:
        raise ConfigError("smoothing parameter zeta must be finite and >= 0")
    if samples is None:
        samples, _ = resolve_samples(config)
    baseline_spec = resolve_baseline(config, samples)
    baseline = discretize(baseline_spec, config["grid_n"])
    stresses = []
    for entry in entries:
        name = entry.get("name", entry.get("kind", "stress"))
        try:
            stresses.append((name, build_stress(entry, baseline)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"stress {name!r}: {exc}") from exc
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, stresses, samples, baseline_spec, baseline


def run_stress(config: dict, samples: SampleSet | None = None) -> tuple[int, str]:
    """Solve every configured stress; returns (exit_code, summary_text)."""
    chash = config_hash(config)
    out_dir, stresses, samples, baseline_spec, baseline = _prepare(config, samples)
    grid_n = config["grid_n"]
    zeta = config["zeta"]

    lines = [f"config_hash = {chash}", f"grid_n = {grid_n}",
             f"zeta = {FLOAT_FMT.format(zeta)}"]
    code = EXIT_OK
    for name, spec in stresses:
        try:
            model = solve(baseline, spec, zeta=zeta)
        except NoSolutionError as exc:
            lines += [f"[stress {name}]", "converged = false",
                      "error_kind = NoSolution", f"error = {exc}"]
            code = EXIT_NO_SOLUTION
            break
        except NotConvergedError as exc:
            lines += [f"[stress {name}]", "converged = false",
                      "error_kind = NotConverged", f"error = {exc}"]
            if exc.residuals is not None:
                res = ", ".join(FLOAT_FMT.format(v) for v in np.atleast_1d(exc.residuals))
                lines.append(f"residuals = [{res}]")
            code = EXIT_NOT_CONVERGED
            break
        lines += _summary_stress_lines(name, model)
        _write_csv(
            out_dir / f"{name}_quantiles.csv",
            ["u", "baseline_q", "stressed_q"],
            [baseline.u, baseline.q, model.stressed.q],
            chash,
        )
        curve = cdf_and_density(model.stressed, grid_n)
        f_base = np.asarray(baseline_spec.pdf(curve.y), dtype=float)
        _write_csv(
            out_dir / f"{name}_density.csv",
            ["y", "f_baseline", "g_stressed"],
            [curve.y, f_base, curve.f],
            chash,
        )
        if samples is not None:
            wset = rn_weights(samples, baseline_spec, model.stressed)
            _write_csv(
                out_dir / f"{name}_weights.csv",
                ["row_id", "weight"],
                [np.arange(wset.n, dtype=float), wset.w],
                chash,
            )
            lines.append(f"zero_weight_count = {wset.meta['zero_weight_count']}")
        else:
            lines.append("weights = not computed (no samples)")
    summary = "\n".join(lines) + "\n"
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    return code, summary


_S_BUILDERS = {
    "identity": lambda x, _: identity_s(x),
    "power": lambda x, p: power_s(x, int(p)),
    "tail": lambda x, p: tail_indicator_s(x, float(p)),
}


def _parse_s_tag(tag: str):
    name, _, param = tag.partition(":")
    if name not in _S_BUILDERS:
        raise ConfigError(f"unknown s-function {tag!r}")
    return name, param


def run_sensitivity(config: dict, samples: SampleSet | None = None) -> tuple[int, str]:
    chash = config_hash(config)
    if samples is None and config.get("input") is None:
        raise ConfigError("sensitivity requires input samples")
    sens = config.get("sensitivity", {})
    s_functions = [(tag, *_parse_s_tag(tag)) for tag in sens.get("s_functions", ["identity"])]
    pairs = [tuple(p) for p in sens.get("pairs", [])]
    pair_alpha = float(sens.get("pair_alpha", 0.95))
    want_delta = bool(sens.get("delta", False))
    out_dir, stresses, samples, baseline_spec, baseline = _prepare(config, samples)
    zeta = config["zeta"]

    weight_sets = {}
    for name, spec in stresses:
        model = solve(baseline, spec, zeta=zeta)
        weight_sets[name] = rn_weights(samples, baseline_spec, model.stressed)

    header = ["stress", "input", "s_tag", "S", "numerator", "max_bound", "min_bound"]
    if want_delta:
        header += ["delta_baseline", "delta_stressed"]
    rows = []
    # per input: the unweighted delta, then one per stress, from one call
    deltas = {}
    if want_delta:
        for col in samples.columns:
            deltas[col] = delta_measure(
                samples.Y, samples.column(col), [None, *weight_sets.values()]
            )
    for k, (name, wset) in enumerate(weight_sets.items(), start=1):
        report_rows = []
        for col in samples.columns:
            x = samples.column(col)
            for tag, fn_name, param in s_functions:
                s_vals = _S_BUILDERS[fn_name](x, param)
                report_rows.append((col, tag, reverse_sensitivity(s_vals, wset)))
        for a, b in pairs:
            s_vals = joint_tail_indicator_s(
                samples.column(a), samples.column(b), pair_alpha
            )
            report_rows.append(
                (f"{a}:{b}", f"joint_tail:{pair_alpha}",
                 reverse_sensitivity(s_vals, wset))
            )
        for target, tag, res in report_rows:
            row = [name, target, tag, res.value, res.numerator, res.max_bound,
                   res.min_bound]
            if want_delta:
                delta = deltas.get(target)
                row += [delta[0], delta[k]] if delta else [float("nan")] * 2
            rows.append(row)

    path = out_dir / "sensitivity.csv"
    _write_csv(path, header, list(zip(*rows)), chash)
    return EXIT_OK, str(path)


def run_simulate(config: dict) -> tuple[int, str]:
    chash = config_hash(config)
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    sc_config = _scenario_config(config)
    out = generate(sc_config)
    path = out_dir / "samples.csv"
    _write_csv(
        path,
        [*out.samples.columns, "Y", "theta"],
        [*out.samples.X.T, out.samples.Y, out.theta],
        None,
    )
    meta = {
        "config_hash": chash,
        "seed": sc_config.seed,
        "n_samples": sc_config.n_samples,
        "locations": [[float(v) for v in row] for row in sc_config.locations],
    }
    (out_dir / "samples_meta.yaml").write_text(
        yaml.safe_dump(meta, sort_keys=True), encoding="utf-8"
    )
    return EXIT_OK, str(path)


def run_smooth(config: dict) -> tuple[int, str]:
    chash = config_hash(config)
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    section = config.get("smooth", {})
    csv_path = section.get("csv") or config.get("input", {}).get("csv")
    if csv_path is None:
        raise ConfigError("smooth needs a CSV path under smooth.csv or input.csv")
    column = section.get("column", "Y")
    header, data = _read_csv_table(csv_path)
    if column not in header:
        raise ConfigError(f"{csv_path} lacks column {column!r}")
    values = data[:, header.index(column)]
    zeta = config["zeta"]
    smoothed = spav(values, zeta=zeta)
    u = midpoint_grid(values.size)
    path = out_dir / "smoothed.csv"
    _write_csv(path, ["u", "original", "smoothed"], [u, values, smoothed], chash)
    return EXIT_OK, str(path)


# ----------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wstress",
        description="stressed distributions and reverse sensitivity analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("stress", "sensitivity", "simulate", "smooth"):
        p = sub.add_parser(name)
        p.add_argument("config", help="YAML configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--grid-n", type=int, default=None, dest="grid_n")
        p.add_argument("--zeta", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "out": args.out,
        "grid_n": args.grid_n,
        "zeta": args.zeta,
    }
    try:
        config = load_config(args.config, overrides)
        if args.command == "stress":
            code, _ = run_stress(config)
        elif args.command == "sensitivity":
            code, _ = run_sensitivity(config)
        elif args.command == "simulate":
            code, _ = run_simulate(config)
        else:
            code, _ = run_smooth(config)
        return code
    except NoSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except WstressError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
