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
Each command reads all of it through ``_get`` before it creates ``out``.
Every emitted CSV carries the configuration hash in a leading comment line
(the simulate sample CSV keeps a bare header for interoperability; its hash
lives in the metadata sidecar).  ``simulate`` also writes the parsed sample
table beside its CSV (``samples.npz``), which later reads use in place of a
parse while it holds the sha256 of the CSV's bytes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import zipfile
from itertools import chain, islice
from pathlib import Path

import numpy as np
import yaml

from .distributions import (
    DEFAULT_GRID_N,
    MAX_GRID_N,
    MIN_GRID_N,
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
from .errors import (
    InputColumnError,
    NoSolutionError,
    NotConvergedError,
    ValidationError,
    WstressError,
)
from .isotonic import spav
from .reweight import SampleSet, rn_weights
from .risk_measures import (
    GAMMA_KINDS,
    HARAUtility,
    eval_rm,
    expected_utility,
    make_gamma,
    mean_sd,
    var,
    var_plus,
)
from .scenario import SpatialConfig, default_locations, generate
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

FLOAT_FMT = "%.17g"
#: the ``%`` conversion of a CSV column, by its dtype kind
_CELL_FMT = {"f": FLOAT_FMT, "i": "%d", "u": "%d", "b": "%d", "U": "%s"}
#: rows formatted per ``%`` operation by ``_write_csv``; bounds its memory
CSV_CHUNK_ROWS = 8192
#: bytes read per step by ``_sha256``; bounds its memory
HASH_CHUNK_BYTES = 1 << 20


class ConfigError(WstressError):
    """The run configuration is malformed."""


# ----------------------------------------------------------------------------
# configuration reading

_REQUIRED = object()
#: how ``_get`` names a kind in its messages
_KIND_NAMES = {str: "a string", list: "a list", dict: "a mapping", bool: "true or false",
               float: "a number", int: "an integer"}


def _get(section, key: str, kind, default=_REQUIRED, where: str = "config"):
    """``section[key]`` as ``kind``: the one place a configuration value is decoded.

    A ``str``, ``list``, ``dict``, ``bool`` or ``int`` value is type checked
    (an integral float counts as an ``int``); any other ``kind`` converts it,
    but not from a boolean.  An absent or null key gives ``default`` or,
    without one, an error.  Errors are :class:`ConfigError` naming ``where``
    (the path of ``section``, which must be a mapping) and ``key``.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}")
    if key not in section and default is _REQUIRED:
        raise ConfigError(f"{where} is missing {key!r}")
    value = section.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)  # 4096.0 is the integer 4096
    if isinstance(value, bool) != (kind is bool):
        pass  # true and false are the values of a bool key and of no other
    elif kind in (str, list, dict, bool, int):
        if isinstance(value, kind):
            return value
    else:
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{where} {key!r} must be {_KIND_NAMES.get(kind, 'numeric')}, got {value!r}")


def load_config(path: str, overrides: dict) -> dict:
    """The YAML configuration at ``path`` with the command-line overrides applied.

    Fills in the top-level defaults and stores ``grid_n`` as an int and
    ``zeta`` as a float; ``config_hash`` sees every other key as written.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a mapping")
    defaults = {"grid_n": DEFAULT_GRID_N, "zeta": 0.0, "seed": 0, "out": "wstress-out"}
    config = {**defaults, **config, **{k: v for k, v in overrides.items() if v is not None}}
    config["grid_n"] = _get(config, "grid_n", int)
    if not MIN_GRID_N <= config["grid_n"] <= MAX_GRID_N:
        raise ConfigError(f"config 'grid_n' must lie in [{MIN_GRID_N}, {MAX_GRID_N}], "
                          f"got {config['grid_n']:.6g}")
    config["zeta"] = _get(config, "zeta", float)
    return config


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _make_out(config: dict) -> Path:
    """Create the output directory ``out``; each command calls this after its last check."""
    out_dir = Path(_get(config, "out", str))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# ----------------------------------------------------------------------------
# sample and baseline resolution


def _sha256(path) -> str:
    """The sha256 of a file's bytes, read ``HASH_CHUNK_BYTES`` at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(HASH_CHUNK_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _copy_path(csv_path) -> Path:
    """Where the parsed copy of a CSV table lives: beside it, with the suffix ``.npz``."""
    return Path(csv_path).with_suffix(".npz")


def _write_table_copy(csv_path: Path, header: list[str], data: np.ndarray):
    """Save ``header`` and ``data``, the parse of the CSV at ``csv_path``, with the CSV's sha256."""
    np.savez(_copy_path(csv_path), header=np.array(header), data=data,
             csv_sha256=np.array(_sha256(csv_path)), allow_pickle=False)


def _read_table_copy(path) -> tuple[list[str], np.ndarray] | None:
    """The saved parse of the CSV at ``path``, or None unless it is whole and its hash matches.

    A missing or unreadable copy, a missing key, or a header or data of the
    wrong shape or dtype gives None; only a copy that passes these is
    checked against the sha256 of the CSV's bytes now.
    """
    try:  # np.load leaves a file it opened itself open when the zip is corrupt
        with open(_copy_path(path), "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            header, data, sha = npz["header"], npz["data"], npz["csv_sha256"]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    fits = (header.ndim == 1 and header.dtype.kind == "U" and data.dtype == np.float64
            and data.ndim == 2 and data.flags.c_contiguous and data.shape[1] == header.size)
    if not fits or str(sha) != _sha256(path):
        return None
    return header.tolist(), data


def _read_csv_table(path: str) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV table: a header row, then rows of floats.

    Blank lines and lines starting with ``#`` are skipped.  Returns the
    stripped column names and the data as a (rows, columns) float array;
    an unreadable or non-UTF-8 file, a missing data row, a non-numeric cell,
    a ragged row or an empty or repeated column name raises :class:`ConfigError`; a
    leading byte-order mark is skipped.  A copy that ``simulate`` saved
    beside the CSV is returned instead of a parse while the sha256 of the
    CSV's bytes matches the one it holds; it equals the parse bit for bit,
    and its header is checked the same way.
    Otherwise the header goes through ``csv.reader`` and the data lines are
    parsed in one ``np.loadtxt`` call, which accepts the same quoted cells,
    CRLF endings and padded cells.  The file streams through the hash and
    the parser, so the text is never held whole.
    """
    try:
        copy = _read_table_copy(path)
        if copy is not None:
            header, data = copy
        else:
            with open(path, "r", encoding="utf-8-sig", newline="") as fh:
                lines = (ln for ln in fh if ln.strip("\r\n") and not ln.startswith("#"))
                first = list(islice(lines, 2))
                if len(first) < 2:
                    raise ConfigError(f"{path} has no data rows")
                header = [h.strip() for h in next(csv.reader(first[:1]))]
                data = np.loadtxt(chain(first[1:], lines), delimiter=",", quotechar='"',
                                  comments=None, ndmin=2)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: data rows must be numeric and equally long ({exc})") from exc
    if data.shape[1] != len(header):
        raise ConfigError(f"{path}: {data.shape[1]} data columns under {len(header)} names")
    if "" in header:
        raise ConfigError(f"{path}: column {header.index('') + 1} has no name")
    if repeated := [name for j, name in enumerate(header) if name in header[:j]]:
        raise ConfigError(f"{path}: column {repeated[0]!r} is repeated")
    return header, data


def read_sample_csv(path: str, output_column: str = "Y") -> SampleSet:
    """A sample CSV's sample set: every column but ``output_column`` and ``theta`` is an input."""
    header, data = _read_csv_table(path)
    if output_column not in header:
        raise ConfigError(f"sample file lacks output column {output_column!r}")
    input_cols = [(name, j) for j, name in enumerate(header)
                  if name not in (output_column, "theta")]
    return SampleSet(X=data[:, [j for _, j in input_cols]],
                     Y=data[:, header.index(output_column)],
                     columns=tuple(name for name, _ in input_cols))


def resolve_samples(config: dict) -> SampleSet | None:
    """The samples of the ``input`` section (a CSV or the scenario), or None without one."""
    section = _get(config, "input", dict, None)
    if section is None:
        return None
    csv_path = _get(section, "csv", str, None, "input")
    if csv_path is not None:
        return read_sample_csv(csv_path, _get(section, "output_column", str, "Y", "input"))
    if "scenario" in section:
        return generate(_scenario_config(config)).samples
    raise ConfigError("input section needs either 'csv' or 'scenario'")


def _scenario_config(config: dict) -> SpatialConfig:
    """The spatial scenario of ``input.scenario``; its seed defaults to the run seed."""
    where = "input.scenario"
    section = _get(_get(config, "input", dict, {}), "scenario", dict, {}, "input")
    seed = _get(section, "seed", int, None, where)
    return SpatialConfig(
        n_samples=_get(section, "n_samples", int, 100_000, where),
        seed=_get(config, "seed", int) if seed is None else seed,
        locations=_get(section, "locations", lambda v: np.asarray(v, dtype=float),
                       default_locations(), where),
    )


def resolve_baseline(config: dict, samples: SampleSet | None):
    section = _get(config, "baseline", dict, {"kind": "empirical"})
    kind = _get(section, "kind", str, "empirical", "baseline").lower()
    where = f"{kind} baseline"
    if kind == "empirical":
        if samples is None:
            raise ConfigError("empirical baseline requires input samples")
        return Empirical(samples.Y)
    if kind in ("lognormal", "normal"):
        family = Lognormal if kind == "lognormal" else Normal
        return family(mu=_get(section, "mu", float, where=where),
                      sigma=_get(section, "sigma", float, where=where))
    if kind == "gamma":
        return Gamma(shape=_get(section, "shape", float, where=where),
                     rate=_get(section, "rate", float, where=where),
                     shift=_get(section, "shift", float, 0.0, where))
    raise ConfigError(f"unknown baseline kind {kind!r}")


# ----------------------------------------------------------------------------
# stress construction


def _resolve_target(entry: dict, baseline_value: float, where: str) -> float:
    """``target``, or the baseline value scaled by ``1 + bump``."""
    target = _get(entry, "target", float, None, where)
    if target is not None:
        return target
    bump = _get(entry, "bump", float, None, where)
    if bump is None:
        raise ConfigError(f"{where} needs either 'target' or 'bump'")
    return baseline_value * (1.0 + bump)


def _rm_constraints(entry: dict, baseline: QuantileGrid, where: str) -> tuple[RmConstraint, ...]:
    """The risk-measure ``constraints`` of a stress entry."""
    out = []
    for i, sub in enumerate(_get(entry, "constraints", list, [], where)):
        at = f"{where} constraint {i}"
        kind = _get(sub, "gamma", str, "es", at)
        _, names = GAMMA_KINDS.get(kind.lower(), (None, ()))
        params = {k: _get(sub, k, float, where=at) for k in names}
        weight = make_gamma(kind, baseline.n, **params)
        target = _resolve_target(sub, eval_rm(baseline, weight), at)
        out.append(RmConstraint(weight=weight, target=target))
    return tuple(out)


def _integral_h(entry: dict, n: int, where: str) -> np.ndarray:
    kind = _get(entry, "h", str, "const", where)
    u = midpoint_grid(n)
    if kind == "const":
        return np.ones(n)
    if kind == "upper_indicator":
        return (u > _get(entry, "alpha", float, where=where)).astype(float)
    if kind == "lower_indicator":
        return (u < _get(entry, "alpha", float, where=where)).astype(float)
    raise ConfigError(f"{where}: unknown integral constraint function {kind!r}")


def _integral_constraints(entry: dict, baseline: QuantileGrid, where: str, key: str, cls, power):
    """The bounds of an integral stress under ``key``: on the grid mean of h * q**power."""
    out = []
    for i, sub in enumerate(_get(entry, key, list, [], where)):
        at = f"{where} {key} {i}"
        h = _integral_h(sub, baseline.n, at)
        bound = _resolve_target(sub, float(np.mean(h * baseline.q**power)), at)
        out.append(cls(h=h, bound=bound, name=_get(sub, "name", str, f"{key}{i}", at)))
    return tuple(out)


def build_stress(entry: dict, baseline: QuantileGrid, where: str = "stress"):
    """The stress spec of one ``stresses`` entry; ``where`` names the entry in errors."""
    kind = _get(entry, "kind", str, where=where).lower()
    if kind == "rm":
        return RmStress(_rm_constraints(entry, baseline, where))
    if kind == "mean_var_rm":
        base_mean, base_sd = mean_sd(baseline)
        mean = _get(entry, "mean", dict, {"bump": 0.0}, where)
        sd = _get(entry, "sd", dict, {"bump": 0.0}, where)
        return MeanVarRm(
            mean=_resolve_target(mean, base_mean, f"{where} mean"),
            sd=_resolve_target(sd, base_sd, f"{where} sd"),
            constraints=_rm_constraints(entry, baseline, where),
        )
    if kind == "var":
        alpha = _get(entry, "alpha", float, where=where)
        side = _get(entry, "side", str, "left", where)
        base = var(baseline, alpha) if side == "left" else var_plus(baseline, alpha)
        return VarStress(alpha=alpha, value=_resolve_target(entry, base, where), kind=side)
    if kind == "utility_rm":
        usec = _get(entry, "utility", dict, {}, where)
        at = f"{where} utility"
        utility = HARAUtility(
            a=_get(usec, "a", float, 1.0, at),
            b=_get(usec, "b", float, 5.0, at),
            eta=_get(usec, "eta", float, 0.5, at),
        )
        floor = _resolve_target(
            _get(entry, "floor", dict, where=where), expected_utility(baseline, utility),
            f"{where} floor",
        )
        return UtilityRm(utility=utility, floor=floor,
                         constraints=_rm_constraints(entry, baseline, where))
    if kind == "integral":
        return IntegralStress(
            linear=_integral_constraints(entry, baseline, where, "linear", LinearConstraint, 1),
            quadratic=_integral_constraints(entry, baseline, where, "quadratic",
                                            QuadraticConstraint, 2),
        )
    raise ConfigError(f"{where}: unknown stress kind {kind!r}")


# ----------------------------------------------------------------------------
# output helpers


def _quote(cell: str) -> str:
    """A text cell as ``csv.writer`` writes it: quoted, quotes doubled, if it has , " CR or LF."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_csv(path: Path, header: list[str], columns: list, hash_line: str | None):
    """Write columns as CSV rows, each cell by its column's dtype kind.

    Floats go by ``FLOAT_FMT``, integers and booleans by ``%d`` (exactly) and
    text by ``%s``, quoted by ``_quote``.  Rows are formatted
    ``CSV_CHUNK_ROWS`` at a time by one ``%`` operation on Python values,
    which format faster than numpy scalars, to the same text.  As with
    ``zip``, the shortest column sets the row count.
    """
    columns = [np.asarray(c) for c in columns]
    columns = [np.array([_quote(v) for v in c.tolist()]) if c.dtype.kind == "U" else c
               for c in columns]
    row_fmt = ",".join(_CELL_FMT[c.dtype.kind] for c in columns) + "\n"
    n_rows = min(map(len, columns), default=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if hash_line:
            fh.write(f"# config_hash={hash_line}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            chunk = [col[start : start + CSV_CHUNK_ROWS].tolist() for col in columns]
            rows = min(CSV_CHUNK_ROWS, n_rows - start)
            fh.write((row_fmt * rows) % tuple(chain.from_iterable(zip(*chunk))))
            del chunk  # or it holds these values while the next chunk's are built (peak RSS)


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
    lines.append(f"w2 = {FLOAT_FMT % model.w2}")
    lines.append(f"zeta = {FLOAT_FMT % model.zeta}")
    mults = ", ".join(FLOAT_FMT % v for v in model.multipliers)
    lines.append(f"multipliers = [{mults}]")
    if model.multipliers_quadratic.size:
        mq = ", ".join(FLOAT_FMT % v for v in model.multipliers_quadratic)
        lines.append(f"multipliers_quadratic = [{mq}]")
    for cname, res in zip(model.constraint_names, model.residuals):
        lines.append(f"constraint {cname}: residual = {FLOAT_FMT % res}")
    lines.append(f"structure = {_structure_flags(model)}")
    return lines


# ----------------------------------------------------------------------------
# subcommands


def _prepare(config: dict):
    """The configuration ``stress`` and ``sensitivity`` share, decoded.

    Checks ``out``, resolves samples and baseline, discretises the baseline
    and builds every stress, whose name must be a distinct plain file name on
    one line and appears in any error it raises.  Returns ({stress name:
    stress spec}, samples, baseline distribution, baseline grid).
    """
    _get(config, "out", str)  # checked now; created once every stress is solved
    entries = _get(config, "stresses", list)
    if not entries:
        raise ConfigError("need at least one stress")
    samples = resolve_samples(config)
    baseline_spec = resolve_baseline(config, samples)
    baseline = discretize(baseline_spec, config["grid_n"])
    stresses = {}
    for i, entry in enumerate(entries):
        at = f"stress {i}"
        name = _get(entry, "name", str, _get(entry, "kind", str, "stress", at), at)
        if (name in ("", ".", "..") or any(c in name for c in "/\\\0")
                or name.splitlines() != [name]):
            raise ConfigError(f"stress name {name!r} is not a plain file name")
        if name in stresses:
            raise ConfigError(f"stress name {name!r} is used twice; give each stress its own name")
        where = f"stress {name!r}"
        try:
            stresses[name] = build_stress(entry, baseline, where)
        except ValidationError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return stresses, samples, baseline_spec, baseline


def run_stress(config: dict) -> tuple[int, str]:
    """Solve every configured stress; returns (exit_code, summary_text).

    Every stress is solved and reweighted before ``out`` exists, so an error
    leaves nothing behind.  The first that has no solution or does not
    converge ends the run; it is recorded in ``summary.txt`` after the
    stresses solved before it.
    """
    chash = config_hash(config)
    stresses, samples, baseline_spec, baseline = _prepare(config)
    grid_n = config["grid_n"]
    zeta = config["zeta"]

    code, solved, failure = EXIT_OK, [], []
    for name, spec in stresses.items():
        try:
            model = solve(baseline, spec, zeta=zeta)
        except (NoSolutionError, NotConvergedError) as exc:
            failure = [f"[stress {name}]", "converged = false",
                       f"error_kind = {type(exc).__name__.removesuffix('Error')}",
                       f"error = {exc}"]
            if getattr(exc, "residuals", None) is not None:
                res = ", ".join(FLOAT_FMT % v for v in np.atleast_1d(exc.residuals))
                failure.append(f"residuals = [{res}]")
            code = _exit_code(exc)
            break
        curve = cdf_and_density(model.stressed, grid_n)
        f_base = np.asarray(baseline_spec.pdf(curve.y), dtype=float)
        wset = None if samples is None else rn_weights(samples, baseline_spec, model.stressed)
        solved.append((name, model, curve, f_base, wset))

    out_dir = _make_out(config)
    lines = [f"config_hash = {chash}", f"grid_n = {grid_n}",
             f"zeta = {FLOAT_FMT % zeta}"]
    for name, model, curve, f_base, wset in solved:
        lines += _summary_stress_lines(name, model)
        _write_csv(out_dir / f"{name}_quantiles.csv", ["u", "baseline_q", "stressed_q"],
                   [baseline.u, baseline.q, model.stressed.q], chash)
        _write_csv(out_dir / f"{name}_density.csv", ["y", "f_baseline", "g_stressed"],
                   [curve.y, f_base, curve.f], chash)
        if wset is not None:
            _write_csv(out_dir / f"{name}_weights.csv", ["row_id", "weight"],
                       [np.arange(wset.n), wset.w], chash)
            lines.append(f"zero_weight_count = {wset.meta['zero_weight_count']}")
            lines.append(f"normalisation = {FLOAT_FMT % wset.meta['normalisation']}")
        else:
            lines.append("weights = not computed (no samples)")
    summary = "\n".join(lines + failure) + "\n"
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    return code, summary


def _s_function(tag, where: str):
    """The s-function a tag names: ``identity``, ``power:<integer>`` or ``tail:<level>``."""
    name, _, param = str(tag).partition(":")
    try:
        if name == "identity":
            return identity_s
        if name == "power":
            k = int(param)
            return lambda x: power_s(x, k)
        if name == "tail" and 0.0 <= (level := float(param)) <= 1.0:
            return lambda x: tail_indicator_s(x, level)
    except ValueError:
        pass
    raise ConfigError(
        f"{where} s-function {tag!r} is not identity, power:<integer> or tail:<level in [0, 1]>"
    )


def _delta_measures(samples, weight_sets: dict) -> list[list[float]]:
    """Per input column: the unweighted delta measure, then one per stress."""
    try:
        return delta_measure(samples.Y, samples.X, [None, *weight_sets.values()])
    except InputColumnError as exc:
        name = samples.columns[exc.column]
        raise ValidationError(f"delta measure of input {name!r}: {exc.reason}") from exc
    except ValidationError as exc:
        raise ValidationError(f"delta measure: {exc}") from exc


def run_sensitivity(config: dict) -> tuple[int, str]:
    chash = config_hash(config)
    where = "sensitivity"
    sens = _get(config, where, dict, {})
    s_functions = [(tag, _s_function(tag, where))
                   for tag in _get(sens, "s_functions", list, ["identity"], where)]
    pairs = _get(sens, "pairs", list, [], where)
    pair_alpha = _get(sens, "pair_alpha", float, 0.95, where)
    if not 0.0 <= pair_alpha <= 1.0:
        raise ConfigError(f"{where} 'pair_alpha' must lie in [0, 1], got {pair_alpha!r}")
    want_delta = _get(sens, "delta", bool, False, where)
    stresses, samples, baseline_spec, baseline = _prepare(config)
    if samples is None:
        raise ConfigError("sensitivity requires input samples")
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(c in samples.columns for c in pair)):
            raise ConfigError(f"{where} pair {i} must name two of the input columns "
                              f"{', '.join(samples.columns)}; got {pair!r}")
    zeta = config["zeta"]
    weight_sets = {name: rn_weights(samples, baseline_spec, solve(baseline, s, zeta=zeta).stressed)
                   for name, s in stresses.items()}
    # per input: the unweighted delta, then one per stress, all from one call
    deltas = (dict(zip(samples.columns, _delta_measures(samples, weight_sets)))
              if want_delta else {})
    # each s-vector is built once, one at a time, and reweighted by every stress
    s_vectors = chain(
        ((col, tag, s_function(samples.column(col)))
         for col in samples.columns for tag, s_function in s_functions),
        ((f"{a}:{b}", f"joint_tail:{pair_alpha}",
          joint_tail_indicator_s(samples.column(a), samples.column(b), pair_alpha))
         for a, b in pairs),
    )
    results = []
    for target, tag, s in s_vectors:
        try:
            results.append((target, tag, reverse_sensitivity(s, list(weight_sets.values()))))
        except ValidationError as exc:  # non-finite s-values, as power:<k> can give
            raise ValidationError(f"sensitivity of {target!r} under {tag!r}: {exc}") from exc
    out_dir = _make_out(config)  # once every value is computed, so an error leaves no out

    header = ["stress", "input", "s_tag", "S", "numerator", "max_bound", "min_bound"]
    if want_delta:
        header += ["delta_baseline", "delta_stressed"]
    rows = []
    for k, name in enumerate(weight_sets):
        for target, tag, per_stress in results:
            res = per_stress[k]
            row = [name, target, tag, res.value, res.numerator, res.max_bound,
                   res.min_bound]
            if want_delta:
                delta = deltas.get(target)
                row += [delta[0], delta[k + 1]] if delta else [float("nan")] * 2
            rows.append(row)

    path = out_dir / "sensitivity.csv"
    _write_csv(path, header, list(zip(*rows)), chash)
    return EXIT_OK, str(path)


def run_simulate(config: dict) -> tuple[int, str]:
    chash = config_hash(config)
    sc_config = _scenario_config(config)
    out = generate(sc_config)
    out_dir = _make_out(config)
    path = out_dir / "samples.csv"
    header = [*out.samples.columns, "Y", "theta"]
    columns = [*out.samples.X.T, out.samples.Y, out.theta]
    _write_csv(path, header, columns, None)
    # the table as a parse of the CSV yields it: the 17-digit cells read back exactly,
    # and column_stack makes the integer theta float
    _write_table_copy(path, header, np.column_stack(columns))
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
    section = _get(config, "smooth", dict, {})
    csv_path = (_get(section, "csv", str, None, "smooth")
                or _get(_get(config, "input", dict, {}), "csv", str, None, "input"))
    if csv_path is None:
        raise ConfigError("smooth needs a CSV path under smooth.csv or input.csv")
    column = _get(section, "column", str, "Y", "smooth")
    header, data = _read_csv_table(csv_path)
    if column not in header:
        raise ConfigError(f"{csv_path} lacks column {column!r}")
    values = data[:, header.index(column)]
    smoothed = spav(values, zeta=config["zeta"])
    out_dir = _make_out(config)
    u = midpoint_grid(values.size)
    path = out_dir / "smoothed.csv"
    _write_csv(path, ["u", "original", "smoothed"], [u, values, smoothed], chash)
    return EXIT_OK, str(path)


# ----------------------------------------------------------------------------
# entry point


def _exit_code(exc: Exception) -> int:
    """3 for NoSolutionError, 2 for NotConvergedError, 1 for any other error."""
    if isinstance(exc, NoSolutionError):
        return EXIT_NO_SOLUTION
    return EXIT_NOT_CONVERGED if isinstance(exc, NotConvergedError) else EXIT_CONFIG


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
    overrides = {key: getattr(args, key) for key in ("seed", "out", "grid_n", "zeta")}
    command = {"stress": run_stress, "sensitivity": run_sensitivity,
               "simulate": run_simulate, "smooth": run_smooth}[args.command]
    try:
        code, _ = command(load_config(args.config, overrides))
        return code
    except (WstressError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
