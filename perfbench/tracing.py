"""Spans around the public functions of each wstress layer, from outside.

The program is not changed: ``Patcher`` rebinds a function in every wstress
module that holds it (``stress_solvers`` binds ``pav`` and ``spav`` at import,
the CLI binds most of the library), and restores the originals on exit.
Spans stay in memory and are aggregated per cycle; ``write_spans`` dumps them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import sys
import time
from pathlib import Path
from typing import Any, Callable


class Patcher:
    """Rebind functions at every wstress lookup site; undo on ``restore``."""

    def __init__(self):
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def function(self, module, attr: str, make_wrapper: Callable[[Callable], Callable]):
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in _wstress_modules():
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._undo.append((mod, key, original))
                setattr(mod, key, wrapper)

    def method(self, cls, attr: str, make_wrapper: Callable[[Callable], Callable]):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def restore(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def _wstress_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "wstress" or name.startswith("wstress."))]


class Tracer:
    """Spans as ``[name, start, end, parent, info]`` rows; parent -1 is the root."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), None, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(i, [])):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def _solve_info(args, kwargs, model):
    grid, spec = args[0], args[1]
    zeta = kwargs.get("zeta", args[2] if len(args) > 2 else 0.0)
    digest = hashlib.sha1(grid.q.tobytes())
    digest.update(pickle.dumps((spec, float(zeta))))
    return {"evaluations": int(model.evaluations), "key": digest.hexdigest()}


def _spav_info(args, kwargs, result):
    return {"n": len(args[0])}


def _read_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


#: (module, attribute, info hook); a span is named "<module>.<attribute>".
FUNCTIONS = (
    ("isotonic", "pav", None),
    ("isotonic", "spav", _spav_info),
    ("stress_solvers", "solve", _solve_info),
    ("stress_solvers", "solve_rm", None),
    ("stress_solvers", "solve_mean_var_rm", None),
    ("stress_solvers", "solve_utility_rm", None),
    ("stress_solvers", "solve_integral", None),
    ("stress_solvers", "solve_var", None),
    ("stress_solvers", "multiplier_search", None),
    ("kde", "kde_density", None),
    ("kde", "silverman_bandwidth", None),
    ("distributions", "discretize", None),
    ("distributions", "cdf_and_density", None),
    ("reweight", "rn_weights", None),
    ("sensitivity", "reverse_sensitivity", None),
    ("sensitivity", "delta_measure", None),
    ("scenario", "generate", None),
    ("cli", "read_sample_csv", _read_info),
    ("cli", "run_simulate", None),
    ("cli", "run_stress", None),
    ("cli", "run_sensitivity", None),
)
METHODS = (("distributions", "Empirical", "pdf"),)


def install(patcher: Patcher, tracer: Tracer):
    """Wrap every traced function and method of wstress with ``tracer`` spans."""
    import wstress  # noqa: F401  (every submodule is imported by the package)
    from wstress import cli  # noqa: F401

    for mod_name, attr, info in FUNCTIONS:
        module = sys.modules[f"wstress.{mod_name}"]
        name = f"{mod_name}.{attr}"
        patcher.function(module, attr, lambda fn, name=name, info=info: tracer.wrap(name, fn, info))
    for mod_name, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"wstress.{mod_name}"], cls_name)
        name = f"{mod_name}.{cls_name}.{attr}"
        patcher.method(cls, attr, lambda fn, name=name: tracer.wrap(name, fn))


#: Per-layer metrics and their units; counts must repeat exactly per seed.
COUNT_METRICS = [f"{m}.{a}.calls" for m, a in (
    ("isotonic", "pav"), ("isotonic", "spav"), ("stress_solvers", "solve"),
    ("stress_solvers", "multiplier_search"), ("kde", "kde_density"),
    ("kde", "silverman_bandwidth"), ("distributions.Empirical", "pdf"),
    ("reweight", "rn_weights"), ("sensitivity", "reverse_sensitivity"),
    ("sensitivity", "delta_measure"))] + [
    "stress_solvers.evaluations", "cli.bytes_written", "cli.bytes_read"]
SELF_METRICS = [f"{name}.self_s" for name in (
    "isotonic.pav", "isotonic.spav", "stress_solvers.solve_rm",
    "stress_solvers.solve_mean_var_rm", "stress_solvers.solve_utility_rm",
    "stress_solvers.solve_integral", "stress_solvers.solve_var",
    "stress_solvers.multiplier_search", "kde.kde_density", "kde.silverman_bandwidth",
    "distributions.Empirical.pdf", "distributions.discretize",
    "distributions.cdf_and_density", "reweight.rn_weights",
    "sensitivity.reverse_sensitivity", "sensitivity.delta_measure", "scenario.generate",
    "cli.read_sample_csv", "cli.run_simulate", "cli.run_stress", "cli.run_sensitivity")]
RATIO_METRICS = ["stress_solvers.evaluations_per_solve", "stress_solvers.solve.distinct_ratio",
                 "isotonic.spav.doubling_ratio", "trace.overhead_frac"]
LAYER_UNITS = {**{m: "bytes" if m.startswith("cli.bytes") else "count" for m in COUNT_METRICS},
               **{m: "s" for m in SELF_METRICS}, **{m: "ratio" for m in RATIO_METRICS}}


def cycle_layers(spans: list[list], extra_counts: dict) -> tuple[dict, dict]:
    """Aggregate one traced cycle into (exact counts, other metrics) by metric name.

    ``isotonic.spav.doubling_ratio`` is the total spav time at n=2048 over
    the total at n=1024 (the same zetas are fitted at both sizes), and 0
    where either size was not fitted.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    spav_by_n: dict[int, float] = {}
    evaluations = 0
    keys = set()
    bytes_read = 0
    for (name, start, end, _, info), own in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if name == "stress_solvers.solve":
            evaluations += info["evaluations"]
            keys.add(info["key"])
        elif name == "isotonic.spav":
            spav_by_n[info["n"]] = spav_by_n.get(info["n"], 0.0) + end - start
        elif name == "cli.read_sample_csv":
            bytes_read += info["bytes"]
    counts = {m: calls.get(m[: -len(".calls")], 0) for m in COUNT_METRICS if m.endswith(".calls")}
    counts["stress_solvers.evaluations"] = evaluations
    counts["cli.bytes_read"] = bytes_read
    counts["cli.bytes_written"] = int(extra_counts.get("cli.bytes_written", 0))
    solves = calls.get("stress_solvers.solve", 0)
    derived = {m: self_s.get(m[: -len(".self_s")], 0.0) for m in SELF_METRICS}
    derived["stress_solvers.evaluations_per_solve"] = evaluations / solves if solves else 0.0
    derived["stress_solvers.solve.distinct_ratio"] = len(keys) / solves if solves else 0.0
    small, large = spav_by_n.get(1024), spav_by_n.get(2048)
    derived["isotonic.spav.doubling_ratio"] = large / small if small and large else 0.0
    return counts, derived


def write_spans(path: Path, cycles: list[list[list]]):
    """One JSON object per span: cycle, name, start, end, parent, info."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(cycles):
            for name, start, end, parent, info in spans:
                fh.write(json.dumps({"cycle": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "info": info}) + "\n")
