"""Tests of the benchmark's own logic (span accounting, statistics, seeding).

    python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_time_on_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.child", 2.0, 3.0, 1, None],
        ["b", 5.0, 7.0, 0, None],
        ["c", 6.5, 8.0, 0, None],  # overlaps b: the covered union counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.0 - 3.0, 2.0, 1.0, 2.0, 1.5])


def test_tracer_records_parents_and_patcher_restores():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]

    import wstress.isotonic
    import wstress.stress_solvers

    original = wstress.isotonic.pav
    with tracing.Patcher() as patcher:
        patcher.function(wstress.isotonic, "pav", lambda fn: tracer.wrap("pav", fn))
        assert wstress.stress_solvers.pav is wstress.isotonic.pav is not original
    assert wstress.stress_solvers.pav is original and wstress.isotonic.pav is original


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    tail = harness.tail_percentile([float(i) for i in range(1, n + 1)])
    if expected is None:
        assert tail is None
        return
    assert tail["percentile"] == expected and tail["samples"] == n
    assert n - tail["value"] >= 10  # values are ranks here


def test_failing_operations_count_in_failed_frac():
    def boom():
        raise RuntimeError("deliberate")

    def reject(_):
        raise harness.CheckError("deliberately wrong output")

    class Stub:
        def ops(self, cycle):
            return [harness.Op("ok", lambda: 1, lambda r: None),
                    harness.Op("raises", boom, lambda r: None),
                    harness.Op("wrong", lambda: 2, reject)]

    metrics, report, attempted, failed = harness.measure(Stub(), seconds=0.0)
    assert (attempted, failed) == (3, 2)
    assert report["failed_frac"] == pytest.approx(2 / 3)
    assert [name for name, _ in report["failures"]] == ["raises", "wrong"]


def test_seeded_inputs_repeat_and_vary():
    assert wl.draw_sweep_cases(5, 1) == wl.draw_sweep_cases(5, 1)
    assert wl.draw_sweep_cases(5, 1) != wl.draw_sweep_cases(6, 1)
    assert wl.draw_sweep_cases(5, 1) != wl.draw_sweep_cases(5, 2)
    slots = {c.slot for c in wl.draw_sweep_cases(5, 1)}
    assert slots == {s[0] for s in wl.SWEEP_SLOTS}
    a, b = wl.draw_smooth_items(5, 1), wl.draw_smooth_items(5, 1)
    assert len(a) == len(b) == len(wl.FIT_SIZES) * len(wl.FIT_ZETAS) + 3 * len(wl.SMOOTH_ZETAS)
    for x, y in zip(a, b):
        assert x[0] == y[0]
        if x[0] == "fit":
            assert x[1:3] == y[1:3] and np.array_equal(x[3], y[3])
        else:
            assert x[1] == y[1]
    assert wl.cli_scenario_seed(5) == wl.cli_scenario_seed(5) in wl.CLI_SCENARIO_SEEDS


def test_every_drawable_case_has_a_reference():
    refs = wl.load_references()
    assert {c.key for c in wl.catalogue()} == set(refs["solves"])
    assert set(refs["cli_portfolio"]) == {str(s) for s in wl.CLI_SCENARIO_SEEDS}


def test_traced_counts_repeat_and_layers_stay_apart():
    """Two traced cycles of the same inputs give identical counts; the zeta=0
    solves never reach spav or the KDE layer."""
    sweep = wl.SolveSweep(seed=3)
    sweep.baselines = {k: (spec, wl.ws.discretize(spec, wl.GRID_N)) for k, spec in
                       {"lognormal": wl.ws.Lognormal(0.875, 0.5),
                        "gamma": wl.ws.Gamma(shape=2.0, rate=0.5)}.items()}
    cases = [c for c in wl.draw_sweep_cases(3)
             if c.baseline != "empirical" and c.slot != "int_k12"]
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.Patcher() as patcher:
            tracing.install(patcher, tracer)
            cycle = harness.run_cycle([sweep._solve_op(c) for c in cases])
        assert cycle.failures == []
        counts.append(tracing.cycle_layers(tracer.spans, sweep.counters())[0])
    assert counts[0] == counts[1]
    assert counts[0]["stress_solvers.solve.calls"] == len(cases)
    assert counts[0]["isotonic.pav.calls"] > 0 and counts[0]["stress_solvers.evaluations"] > 0
    assert counts[0]["isotonic.spav.calls"] == 0 and counts[0]["kde.kde_density.calls"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
