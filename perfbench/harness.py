"""Closed-loop measurement: one client, each operation starts when the last ends.

A cycle is one pass over a workload's seeded operation list.  A run repeats
whole cycles, so every run measures the same mix of operations, and stops
before the next cycle would take the busy time past the run's budget.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

from tracing import Patcher, Tracer, cycle_layers, install, write_spans


class CheckError(Exception):
    """An operation's output failed a correctness check."""


class Deadline(Exception):
    """The run's time limit passed while an operation was running."""


@contextmanager
def time_limit(seconds: float):
    """Raise ``Deadline`` in the main thread once ``seconds`` have passed, so a
    program that hangs or slows down badly ends the run with failed operations
    instead of overrunning it."""

    def expire(signum, frame):
        raise Deadline(f"run time limit of {seconds:.0f} s passed")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Op(NamedTuple):
    """``run`` is timed; ``check`` validates its result and may return named
    sub-timings of the operation (such as per-command times)."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict | None]


@dataclass
class Cycle:
    """Timings and failures of one pass over the operation list."""

    times: list[tuple[str, float]] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    parts: list[dict] = field(default_factory=list)
    expired: bool = False

    @property
    def busy_s(self) -> float:
        return sum(t for _, t in self.times)


def run_cycle(ops: list[Op], clock: Callable[[], float] = time.perf_counter) -> Cycle:
    """Run every operation once; time ``run`` only, then ``check`` its output.

    An operation fails when ``run`` raises or ``check`` raises; a failed
    operation still counts as attempted, with the time it took.  ``Deadline``
    fails the operation and ends the cycle, marked expired.
    """
    cycle = Cycle()
    for op in ops:
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # a failing operation is measured, not fatal
            cycle.times.append((op.name, clock() - t0))
            cycle.failures.append((op.name, traceback.format_exc(limit=3)))
            cycle.expired = isinstance(exc, Deadline)
            if cycle.expired:
                break
            continue
        cycle.times.append((op.name, clock() - t0))
        try:
            parts = op.check(result)
        except Exception as exc:  # CheckError, or a check that could not run
            cycle.failures.append((op.name, f"{type(exc).__name__}: {exc}"))
            cycle.expired = isinstance(exc, Deadline)
            if cycle.expired:
                break
            continue
        if parts:
            cycle.parts.append(parts)
    return cycle


def keep_going(done_busy: list[float], seconds: float) -> bool:
    """True while one more cycle of average length fits in ``seconds``."""
    return sum(done_busy) + statistics.fmean(done_busy) <= seconds


def tail_percentile(times: list[float],
                    percentiles=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)) -> dict | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``{"percentile", "value", "samples"}`` (nearest-rank value), or
    ``None`` when even the median has fewer than ten samples above it.
    """
    n = len(times)
    ordered = sorted(times)
    for p in percentiles:
        rank = math.ceil(p / 100.0 * n - 1e-9)  # nearest rank, 1-based
        if n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1], "samples": n}
    return None


def median_setup(setup: Callable[[], None], repeats: int,
                 clock: Callable[[], float] = time.perf_counter) -> tuple[float, list[float]]:
    """Run ``setup`` ``repeats`` times; return the median time and all times."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        setup()
        times.append(clock() - t0)
    return statistics.median(times), times


def measure(workload, seconds: float) -> tuple[dict, dict, int, int]:
    """Untraced run of whole cycles; returns (metrics, report, attempted, failed).

    ``ops_per_s`` is the operations of a cycle over the median cycle time: in
    a closed loop without think time, the throughput a caller sees, with the
    median damping the slow phases of a shared machine.
    """
    cycles = []
    while True:
        ops = workload.ops(len(cycles))
        cycles.append(run_cycle(ops))
        if cycles[-1].expired or not keep_going([c.busy_s for c in cycles], seconds):
            break
    times = [t for c in cycles for _, t in c.times]
    attempted = len(times)
    failed = sum(len(c.failures) for c in cycles)
    metrics = {"op_s_p50": statistics.median(times),
               "ops_per_s": len(ops) / statistics.median(c.busy_s for c in cycles)}
    report = {
        "cycles": len(cycles),
        "cycle_s": [c.busy_s for c in cycles],
        "ops_per_cycle": len(ops),
        "failed_frac": failed / attempted,
        "op_s_tail": tail_percentile(times),
        "failures": [f for c in cycles for f in c.failures][:5],
    }
    parts = [p for c in cycles for p in c.parts]
    for key in sorted({k for p in parts for k in p}):
        report[key] = statistics.median(p[key] for p in parts if key in p)
    return metrics, report, attempted, failed


def measure_traced(workload, seconds: float, spans_path: Path) -> tuple[dict, dict, int, int]:
    """Traced run: alternate untraced and traced passes over cycle 0's
    operations within ``seconds``.

    Counts come from the first traced cycle and must repeat exactly in every
    later one, or the run is reported incorrect; timings are medians over
    traced cycles.  ``trace.overhead_frac`` is the median traced cycle time
    over the median untraced one, minus one.
    """
    ops = workload.ops()
    plain, traced, counts, timings, span_log, failures = [], [], [], [], [], []
    attempted = 0
    while True:
        cycle = run_cycle(ops)
        plain.append(cycle.busy_s)
        failures += cycle.failures
        attempted += len(cycle.times)
        if cycle.expired:
            break
        tracer = Tracer()
        with Patcher() as patcher:
            install(patcher, tracer)
            cycle = run_cycle(ops)
        traced.append(cycle.busy_s)
        failures += cycle.failures
        attempted += len(cycle.times)
        if cycle.expired:
            break
        cycle_counts, cycle_timings = cycle_layers(tracer.spans, workload.counters())
        counts.append(cycle_counts)
        timings.append(cycle_timings)
        span_log.append(tracer.spans)
        if not keep_going([a + b for a, b in zip(plain, traced)], seconds):
            break
    write_spans(spans_path, span_log)
    if not counts:  # the time limit passed before a traced cycle completed
        return {}, {"cycles": len(plain) + len(traced), "failures": failures[:5]}, \
            attempted, len(failures)
    metrics: dict = dict(counts[0])
    for key in timings[0]:
        metrics[key] = statistics.median(t[key] for t in timings)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    report = {"cycles": len(plain) + len(traced),
              "counts_repeat": all(c == counts[0] for c in counts), "failures": failures[:5]}
    return metrics, report, attempted, len(failures)
