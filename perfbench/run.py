"""wstress benchmark: one process, one client, closed loop.

    python3 perfbench/run.py --workload <cli_portfolio|solve_sweep|smooth_fit|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics and the tracing overhead.  The
last line of standard output is the JSON result; the line before it is a
JSON report with the environment block and the metrics that are not part of
the result (per-command times, the tail percentile, the failure fraction).
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402  (after the start time, like every other import)
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
#: Seconds a workload may take in all, set-up included; runs must end in 180.
RUN_LIMIT_S = 150
END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
#: Report-only metrics printed with the result metrics (see README.md).
REPORT_UNITS = {"failed_frac": "ratio", "simulate_s": "s", "stress_s": "s", "sensitivity_s": "s"}


def _import_library():
    """Pin BLAS to one thread, then import wstress from the checkout's ``src``.

    Exits with code 2 when the sources are not there.  One process and at
    most two threads, BLAS included: the pin must precede numpy's import.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "wstress" / "__init__.py").is_file():
        print(f"error: no wstress sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import wstress
    import wstress.cli  # noqa: F401

    if Path(wstress.__file__).resolve().parent != (SRC / "wstress").resolve():
        print(f"error: imported wstress from {wstress.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "wstress").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git``; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 limit_s: float) -> dict:
    from harness import measure, measure_traced, median_setup, time_limit
    from tracing import LAYER_UNITS
    from workloads import make_workload

    work_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    workload = make_workload(name, seed, work_dir)
    try:
        with time_limit(limit_s):
            setup_s, setup_times = median_setup(workload.setup, SETUP_REPEATS)
            if trace:
                spans_path = WORK / f"spans-{name}-{seed}.jsonl"
                metrics, report, attempted, failed = measure_traced(workload, seconds, spans_path)
                report["spans_file"] = str(spans_path.relative_to(ROOT))
                metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in metrics.items()}
            else:
                values, report, attempted, failed = measure(workload, seconds)
                values["setup_s"] = import_s + setup_s
                values["peak_rss_mb"] = peak_rss_mb()
                metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    finally:
        workload.close()
    report.update({"import_s": import_s, "setup_runs_s": setup_times,
                   "environment": environment(name, seed)})
    correct = failed == 0 and report.get("counts_repeat", True)
    return {"result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics},
            "report": report}


def main(argv=None, import_s: float = 0.0) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    started = _T0
    for name in names:
        limit_s = RUN_LIMIT_S - (time.perf_counter() - started)
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace), import_s, limit_s)
        started = time.perf_counter()
        outcomes[name] = outcome
        for metric, m in sorted(outcome["result"]["metrics"].items()):
            print(f"{name:14s} {metric:45s} {m['value']:.6g} {m['unit']}")
        report = outcome["report"]
        for key, unit in REPORT_UNITS.items():
            if key in report:
                print(f"{name:14s} {key:45s} {report[key]:.6g} {unit}")
        tail = report.get("op_s_tail")
        if tail:
            print(f"{name:14s} {'op_s_tail':45s} {tail['value']:.6g} s "
                  f"(p{tail['percentile']:g} of {tail['samples']} operations)")
    if args.workload == "all":
        results = [o["result"] for o in outcomes.values()]
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, o in outcomes.items()
                        for k, v in o["result"]["metrics"].items()},
        }
        report = {n: o["report"] for n, o in outcomes.items()}
    else:
        result, report = outcomes[args.workload]["result"], outcomes[args.workload]["report"]
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _import_library()
    sys.exit(main(import_s=time.perf_counter() - _T0))
