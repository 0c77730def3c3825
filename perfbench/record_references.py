"""Record the reference solutions the benchmark checks its outputs against.

    python3 perfbench/record_references.py

Run from the root of a checkout of the commit whose results are the
reference.  Solves every catalogued case and runs the cli_portfolio stresses
for every pooled scenario seed, then writes ``perfbench/references.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wstress as ws  # noqa: E402
from wstress import cli  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    baselines = wl.make_baselines()
    solves = {}
    for case in wl.catalogue():
        grid = baselines[case.baseline][1]
        model = ws.solve(grid, wl.build_spec(case, grid), zeta=case.zeta)
        solves[case.key] = {"w2": model.w2, "multipliers": wl.model_multipliers(model)}
        print(f"{case.key}: w2={model.w2:.6g} evaluations={model.evaluations}", flush=True)
    portfolio = {}
    work = ROOT / ".perfbench_work" / "references"
    try:
        for seed in wl.CLI_SCENARIO_SEEDS:
            out = work / "out"
            config = wl.cli_config(out, seed)
            cfg = work / "run.yaml"
            work.mkdir(parents=True, exist_ok=True)
            wl.write_config(cfg, config)
            for command in ("simulate", "stress"):
                if cli.main([command, str(cfg)]) != 0:
                    raise SystemExit(f"{command} failed for scenario seed {seed}")
            summary = wl.parse_summary((out / "summary.txt").read_text(encoding="utf-8"))
            portfolio[str(seed)] = {
                name: {"w2": s["w2"], "multipliers": s["multipliers"]}
                for name, s in summary.items()
            }
            print(f"cli scenario seed {seed}: done", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(wl.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"solves": solves, "cli_portfolio": portfolio}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
