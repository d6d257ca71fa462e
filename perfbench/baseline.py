#!/usr/bin/env python3
"""Measure the reference figures and write baseline.json beside this file.

    python3 perfbench/baseline.py [--seeds 10]

Runs ``run.py`` the way BENCHMARK.json asks, one fresh process per run: ten
untraced runs per workload (seeds 1..10) and one traced run (seed 1).  For
each end-to-end metric it keeps the median, the quartiles and their spread
(interquartile range over median) next to the metric's bound.  It takes
about half an hour; run it on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args()
    command = [sys.executable if spec["command"][0] == "python3" else spec["command"][0], *spec["command"][1:]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = {
        "what": f"perfbench figures: {args.seeds} untraced runs per workload (seeds 1..{args.seeds}) "
                "and one traced run (seed 1)",
        "machine": f"{os.cpu_count()} CPUs ({platform.machine()}), Python {platform.python_version()}",
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(one_run(command, workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1][1]['metrics']['op_p50_s']['value']:.4g} s",
                  file=sys.stderr)
        summary, traced = one_run(command, workload, 1, seconds, 1)
        entry = {
            "failed": sum(r["failed"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "timed_ops_per_run": [s["timed_ops"] for s, _ in runs],
            "op_tail_percentile": [s["op_tail_percentile"] for s, _ in runs],
            "op_p50_wall_s": [s["op_p50_wall_s"] for s, _ in runs],
            "speed_factor_p50": [s["speed_factor_p50"] for s, _ in runs],
            "end_to_end": {},
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_failed": traced["failed"],
            "absent_spans": summary["absent_spans"],
        }
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            entry["end_to_end"][name] = {**quartiles(values), "bound": metric["bound"], "unit": metric["unit"]}
        out["workloads"][workload] = entry
    out["claim"] = None
    path = HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
