#!/usr/bin/env python3
"""Run every workload over several seeds and record the figures.

    python3 bench/baseline.py [--seeds 1,2,...] [--out bench/baseline.json]

Run from the root of a tbforge source tree. It prints every end-to-end
metric of every workload by name and unit, with failed_frac and
sim_calls_per_row. For each workload and end-to-end metric the file
records the median, the quartiles and their spread (interquartile range /
median) over the seeds, as ``statistics.quantiles(values, n=4)`` gives
them, next to the bound in BENCHMARK.json, and the per-layer metrics of
one traced run. It also records the machine (nproc, Python), the seeds,
and the layer map of layers.PER_LAYER: which end-to-end metric each
per-layer metric should move, and on which workloads.
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

import layers

BENCH = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
        "layer_map": [{"metric": name, "moves": moves, "on": list(on)}
                      for name, _, _, moves, on in layers.PER_LAYER],
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}, "per_layer_seed": seeds[0],
                 "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "bound": bound, "values": values}
            print(f"{workload:16s} {name:20s} {median:10.4f} {units[name]:10s} "
                  f"spread {entry['end_to_end'][name]['spread']:.4f} bound {bound}",
                  flush=True)
        print(f"{workload:16s} {'failed_frac':20s} "
              f"{entry['failed'] / entry['attempted']:10.4f} frac", flush=True)
        print(f"{workload:16s} {'sim_calls_per_row':20s} "
              f"{entry['per_layer']['sim_calls_per_row']:10.4f} calls/row", flush=True)
        report["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
