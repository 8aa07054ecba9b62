"""Write perfbench/BASELINE.json: medians, quartiles and dominant layers.

    python3 perfbench/spread.py --workload NAME --seeds 81-90   # each workload
    python3 perfbench/baseline.py --seeds 81-90

Reads the runs of the given seeds from ``perfbench/out/spread-<workload>.jsonl``
(the last run of each seed counts), runs every workload once more with
``--trace 1`` and writes each end-to-end metric's median, quartiles
(statistics.quantiles, n=4) and spread, the traced per-layer metrics and
each workload's dominant layer, with the machine and commit measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

from spread import seeds_from
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def end_to_end(workload: str, seeds: list[int]) -> dict:
    runs = {}
    with open(os.path.join(HERE, "out", f"spread-{workload}.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            if r["seed"] in seeds:
                runs[r["seed"]] = r
    missing = sorted(set(seeds) - set(runs))
    if missing:
        raise SystemExit(f"{workload}: no run of seeds {missing}; run spread.py first")
    out = {
        "runs": len(runs),
        "correct": all(r["correct"] for r in runs.values()),
        "failed_ratio_median": statistics.median(r["failed"] / r["attempted"] for r in runs.values()),
    }
    for name in next(iter(runs.values()))["metrics"]:
        xs = [r["metrics"][name]["value"] for r in runs.values()]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "unit": runs[seeds[0]]["metrics"][name]["unit"]}
    return out


def traced(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace 1 exited {proc.returncode}\n{proc.stderr[-2000:]}")
    m = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    layers = {k.split(".")[1]: v for k, v in m.items() if k.startswith("layer.") and k.endswith(".self_s")}
    spans = {k: v for k, v in m.items()
             if k.endswith("_s") and not k.startswith(("layer.", "trace."))}
    top = max(spans, key=spans.get)
    return {
        "seed": seed,
        "trace.wall_s": m["trace.wall_s"],
        "trace.overhead_s": m["trace.overhead_s"],
        "dominant_layer": max(layers, key=layers.get),
        "dominant_span": top,
        "dominant_span_share_of_traced_wall": spans[top] / m["trace.wall_s"],
        "layer_self_s": layers,
        "metrics": m,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="81-90")
    p.add_argument("--trace-seed", type=int, default=1)
    args = p.parse_args()
    seeds = seeds_from(args.seeds)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=ROOT).stdout.strip()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    baseline = {
        "commit": commit,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
                    "numpy": np.__version__},
        "run_seconds": seconds,
        "seeds": args.seeds,
        "end_to_end": {w: end_to_end(w, seeds) for w in WORKLOADS},
        "per_layer": {w: traced(w, args.trace_seed, seconds) for w in WORKLOADS},
    }
    with open(os.path.join(HERE, "BASELINE.json"), "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    for w, b in baseline["per_layer"].items():
        print(f"{w}: {b['dominant_span']} {b['dominant_span_share_of_traced_wall']:.0%} "
              f"of the traced pass; dominant layer {b['dominant_layer']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
