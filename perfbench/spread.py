"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload maps-deg9 --seeds 1-10 [--seconds 20]

Runs one process per seed, one after another.  For every metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
interquartile distance as a share of the median, and it appends the raw
results to ``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", f"spread-{args.workload}.jsonl")
    values: dict[str, list[float]] = {}
    for seed in seeds_from(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, "elapsed_s": time.monotonic() - t0, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {time.monotonic() - t0:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
        else:
            q1 = q3 = xs[0]
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
