"""Benchmark of the normgroups decision engine: four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One process runs one workload serially.  It runs passes of fixed,
seeded work until the next pass would end after ``--seconds``; at least
one pass always runs.  It builds the workload's groups several times
before the first pass and again after every pass (``setup_s`` is the
median).  Times of untraced runs are in reference seconds (see
``speed.py``), which a drift of the host's speed does not move.  Every
verdict is checked, and the last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs pass 0
once untraced and once with spans around every module boundary, and
reports the per-layer metrics; the spans go to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.

The process limits its own address space to ``AS_LIMIT_BYTES``, so the
induced-group blow-up on high-rank degree-9 maps becomes a counted
``MemoryError`` instead of exhausting the machine.  A wrong verdict sets
``"correct": false`` and the exit code to 1.
"""

from __future__ import annotations

import os

# numpy's thread pools would both use more cores and reserve address space
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import bisect
import itertools
import json
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

AS_LIMIT_BYTES = 3 * 2**29  # 1.5 GiB
# set-up repetitions: before the first pass, then after every pass, so
# that setup_s samples the whole run and not one moment of a noisy host
SETUP_FIRST = (5, 1.0)  # (at least this many, for at least this many seconds)
SETUP_AFTER_PASS = (1, 0.2)

_clock = time.perf_counter


def setup_once(ng, specs, meter) -> tuple:
    """Build the workload's groups and their element and inverse matrices.

    catalog() caches its groups, so the cache is emptied first; the
    groups built last stay cached for the passes.  The interval, as a
    pair of meter stamps.
    """
    build = getattr(ng.catalog_module, "_build", None)
    if hasattr(build, "cache_clear"):
        build.cache_clear()
    t0 = meter.stamp()
    for label, n in specs:
        g = ng.catalog_module.catalog(label, n)
        g.element_matrix()
        g.inverse_matrix()
    return t0, meter.stamp()


def setup(ng, specs, meter, intervals: list, reps: int, budget_s: float) -> None:
    """Append set-up intervals: at least `reps`, more while under `budget_s` in all."""
    start = _clock()
    for i in itertools.count():
        if i >= reps and _clock() - start >= budget_s:
            return
        intervals.append(setup_once(ng, specs, meter))


def percentile(samples: list[tuple[float, float]], q: int) -> float:
    """The q-th percentile of (value, weight) samples.

    Each sample sits at the middle of its share of the total weight, and
    the percentile interpolates linearly between neighbours; with equal
    weights this is the (i - 0.5) / n definition.
    """
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    at, acc = [], 0.0
    for _, w in samples:
        at.append((acc + w / 2) / total)
        acc += w
    p = q / 100
    i = bisect.bisect_right(at, p)
    if i == 0:
        return samples[0][0]
    if i == len(at):
        return samples[-1][0]
    f = (p - at[i - 1]) / (at[i] - at[i - 1])
    return samples[i - 1][0] + f * (samples[i][0] - samples[i - 1][0])


def pass_percentile(by_pass: dict[int, list[tuple]], q: int) -> float:
    """The median over passes of each pass's q-th percentile.

    Every pass decides the same panel, so a pass's percentile always
    sits at the same rank, however many passes the run makes.
    """
    return statistics.median(percentile(v, q) for v in by_pass.values())


def run_passes(ng, workload, obs, seed: int, seconds: float, tiny: bool,
               after_pass) -> None:
    start = _clock()
    index = 0
    while True:
        t0 = _clock()
        a = obs.meter.stamp()
        workload.run_pass(ng, obs, seed, index, tiny)
        obs.passes.append((a, obs.meter.stamp()))
        last = _clock() - t0
        after_pass()
        index += 1
        if _clock() - start + last > seconds:
            return


def end_to_end(obs, setup_intervals: list) -> dict:
    return {
        "setup_s": (statistics.median(obs.seconds(setup_intervals)), "s"),
        "wall_s": (statistics.median(obs.seconds(obs.passes)), "s"),
        "check_ms_p50": (pass_percentile(obs.ms(obs.checks), 50), "ms"),
        "check_ms_p90": (pass_percentile(obs.ms(obs.checks), 90), "ms"),
        "replay_ms_p50": (pass_percentile(obs.ms(obs.replays), 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(ng, workload, obs, seed: int, tiny: bool) -> dict:
    from tracer import Tracer

    t0 = _clock()
    workload.run_pass(ng, obs, seed, 0, tiny)
    plain_s = _clock() - t0
    tracer = Tracer()
    obs.on_item = lambda item: setattr(tracer, "item", item)
    tracer.install(ng)
    try:
        setup_once(ng, workload.groups(tiny), obs.meter)
        t0 = _clock()
        workload.run_pass(ng, obs, seed, 0, tiny)
        traced_s = _clock() - t0
    finally:
        tracer.unpatch()
        obs.on_item = lambda item: None
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.jsonl"))
    for where in tracer.absent:
        print(f"trace: boundary {where} is absent; it records no spans", file=sys.stderr)
    units = {"_s": "s", "calls": "count", "ratio": "ratio"}
    out = {}
    for name, value in tracer.metrics().items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        out[name] = (value, unit)
    out["trace.wall_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False):
    """One benchmark run; (result object, observations)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, Observations, check_statuses, load_package

    ng = load_package()
    workload = WORKLOADS[name]
    obs = Observations()
    specs = workload.groups(tiny)
    setups: list[tuple] = []
    if trace:
        setup(ng, specs, obs.meter, setups, *SETUP_FIRST)
        metrics = per_layer(ng, workload, obs, seed, tiny)
    else:
        obs.meter.start()
        try:
            setup(ng, specs, obs.meter, setups, *SETUP_FIRST)
            run_passes(ng, workload, obs, seed, seconds, tiny,
                       lambda: setup(ng, specs, obs.meter, setups, *SETUP_AFTER_PASS))
        finally:
            obs.meter.stop()
        metrics = end_to_end(obs, setups)
    if not tiny:
        check_statuses(name, obs)
    result = {
        "correct": not obs.wrong,
        "attempted": obs.attempted,
        "failed": obs.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, obs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("classify", "sweep-A8-r2", "maps-deg9", "maps-agl17-r4"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))

    result, obs = run(args.workload, args.seed, args.seconds, bool(args.trace))

    for line in obs.wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    for line in obs.failures:
        print(f"failed: {line}", file=sys.stderr)
    raw = " ".join(f"{b[0] - a[0]:.3f}" for a, b in obs.passes)
    ref = " ".join(f"{s:.3f}" for s in obs.seconds(obs.passes))
    print(f"workload {args.workload}  seed {args.seed}  pass walls [{raw}] s, "
          f"in reference seconds [{ref}]  maps checked {len(obs.checks)}  "
          f"replays {len(obs.replays)}  meter samples {len(obs.meter.durations)}")
    print(f"  failed_ratio {obs.failed / max(obs.attempted, 1):.4f} "
          f"({obs.failed} of {obs.attempted} operations)")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
