"""Smoke test of the benchmark: every workload at tiny size passes its gates.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import types

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS, Observations, check_statuses

END_TO_END = ("setup_s", "wall_s", "check_ms_p50", "check_ms_p90", "replay_ms_p50", "peak_rss_mb")
COUNTS = (
    "normalizing.sweep.orbits", "normalizing.sweep.reps_checked", "normalizing.check.calls",
    "semigroups.certificate.calls", "semigroups.closure.calls", "groups.contains.calls",
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_its_gates(name):
    result, obs = run.run(name, seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"], obs.wrong
    assert result["failed"] == 0, obs.failures
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["sweep-A8-r2", "maps-agl17-r4"])
def test_traced_counts_repeat(name):
    first, _ = run.run(name, seed=5, seconds=0, trace=True, tiny=True)
    second, _ = run.run(name, seed=5, seconds=0, trace=True, tiny=True)
    assert first["correct"] and second["correct"]
    for key in COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["normalizing.check.calls"]["value"] > 0
    assert first["metrics"]["trace.absent"]["value"] == 0


def test_absent_boundary_records_no_spans():
    ng = run_package()
    stripped = types.SimpleNamespace(**vars(ng))
    stripped.semigroups = types.SimpleNamespace()  # as if the module lost its classes
    stripped.normalizing = types.SimpleNamespace(CLASSIFICATION_TABLE={})
    tracer = Tracer()
    tracer.install(stripped)
    try:
        metrics = tracer.metrics()
    finally:
        tracer.unpatch()
    assert "semigroups.TransSemigroup" in tracer.absent
    assert metrics["semigroups.closure.calls"] == 0
    assert metrics["trace.absent"] == len(tracer.absent) > 0


def test_recorded_status_mismatch_is_wrong():
    obs = Observations()
    obs.statuses.append((0, 0, "not-normalizing"))  # every degree-9 panel map normalizes
    check_statuses("maps-deg9", obs)
    assert obs.wrong


def run_package():
    import os
    import sys

    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from workloads import load_package

    return load_package()


def test_percentile_weights_each_map_once():
    # equal weights: the (i - 0.5) / n rule
    assert run.percentile([(x, 1) for x in (1, 2, 3, 4)], 50) == 2.5
    assert run.percentile([(5, 1)], 90) == 5
    # a map in two copies (10, 12) weighs as much as a map in one (1)
    samples = [(1, 1), (10, 0.5), (12, 0.5)]
    assert run.percentile(samples, 25) == 1
    assert run.percentile(samples, 75) == 11


def test_meter_without_samples_gives_raw_seconds():
    from speed import Meter

    meter = Meter()
    assert meter.seconds((1.0, 0.0), (3.0, 0.5)) == 1.5
