"""The four benchmark workloads and their correctness gates.

Every workload is a sequence of equal passes.  A pass makes the
workload's main calls (``classify``, ``sweep-A8-r2``) and decides every
map of its panel, interleaved with them, so that every workload reports
the same per-map metrics.  A panel is drawn once from a fixed seed,
uniformly within each (group, rank) stratum; ``--seed`` and the pass
index relabel each map by a seeded element of its group, which keeps its
verdict and its cost, so the same seed always gives the same inputs and
different seeds give different inputs of the same difficulty.  The
program receives only the generated maps.

All calls go through the public API of normgroups (``cli.main``,
``is_k_normalizing``, ``is_a_normalizing``, ``check_pair``), looked up on
their modules at call time so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import random
import types
from dataclasses import dataclass, field
from typing import Callable

from speed import Meter

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

DEFAULT_SEED = 0
CLASSIFY_DEGREES = (4, 5, 6, 7, 12)


def load_package() -> types.SimpleNamespace:
    """The normgroups modules, by name (the package re-exports shadow some)."""
    names = ("catalog", "groups", "bitset", "semigroups", "normalizing", "cli", "transform")
    mods = {n: importlib.import_module(f"normgroups.{n}") for n in names}
    mods["catalog_module"] = mods.pop("catalog")
    return types.SimpleNamespace(**mods)


@dataclass
class Observations:
    """What one run saw: per-pass and per-map intervals, gate failures.

    An interval is a pair of ``meter`` stamps.  ``checks`` and
    ``replays`` hold one entry per panel map: its pass and the intervals
    of its calls, one per relabeled copy.  ``ms`` turns them into the
    latency of every call, by pass, once the run is over; each call
    carries the weight 1 / (calls of its map), so every map weighs the
    same in a percentile however many copies it has.
    """

    meter: Meter = field(default_factory=Meter)
    passes: list[tuple] = field(default_factory=list)
    checks: list[tuple] = field(default_factory=list)
    replays: list[tuple] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    # (pass, index within pass, status) of every decided map, "failed" included
    statuses: list[tuple[int, int, str]] = field(default_factory=list)
    # told the id of each workload item as it starts (the tracer listens)
    on_item: Callable = lambda item: None

    def seconds(self, intervals: list[tuple]) -> list[float]:
        return [self.meter.seconds(a, b) for a, b in intervals]

    def ms(self, samples: list[tuple[int, list[tuple]]]) -> dict[int, list[tuple]]:
        """{pass: [(latency in ms, weight), ...]}"""
        by_pass: dict[int, list[tuple]] = {}
        for p, calls in samples:
            by_pass.setdefault(p, []).extend(
                (self.meter.seconds(a, b) * 1e3, 1 / len(calls)) for a, b in calls)
        return by_pass

    def fail(self, what: str, err: BaseException) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {type(err).__name__}: {err}"[:300])


# -- sampling --------------------------------------------------------------------


def random_map(rng: random.Random, n: int, rank: int) -> tuple[int, ...]:
    """A map on n points with exactly `rank` image points, uniform among them.

    Every image set of a given size has the same number of surjections
    onto it, so a uniform image set followed by a uniform surjection onto
    it is uniform over all maps of that rank.
    """
    image = rng.sample(range(n), rank)
    while True:
        pick = [rng.randrange(rank) for _ in range(n)]
        if len(set(pick)) == rank:
            return tuple(image[i] for i in pick)


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def relabel(images: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate h^-1 a h, which sends h(x) to h(a(x)).

    For h in G this keeps the verdict (a^h G lies in <a^G> iff aG does,
    since <a^G> and G are closed under conjugation by h) and the work:
    the conjugate set a^G is the same, and the R class of a^h is the
    image of the R class of a under that conjugation.
    """
    out = [0] * len(images)
    for x, y in enumerate(images):
        out[h[x]] = h[y]
    return tuple(out)


# -- per-map phase -----------------------------------------------------------------


def decide(ng, obs: Observations, group, copies, *, pass_index: int, index: int):
    """is_a_normalizing on every relabeled copy of one panel map.

    The verdicts, or None if a call failed.  Relabeling keeps the
    verdict, so every copy must give the same status.
    """
    norm = ng.normalizing
    obs.on_item((pass_index, index))
    calls, verdicts = [], []
    for images in copies:
        a = ng.transform.Transformation(images)
        obs.attempted += 1
        t0 = obs.meter.stamp()
        try:
            v = norm.is_a_normalizing(group, a)
        except Exception as e:  # MemoryError included: counted, and the run goes on
            obs.fail(f"{group.label} {list(a.one_based())}", e)
            obs.statuses.append((pass_index, index, "failed"))
            return None
        calls.append((t0, obs.meter.stamp()))
        verdicts.append(v)
        if v.status == norm.STATUS_INCONCLUSIVE:
            obs.failed += 1
            obs.failures.append(f"{group.label} {list(a.one_based())}: inconclusive")
            obs.statuses.append((pass_index, index, v.status))
            return None
    statuses = sorted({v.status for v in verdicts})
    if len(statuses) > 1:
        obs.wrong.append(f"{group.label} panel map {index}: copies disagree, {statuses}")
    obs.statuses.append((pass_index, index, verdicts[0].status))
    obs.checks.append((pass_index, calls))
    return verdicts


def replay(ng, obs: Observations, group, pairs, expect: str, pass_index: int) -> None:
    """check_pair(group, a, g) for every (a, g) of one map; each must give `expect`."""
    norm = ng.normalizing
    calls = []
    for a, g in pairs:
        obs.attempted += 1
        t0 = obs.meter.stamp()
        try:
            r = norm.check_pair(group, a, g)
        except Exception as e:
            obs.fail(f"replay {group.label} {list(a.one_based())}", e)
            return
        calls.append((t0, obs.meter.stamp()))
        if r.status == norm.STATUS_INCONCLUSIVE:
            obs.failed += 1
            return
        if r.status != expect:
            obs.wrong.append(
                f"replay of {list(a.one_based())} with g={g.cycle_string()} under "
                f"{group.label}: {r.status}, expected {expect}"
            )
            return
    obs.replays.append((pass_index, calls))


def seeded_element(rng: random.Random, group):
    elements = group.elements()
    return elements[rng.randrange(len(elements))]


def decide_panel(ng, obs: Observations, workload: "Workload", seed: int, index: int,
                 tiny: bool, part: range | None = None) -> None:
    """Decide the panel maps with index in `part` (default all), relabeled.

    Each map is decided in ``workload.copies(label)`` copies, each
    relabeled by its own seeded group element.  A group listed as normalizing must
    never produce a negative.  Every negative replays its witness and
    must stay not-normalizing; where the workload asks for it, a
    positive replays a seeded group element and must stay normalizing.
    """
    norm = ng.normalizing
    rng = pass_rng(workload.name, seed, index)
    table = norm.CLASSIFICATION_TABLE
    panel = workload.panel(tiny)
    part = range(len(panel)) if part is None else part
    for k, (label, n, images) in enumerate(panel):
        group = ng.catalog_module.catalog(label, n)
        # draw for every map, so a map's relabeling does not depend on `part`
        hs = [seeded_element(rng, group) for _ in range(workload.copies(label))]
        g = seeded_element(rng, group)
        if k not in part:
            continue
        copies = [relabel(images, h.images) for h in hs]
        verdicts = decide(ng, obs, group, copies, pass_index=index, index=k)
        if verdicts is None:
            continue
        if verdicts[0].status == norm.STATUS_NOT:
            if label in table.get(n, ()):
                obs.wrong.append(f"{label} {list(verdicts[0].map.one_based())}: not-normalizing")
            replay(ng, obs, group, [(v.map, v.witness.g) for v in verdicts], norm.STATUS_NOT,
                   index)
        elif workload.replay_positive(label):
            replay(ng, obs, group, [(v.map, g) for v in verdicts], norm.STATUS_NORMALIZING,
                   index)


# -- workloads --------------------------------------------------------------------


def draw_panel(workload: str, strata) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    """count maps per (label, degree, rank) stratum, uniform within the rank.

    The panel is drawn once from a fixed seed; --seed relabels it.
    """
    rng = random.Random(f"{workload}/panel")
    return tuple(
        (label, n, random_map(rng, n, rank))
        for label, n, rank, count in strata
        for _ in range(count)
    )


def _classify_degrees(tiny: bool) -> tuple[int, ...]:
    return (4, 5) if tiny else CLASSIFY_DEGREES


def classify_groups(tiny: bool):
    from normgroups.catalog import catalog_labels

    return [(label, n) for n in _classify_degrees(tiny) for label in catalog_labels(n)]


@functools.lru_cache(maxsize=None)
def classify_panel(tiny: bool):
    # degree 7 weighs more: its maps form the latency tail, and p90 needs
    # them dense there to stay put from run to run
    per_stratum = {n: 1 if tiny else 3 for n in (4, 5, 6)} | {7: 8}
    return draw_panel("classify", [
        (label, n, rank, per_stratum[n])
        for label, n in classify_groups(tiny)
        if n <= 7 and label != "trivial"
        for rank in range(2, n)
    ])


def classify_reference(n: int) -> str:
    with open(os.path.join(REFERENCE_DIR, f"classify-{n}.json"), encoding="utf-8") as fh:
        return fh.read()


def classify_output(ng, n: int) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ng.cli.main(["classify", "--degree", str(n), "--format", "json"])
    return rc, buf.getvalue()


def classify_steps(tiny: bool) -> list[Callable]:
    return [functools.partial(classify_step, n=n) for n in _classify_degrees(tiny)]


def classify_step(ng, obs: Observations, n: int) -> None:
    obs.on_item(("classify", n))
    obs.attempted += 1
    try:
        rc, text = classify_output(ng, n)
    except Exception as e:
        obs.fail(f"classify --degree {n}", e)
        return
    if rc != 0:
        obs.wrong.append(f"classify --degree {n}: exit code {rc}")
    if text != classify_reference(n):
        obs.wrong.append(f"classify --degree {n}: JSON report differs from the reference")


def sweep_steps(tiny: bool) -> list[Callable]:
    return [functools.partial(sweep_step, n=6 if tiny else 8)]


def sweep_step(ng, obs: Observations, n: int) -> None:
    norm = ng.normalizing
    group = ng.catalog_module.catalog(f"A{n}", n)
    obs.on_item(("sweep", n))
    obs.attempted += 1
    try:
        v = norm.is_k_normalizing(group, 2)
    except Exception as e:
        obs.fail(f"is_k_normalizing(A{n}, 2)", e)
        return
    if v.status != norm.STATUS_NORMALIZING:
        obs.wrong.append(f"is_k_normalizing(A{n}, 2): {v.status}")


@functools.lru_cache(maxsize=None)
def sweep_panel(tiny: bool):
    return draw_panel("sweep-A8-r2", [("A6", 6, 2, 4)] if tiny else [("A8", 8, 2, 100)])


@functools.lru_cache(maxsize=None)
def deg9_panel(tiny: bool):
    if tiny:
        return draw_panel("maps-deg9", [("PSL(2,8)", 9, 2, 1), ("A9", 9, 2, 1)])
    # cheap PSL(2,8) ranks weigh more so the latency percentiles have samples
    psl = {2: 4, 3: 4, 4: 4, 5: 4, 6: 4, 7: 1, 8: 1}
    return draw_panel("maps-deg9", [("PSL(2,8)", 9, r, c) for r, c in psl.items()]
                      + [("A9", 9, r, 1) for r in range(2, 9)])


@functools.lru_cache(maxsize=None)
def agl_panel(tiny: bool):
    return draw_panel("maps-agl17-r4", [("AGL(1,7)", 7, 4, 10 if tiny else 150)])


@dataclass(frozen=True)
class Workload:
    name: str
    groups: Callable  # tiny -> [(label, degree)] built in set-up
    panel: Callable  # tiny -> ((label, degree, images), ...)
    replay_positive: Callable  # label -> replay positives of this group?
    steps: Callable = lambda tiny: []  # tiny -> [step(ng, obs)], the main calls
    # label -> relabeled copies decided per panel map, each a call of its own
    copies: Callable = lambda label: 1

    def run_pass(self, ng, obs: Observations, seed: int, index: int, tiny: bool) -> None:
        """The main calls, with the panel cut into parts decided between them.

        Spreading the per-map phase over the whole pass makes its
        latencies sample the same stretch of machine time as wall_s.
        """
        steps = self.steps(tiny)
        size = len(self.panel(tiny))
        cuts = [size * i // (len(steps) + 1) for i in range(len(steps) + 2)]
        decide_panel(ng, obs, self, seed, index, tiny, range(cuts[0], cuts[1]))
        for i, step in enumerate(steps, start=1):
            step(ng, obs)
            decide_panel(ng, obs, self, seed, index, tiny, range(cuts[i], cuts[i + 1]))


# -- recorded panel statuses ---------------------------------------------------------


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"panel-{workload}.json")


def status_digest(rows) -> str:
    h = hashlib.sha256()
    for index, status in rows:
        h.update(f"{index} {status}\n".encode())
    return h.hexdigest()


def check_statuses(workload: str, obs: Observations) -> None:
    """Compare per-map statuses with those recorded for the panel.

    Relabeling keeps verdicts, so every seed and pass must reproduce the
    recorded status of each panel map.  A map that failed now or when
    recorded is counted by failed_ratio instead, so a later fix of a
    failure does not trip this gate.
    """
    with open(reference_path(workload), encoding="utf-8") as fh:
        ref = json.load(fh)
    rows = [tuple(r) for r in ref["statuses"]]
    if status_digest(rows) != ref["digest"]:
        obs.wrong.append(f"{workload}: recorded statuses do not match their digest")
        return
    recorded = dict(rows)
    for p, i, s in obs.statuses:
        want = recorded.get(i)
        if want is None or "failed" in (s, want):
            continue
        if s != want:
            obs.wrong.append(f"{workload}: pass {p} map {i} is {s}, recorded {want}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify", classify_groups, classify_panel, lambda label: True, classify_steps,
                 copies=lambda label: 3),
        Workload(
            "sweep-A8-r2", lambda tiny: [("A6", 6)] if tiny else [("A8", 8)],
            sweep_panel, lambda label: True, sweep_steps, copies=lambda label: 3,
        ),
        Workload(
            "maps-deg9", lambda tiny: [("PSL(2,8)", 9), ("A9", 9)],
            # A9 replays would double the workload's cost
            deg9_panel, lambda label: label == "PSL(2,8)",
            # an A9 map costs up to 100 PSL(2,8) maps
            copies=lambda label: 5 if label == "PSL(2,8)" else 2,
        ),
        Workload("maps-agl17-r4", lambda tiny: [("AGL(1,7)", 7)], agl_panel, lambda label: False,
                 copies=lambda label: 5),
    )
}
