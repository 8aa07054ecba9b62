"""Acceptance gate: nine end-to-end checks, one verdict line each.

Every test collects its failures, then records a single PASS/FAIL line
in CRITERIA before asserting; conftest prints the collected lines in
the terminal summary.  The full degree 8 and 9 sweeps live in the
exhaustive tier and report supplementary lines.
"""

import math
import os
import random
import tempfile
import time
from fractions import Fraction

import numpy as np
import pytest

from normgroups.catalog import catalog, catalog_degrees, catalog_hash, catalog_labels
from normgroups.groups import PermutationGroup
from normgroups.normalizing import (
    CLASSIFICATION_TABLE,
    KNOWN_FAILING_MAPS,
    M12_WITNESS_MAP,
    STATUS_NORMALIZING,
    STATUS_NOT,
    ConjugacySweep,
    check_pair,
    classify,
    exists_section_mapper,
    is_a_normalizing,
    is_class_normalizing,
    is_normalizing,
    m12_witness_check,
    structural_filters,
)
from normgroups.semigroups import TransSemigroup, certificate_from_matrix
from normgroups.transform import Permutation, Transformation
from semigroup_facts import idempotents, is_idempotent_generated, is_regular

CRITERIA: dict[str, str] = {}


def conclude(key: str, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    CRITERIA[key] = f"criterion {key}: {word} ({detail})"
    assert ok, CRITERIA[key]


def conjugate_set(group, a):
    return {a.conjugated_by(g) for g in group.elements()}


def cache_dir():
    d = os.environ.get("NORMGROUPS_CACHE_DIR") or os.path.join(
        tempfile.gettempdir(), "normgroups-sweeps"
    )
    os.makedirs(d, exist_ok=True)
    return d


# expected classification, kept as a literal so edits to the shipped
# table cannot silently pass
EXPECTED_NORMALIZING = {
    4: {"trivial", "A4", "S4"},
    5: {"trivial", "AGL(1,5)", "A5", "S5"},
    6: {"trivial", "PSL(2,5)", "PGL(2,5)", "A6", "S6"},
    7: {"trivial", "A7", "S7"},
    8: {"trivial", "A8", "S8"},
    9: {"trivial", "PSL(2,8)", "PΓL(2,8)", "A9", "S9"},
    12: {"trivial"},
}

# the published counterexample maps, one per failing candidate
EXPECTED_WITNESS_MAPS = {
    (5, "C5"): (1, 1, 3, 4, 1),
    (5, "D(2*5)"): (1, 1, 1, 3, 2),
    (7, "AGL(1,7)"): (1, 1, 1, 1, 1, 2, 3),
    (8, "AGL(1,8)"): (1, 1, 1, 1, 1, 2, 3, 4),
    (8, "AΓL(1,8)"): (1, 1, 1, 1, 1, 2, 3, 4),
    (8, "ASL(3,2)"): (1, 1, 1, 1, 1, 2, 3, 4),
    (8, "PSL(2,7)"): (1, 1, 1, 1, 1, 2, 3, 5),
    (8, "PGL(2,7)"): (1, 1, 1, 1, 1, 2, 4, 7),
    (9, "ASL(2,3)"): (7, 8, 8, 6, 9, 4, 8, 7, 5),
    (9, "AGL(2,3)"): (7, 8, 8, 6, 9, 4, 8, 7, 5),
}


# -- 1: classification regression --------------------------------------------


def test_classification_small_degrees_and_large_negatives():
    bad = []
    t0 = time.perf_counter()
    if CLASSIFICATION_TABLE != EXPECTED_NORMALIZING:
        bad.append("shipped table differs from expected classification")
    for n in (4, 5, 6, 7):
        report = classify(n)
        got = set(report.normalizing_labels)
        if got != EXPECTED_NORMALIZING[n]:
            bad.append(f"degree {n}: got {sorted(got)}")
    # degrees 8 and 9: every candidate off the expected list must be
    # rejected, and the published witness settles each one quickly
    for n in (8, 9):
        for label in catalog_labels(n):
            if label in EXPECTED_NORMALIZING[n]:
                continue
            wmap = Transformation.from_one_based(EXPECTED_WITNESS_MAPS[(n, label)])
            verdict = is_class_normalizing(catalog(label, n), wmap)
            if verdict.status != STATUS_NOT:
                bad.append(f"degree {n} {label}: {verdict.status}")
    secs = time.perf_counter() - t0
    conclude(
        "1",
        not bad,
        bad[0] if bad else f"degrees 4-7 classified, degree 8-9 negatives rejected, {secs:.1f}s",
    )


@pytest.mark.exhaustive
def test_classification_degree_8_full():
    workers = min(4, os.cpu_count() or 1)
    report = classify(8, workers=workers, cache_dir=cache_dir())
    got = set(report.normalizing_labels)
    conclude(
        "1-exhaustive-deg8",
        got == EXPECTED_NORMALIZING[8],
        f"degree 8 full sweep: {sorted(got)} in {report.seconds:.0f}s",
    )


@pytest.mark.exhaustive
def test_classification_degree_9_full():
    workers = min(4, os.cpu_count() or 1)
    report = classify(9, workers=workers, cache_dir=cache_dir())
    got = set(report.normalizing_labels)
    conclude(
        "1-exhaustive-deg9",
        got == EXPECTED_NORMALIZING[9],
        f"degree 9 full sweep: {sorted(got)} in {report.seconds:.0f}s",
    )


# -- 2: witness reproduction --------------------------------------------------


def test_published_witness_maps_and_m12_witness():
    bad = []
    if KNOWN_FAILING_MAPS != EXPECTED_WITNESS_MAPS:
        bad.append("shipped witness maps differ from the published ones")
    for (n, label), images in sorted(EXPECTED_WITNESS_MAPS.items()):
        group = catalog(label, n)
        verdict = is_class_normalizing(group, Transformation.from_one_based(images))
        if verdict.status != STATUS_NOT or verdict.witness is None:
            bad.append(f"{label}@{n}: {verdict.status}")
            continue
        replay = check_pair(group, verdict.map, verdict.witness.g)
        if replay.status != STATUS_NOT:
            bad.append(f"{label}@{n}: witness does not replay")
    m12 = m12_witness_check()
    want_g = Permutation.parse("(1 3 2)(4 6 5)(7 9 8)", 12)
    if m12.status != STATUS_NOT or m12.witness.g != want_g:
        bad.append("M12 witness permutation not reproduced")
    if m12.map != Transformation.from_one_based(M12_WITNESS_MAP):
        bad.append("M12 witness map not reproduced")
    if check_pair(catalog("M12", 12), m12.map, want_g).status != STATUS_NOT:
        bad.append("M12 witness does not replay")
    conclude(
        "2",
        not bad,
        bad[0] if bad else "7 published maps rejected with replayable g; M12 witness verbatim",
    )


# -- 3: average intersection identity -----------------------------------------


def test_average_intersection_identity():
    rng = random.Random(101)
    bad = []
    groups = pairs = 0
    for n in catalog_degrees():
        points = list(range(n))
        for label in catalog_labels(n):
            group = catalog(label, n)
            if not group.is_transitive():
                continue
            groups += 1
            for _ in range(50):
                A = rng.sample(points, rng.randint(1, n))
                B = rng.sample(points, rng.randint(1, n))
                got = group.average_intersection(A, B)
                if got != Fraction(len(A) * len(B), n):
                    bad.append(f"{label}@{n}: {A} {B} -> {got}")
                pairs += 1
    conclude(
        "3",
        not bad,
        bad[0] if bad else f"|A||B|/n exact for {pairs} pairs over {groups} transitive groups",
    )


# -- 4: the three strategies agree --------------------------------------------


def test_strategies_agree_at_small_degrees():
    bad = []
    cases = 0
    t0 = time.perf_counter()
    for n in range(1, 6):
        for label in catalog_labels(n):
            group = catalog(label, n)
            elements = group.elements()
            for rep, _ in ConjugacySweep(group):
                conj = sorted(conjugate_set(group, rep))
                prods = [rep * g for g in elements]
                sgp = TransSemigroup(conj, min_rank=rep.rank)
                closure_yes = all(sgp.contains(p) for p in prods)
                conj_rows = np.array([c.images for c in conj], dtype=np.int8)
                cert = certificate_from_matrix(conj_rows, rep)
                rows = np.array([p.images for p in prods], dtype=np.int8)
                rclass_yes = bool(cert.contains_products(rows).all())
                pipeline_yes = is_a_normalizing(group, rep).normalizing
                if rclass_yes != closure_yes or pipeline_yes != closure_yes:
                    bad.append(f"{label}@{n} {rep.one_based()}")
                if exists_section_mapper(group, rep) is None:
                    conjset = set(conj)
                    shortcut_yes = all(p in conjset for p in prods)
                    if shortcut_yes != closure_yes:
                        bad.append(f"{label}@{n} {rep.one_based()} shortcut")
                cases += 1
    secs = time.perf_counter() - t0
    conclude(
        "4",
        not bad,
        bad[0] if bad else f"verdicts agree on {cases} classes at degrees <= 5, {secs:.0f}s",
    )


# -- 5: symmetric and alternating groups normalize ----------------------------


def test_symmetric_and_alternating_are_normalizing():
    bad = []
    for n in (4, 5, 6):
        for label in (f"A{n}", f"S{n}"):
            verdict = is_normalizing(catalog(label, n))
            if verdict.status != STATUS_NORMALIZING:
                bad.append(f"{label}: {verdict.status}")
    conclude("5", not bad, bad[0] if bad else "A_n and S_n normalizing for n = 4, 5, 6")


# -- 6: failed structural filters imply not normalizing -----------------------

# eleven intransitive and nine transitive-but-imprimitive groups
FILTER_SUITE = [
    ("C2 fixing a point", 3, ("(1 2)",)),
    ("C2 fixing two points", 4, ("(1 2)",)),
    ("C3 fixing a point", 4, ("(1 2 3)",)),
    ("C2xC2 on split pairs", 4, ("(1 2)", "(3 4)")),
    ("C3 fixing two points", 5, ("(1 2 3)",)),
    ("C4 fixing a point", 5, ("(1 2 3 4)",)),
    ("S3 fixing two points", 5, ("(1 2)", "(1 2 3)")),
    ("diagonal C3", 6, ("(1 2 3)(4 5 6)",)),
    ("C5 fixing a point", 6, ("(1 2 3 4 5)",)),
    ("C3xC2 on split orbits", 6, ("(1 2 3)", "(4 5)")),
    ("C6 fixing a point", 7, ("(1 2 3 4 5 6)",)),
    ("C4", 4, ("(1 2 3 4)",)),
    ("V4 regular", 4, ("(1 2)(3 4)", "(1 3)(2 4)")),
    ("D8", 4, ("(1 2 3 4)", "(1 3)")),
    ("C6", 6, ("(1 2 3 4 5 6)",)),
    ("D12", 6, ("(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)")),
    ("S4 on pairs", 6, ("(1 4 6 3)(2 5)", "(2 4)(3 5)")),
    ("A4 on pairs", 6, ("(1 4 2)(3 5 6)", "(2 5)(3 4)")),
    ("C3 wr C2", 6, ("(1 2 3)", "(4 5 6)", "(1 4)(2 5)(3 6)")),
    ("C2 wr C3", 6, ("(1 2)", "(3 4)", "(5 6)", "(1 3 5)(2 4 6)")),
]


def test_filter_failures_imply_not_normalizing():
    assert len(FILTER_SUITE) == 20
    bad = []
    intransitive = imprimitive = 0
    t0 = time.perf_counter()
    for name, n, cycles in FILTER_SUITE:
        gens = [Permutation.parse(s, n) for s in cycles]
        group = PermutationGroup(gens, degree=n, label=name)
        report = structural_filters(group)
        if report.passed:
            bad.append(f"{name}: filters passed")
            continue
        if group.is_transitive():
            if group.is_primitive():
                bad.append(f"{name}: unexpectedly primitive")
                continue
            imprimitive += 1
        else:
            intransitive += 1
        verdict = is_normalizing(group)
        if verdict.status != STATUS_NOT:
            bad.append(f"{name}: {verdict.status}")
    secs = time.perf_counter() - t0
    if not bad and (intransitive != 11 or imprimitive != 9):
        bad.append(f"suite shape off: {intransitive} intransitive, {imprimitive} imprimitive")
    conclude(
        "6",
        not bad,
        bad[0]
        if bad
        else f"{intransitive}+{imprimitive} filter-failing groups all non-normalizing, {secs:.0f}s",
    )


# -- 7: symmetric-conjugate semigroup identities -------------------------------


def check_conjugate_identities(n, sym, alt, a):
    """Errors for <a^{S_n}> = <a^{A_n}> = <a, S_n> minus S_n on one map."""
    errs = []
    sym_class = TransSemigroup(sorted(conjugate_set(sym, a)))
    sym_set = set(sym_class.elements())
    full = TransSemigroup([a] + list(sym.generators))
    non_perms = {t for t in full.elements() if not t.is_permutation()}
    if sym_set != non_perms:
        errs.append(f"n={n} {a.one_based()}: <a,S_n> minus S_n differs")
    if set(idempotents(sym_class)) != {t for t in non_perms if t * t == t}:
        errs.append(f"n={n} {a.one_based()}: idempotent sets differ")
    if not is_idempotent_generated(sym_class):
        errs.append(f"n={n} {a.one_based()}: not idempotent generated")
    if not is_regular(sym_class):
        errs.append(f"n={n} {a.one_based()}: not regular")
    if alt is not None:
        alt_class = TransSemigroup(sorted(conjugate_set(alt, a)))
        if set(alt_class.elements()) != sym_set:
            errs.append(f"n={n} {a.one_based()}: A_n conjugates generate less")
    return errs


def test_conjugate_semigroup_identities_small_degrees():
    # every singular map is an S_n conjugate of some representative and
    # conjugating a map fixes each side of the identities, so checking
    # the class representatives settles all singular maps; a seeded
    # sample of arbitrary maps is rechecked directly on top
    rng = random.Random(47)
    bad = []
    classes = 0
    for n in (2, 3, 4, 5):
        sym = catalog(f"S{n}", n)
        alt = catalog(f"A{n}", n) if n >= 3 else None  # A_2 is trivial
        for rep, _ in ConjugacySweep(sym):
            bad.extend(check_conjugate_identities(n, sym, alt, rep))
            classes += 1
        picked = 0
        while picked < 10:
            a = Transformation(tuple(rng.randrange(n) for _ in range(n)))
            if a.is_permutation():
                continue
            bad.extend(check_conjugate_identities(n, sym, alt, a))
            picked += 1
    conclude(
        "7",
        not bad,
        bad[0] if bad else f"identities hold for all {classes} singular classes at n = 2..5",
    )


# -- 8: conjugacy-orbit accounting ---------------------------------------------


def run_accounting(n, label):
    group = catalog(label, n)
    sweep = None
    path = os.path.join(cache_dir(), f"deg{n}-{catalog_hash(group)}.sweep")
    if os.path.exists(path):
        try:
            sweep = ConjugacySweep.load(path, group)
        except Exception:
            sweep = None
    if sweep is None:
        sweep = ConjugacySweep(group)
    if not sweep.complete:
        sweep.run_to_end()
    errs = []
    if sweep.singular_seen != n**n - math.factorial(n):
        errs.append(f"{label}@{n}: orbit sizes sum to {sweep.singular_seen}")
    if sweep.bitmap.popcount() != n**n:
        errs.append(f"{label}@{n}: bitmap holds {sweep.bitmap.popcount()} of {n**n}")
    return errs


def test_orbit_accounting_direct_degrees():
    bad = []
    cases = 0
    t0 = time.perf_counter()
    for n in (4, 5, 6, 7):
        for label in catalog_labels(n):
            bad.extend(run_accounting(n, label))
            cases += 1
    secs = time.perf_counter() - t0
    conclude(
        "8",
        not bad,
        bad[0] if bad else f"orbit sizes sum to n^n - n! for {cases} groups at n = 4..7, {secs:.0f}s",
    )


@pytest.mark.exhaustive
def test_orbit_accounting_large_degrees():
    bad = []
    cases = 0
    for n in (8, 9):
        for label in catalog_labels(n):
            bad.extend(run_accounting(n, label))
            cases += 1
    conclude(
        "8-exhaustive",
        not bad,
        bad[0] if bad else f"bitmap population counts confirm totals for {cases} groups at n = 8, 9",
    )


# -- 9: homogeneity spot checks -------------------------------------------------


def test_homogeneity_spot_checks():
    expected = [
        ("C5", 5, (2, 3), True),
        ("C5", 5, (2, 2), False),
        ("D(2*5)", 5, (2, 3), True),
        ("D(2*5)", 5, (2, 2), False),
        ("AGL(1,7)", 7, (3, 4), True),
        ("AGL(1,7)", 7, (3, 3), False),
        ("ASL(2,3)", 9, (4, 5), True),
        ("ASL(2,3)", 9, (3, 4), False),
        ("AGL(2,3)", 9, (4, 5), True),
        ("AGL(2,3)", 9, (3, 4), False),
    ]
    bad = []
    for label, n, (i, j), want in expected:
        got, pairing = catalog(label, n).is_ij_homogeneous(i, j)
        if got != want:
            bad.append(f"{label}: ({i},{j})-homogeneous is {got}")
        if not got and pairing is None:
            bad.append(f"{label}: missing ({i},{j}) witness pairing")
    conclude(
        "9",
        not bad,
        bad[0] if bad else "(2,3)/(3,4)/(4,5) homogeneity verdicts match on all five groups",
    )
