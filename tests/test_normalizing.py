"""Decision-procedure tests backed by brute-force referees.

The referee for a single map is plain and strategy-free: build the full
closure of the conjugate set (no rank pruning, no R-class reasoning)
and test every product a*g directly.  A slower pure-python closure
cross-checks a sample of those referees in turn.
"""

import json
import os
import random
import tracemalloc
from itertools import combinations, islice, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgroups import normalizing
from normgroups.bitset import Bitmap
from normgroups.catalog import catalog, catalog_degrees, catalog_labels
from normgroups.groups import PermutationGroup
from normgroups.normalizing import (
    KNOWN_FAILING_MAPS,
    M12_WITNESS_G,
    M12_WITNESS_MAP,
    STATUS_NORMALIZING,
    STATUS_NOT,
    ConjugacySweep,
    SweepCacheMismatch,
    check_pair,
    classify,
    exists_section_mapper,
    is_a_normalizing,
    is_class_normalizing,
    is_k_normalizing,
    is_normalizing,
    m12_witness_check,
    structural_filters,
)
from normgroups.semigroups import (
    RClassCertificate,
    TransSemigroup,
    certificate_from_matrix,
    decode_encodings,
    encode_rows,
)
from normgroups.transform import Permutation, Transformation
from criterion import first_escape, group_of
from tuple_search import kernel_members


def conjugate_set(group, a):
    return {a.conjugated_by(g) for g in group.elements()}


def referee_a_normalizing(group, a) -> bool:
    # unpruned closure of the conjugates, then direct membership
    sgp = TransSemigroup(sorted(conjugate_set(group, a)))
    return all(sgp.contains(a * g) for g in group.elements())


def python_closure(gens):
    gens = sorted(set(gens))
    elems = set(gens)
    frontier = list(gens)
    while frontier:
        fresh = []
        for s in frontier:
            for g in gens:
                p = s * g
                if p not in elems:
                    elems.add(p)
                    fresh.append(p)
        frontier = fresh
    return elems


def all_singular(n):
    for images in product(range(n), repeat=n):
        t = Transformation(images)
        if not t.is_permutation():
            yield t


# -- single-map verdicts ---------------------------------------------------


def test_matches_referee_exhaustive_degree_4():
    for label in catalog_labels(4):
        group = catalog(label, 4)
        for rep, _ in ConjugacySweep(group):
            verdict = is_a_normalizing(group, rep)
            assert verdict.status in (STATUS_NORMALIZING, STATUS_NOT)
            assert verdict.normalizing == referee_a_normalizing(group, rep), (
                label,
                rep.one_based(),
            )


@pytest.mark.slow
def test_matches_referee_degree_5():
    rng = random.Random(71)
    for label in catalog_labels(5):
        group = catalog(label, 5)
        reps = [rep for rep, _ in ConjugacySweep(group)]
        if len(reps) > 120:
            reps = rng.sample(reps, 120)
        for rep in reps:
            verdict = is_a_normalizing(group, rep)
            assert verdict.normalizing == referee_a_normalizing(group, rep), (
                label,
                rep.one_based(),
            )


def test_referee_against_python_closure():
    rng = random.Random(93)
    group = catalog("C5", 5)
    reps = [rep for rep, _ in ConjugacySweep(group)]
    for rep in rng.sample(reps, 20):
        conj = sorted(conjugate_set(group, rep))
        closure = python_closure(conj)
        sgp = TransSemigroup(conj)
        assert set(sgp.elements()) == closure
        want = all((rep * g) in closure for g in group.elements())
        assert referee_a_normalizing(group, rep) == want


@st.composite
def groups_and_maps(draw):
    n = draw(st.integers(4, 6))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    images = draw(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n).filter(
            lambda im: len(set(im)) < n
        )
    )
    group = PermutationGroup([Permutation(g) for g in gens], label="random")
    return group, Transformation(images)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(groups_and_maps())
def test_ladder_matches_closure_on_random_groups(case):
    # check_pair and is_a_normalizing share one staged ladder; both must
    # agree with plain membership in the rank-pruned closure
    group, a = case
    oracle = TransSemigroup(sorted(conjugate_set(group, a)), min_rank=a.rank)
    inside = {}
    for g in group.elements():
        pair = check_pair(group, a, g)
        inside[g] = oracle.contains(a * g)
        assert pair.normalizing == inside[g], (a.one_based(), g.cycle_string())
    v = is_a_normalizing(group, a)
    assert v.normalizing == all(inside.values())
    if not v.normalizing:
        assert v.status == STATUS_NOT
        assert not inside[v.witness.g]
        assert check_pair(group, a, v.witness.g).status == STATUS_NOT


def _sym7_on_8_points():
    # Sym{1..7} fixing point 8: intransitive, so it has negatives that
    # reach the r-class stage with thousands of conjugates
    return PermutationGroup(
        [Permutation([1, 2, 3, 4, 5, 6, 0, 7]), Permutation([1, 0, 2, 3, 4, 5, 6, 7])],
        label="Sym{1..7}",
    )


def _certified(checker, a, conj_encs, pick=slice(None)):
    """Which products a*g the certificate over the picked conjugates accepts."""
    rows = decode_encodings(conj_encs[pick], a.degree)
    prods = checker.M[:, np.array(a.images, dtype=np.int64)]
    return certificate_from_matrix(rows, a).contains_products(prods)


def test_conjugate_tiers_accept_only_what_the_full_certificate_accepts():
    # a product R-related to a in <T>, for a in T within a^G, is R-related
    # to a in <a^G>; so no tier may accept a product the full set rejects
    rng = random.Random(29)
    fixed = {"Sym{1..7}": [Transformation.parse("5,2,6,5,7,8,3,5")]}
    wanted = {"A9": 3}
    transported = 0
    for group in (catalog("A7", 7), catalog("S7", 7), _sym7_on_8_points(), catalog("A9", 9)):
        checker = normalizing._MapChecker(group)
        n = group.degree
        maps = list(fixed.get(group.label, []))
        while len(maps) < wanted.get(group.label, 8):
            # A9 at ranks 4 and 5, whose 126 image sets 256 picks do not all reach
            a = Transformation([rng.randrange(n) for _ in range(n)])
            if group.label == "A9" and a.rank not in (4, 5):
                continue
            if not a.is_permutation() and exists_section_mapper(group, a) is not None:
                maps.append(a)
        M = checker.M
        order = M.shape[0]
        label = group.subset_orbits()
        for a in maps:
            image = list(a.image())
            orbit = set(np.flatnonzero(label == label[sum(1 << p for p in image)]).tolist())
            conj_encs = checker._conjugates(a)
            full = _certified(checker, a, conj_encs)
            tiers = [encode_rows(rows) for rows in
                     checker._conjugate_tiers(a, normalizing._orbit_masks(group, a))]
            # each tier's rows are distinct and in ascending encoding order,
            # so the certificate reads the same rows it would decode from them
            for tier in tiers:
                assert (np.diff(tier) > 0).all()
            # every tier lies in a^G and holds a once; each lies in the
            # next, and the last is all of a^G; every set of image(a)'s
            # orbit is the image set of some member of every tier
            for tier in tiers:
                assert tier.tolist().count(a.encode()) == 1
                assert np.isin(tier, conj_encs).all()
                image_sets = {sum(1 << p for p in set(row)) for row in
                              decode_encodings(tier, n).tolist()}
                assert image_sets == orbit, (group.label, a.one_based())
            for smaller, larger in zip(tiers, tiers[1:]):
                assert np.isin(smaller, larger).all()
            assert np.array_equal(tiers[-1], conj_encs)
            # |G| >= 1024 here, so there are exactly two tiers: a conjugated
            # by 256 elements at strided indices and by one element onto each
            # image set those picks miss, then all of a^G
            assert len(tiers) == 2
            at = np.arange(256) * order // 256
            missed = orbit - {sum(1 << p for p in set(row)) for row in M[at][:, image].tolist()}
            tier = tiers[0]
            picked = normalizing._conjugate_encodings(M[at], a)
            movers = np.setdiff1d(tier, picked)
            onto = [sum(1 << p for p in set(row))
                    for row in decode_encodings(movers, n).tolist()]
            assert sorted(onto) == sorted(missed)
            assert np.array_equal(tier, np.union1d(picked, movers))
            accepted = _certified(checker, a, tier)
            assert not (accepted & ~full).any(), (group.label, a.one_based())
            transported += len(missed)
            if a in fixed.get(group.label, []):
                # a known negative: every tier rejects some product, and the
                # exact stage finds the least g whose a*g escapes <a^G>
                assert len(conj_encs) == 2520
                assert [t.shape[0] for t in tiers] == [249, 2520]
                assert not full.all()
                v = is_a_normalizing(group, a)
                assert v.status == STATUS_NOT and v.trace == ("r-class", "closure")
                assert v.witness.g.cycle_string() == "(1 2 3 4 5 6 7)"
                replay = check_pair(group, a, v.witness.g)
                assert replay.status == STATUS_NOT and replay.witness == v.witness
    assert transported > 0


def test_a_negative_builds_one_certificate_per_tier(monkeypatch):
    # the first tier (249 rows) rejects a product, so the second, all 2,520
    # conjugates, decides: two certificates for the check and two for the
    # replay of its witness, with no tier between them
    sizes = []
    certificate = normalizing.certificate_from_matrix

    def spy(rows, a):
        sizes.append(rows.shape[0])
        return certificate(rows, a)

    monkeypatch.setattr(normalizing, "certificate_from_matrix", spy)
    checker = normalizing._MapChecker(_sym7_on_8_points())
    a = Transformation.parse("5,2,6,5,7,8,3,5")
    v = checker.check(a)
    assert v.status == STATUS_NOT and sizes == [249, 2520]
    sizes.clear()
    replay = checker.check_pair(a, v.witness.g)
    assert replay.status == STATUS_NOT and sizes == [249, 2520]


def _row_ladder(checker, a, g=None):
    """The row-wise ladder the image-set r-class stage replaced, as reference.

    Every distinct product a*g as a row, least g first (or the one product
    a*g when g is given); the shortcut on rows; then certificates over
    the conjugates by 256, 512, ... strided elements alone, while 4s <= |G|
    and, past the first, while 7/8 of the picks are distinct, and over all
    of a^G last, each tested with contains_products on the rows the earlier
    tiers rejected; then kernel_members.  Returns (status, trace, witness g).
    """
    group, M = checker.group, checker.M
    elements = group.elements()
    if g is None:
        # the first element of each distinct restriction to image(a)
        keys = encode_rows(M[:, list(a.image())], group.degree)
        at = np.sort(np.unique(keys, return_index=True)[1])
        prods = M[at][:, np.array(a.images)]
    else:
        at = None
        prods = np.array([(a * g).images], dtype=np.int8)

    def witness(i):
        return g if at is None else elements[at[i]]

    conj_encs = normalizing._conjugate_encodings(M, a)
    if not normalizing._has_section_mapper(group, a):
        bad = np.flatnonzero(~np.isin(encode_rows(prods), conj_encs))
        if bad.size:
            return STATUS_NOT, ("shortcut",), witness(bad[0])
        return STATUS_NORMALIZING, ("shortcut",), None
    tiers, size, order = [], 256, M.shape[0]
    while 4 * size <= order:
        tier = normalizing._conjugate_encodings(M[np.arange(size) * order // size], a)
        if size > 256 and 8 * tier.shape[0] < 7 * size:
            break
        tiers.append(tier)
        size *= 2
    bad, rest = np.arange(prods.shape[0]), prods
    for encs in tiers + [conj_encs]:
        out = ~certificate_from_matrix(decode_encodings(encs, a.degree), a).contains_products(rest)
        bad, rest = bad[out], rest[out]
        if not bad.size:
            return STATUS_NORMALIZING, ("r-class",), None
    inside = kernel_members(decode_encodings(conj_encs, a.degree), a, rest)
    if inside.all():
        return STATUS_NORMALIZING, ("r-class", "closure"), None
    return STATUS_NOT, ("r-class", "closure"), witness(bad[inside.argmin()])


def test_image_set_ladder_matches_the_row_wise_ladder():
    # deciding the r-class stage on image sets, with image-complete tiers,
    # changes only what a check costs: status, trace and witness of every
    # check and every replay equal those of the row-wise ladder
    rng = random.Random(2113)
    cases = [("AGL(1,7)", 7), ("PSL(2,7)", 8), ("PGL(2,7)", 8), ("C5", 5), ("D(2*5)", 5),
             ("AGL(1,5)", 5), ("A7", 7), ("S7", 7), ("A8", 8), ("ASL(3,2)", 8),
             ("PSL(2,8)", 9), ("PΓL(2,8)", 9), ("ASL(2,3)", 9), ("A9", 9)]
    seen = set()
    negatives = 0
    for label, n in cases:
        group = catalog(label, n)
        checker = normalizing._MapChecker(group)
        elements = group.elements()
        maps = [Transformation.from_one_based(KNOWN_FAILING_MAPS[n, label])] if (
            (n, label) in KNOWN_FAILING_MAPS) else []
        if label == "ASL(2,3)":
            # no element takes its image onto a section of its kernel
            maps.append(Transformation.parse("2,3,8,2,6,5,5,9,5"))
        # ranks up to 6 at degree 9 keep the exact stage of the negatives short
        top = 6 if n == 9 else n - 1
        maps += [_random_map(rng, n, rng.randrange(2, top + 1)) for _ in range(4)]
        for a in maps:
            want = _row_ladder(checker, a)
            v = checker.check(a)
            assert (v.status, v.trace, v.witness and v.witness.g) == want, (label, a.one_based())
            negatives += v.status == STATUS_NOT
            seen.add(v.trace)
            gs = [elements[rng.randrange(len(elements))] for _ in range(2)]
            for g in gs + ([v.witness.g] if v.witness else []):
                pair = checker.check_pair(a, g)
                assert (pair.status, pair.trace) == _row_ladder(checker, a, g)[:2], (
                    label, a.one_based(), g.cycle_string())
    assert negatives >= 5
    assert seen == {("shortcut",), ("r-class",), ("r-class", "closure")}


def _random_map(rng, n, rank):
    """A map on n points of exactly that rank."""
    pts = rng.sample(range(n), rank)
    images = pts + [rng.choice(pts) for _ in range(n - rank)]
    rng.shuffle(images)
    return Transformation(images)


def test_a9_maps_decided_by_one_certificate_on_image_sets(monkeypatch):
    # each map's first tier reaches every image set of its orbit and has
    # the induced group Sym(r), so one certificate decides it and no
    # product row is tested: no pass over A9
    sizes, tested = [], []
    certificate = normalizing.certificate_from_matrix
    contains = RClassCertificate.contains_products

    def spy_cert(rows, a):
        sizes.append(rows.shape[0])
        return certificate(rows, a)

    def spy_contains(cert, rows):
        tested.append(rows.shape[0])
        return contains(cert, rows)

    monkeypatch.setattr(normalizing, "certificate_from_matrix", spy_cert)
    monkeypatch.setattr(RClassCertificate, "contains_products", spy_contains)
    group = catalog("A9", 9)
    checker = normalizing._MapChecker(group)
    for text in ("1,5,7,1,5,7,7,1,5", "9,9,5,9,3,8,5,8,3", "9,3,5,1,7,9,7,1,5",
                 "4,9,1,5,9,6,1,5,7"):
        sizes.clear()
        v = checker.check(Transformation.parse(text))
        assert v.status == STATUS_NORMALIZING and v.trace == ("r-class",), text
        assert len(sizes) == 1 and sizes[0] <= 1024, (text, sizes)
    assert tested == []


def _reference_ladder(checker, a):
    """The unstaged ladder on every product a*g, g in element order.

    The shortcut from a brute-force search for a section mapper, else the
    certificate over all of a^G and kernel_members for what it rejects.
    Returns (shortcut, accepted by the certificate, inside <a^G>) per g.
    """
    group = checker.group
    M = group.element_matrix()
    conj_encs = np.unique(
        encode_rows(np.take_along_axis(M, np.array(a.images)[group.inverse_matrix()], axis=1))
    )
    prods = M[:, np.array(a.images)]
    if not _section_mapper_rows(group, a).any():
        inside = np.isin(encode_rows(prods), conj_encs)
        return True, inside, inside
    accepted = _certified(checker, a, conj_encs)
    inside = accepted.copy()
    inside[~accepted] = kernel_members(decode_encodings(conj_encs, a.degree), a, prods[~accepted])
    return False, accepted, inside


def test_ladder_matches_the_unstaged_reference():
    # the section-mapper table and the conjugate tiers change only what a
    # decision costs: status, witness and trace equal those of the full-a^G
    # ladder, for whole checks and for single replayed products
    rng = random.Random(61)
    fixed = {"Sym{1..7}": [Transformation.parse("5,2,6,5,7,8,3,5")]}
    traces = set()
    for group in (catalog("A7", 7), catalog("S7", 7), catalog("A8", 8), _sym7_on_8_points()):
        checker = normalizing._MapChecker(group)
        n = group.degree
        maps = list(fixed.get(group.label, []))
        while len(maps) < 6:
            pts = rng.sample(range(n), rng.randrange(2, n))
            a = Transformation([rng.choice(pts) for _ in range(n)])
            if not a.is_permutation():
                maps.append(a)
        for a in maps:
            traces.add(_assert_ladder_matches_reference(checker, a, rng))
    assert traces == {("shortcut",), ("r-class",), ("r-class", "closure")}


def _assert_ladder_matches_reference(checker, a, rng):
    """Status, trace and witness of check(a), and of check_pair on 3 random
    elements and on the least failing one, against _reference_ladder.
    Returns the check's trace."""
    group = checker.group
    elements = group.elements()
    shortcut, accepted, inside = _reference_ladder(checker, a)

    def trace(ok):
        return ("shortcut",) if shortcut else ("r-class",) if ok else ("r-class", "closure")

    def witness(i):
        reason = "conjugate-mismatch" if shortcut else "membership-failed"
        return None if inside[i] else normalizing.FailureWitness(elements[i], reason)

    where = (group.label, group.generators, a.one_based())
    v = checker.check(a)
    bad = np.flatnonzero(~inside)
    assert v.normalizing == inside.all(), where
    assert v.trace == trace(accepted.all()), where
    assert v.witness == (witness(bad[0]) if bad.size else None), where
    for i in [rng.randrange(len(elements)) for _ in range(3)] + bad[:1].tolist():
        pair = checker.check_pair(a, elements[i])
        assert (pair.normalizing, pair.trace, pair.witness) == (
            inside[i], trace(accepted[i]), witness(i)), where + (i,)
    return v.trace


def test_first_tier_acceptance_never_builds_all_of_a_g(monkeypatch):
    # an A8 rank-2 map is accepted by the conjugates of 256 strided
    # elements; the pass over all 20,160 elements for a^G is never made
    full_builds = []
    conjugates = normalizing._MapChecker._conjugates

    def spy(checker, a):
        full_builds.append(a)
        return conjugates(checker, a)

    sizes = []
    certificate = normalizing.certificate_from_matrix

    def spy_cert(rows, a):
        sizes.append(rows.shape[0])
        return certificate(rows, a)

    monkeypatch.setattr(normalizing._MapChecker, "_conjugates", spy)
    monkeypatch.setattr(normalizing, "certificate_from_matrix", spy_cert)
    group = catalog("A8", 8)
    a = Transformation.parse("1,1,1,1,1,2,2,2")
    v = is_a_normalizing(group, a)
    assert v.status == STATUS_NORMALIZING and v.trace == ("r-class",)
    replay = check_pair(group, a, group.elements()[-1])
    assert replay.status == STATUS_NORMALIZING
    assert full_builds == []
    assert len(sizes) == 2 and max(sizes) <= 257


def test_a9_element_pick_tiers_accept_without_all_of_a_g(monkeypatch):
    # two A9 maps with 15,120 and 90,720 conjugates are accepted by an
    # element-pick tier of at most 1,024 picks: a^G is never built, and no
    # certificate is taken over more conjugates than that
    full_builds = []
    conjugates = normalizing._MapChecker._conjugates

    def spy(checker, a):
        full_builds.append(a)
        return conjugates(checker, a)

    sizes = []
    certificate = normalizing.certificate_from_matrix

    def spy_cert(rows, a):
        sizes.append(rows.shape[0])
        return certificate(rows, a)

    group = catalog("A9", 9)
    checker = normalizing._MapChecker(group)
    maps = [Transformation.parse("2,5,2,2,5,2,2,5,4"), Transformation.parse("7,3,3,2,2,9,9,9,3")]
    assert [len(checker._conjugates(a)) for a in maps] == [15_120, 90_720]
    monkeypatch.setattr(normalizing._MapChecker, "_conjugates", spy)
    monkeypatch.setattr(normalizing, "certificate_from_matrix", spy_cert)
    for a in maps:
        v = checker.check(a)
        assert v.status == STATUS_NORMALIZING and v.trace == ("r-class",), a.one_based()
    assert full_builds == []
    assert sizes and max(sizes) <= 1024


def test_conjugate_encodings_match_np_unique():
    # the sort-and-flag dedupe returns what np.unique returns, from orbits
    # with heavy repeats (181,440 rows down to 2,520 or 72), with none
    # (504 rows, 504 conjugates), and from one row
    cases = [
        (catalog("A9", 9), "1,1,1,1,1,2,2,2,2", 2520),
        (catalog("A9", 9), "1,2,3,4,5,6,7,8,8", 72),
        (catalog("PSL(2,8)", 9), "6,2,8,4,5,1,7,3,7", 504),
        (catalog("A4", 4), "1,1,2,3", 12),
    ]
    for group, text, size in cases:
        a = Transformation.parse(text)
        M, Minv = group.element_matrix(), group.inverse_matrix()
        a8 = np.array(a.images, dtype=np.int8)
        for rows, inv in ((M, Minv), (M[:1], Minv[:1]), (M[-1:], Minv[-1:])):
            want = np.unique(encode_rows(np.take_along_axis(rows, a8[inv], axis=1)))
            got = normalizing._conjugate_encodings(rows, a)
            assert got.dtype == want.dtype and np.array_equal(got, want), (group.label, text)
        assert normalizing._conjugate_encodings(M, a).shape[0] == size
        # row 0 is the identity
        assert normalizing._conjugate_encodings(M[:1], a).tolist() == [a.encode()]


def _scatter_keys(perms, a):
    """The keys of a^p, p in perms, from rows: the scatter out[p[x]] =
    p[a[x]], then encode_rows."""
    rows = np.empty_like(perms)
    rows[np.arange(perms.shape[0])[:, None], perms] = perms[:, np.array(a.images)]
    return encode_rows(rows)


def test_conjugate_keys_match_the_scatter_and_encode_rows():
    # the keys summed point by point, against conjugate rows encoded by
    # encode_rows: every catalog group, cyclic and dihedral groups of
    # degrees 13-15, and random permutations of 15 points, with maps whose
    # keys reach 15**15 - 1, the top of the encodings' range
    rng = random.Random(1515)
    groups = [catalog(label, n) for n in catalog_degrees() for label in catalog_labels(n)]
    groups += [catalog(label, n) for n in (13, 14, 15) for label in (f"C{n}", f"D(2*{n})")]
    cases = [(g.element_matrix(), _random_map(rng, g.degree, r))
             for g in groups for r in rng.sample(range(1, g.degree), min(3, g.degree - 1))]
    perms = np.array([rng.sample(range(15), 15) for _ in range(500)], dtype=np.int8)
    perms[0] = np.arange(15)
    for images in ([14] * 15, [14] * 14 + [13], [rng.randrange(15) for _ in range(15)]):
        cases.append((perms, Transformation(images)))
    for perms, a in cases:
        want = _scatter_keys(perms, a)
        got = normalizing._conjugate_keys(perms, a.images)
        assert got.dtype == want.dtype and np.array_equal(got, want), a.images
        assert np.array_equal(normalizing._conjugate_encodings(perms, a), np.unique(want))
    assert max(int(normalizing._conjugate_keys(p, a.images).max()) for p, a in cases) == 15**15 - 1


def test_a9_normalizer_walk_matches_the_decode_and_scatter_twist(monkeypatch):
    # the first 50 N-orbits of the A9 walk under its normalizer cosets: each
    # twist (a^t)^G read as a conjugated by the rows t[M], against the
    # decoded rows of a^G scattered through t and encoded, as each G-orbit
    # was once marked
    group = catalog("A9", 9)
    cosets = normalizing._normalizer_cosets(group)
    assert cosets.shape[0] == 2

    def decode_and_scatter(sweep, enc):
        orbit = np.unique(_scatter_keys(sweep._matrix, Transformation.decode(9, enc)))
        sweep.bitmap.set_batch(orbit)
        found, size = 1, orbit.shape[0]
        rows = decode_encodings(orbit, 9)
        for t in sweep.cosets[1:]:
            image = np.empty_like(rows)
            image[:, t] = t[rows]
            image = encode_rows(image)  # row i is (orbit[i])^t
            if not sweep.bitmap.test(int(image[0])):
                sweep.bitmap.set_batch(image)
                found += 1
                size += image.shape[0]
        return found, size

    def first_50():
        sweep = ConjugacySweep(group, cosets=cosets)
        return list(islice(sweep._advance(), 50)), sweep.orbits, sweep.singular_seen

    got = first_50()
    monkeypatch.setattr(ConjugacySweep, "_expand", decode_and_scatter)
    want = first_50()
    assert got == want
    assert got[1] > 50


def test_conjugate_rows_match_conjugated_by():
    # the scatter kernel against Transformation.conjugated_by, row by row;
    # and the sweep's twist of a G-orbit by a coset representative t,
    # a conjugated by the rows t[M], against the orbit's rows conjugated by t
    group = catalog("PSL(2,5)", 6)
    a = Transformation.parse("1,1,2,2,1,2")
    got = normalizing._conjugate_rows(np.array(a.images, dtype=np.int8), group.element_matrix())
    assert got.dtype == np.int8
    want = [a.conjugated_by(g).images for g in group.elements()]
    assert [tuple(row) for row in got.tolist()] == want
    # row 0 is the identity
    assert tuple(got[0].tolist()) == a.images
    a5 = catalog("A5", 5)
    b = Transformation.parse("1,1,2,3,3")
    orbit = decode_encodings(normalizing._conjugate_encodings(a5.element_matrix(), b), 5)
    # an odd permutation, so a representative of the other coset of A5 in
    # S5, and not an involution, so t and t^-1 give different conjugates
    t = Permutation.parse("(1 2 3 4)", 5)
    twisted = np.array(t.images, dtype=np.int8)[a5.element_matrix()]
    got = normalizing._conjugate_encodings(twisted, b)
    want = sorted(Transformation(row).conjugated_by(t).encode() for row in orbit.tolist())
    assert got.tolist() == want


def test_second_check_of_an_image_set_sorts_no_array_of_g_rows(monkeypatch):
    # the distinct products come from the group's table keyed by image set,
    # so once {1, 2} is in it no A8 rank-2 check sorts all 20,160 products
    group = catalog("A8", 8)
    is_a_normalizing(group, Transformation.parse("1,1,1,1,1,2,2,2"))
    sizes = []
    for name in ("unique", "sort", "argsort", "lexsort"):

        def spy(x, *args, _real=getattr(np, name), **kwargs):
            sizes.append(np.size(x))
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    v = is_a_normalizing(group, Transformation.parse("2,1,1,2,1,1,2,1"))
    assert v.status == STATUS_NORMALIZING and v.trace == ("r-class",)
    assert sizes and max(sizes) < group.order()


def _random_cycle_group(rng):
    """A group on 3-8 points generated by 1-3 random cycles within one random
    support, so intransitive groups are common."""
    n = rng.randrange(3, 9)
    support = rng.sample(range(n), rng.randrange(2, n + 1))
    gens = []
    for _ in range(rng.randrange(1, 4)):
        pts = rng.sample(support, rng.randrange(2, len(support) + 1))
        images = list(range(n))
        for x, y in zip(pts, pts[1:] + pts[:1]):
            images[x] = y
        gens.append(Permutation(images))
    return PermutationGroup(gens, label="random")


def _seeded_jobs():
    """Seeded (group, maps) pairs: catalog groups of degree 3-9 with |G| <=
    6000, 3 maps each, and groups of order <= 1000 generated by random
    cycles, 6 maps each, intransitive, imprimitive and primitive ones among
    them.  Ranks stop at 5 at degree 9 and at 6 at degree 8, which keeps
    the tuple search short."""
    rng = random.Random(4)
    groups = [(catalog(label, n), 3) for n in range(3, 10) for label in catalog_labels(n)
              if catalog(label, n).order() <= 6000]
    kinds = set()
    while len(groups) < 460:
        group = _random_cycle_group(rng)
        if group.order() <= 1000:
            groups.append((group, 6))
            kinds.add((group.is_transitive(), group.is_primitive()))
    assert {(False, False), (True, False), (True, True)} <= kinds
    jobs = []
    for group, count in groups:
        n = group.degree
        top = min(n - 1, 14 - n)
        jobs.append((group, [_random_map(rng, n, rng.randrange(2, top + 1)) for _ in range(count)]))
    return jobs


def test_ladder_matches_the_tuple_search_on_seeded_maps():
    # status, trace and witness of each check, and of 3 or 4 replays per
    # map, against the shortcut or the certificate over all of a^G plus
    # the tuple search, on every seeded map; hundreds of them end in the
    # closure stage, which decides from the full certificate alone
    rng = random.Random(5)
    traces = []
    for group, maps in _seeded_jobs():
        checker = normalizing._MapChecker(group)
        for a in maps:
            traces.append(_assert_ladder_matches_reference(checker, a, rng))
    assert len(traces) > 2000
    assert traces.count(("r-class", "closure")) >= 300


def _kernel_conjugates(conj_rows, a):
    """The rows of conj_rows with a's kernel: those constant on its classes,
    equal to themselves read through each point's least preimage under a."""
    least = [a.images.index(y) for y in a.images]
    return conj_rows[(conj_rows[:, least] == conj_rows).all(axis=1)]


def test_section_mapper_puts_every_kernel_conjugate_in_r_a():
    # stage 3's claim: when some t in G maps image(a) onto a section of
    # K = ker(a), every conjugate of kernel K lies in R_a, so the certificate
    # over all of a^G decides membership.  Without such a t some maps have
    # a kernel-K conjugate outside R_a, so the claim is not vacuous
    mapped = outside = 0
    for group, maps in _seeded_jobs():
        M = group.element_matrix()
        for a in maps:
            conj_rows = decode_encodings(normalizing._conjugate_encodings(M, a), a.degree)
            inside = certificate_from_matrix(conj_rows, a).contains_products(
                _kernel_conjugates(conj_rows, a))
            if _section_mapper_rows(group, a).any():
                assert inside.all(), (group.label, group.generators, a.one_based())
                mapped += 1
            else:
                outside += not inside.all()
    assert mapped >= 1500
    assert outside >= 200


def test_kernel_stabilizer_conjugate_is_decided_by_the_shortcut():
    # under <(1 3)>, a = 1,3,1 and its conjugate 3,1,3 = a*(1 3) share the
    # kernel {1,3},{2} but not an R-class: every product of the two drops
    # to rank 1.  No element maps image(a) onto a section of the kernel,
    # so the shortcut decides, and 3,1,3 is a member as a conjugate
    t = Permutation([2, 1, 0])
    group = PermutationGroup([t])
    a = Transformation.parse("1,3,1")
    x = Transformation.parse("3,1,3")
    assert a * t == x == a.conjugated_by(t)
    conj_rows = decode_encodings(normalizing._conjugate_encodings(group.element_matrix(), a), 3)
    assert sorted(map(tuple, _kernel_conjugates(conj_rows, a).tolist())) == [(0, 2, 0), (2, 0, 2)]
    x8 = np.array([x.images], dtype=np.int8)
    assert not certificate_from_matrix(conj_rows, a).contains_products(x8)[0]
    assert exists_section_mapper(group, a) is None
    pair = check_pair(group, a, t)
    assert (pair.status, pair.trace, pair.witness) == (STATUS_NORMALIZING, ("shortcut",), None)
    assert kernel_members(conj_rows, a, x8).tolist() == [True]


def _subgroups_of_symmetric(n):
    """Every subgroup of S_n generated by two elements, once each, as a
    generator pair of image tuples.  <x, y> depends only on <x> and <y>,
    so one generator per cyclic subgroup is paired."""
    identity = tuple(range(n))
    cyclic = {}
    for p in permutations(range(n)):
        cyclic.setdefault(frozenset(group_of([p], identity)), p)
    gens = list(cyclic.values())
    found = {}
    for i, x in enumerate(gens):
        for y in gens[i:]:
            found.setdefault(frozenset(group_of([x, y], identity)), (x, y))
    return list(found.values())


def test_is_a_normalizing_matches_the_criterion():
    # status and witness of is_a_normalizing against the criterion of
    # tests/criterion.py, with a section mapper and without one: every
    # orbit representative of every subgroup of S4, and seeded maps of a
    # seeded sample of S5's subgroups
    rng = random.Random(10)
    subgroups = {n: _subgroups_of_symmetric(n) for n in (4, 5)}
    assert [len(subgroups[4]), len(subgroups[5])] == [30, 156]
    cases = []
    for gens in subgroups[4]:
        group = PermutationGroup([Permutation(g) for g in gens], degree=4)
        cases += [(group, rep) for rep, _ in ConjugacySweep(group)]
    for gens in rng.sample(subgroups[5], 40):
        group = PermutationGroup([Permutation(g) for g in gens], degree=5)
        maps = [Transformation([rng.randrange(5) for _ in range(5)]) for _ in range(30)]
        cases += [(group, a) for a in maps if not a.is_permutation()]
    outcomes = set()
    for group, a in cases:
        elements = group.elements()
        want = first_escape([g.images for g in elements], a.images)
        v = is_a_normalizing(group, a)
        where = (group.generators, a.one_based())
        assert v.normalizing == (want is None), where
        assert (v.witness and v.witness.g) == (None if want is None else elements[want]), where
        outcomes.add((exists_section_mapper(group, a) is not None, v.normalizing))
    assert len(cases) > 1500
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.slow
def test_is_a_normalizing_matches_the_criterion_on_degrees_6_to_8():
    # the same comparison on catalog groups of degrees 6-8, where Q grows
    # to |PSL(2,7)| * 6! = 120,960 pairs: seeded maps of ranks 2 to n - 2,
    # one rank-7 map under AGL(1,8), and every KNOWN_FAILING_MAPS entry of
    # these groups
    rng = random.Random(61)
    statuses = set()
    for label, n in (("PSL(2,5)", 6), ("PGL(2,5)", 6), ("AGL(1,7)", 7),
                     ("AGL(1,8)", 8), ("PSL(2,7)", 8)):
        group = catalog(label, n)
        elements = group.elements()
        ranks = [rank for rank in range(2, n - 1) for _ in range(4)]
        ranks += [7] if label == "AGL(1,8)" else []
        maps = []
        for rank in ranks:
            pts = rng.sample(range(n), rank)
            images = pts + [rng.choice(pts) for _ in range(n - rank)]
            rng.shuffle(images)
            maps.append(Transformation(images))
        if (n, label) in KNOWN_FAILING_MAPS:
            maps.append(Transformation.from_one_based(KNOWN_FAILING_MAPS[n, label]))
        for a in maps:
            want = first_escape([g.images for g in elements], a.images)
            v = is_a_normalizing(group, a)
            where = (label, a.one_based())
            assert v.normalizing == (want is None), where
            assert (v.witness and v.witness.g) == (None if want is None else elements[want]), where
            statuses.add(v.status)
    assert statuses == {STATUS_NORMALIZING, STATUS_NOT}


def test_degree_9_ladder_matches_kernel_members():
    # kernel_members over all of a^G is exact in both directions: on every
    # distinct product of seeded PSL(2,8) maps of ranks 2-4 it must give the
    # ladder's status and its witness, the least g whose a*g escapes <a^G>
    group = catalog("PSL(2,8)", 9)
    M = group.element_matrix()
    elements = group.elements()
    rng = random.Random(83)
    for rank in (2, 3, 4):
        for _ in range(6):
            pts = rng.sample(range(9), rank)
            images = pts + [rng.choice(pts) for _ in range(9 - rank)]
            rng.shuffle(images)
            a = Transformation(images)
            a64 = np.array(a.images)
            conj_encs = np.unique(
                encode_rows(np.take_along_axis(M, a64[group.inverse_matrix()], axis=1))
            )
            prods = M[:, a64]
            firsts = np.sort(np.unique(encode_rows(prods), return_index=True)[1])
            inside = kernel_members(decode_encodings(conj_encs, 9), a, prods[firsts])
            v = is_a_normalizing(group, a)
            assert v.normalizing == inside.all(), a.one_based()
            if inside.all():
                assert v.witness is None
            else:
                assert v.witness.g == elements[firsts[inside.argmin()]]


def test_r_class_stage_matches_closure_at_degree_7():
    # the full certificate accepts a*g exactly when a*g is R-related to a
    # in <a^G>: brute force over the rank-pruned closure, which holds every
    # element that can appear in a factorization staying at rank(a)
    rng = random.Random(43)
    cases = 0
    outcomes = set()
    while cases < 12:
        gens = []
        for _ in range(rng.choice((1, 2))):
            images = list(range(7))
            rng.shuffle(images)
            gens.append(Permutation(images))
        group = PermutationGroup(gens, label="random")
        if group.order() > 60:
            continue
        a = Transformation([rng.randrange(7) for _ in range(7)])
        if a.is_permutation():
            continue
        cases += 1
        checker = normalizing._MapChecker(group)
        conj_encs = checker._conjugates(a)
        accepted = _certified(checker, a, conj_encs)
        sgp = TransSemigroup(
            [Transformation(int(v) for v in row) for row in decode_encodings(conj_encs, 7)],
            min_rank=a.rank,
        ).close()
        members = decode_encodings(sgp.encodings(), 7).astype(np.int64)
        member_encs = set(sgp.encodings().tolist())

        def right_multiples(t):
            # t itself and t*s for every member s, as encodings
            return {t.encode()} | set(encode_rows(members[:, np.array(t.images)]).tolist())

        a_right = right_multiples(a)
        for g, ok in zip(group.elements(), accepted.tolist()):
            x = a * g
            r_related = (
                x.encode() in member_encs
                and x.encode() in a_right
                and a.encode() in right_multiples(x)
            )
            assert ok == r_related, (group.generators, a.one_based(), g.cycle_string())
            outcomes.add(ok)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "label, text",
    [("PSL(2,8)", "6,2,8,4,5,1,7,3,7"), ("A9", "8,4,7,6,4,6,9,3,2")],
)
def test_degree_9_certificate_memory_stays_small(label, text):
    # the induced group used to be re-closed with every element found so
    # far as a generator: |H|^2 rows, 24 GiB for the rank-8 PSL(2,8) map
    group = catalog(label, 9)
    a = Transformation.parse(text)
    tracemalloc.start()
    try:
        verdict = is_a_normalizing(group, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == STATUS_NORMALIZING
    assert peak < 256 * 2**20


def test_closure_memory_stays_small():
    # the negative's 2,460 rejected products and 120 kernel-K conjugates
    # are decided from the certificate of a^G; the tuple search peaks at
    # about 12.5 MiB on them
    a = Transformation.parse("5,2,6,5,7,8,3,5")
    tracemalloc.start()
    try:
        verdict = is_a_normalizing(_sym7_on_8_points(), a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == STATUS_NOT and verdict.trace == ("r-class", "closure")
    assert verdict.witness.g.cycle_string() == "(1 2 3 4 5 6 7)"
    assert verdict.witness.reason == "membership-failed"
    assert peak < 2 * 2**20


def test_verdict_invariant_under_relabeling():
    rng = random.Random(17)
    cases = [
        ("C5", 5, (1, 1, 3, 4, 1)),
        ("D(2*5)", 5, (1, 1, 1, 2, 3)),
        ("AGL(1,5)", 5, (1, 1, 3, 4, 1)),
        ("A4", 4, (1, 1, 2, 3)),
    ]
    for label, n, images in cases:
        group = catalog(label, n)
        a = Transformation.from_one_based(images)
        base = is_a_normalizing(group, a).status
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            p = Permutation(perm)
            moved = is_a_normalizing(group.conjugated_by(p), a.conjugated_by(p))
            assert moved.status == base


def test_published_degree_5_failures():
    v = is_a_normalizing(catalog("C5", 5), Transformation.parse("1,1,3,4,1"))
    assert v.status == STATUS_NOT
    assert v.witness is not None
    # witness must replay to the same failure through the pair check
    pair = check_pair(catalog("C5", 5), v.map, v.witness.g)
    assert pair.status == STATUS_NOT


def test_shortcut_failures_are_non_conjugates():
    # no rotation of the adjacent pair {1,2} fits inside {1,3,5}, so no
    # element maps this map's image onto a kernel section: products of
    # two or more conjugates drop rank and the conjugate test decides
    group = PermutationGroup([Permutation.parse("(1 2 3 4 5 6)", 6)], label="C6")
    a = Transformation.from_one_based((1, 3, 5, 5, 5, 5))
    assert exists_section_mapper(group, a) is None
    v = is_a_normalizing(group, a)
    assert v.status == STATUS_NOT
    assert v.trace == ("shortcut",)
    assert v.witness.reason == "conjugate-mismatch"
    assert (a * v.witness.g) not in conjugate_set(group, a)


def _section_mapper_rows(group, a):
    """Which elements map image(a) onto a section of ker(a), by brute force."""
    img = np.array(a.image())
    classes = np.sort(np.array(a.kernel().class_ids)[group.element_matrix()[:, img]], axis=1)
    return (np.diff(classes, axis=1) != 0).all(axis=1)


def test_exists_section_mapper_matches_brute_force():
    rng = random.Random(29)
    outcomes = set()
    cases = [("AGL(1,5)", 5), ("PSL(2,5)", 6), ("S7", 7), ("A8", 8), ("PSL(2,8)", 9)]
    for label, n in cases:
        group = catalog(label, n)
        maps = []
        while len(maps) < 30:
            pts = rng.sample(range(n), rng.randrange(1, n))
            a = Transformation([rng.choice(pts) for _ in range(n)])
            if not a.is_permutation():
                maps.append(a)
        for a in maps:
            rows = _section_mapper_rows(group, a)
            exists = bool(rows.any())
            got = exists_section_mapper(group, a)
            assert (got is not None) == exists, (label, a.one_based())
            if got is not None:
                # the least mapper, in element order
                assert got == group.elements()[int(np.flatnonzero(rows)[0])]
                # got maps image(a) onto a section of a's kernel
                ids = a.kernel().class_ids
                assert len({ids[got.images[p]] for p in a.image()}) == a.rank
            outcomes.add(exists)
    group = catalog("M12", 12)
    a = Transformation.from_one_based(M12_WITNESS_MAP)
    assert not _section_mapper_rows(group, a).any()
    assert exists_section_mapper(group, a) is None
    # random maps of these groups almost always have a mapper
    assert True in outcomes


@pytest.mark.parametrize("label", ["A7", "AGL(1,7)", "C7", "PSL(2,8)", "D(2*15)", "M12"])
def test_subset_orbit_labels_match_brute_force(label):
    # two point sets share a label exactly when some element maps one onto
    # the other; so a section of ker(a) shares the label of image(a)
    # exactly when a section mapper exists
    if label == "C7":
        group = PermutationGroup([Permutation.parse("(1 2 3 4 5 6 7)", 7)], label="C7")
    else:
        group = catalog(label, {"PSL(2,8)": 9, "D(2*15)": 15, "M12": 12}.get(label, 7))
    n = group.degree
    labels = group.subset_orbits()
    # the image of every mask under every element; each label is the least
    # image of its mask.  Under M12 that table would take 95,040 * 4,096
    # int64s, 3 GiB, so M12 is checked on the section-mapper half only
    if label != "M12":
        M = group.element_matrix().astype(np.int64)
        images = np.zeros((M.shape[0], 1 << n), dtype=np.int64)
        for p in range(n):
            images |= ((np.arange(1 << n) >> p) & 1) << M[:, p, None]
        assert np.array_equal(labels, images.min(axis=0))
    if n in (12, 15):
        # seeded random maps; the M12 witness map has no section mapper
        rng = random.Random(n)
        maps = [Transformation.from_one_based(M12_WITNESS_MAP)] if n == 12 else []
        while len(maps) < 40:
            pts = rng.sample(range(n), rng.randrange(2, n))
            maps.append(Transformation([rng.choice(pts) for _ in range(n)]))
        outcomes = set()
        for a in maps:
            exists = bool(_section_mapper_rows(group, a).any())
            assert normalizing._has_section_mapper(group, a) == exists, a.one_based()
            outcomes.add(exists)
        assert outcomes == {True, False}
    if n != 7:  # the half below walks every set partition of the points
        return
    # every kernel, and one image set per orbit on r-sets: whether a mapper
    # exists depends on the image only through its orbit
    outcomes = set()
    for ids in _set_partitions(7):
        r = max(ids) + 1
        for mask in np.unique(labels[[sum(1 << p for p in c) for c in combinations(range(7), r)]]):
            image = [p for p in range(7) if mask >> p & 1]
            a = Transformation(image[c] for c in ids)
            exists = bool(_section_mapper_rows(group, a).any())
            assert normalizing._has_section_mapper(group, a) == exists, a.one_based()
            outcomes.add(exists)
    # every map on 7 points has a section mapper under A7 and AGL(1,7)
    assert outcomes == ({True, False} if label == "C7" else {True})


def _set_partitions(n):
    """Every set partition of n points into fewer than n classes, as class ids."""
    out = [(0,)]
    for _ in range(n - 1):
        out = [ids + (c,) for ids in out for c in range(max(ids) + 2)]
    return [ids for ids in out if max(ids) < n - 1]


def test_degree_mismatch_and_permutation_rejected():
    group = catalog("A4", 4)
    with pytest.raises(ValueError):
        is_a_normalizing(group, Transformation.parse("1,1,3,4,1"))
    with pytest.raises(ValueError):
        is_a_normalizing(group, Transformation.parse("2,1,3,4"))
    with pytest.raises(ValueError):
        check_pair(group, Transformation.parse("1,1,2,3"), Permutation.parse("(1 2 3 4 5)"))


@pytest.mark.parametrize("call", ["check", "check_pair", "section", "class"])
def test_checks_refuse_degrees_past_the_int64_encoding(call):
    # encodings of degree-17 maps overflow int64: a check used to read the
    # conjugates back as garbage rows and fail on "every generator must
    # have rank 9"; at degree 130 the refusal must come before the int8
    # element matrix, which cannot hold the points
    cases = [
        (catalog("C17", 17), Transformation.from_one_based([1] * 9 + list(range(2, 10)))),
        (PermutationGroup([Permutation.from_cycles([[0, 129]], 130)]),
         Transformation.from_one_based([1, 1] + list(range(3, 131)))),
    ]
    for group, a in cases:
        runs = {
            "check": lambda: is_a_normalizing(group, a),
            "check_pair": lambda: check_pair(group, a, group.generators[0]),
            "section": lambda: exists_section_mapper(group, a),
            "class": lambda: is_class_normalizing(group, a),
        }
        with pytest.raises(ValueError, match="map checks stop at degree 15"):
            runs[call]()


def test_degree_15_check_on_point_15_keeps_its_witness():
    # point-set masks are int16 and the image of this map holds point 15,
    # whose bit is 2**14: the certificate, the kernel search and the
    # section mapper all read such masks.  Verdict, trace, witness and
    # section mapper as recorded with int64 masks
    group = PermutationGroup(
        [Permutation.parse("(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)", 15),
         Permutation([0] + list(range(14, 0, -1)))],
        degree=15, label="D15",
    )
    a = Transformation.parse("12,12,12,9,4,15,12,15,4,4,15,4,12,4,15")
    h = exists_section_mapper(group, a)
    assert h.images == (2, 1, 0) + tuple(range(14, 2, -1))
    v = is_a_normalizing(group, a)
    assert (v.status, v.trace) == (STATUS_NOT, ("r-class", "closure"))
    assert v.witness.g == Permutation.parse("(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)", 15)
    assert v.witness.reason == "membership-failed"


def test_check_pair_rejects_foreign_permutation():
    group = catalog("C5", 5)
    with pytest.raises(ValueError):
        check_pair(group, Transformation.parse("1,1,3,4,1"), Permutation.parse("(1 2)", 5))


def test_check_pair_refuses_a_witness_of_another_degree():
    # "(1 2)" parses on 2 points; the refusal names the degree, not membership
    a = Transformation.parse("1,1,2,3,4")
    with pytest.raises(ValueError, match=r"^degree mismatch: witness 2, group 5$"):
        check_pair(catalog("S5", 5), a, Permutation.parse("(1 2)"))
    with pytest.raises(ValueError, match=r"^degree mismatch: witness 6, group 5$"):
        check_pair(catalog("S5", 5), a, Permutation.parse("(1 2)", 6))


# -- conjugation-orbit enumeration -----------------------------------------


def naive_orbit_partition(group, n):
    elems = group.elements()
    seen = set()
    orbits = []
    for t in all_singular(n):
        if t in seen:
            continue
        orbit = {t.conjugated_by(g) for g in elems}
        seen |= orbit
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("label,n", [("trivial", 3), ("S3", 3), ("A4", 4), ("S4", 4)])
def test_sweep_matches_naive_partition(label, n):
    group = catalog(label, n)
    naive = {
        (min(t.encode() for t in orbit), len(orbit))
        for orbit in naive_orbit_partition(group, n)
    }
    swept = {(rep.encode(), size) for rep, size in ConjugacySweep(group)}
    assert swept == naive


@pytest.mark.parametrize("label,n", [("A4", 4), ("C5", 5), ("AGL(1,5)", 5), ("PSL(2,5)", 6)])
def test_orbit_sizes_account_for_every_singular_map(label, n):
    group = catalog(label, n)
    sweep = ConjugacySweep(group)
    total = sum(size for _, size in sweep)
    assert total == n**n - _factorial(n)
    assert sweep.singular_seen == total
    assert sweep.bitmap.popcount() == n**n
    assert sweep.complete


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


_RANK_CASES = [
    (label, n, k)
    for label, n in (("A4", 4), ("C5", 5), ("AGL(1,5)", 5), ("PSL(2,5)", 6))
    for k in range(1, n)
] + [("A8", 8, 2)]


@pytest.mark.parametrize("label,n,k", _RANK_CASES)
def test_rank_orbit_sizes_account_for_every_rank_k_map(label, n, k):
    group = catalog(label, n)
    sweep = ConjugacySweep(group, rank=k)
    total = sum(size for _, size in sweep)
    assert total == sweep.singular_seen == sweep.singular_total
    assert sweep.bitmap.popcount() == _factorial(n) + total
    assert sweep.complete
    if n <= 6:
        assert total == sum(Transformation.decode(n, e).rank == k for e in range(n**n))
    else:
        assert total == 28 * (2**8 - 2)  # an image pair, onto it: C(8,2) (2^8 - 2)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rank_candidates_match_brute_force(n):
    ranks = np.array([Transformation.decode(n, e).rank for e in range(n**n)])
    scale = n ** (n // 2)
    rng = random.Random(n)
    starts = {0, 1, scale - 1, scale, scale + 3, 2 * scale + 1, n**n - 1, n**n}
    starts |= {rng.randrange(n**n) for _ in range(6)}
    for k in [None, *range(1, n)]:
        want = np.flatnonzero(ranks == k if k is not None else ranks < n)
        # one walk, restarted at every start, reuses its tables
        walk = normalizing._rank_walk(n, k)
        for start in sorted(starts):
            chunks = list(walk(start))
            assert all(c.size and (np.diff(c) > 0).all() for c in chunks), (k, start)
            got = np.concatenate(chunks) if chunks else np.array([], dtype=np.int64)
            assert got.tolist() == want[want >= start].tolist(), (k, start)


@pytest.mark.parametrize(
    "label,n", [("A4", 4), ("C5", 5), ("AGL(1,5)", 5), ("PSL(2,5)", 6), ("A6", 6)]
)
def test_rank_sweep_is_the_filtered_full_sweep(label, n):
    group = catalog(label, n)
    full = [(rep.encode(), rep.rank, size) for rep, size in ConjugacySweep(group)]
    for k in range(1, n):
        want = [(enc, size) for enc, rank, size in full if rank == k]
        got = [(rep.encode(), size) for rep, size in ConjugacySweep(group, rank=k)]
        assert got == want, k


def test_orbit_sizes_divide_group_order():
    group = catalog("AGL(1,5)", 5)
    for _, size in ConjugacySweep(group):
        assert group.order() % size == 0


def test_rank_filter_selects_subset():
    group = catalog("A4", 4)
    whole = {rep.encode() for rep, _ in ConjugacySweep(group)}
    by_rank = {}
    for k in (1, 2, 3):
        by_rank[k] = {rep.encode() for rep, _ in ConjugacySweep(group, rank=k)}
        assert by_rank[k] <= whole
        assert all(Transformation.decode(4, e).rank == k for e in by_rank[k])
    assert set().union(*by_rank.values()) == whole


def test_reps_are_orbit_minima_in_ascending_order():
    group = catalog("C5", 5)
    encs = [rep.encode() for rep, _ in ConjugacySweep(group)]
    assert encs == sorted(encs)
    elems = group.elements()
    rng = random.Random(3)
    for enc in rng.sample(encs, 25):
        t = Transformation.decode(5, enc)
        assert min(t.conjugated_by(g).encode() for g in elems) == enc


def test_sweep_degree_and_rank_guards():
    with pytest.raises(ValueError):
        ConjugacySweep(PermutationGroup([], degree=10, label="trivial"))
    with pytest.raises(ValueError):
        ConjugacySweep(catalog("A4", 4), rank=4)
    with pytest.raises(ValueError):
        ConjugacySweep(catalog("A4", 4), rank=0)


def test_cache_roundtrip_resume_and_mismatch(tmp_path):
    group = catalog("PSL(2,5)", 6)
    path = str(tmp_path / "partial.sweep")
    sweep = ConjugacySweep(group)
    stream = iter(sweep)
    first = [next(stream)[0].encode() for _ in range(40)]
    sweep.meta["checked"] = 40
    sweep.save(path)

    loaded = ConjugacySweep.load(path, group)
    assert loaded.cursor == sweep.cursor
    assert loaded.orbits == 40
    assert loaded.meta == {"checked": 40}
    rest = [rep.encode() for rep, _ in loaded]
    fresh = [rep.encode() for rep, _ in ConjugacySweep(group)]
    assert first + rest == fresh

    with pytest.raises(SweepCacheMismatch):
        ConjugacySweep.load(path, catalog("PGL(2,5)", 6))
    with pytest.raises(SweepCacheMismatch):
        ConjugacySweep.load(path, group, rank=2)

    sweep = ConjugacySweep(group, rank=2)
    stream = iter(sweep)
    first = [next(stream)[0].encode() for _ in range(5)]
    sweep.meta["checked"] = 5
    sweep.save(path)
    loaded = ConjugacySweep.load(path, group, rank=2)
    assert (loaded.cursor, loaded.orbits) == (sweep.cursor, 5)
    rest = [rep.encode() for rep, _ in loaded]
    fresh = [rep.encode() for rep, _ in ConjugacySweep(group, rank=2)]
    assert rest and first + rest == fresh


def test_load_refuses_inconsistent_cache(tmp_path):
    group = catalog("A4", 4)
    path = tmp_path / "a4.sweep"
    for rank in (None, 2):
        sweep = ConjugacySweep(group, rank=rank)
        stream = iter(sweep)
        reps = [next(stream) for _ in range(3)]
        sweep.meta["checked"] = len(reps)
        sweep.save(str(path))
        assert ConjugacySweep.load(str(path), group, rank=rank).orbits == sweep.orbits
        header, body = path.read_bytes().split(b"\n", 1)
        flipped = bytes([body[0] ^ 1]) + body[1:]
        corruptions = [
            ("singular_seen", lambda h: h.update(singular_seen=h["singular_seen"] + 1), body),
            ("singular_seen", lambda h: None, flipped),
            ("meta.checked", lambda h: h["meta"].update(checked=h["orbits"] + 1), body),
            ("meta.checked", lambda h: h["meta"].update(checked=2), body),
        ]
        for field, mutate, raw in corruptions:
            h = json.loads(header)
            mutate(h)
            path.write_bytes(json.dumps(h).encode() + b"\n" + raw)
            with pytest.raises(SweepCacheMismatch) as err:
                ConjugacySweep.load(str(path), group, rank=rank)
            assert repr(field) in str(err.value) and "delete" in str(err.value)


def test_load_refuses_rank_cache_that_counted_other_ranks(tmp_path):
    # a rank-2 run used to walk every orbit and count all of them, while
    # meta.checked counted only the rank-2 ones
    group = catalog("A4", 4)
    path = tmp_path / "a4-r2.sweep"
    sweep = ConjugacySweep(group)
    stream = iter(sweep)
    reps = [next(stream)[0] for _ in range(6)]
    sweep.rank = 2
    sweep.meta["checked"] = sum(rep.rank == 2 for rep in reps)
    sweep.save(str(path))
    with pytest.raises(SweepCacheMismatch) as err:
        ConjugacySweep.load(str(path), group, rank=2)
    assert "'meta.checked'" in str(err.value) and "delete" in str(err.value)


def test_load_refuses_a_short_or_long_bitmap(tmp_path):
    group = catalog("C5", 5)
    path = tmp_path / "c5.sweep"
    ConjugacySweep(group).save(str(path))
    raw = path.read_bytes()
    for body in (raw[:-1], raw + b"\0"):
        path.write_bytes(body)
        with pytest.raises(SweepCacheMismatch) as err:
            ConjugacySweep.load(str(path), group)
        assert "bitmap" in str(err.value) and "delete" in str(err.value)


def test_load_holds_one_bitmap(tmp_path):
    # a resumed sweep used to hold the fresh sweep's bitmap, the bytes read
    # and their copy at once, and the popcount made a fourth temporary
    group = catalog("PSL(2,8)", 9)
    path = str(tmp_path / "psl28-rank2.sweep")
    sweep = ConjugacySweep(group, rank=2)
    stream = iter(sweep)
    for _ in range(3):
        next(stream)
    sweep.meta["checked"] = sweep.orbits
    sweep.save(path)
    nbytes = sweep.bitmap.data.shape[0]
    del sweep, stream
    normalizing._permutation_rows(9)  # cached, so the premarking rows are not counted
    tracemalloc.start()
    try:
        loaded = ConjugacySweep.load(path, group, rank=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.orbits == 3
    assert peak < nbytes + 8 * 2**20


def test_permutation_rows_are_the_lexicographic_permutations():
    for n in range(1, 9):
        rows = normalizing._permutation_rows(n)
        want = np.array(list(permutations(range(n))), dtype=np.int8).reshape(-1, n)
        assert rows.dtype == np.int8 and np.array_equal(rows, want), n
        assert not rows.flags.writeable
    # built a block per first entry, never as 9! Python tuples (55.7 MiB)
    tracemalloc.start()
    try:
        rows = normalizing._permutation_rows.__wrapped__(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (362_880, 9)
    assert peak < rows.nbytes + 4 * 2**20


def test_fresh_sweep_premarks_without_a_copy_of_the_permutations():
    # premarking used to encode all 9! permutation rows at once, an int64
    # copy of 9! x 9 entries beside the bitmap
    group = catalog("PSL(2,8)", 9)
    normalizing._permutation_rows(9)  # cached, so the premarking rows are not counted
    group.element_matrix()
    tracemalloc.start()
    try:
        sweep = ConjugacySweep(group, rank=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sweep.bitmap.data.shape[0] + 8 * 2**20


# -- sweeping decisions ------------------------------------------------------


def test_trivial_group_is_normalizing_analytically():
    v = is_normalizing(catalog("trivial", 7))
    assert v.status == STATUS_NORMALIZING
    assert v.trace == ("analytic",)


def test_rank_one_always_normalizing():
    group = catalog("C5", 5)
    v = is_k_normalizing(group, 1)
    assert v.status == STATUS_NORMALIZING
    assert v.trace == ("analytic",)
    # the analytic claim, checked directly: constants resist everything
    for rep, _ in ConjugacySweep(group, rank=1):
        assert referee_a_normalizing(group, rep)


def test_k_normalizing_matches_per_rank_referee():
    group = catalog("C5", 5)
    for k in (2, 3, 4):
        want = all(
            referee_a_normalizing(group, rep)
            for rep, _ in ConjugacySweep(group, rank=k)
        )
        got = is_k_normalizing(group, k)
        assert got.normalizing == want, k
        if not want:
            assert got.map is not None and got.map.rank == k


def test_k_normalizing_range_check():
    with pytest.raises(ValueError):
        is_k_normalizing(catalog("C5", 5), 5)
    with pytest.raises(ValueError):
        is_k_normalizing(catalog("C5", 5), 0)


def test_symmetric_and_alternating_normalizing():
    for n in (4, 5):
        for label in (f"S{n}", f"A{n}"):
            v = is_normalizing(catalog(label, n))
            assert v.status == STATUS_NORMALIZING, label


def test_degree_5_classification_verdicts():
    expected = {
        "trivial": STATUS_NORMALIZING,
        "C5": STATUS_NOT,
        "D(2*5)": STATUS_NOT,
        "AGL(1,5)": STATUS_NORMALIZING,
        "A5": STATUS_NORMALIZING,
        "S5": STATUS_NORMALIZING,
    }
    for label, want in expected.items():
        v = is_normalizing(catalog(label, 5))
        assert v.status == want, label
        if want == STATUS_NOT:
            assert not referee_a_normalizing(catalog(label, 5), v.map)


def test_failing_verdict_reports_least_failing_representative():
    group = catalog("D(2*5)", 5)
    v = is_normalizing(group)
    assert v.status == STATUS_NOT
    for rep, _ in ConjugacySweep(group):
        if rep.encode() == v.map.encode():
            break
        assert referee_a_normalizing(group, rep), rep.one_based()


@pytest.mark.slow
def test_worker_counts_agree():
    group = catalog("PSL(2,5)", 6)
    serial = is_normalizing(group, workers=1)
    parallel = is_normalizing(group, workers=3)
    assert (serial.status, serial.checked) == (parallel.status, parallel.checked)

    failing = catalog("D(2*5)", 5)
    one = is_normalizing(failing, workers=1)
    two = is_normalizing(failing, workers=2)
    assert one.map == two.map
    assert one.witness.g == two.witness.g
    assert one.checked == two.checked


@pytest.mark.slow
def test_resume_preserves_verdict(tmp_path):
    group = catalog("PSL(2,5)", 6)
    path = str(tmp_path / "resume.sweep")
    fresh = is_normalizing(group)

    # the cache of a sweep under the normalizer, as is_normalizing runs it
    sweep = ConjugacySweep(group, cosets=normalizing._normalizer_cosets(group))
    stream = iter(sweep)
    checker_reps = [next(stream) for _ in range(100)]
    assert len(checker_reps) == 100
    sweep.meta.update(checked=sweep.orbits)
    sweep.save(path)
    resumed = is_normalizing(group, cache_path=path)
    assert resumed.status == fresh.status
    assert resumed.checked == fresh.checked


def test_checkpoints_record_only_checked_maps(tmp_path, monkeypatch):
    # with a checkpoint due after every batch, a save while batches are
    # still in flight would store orbits that no verdict covers
    monkeypatch.setattr(normalizing, "_CHECKPOINT_SECONDS", 0)
    saves = []
    save = ConjugacySweep.save

    def spy(sweep, path):
        saves.append((sweep.meta["checked"], sweep.orbits))
        save(sweep, path)

    monkeypatch.setattr(ConjugacySweep, "save", spy)
    v = is_normalizing(
        catalog("PSL(2,5)", 6), workers=2, cache_path=str(tmp_path / "psl.sweep"),
        progress=lambda p: None, progress_interval=0,
    )
    assert v.status == STATUS_NORMALIZING
    assert len(saves) > 1
    assert all(checked == orbits for checked, orbits in saves), saves


def test_failed_sweep_resumes_to_the_same_verdict(tmp_path):
    path = str(tmp_path / "d10.sweep")
    group = catalog("D(2*5)", 5)
    first = is_normalizing(group, workers=2, cache_path=path)
    second = is_normalizing(group, workers=2, cache_path=path)
    assert first.status == second.status == STATUS_NOT
    assert (first.map, first.witness, first.checked) == (
        second.map, second.witness, second.checked
    )


def test_progress_callback_fires():
    seen = []
    v = is_normalizing(
        catalog("A4", 4), progress=seen.append, progress_interval=0.0
    )
    assert v.status == STATUS_NORMALIZING
    assert seen
    assert seen[-1].singular_total == 4**4 - 24
    assert seen[-1].group == "A4"


def test_rank_progress_reaches_the_rank_total():
    seen = []
    v = is_k_normalizing(catalog("A4", 4), 2, progress=seen.append, progress_interval=0.0)
    assert v.status == STATUS_NORMALIZING
    assert seen[-1].singular_seen == seen[-1].singular_total == 84


def test_a8_rank_2_checks_only_its_rank_2_representatives():
    v = is_k_normalizing(catalog("A8", 8), 2)
    assert v.status == STATUS_NORMALIZING
    assert v.checked == 14


# -- sweeping under the normalizer ------------------------------------------


def _sweep_verdicts(group, ranks, *, one_coset=False):
    """to_dict() of the sweep at each rank (None: all ranks), under the
    normalizer or, with one_coset, over every G-orbit."""
    with pytest.MonkeyPatch.context() as mp:
        if one_coset:
            mp.setattr(
                normalizing, "_normalizer_cosets",
                lambda g: np.arange(g.degree, dtype=np.int8)[None, :],
            )
        return [
            (is_normalizing(group) if k is None else is_k_normalizing(group, k)).to_dict()
            for k in ranks
        ]


# (label, degree) -> ranks to sweep, None for all ranks at once
_DIFFERENTIAL = {
    (label, n): [None, *range(1, n)]
    for n in (4, 5, 6)
    for label in catalog_labels(n)
    if label != "trivial"
}
_DIFFERENTIAL[("A7", 7)] = [None, *range(1, 7)]
for _label, _n in (("C4", 4), ("C6", 6), ("D(2*7)", 7)):
    _DIFFERENTIAL[(_label, _n)] = list(range(1, _n))
# rank 6 has its own exhaustive test: the one-coset side checks 15,120
# representatives there, about 30 s
_DIFFERENTIAL[("C7", 7)] = [1, 2, 3, 4, 5]
_DIFFERENTIAL[("PSL(2,7)", 8)] = [4, 5]


@pytest.mark.slow
@pytest.mark.parametrize("label,n", sorted(_DIFFERENTIAL))
def test_normalizer_sweep_matches_the_one_coset_sweep(label, n):
    # conjugation by N_{S_n}(G) fixes G and so every verdict: the sweep of
    # one map per N-orbit must report what the sweep of every G-orbit does,
    # checked included
    group = catalog(label, n)
    if normalizing._normalizer_cosets(group).shape[0] == 1:
        return  # self-normalizing: the sweep is the one-coset sweep itself
    ranks = _DIFFERENTIAL[(label, n)]
    assert _sweep_verdicts(group, ranks) == _sweep_verdicts(group, ranks, one_coset=True)


@pytest.mark.exhaustive
def test_normalizer_sweep_matches_the_one_coset_sweep_c7_rank_6():
    group = catalog("C7", 7)
    assert _sweep_verdicts(group, [6]) == _sweep_verdicts(group, [6], one_coset=True)


def test_negative_normalizer_sweep_counts_g_orbits_on_resume_and_workers(tmp_path, monkeypatch):
    # C5 has four cosets in AGL(1,5); its least failing map is preceded by
    # 63 passing G-orbits, and `checked` must count them however the run went
    group = catalog("C5", 5)
    fresh = is_normalizing(group)
    assert fresh.status == STATUS_NOT and fresh.checked == 64

    # a checkpoint after every batch of four representatives
    monkeypatch.setattr(normalizing, "_CHECKPOINT_SECONDS", 0)
    monkeypatch.setattr(normalizing, "_SWEEP_BATCH", 4)
    path = str(tmp_path / "c5.sweep")
    first = is_normalizing(group, cache_path=path)
    saved = ConjugacySweep.load(path, group, cosets=normalizing._normalizer_cosets(group))
    # saved mid-run: it counts the G-orbits of the N-orbits swept so far
    assert 0 < saved.meta["checked"] == saved.orbits and saved.cursor < fresh.map.encode()
    resumed = is_normalizing(group, cache_path=path)
    parallel = is_normalizing(group, workers=2)
    for v in (first, resumed, parallel):
        assert v.to_dict() == fresh.to_dict()


@pytest.mark.parametrize(
    "label,n,order",
    [
        ("PSL(2,5)", 6, 120),
        ("PSL(2,7)", 8, 336),
        ("A8", 8, 40320),
        ("ASL(2,3)", 9, 432),
        ("PSL(2,8)", 9, 1512),
        ("AGL(1,7)", 7, 42),
        ("PGL(2,7)", 8, 336),
        ("PΓL(2,8)", 9, 1512),
        ("AGL(2,3)", 9, 432),
        ("C7", 7, 42),
        ("S5", 5, 120),
        ("trivial", 6, 720),
        ("trivial", 7, 5040),
        ("C2", 7, 240),
    ],
)
def test_normalizer_cosets(label, n, order):
    if label == "C2":
        group = PermutationGroup([Permutation.parse("(1 2)", n)], label="C2")
    else:
        group = catalog(label, n)
    cosets = normalizing._normalizer_cosets(group)
    assert cosets.dtype == np.int8 and cosets.shape == (order // group.order(), n)
    assert cosets[0].tolist() == list(range(n))
    assert (np.diff(encode_rows(cosets)) > 0).all()  # ascending
    for row in cosets:
        # t normalizes G: it conjugates every generator into G
        t = Permutation(row.tolist())
        assert all(g.conjugated_by(t) in group for g in group.generators)
    # distinct cosets: the sets G t of the representatives t are disjoint
    M = group.element_matrix()
    members = np.concatenate([encode_rows(M[:, row.astype(np.intp)]) for row in cosets])
    assert np.unique(members).size == members.size == order


def test_normalizer_sweep_checks_one_map_per_n_orbit(monkeypatch):
    # PGL(2,5) normalizes PSL(2,5) with index 2: 420 checks cover the 804
    # G-orbits, and the report still counts the 804
    calls = []
    check = normalizing._MapChecker.check

    def spy(checker, a):
        calls.append(a)
        return check(checker, a)

    monkeypatch.setattr(normalizing._MapChecker, "check", spy)
    v = is_normalizing(catalog("PSL(2,5)", 6))
    assert v.status == STATUS_NORMALIZING and v.checked == 804
    assert len(calls) == 420


def test_cache_without_coset_field_is_refused(tmp_path):
    group = catalog("A4", 4)
    cosets = normalizing._normalizer_cosets(group)
    path = tmp_path / "a4.sweep"
    sweep = ConjugacySweep(group, cosets=cosets)
    next(iter(sweep))
    sweep.meta["checked"] = sweep.orbits
    sweep.save(str(path))
    assert ConjugacySweep.load(str(path), group, cosets=cosets).orbits == sweep.orbits
    # a one-coset cache is not one of the normalizer's
    with pytest.raises(SweepCacheMismatch):
        ConjugacySweep.load(str(path), group)
    header, body = path.read_bytes().split(b"\n", 1)
    h = json.loads(header)
    del h["cosets"]
    path.write_bytes(json.dumps(h).encode() + b"\n" + body)
    with pytest.raises(SweepCacheMismatch) as err:
        ConjugacySweep.load(str(path), group, cosets=cosets)
    assert "'cosets'" in str(err.value) and "delete" in str(err.value)


def test_all_marked_walk_skips_to_the_end(monkeypatch):
    # a fully marked span sends the walk to Bitmap.next_unset, so a walk
    # over a fully marked degree-8 bitmap builds one candidate chunk
    built = []
    walk = normalizing._rank_walk

    def spy(n, rank):
        chunks = walk(n, rank)

        def counted(start):
            for chunk in chunks(start):
                built.append(chunk.size)
                yield chunk

        return counted

    monkeypatch.setattr(normalizing, "_rank_walk", spy)
    sweep = ConjugacySweep(catalog("A8", 8))
    sweep.bitmap.data[:] = 0xFF
    assert list(sweep._advance()) == [] and sweep.complete
    assert len(built) == 1


# -- class-level checks and fixtures ----------------------------------------


def test_class_check_is_labeling_independent():
    # the catalog's D(2*5) saves this literal map but fails a relabel of it
    group = catalog("D(2*5)", 5)
    a = Transformation.parse("1,1,1,3,2")
    assert is_a_normalizing(group, a).status == STATUS_NORMALIZING
    v = is_class_normalizing(group, a)
    assert v.status == STATUS_NOT
    shape = lambda t: sorted(len(c) for c in t.kernel().classes())
    assert shape(v.map) == shape(a)
    assert v.map.rank == a.rank


def test_class_check_conjugation_invariance():
    rng = random.Random(5)
    group = catalog("C5", 5)
    a = Transformation.parse("1,1,3,4,1")
    base = is_class_normalizing(group, a).status
    perm = list(range(5))
    rng.shuffle(perm)
    p = Permutation(perm)
    assert is_class_normalizing(group.conjugated_by(p), a).status == base


@pytest.mark.parametrize(
    "n,label",
    [(n, label) for (n, label) in sorted(KNOWN_FAILING_MAPS) if n <= 7],
)
def test_known_failing_maps_small_degrees(n, label):
    group = catalog(label, n)
    a = Transformation.from_one_based(KNOWN_FAILING_MAPS[(n, label)])
    v = is_class_normalizing(group, a)
    assert v.status == STATUS_NOT
    replay = check_pair(group, v.map, v.witness.g)
    assert replay.status == STATUS_NOT


@pytest.mark.slow
@pytest.mark.parametrize(
    "n,label",
    [(n, label) for (n, label) in sorted(KNOWN_FAILING_MAPS) if n >= 8],
)
def test_known_failing_maps_large_degrees(n, label):
    group = catalog(label, n)
    a = Transformation.from_one_based(KNOWN_FAILING_MAPS[(n, label)])
    v = is_class_normalizing(group, a)
    assert v.status == STATUS_NOT


def _class_sweep_reference(group, a):
    """is_class_normalizing by brute force: a's class under all of S_n, split
    into G-orbits, least members ordered by (mapper exists, encoding)."""
    n = group.degree
    klass = sorted(
        {a.conjugated_by(Permutation(p)) for p in permutations(range(n))},
        key=Transformation.encode,
    )
    seen, reps = set(), []
    for b in klass:
        if b not in seen:
            seen |= conjugate_set(group, b)
            reps.append(b)
    reps.sort(key=lambda r: (bool(_section_mapper_rows(group, r).any()), r.encode()))
    for idx, rep in enumerate(reps, start=1):
        v = is_a_normalizing(group, rep)
        if v.status == STATUS_NOT:
            return {
                "status": STATUS_NOT, "group": group.label, "map": list(rep.one_based()),
                "witness": v.witness.to_dict(), "trace": ["class-sweep", *v.trace],
                "checked": idx,
            }
    return {
        "status": STATUS_NORMALIZING, "group": group.label, "map": list(a.one_based()),
        "witness": None, "trace": ["class-sweep"], "checked": len(reps),
    }


def _class_sweep_cases():
    cases = [
        (catalog(label, n), images)
        for (n, label), images in sorted(KNOWN_FAILING_MAPS.items())
        if n <= 7
    ]
    groups = [
        catalog(label, n)
        for label, n in [("C5", 5), ("D(2*5)", 5), ("AGL(1,5)", 5), ("PSL(2,5)", 6), ("A4", 4)]
    ]
    groups.append(PermutationGroup([Permutation.parse("(1 2 3 4 5 6)", 6)], label="C6"))
    rng = random.Random(41)
    for group in groups:
        n = group.degree
        for k in range(1, n):
            # a map of rank k: k distinct image points, the other n - k drawn from them
            pts = rng.sample(range(n), k)
            images = pts + [rng.choice(pts) for _ in range(n - k)]
            rng.shuffle(images)
            cases.append((group, tuple(p + 1 for p in images)))
    return cases


@pytest.mark.parametrize(
    "group,images", _class_sweep_cases(), ids=lambda x: getattr(x, "label", None)
)
def test_class_sweep_matches_brute_force(group, images):
    a = Transformation.from_one_based(images)
    assert is_class_normalizing(group, a).to_dict() == _class_sweep_reference(group, a)


def test_class_sweep_builds_no_bitmap_and_no_symmetric_group(monkeypatch):
    built, labels = [], []
    init = Bitmap.__init__
    build = normalizing.catalog

    def spy_init(bitmap, *args, **kwargs):
        built.append(args)
        init(bitmap, *args, **kwargs)

    def spy_catalog(label, degree):
        labels.append(label)
        return build(label, degree)

    monkeypatch.setattr(Bitmap, "__init__", spy_init)
    monkeypatch.setattr(normalizing, "catalog", spy_catalog)
    group = catalog("AGL(1,8)", 8)
    a = Transformation.from_one_based(KNOWN_FAILING_MAPS[(8, "AGL(1,8)")])
    assert is_class_normalizing(group, a).status == STATUS_NOT
    assert built == [] and labels == []


def test_m12_witness_is_reproduced_verbatim():
    v = m12_witness_check()
    assert v.status == STATUS_NOT
    assert v.map.one_based() == M12_WITNESS_MAP
    assert v.witness.g == Permutation.parse(M12_WITNESS_G, 12)
    assert v.trace == ("shortcut",)

    group = catalog("M12", 12)
    a = Transformation.from_one_based(M12_WITNESS_MAP)
    # no element of M12 maps the 6-point image onto a kernel section,
    # so conjugate-set membership is the whole fight and it fails
    assert exists_section_mapper(group, a) is None
    general = is_a_normalizing(group, a)
    assert general.status == STATUS_NOT
    assert general.trace == ("shortcut",)
    assert (a * v.witness.g) not in conjugate_set(group, a)


# -- structural filters -------------------------------------------------------


def test_filters_trivial_group():
    report = structural_filters(catalog("trivial", 5))
    assert report.passed
    assert report.checks[0].name == "trivial"


def test_filters_pass_for_degree_5_candidates():
    for label in ("C5", "D(2*5)", "AGL(1,5)", "A5", "S5"):
        report = structural_filters(catalog(label, 5))
        assert report.passed, label
        assert report.first_rejection is None
        assert report.witness_maps() == ()


def test_intransitive_group_fails_with_valid_witness():
    group = PermutationGroup([Permutation.parse("(1 2 3)", 5)], label="C3@5")
    report = structural_filters(group)
    assert report.first_rejection == "transitive"
    (witness,) = [c.witness_map for c in report.checks if c.name == "transitive"]
    assert is_a_normalizing(group, witness).status == STATUS_NOT


def test_imprimitive_group_fails_with_valid_witness():
    group = PermutationGroup([Permutation.parse("(1 2 3 4)", 4)], label="C4")
    report = structural_filters(group)
    assert report.first_rejection == "primitive"
    names = [c.name for c in report.checks]
    assert names[0] == "transitive" and report.checks[0].passed
    (witness,) = [c.witness_map for c in report.checks if c.name == "primitive"]
    assert witness.rank == 2
    assert is_a_normalizing(group, witness).status == STATUS_NOT


def test_homogeneity_failure_gives_shortcut_witness():
    group = PermutationGroup([Permutation.parse("(1 2 3 4 5 6)", 6)], label="C6")
    report = structural_filters(group)
    failing = [c for c in report.checks if not c.passed and "homogeneous" in c.name]
    assert failing
    for check in failing:
        witness = check.witness_map
        assert witness is not None
        # the pairing that failed is the one a section mapper would need
        assert exists_section_mapper(group, witness) is None
        assert is_a_normalizing(group, witness).status == STATUS_NOT


def test_every_failed_filter_witness_actually_fails():
    suite = [
        PermutationGroup([Permutation.parse("(1 2)", 4)], label="C2@4"),
        PermutationGroup([Permutation.parse("(1 2 3)", 6)], label="C3@6"),
        PermutationGroup(
            [Permutation.parse("(1 2)", 6), Permutation.parse("(3 4 5 6)", 6)],
            label="C2xC4",
        ),
        PermutationGroup(
            [Permutation.parse("(1 2 3 4 5 6)", 6), Permutation.parse("(2 6)(3 5)", 6)],
            label="D12",
        ),
        PermutationGroup(
            [Permutation.parse("(1 2)(3 4)", 4), Permutation.parse("(1 3)(2 4)", 4)],
            label="V4",
        ),
    ]
    for group in suite:
        report = structural_filters(group)
        assert not report.passed, group.label
        for witness in report.witness_maps():
            assert is_a_normalizing(group, witness).status == STATUS_NOT, group.label


# -- classification -----------------------------------------------------------


def test_classify_degree_4():
    report = classify(4)
    assert report.matches_expected
    assert set(report.normalizing_labels) == {"trivial", "A4", "S4"}


@pytest.mark.slow
def test_classify_degree_5():
    report = classify(5)
    assert report.matches_expected
    assert report.mismatches() == ()
    by_label = {v.group: v for v in report.verdicts}
    assert by_label["C5"].witness is not None
    assert by_label["C5"].trace[0] == "fixture"


@pytest.mark.slow
def test_classify_degree_12():
    report = classify(12)
    assert report.matches_expected
    m12 = next(v for v in report.verdicts if v.group == "M12")
    assert m12.status == STATUS_NOT
    assert m12.witness.g == Permutation.parse(M12_WITNESS_G, 12)


def test_classify_rejects_unknown_degree():
    with pytest.raises(ValueError):
        classify(10)


def test_verdict_serialization_shape():
    v = is_a_normalizing(catalog("C5", 5), Transformation.parse("1,1,3,4,1"))
    d = v.to_dict()
    assert d["status"] == STATUS_NOT
    assert d["map"] == [1, 1, 3, 4, 1]
    assert d["witness"]["g"]["cycles"] == v.witness.g.cycle_string()
    assert "seconds" not in d
    assert "seconds" in v.to_dict(timings=True)
