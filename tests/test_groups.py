import itertools
import random
import tracemalloc
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from normgroups import groups
from normgroups.catalog import _build, catalog, catalog_labels
from normgroups.groups import PermutationGroup, group_from_generator_text
from normgroups.transform import ParseError, Permutation, Transformation


def set_partitions(points):
    # all partitions of a list, for the brute-force primitivity oracle
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_force_primitive(group):
    if not group.is_transitive():
        return False
    n = group.degree
    if n <= 2:
        return True
    for part in set_partitions(list(range(n))):
        if len(part) in (1, n):
            continue
        blocks = {frozenset(b) for b in part}
        invariant = all(
            frozenset(g.images[p] for p in b) in blocks for b in blocks for g in group.generators
        )
        if invariant:
            return False
    return True


def brute_force_ij_homogeneous(group, i, j):
    n = group.degree
    elems = group.elements()
    for I in itertools.combinations(range(n), i):
        for J in itertools.combinations(range(n), j):
            js = set(J)
            if not any(all(g.images[p] in js for p in I) for g in elems):
                return False
    return True


def queue_bfs_rows(group):
    # the reference order: a FIFO walk from the identity over image tuples,
    # appending each element's unseen successors in generator order
    identity = tuple(range(group.degree))
    seen = {identity}
    order = [identity]
    queue = deque([identity])
    gens = [g.images for g in group.generators]
    while queue:
        cur = queue.popleft()
        for g in gens:
            nxt = tuple(g[v] for v in cur)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


def random_generator_lists(seed):
    rng = random.Random(seed)
    for n in range(2, 8):
        for count in (1, 2, 3):
            gens = []
            for _ in range(count):
                images = list(range(n))
                rng.shuffle(images)
                gens.append(Permutation(images))
            yield gens
            yield gens + [gens[0]]  # a repeated generator
            yield [Permutation.identity(n)] + gens
    # intransitive: one factor on {1..3}, one on {4..7}
    yield [Permutation.parse("(1 2 3)", 7), Permutation.parse("(4 5 6 7)", 7),
           Permutation.parse("(4 5)", 7)]


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12])
def test_element_matrix_matches_the_queue_walk_on_the_catalog(degree):
    # every "first witness", and the order serial and parallel sweeps share,
    # is read from this row order
    labels = [(label, degree) for label in catalog_labels(degree)]
    if degree == 9:
        labels += [("C17", 17), ("D(2*20)", 20)]
    for label, n in labels:
        group = catalog(label, n)
        assert group.element_matrix().tolist() == [list(r) for r in queue_bfs_rows(group)], label
        assert group.element_matrix().dtype == np.int8


def test_element_matrix_matches_the_queue_walk_on_random_generators():
    groups = [PermutationGroup([], degree=k) for k in (1, 2, 5, 16)]
    groups += [PermutationGroup(gens) for gens in random_generator_lists(23)]
    assert any(not g.is_transitive() and g.order() > 1 for g in groups)
    for g in groups:
        want = queue_bfs_rows(g)
        assert g.element_matrix().tolist() == [list(r) for r in want], g.label
        assert g.order() == len(want)


def test_key_walk_matches_the_queue_walk_at_every_level(monkeypatch):
    # with no level small enough for the set, every level up to degree 15
    # is deduped by sorted keys; the rows stay the queue walk's, and the
    # keys left behind are the sorted codes of every row
    monkeypatch.setattr(groups, "_SET_LEVEL", 0)
    built = [PermutationGroup(gens) for gens in random_generator_lists(29)]
    built += [PermutationGroup(catalog(label, n).generators, degree=n)
              for label, n in (("M12", 12), ("AGL(1,8)", 8), ("C17", 17))]
    for g in built:
        rows = g.element_matrix()
        assert rows.tolist() == [list(r) for r in queue_bfs_rows(g)], g.label
        if g.order() > 1 and g.degree <= 15:
            assert g._keys is not None, g.label
        assert np.array_equal(g.element_keys(), np.sort(groups._row_keys(rows))), g.label


def test_elements_view_reads_the_matrix():
    g = catalog("AGL(1,7)", 7)
    m = g.element_matrix()
    elements = g.elements()
    assert len(elements) == g.order() == 42
    assert elements[-1] == Permutation(m[41].tolist())
    assert elements[np.int32(5)] == Permutation(m[5].tolist())
    assert elements[np.int64(-42)] == Permutation.identity(7)
    with pytest.raises(IndexError):
        elements[42]
    with pytest.raises(IndexError):
        elements[-43]
    assert list(elements) == [Permutation(row) for row in m.tolist()]


def test_element_matrix_builds_no_permutations(monkeypatch):
    built = []
    original = Permutation.__init__

    def spy(self, images):
        built.append(images)
        original(self, images)

    _build.cache_clear()  # so catalog() builds a fresh A9 here
    monkeypatch.setattr(Permutation, "__init__", spy)
    group = catalog("A9", 9)
    assert group.order() == 181440
    assert group.element_matrix().shape == (181440, 9)
    assert len(built) == len(group.generators) == 2


def _element_matrix_memory(label):
    # (order, tracemalloc peak, bytes held after) of building the rows of
    # a fresh copy of a degree-9 catalog group
    gens = catalog(label, 9).generators
    tracemalloc.start()
    try:
        group = PermutationGroup(gens, degree=9)
        group.element_matrix()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return group.order(), peak, held


def test_element_matrix_memory_a9():
    # the int8 rows of A9 are 1.6 MiB and their sorted int64 keys 1.4 MiB;
    # the walk dedupes its large levels by those keys, so the build keeps
    # no Python object per element
    order, peak, held = _element_matrix_memory("A9")
    assert order == 181440
    assert peak < 16 * 2**20, peak
    assert held < 4 * 2**20, held


def test_element_matrix_memory_s9():
    # 3.1 MiB of rows and 2.8 MiB of keys; a set of row bytes peaked at 42 MiB
    order, peak, held = _element_matrix_memory("S9")
    assert order == 362880
    assert peak < 24 * 2**20, peak
    assert held < 8 * 2**20, held


def test_elements_refuse_degrees_past_int8():
    assert PermutationGroup([Permutation.from_cycles([[0, 126]], 127)]).order() == 2
    wide = PermutationGroup([Permutation.from_cycles([[0, 129]], 130)])
    for build in (wide.order, wide.element_matrix, wide.elements):
        with pytest.raises(ValueError, match="int8 element rows stop at degree 127"):
            build()


def test_elements_small():
    g = PermutationGroup([Permutation.parse("(1 2)", 3), Permutation.parse("(1 2 3)")])
    assert g.order() == 6
    assert g.elements()[0] == Permutation.identity(3)
    assert len({p.images for p in g.elements()}) == 6


def test_trivial_group_needs_degree():
    with pytest.raises(ValueError):
        PermutationGroup([])
    t = PermutationGroup([], degree=4)
    assert t.order() == 1 and t.degree == 4


def test_element_matrix_and_inverses():
    g = catalog("AGL(1,5)", 5)
    m = g.element_matrix()
    inv = g.inverse_matrix()
    assert m.shape == (20, 5)
    for row, irow in zip(m, inv):
        composed = [irow[row[x]] for x in range(5)]
        assert composed == list(range(5))


def test_membership_agrees_with_elements():
    rng = random.Random(11)
    groups = [catalog("C5", 5), catalog("A4", 4), catalog("PSL(2,5)", 6),
              PermutationGroup([], degree=3)]
    for g in groups:
        members = set(g.elements())
        assert all(p in g for p in members)
        for _ in range(60):
            images = list(range(g.degree))
            rng.shuffle(images)
            p = Permutation(images)
            assert (p in g) == (p in members), (g.label, p)
    a4 = catalog("A4", 4)
    assert Permutation.parse("(1 2)", 4) not in a4
    assert Permutation.identity(3) not in a4 and Permutation.identity(5) not in a4
    assert Transformation.parse("1,2,3,4") not in a4  # identity images, not a Permutation
    assert Transformation.parse("1,1,2,3") not in a4
    assert "(1 2 3)" not in a4


@pytest.mark.parametrize("label, n", [("A9", 9), ("AGL(1,7)", 7), ("C17", 17), ("D(2*20)", 20)])
def test_membership_reads_the_element_keys(label, n):
    # A9's walk leaves its sorted int64 keys behind; AGL(1,7)'s small
    # levels leave none, so the keys are built on the first lookup; above
    # degree 15 the keys are row bytes
    group = PermutationGroup(catalog(label, n).generators, degree=n)
    rows = group.element_matrix()
    assert (group._keys is not None) == (label == "A9")
    keys = group.element_keys()
    assert keys.dtype == (np.int64 if n <= 15 else np.dtype((np.void, n)))
    assert keys.shape[0] == group.order() and np.array_equal(keys, np.unique(keys))
    rng = random.Random(n)
    picks = rng.sample(range(rows.shape[0]), min(20, rows.shape[0]))
    members = [Permutation(rows[i].tolist()) for i in picks + [0, -1]]
    if label == "A9":
        # every odd permutation lies outside A9
        outside = [Permutation.parse("(1 2)", 9), Permutation.parse("(1 2 3 4)(5 6 7)", 9)]
        outside += [p * Permutation.parse("(8 9)", 9) for p in members]
    else:
        listed = set(map(tuple, rows.tolist()))
        outside = []
        while len(outside) < 20:
            images = list(range(n))
            rng.shuffle(images)
            if tuple(images) not in listed:
                outside.append(Permutation(images))
    assert all(p in group for p in members)
    assert not any(p in group for p in outside)


def test_conjugated_copy_same_order():
    g = catalog("D(2*5)", 5)
    p = Permutation.parse("(1 3 5 2 4)")
    assert g.conjugated_by(p).order() == g.order()


def test_orbit_points():
    g = catalog("C5", 5)
    orb = g.orbit(0)
    assert orb[0] == 0 and sorted(orb) == [0, 1, 2, 3, 4]
    assert g.orbit(2) == (2, 3, 4, 0, 1)  # discovery order along (1 2 3 4 5)
    assert PermutationGroup([Permutation.parse("(1 2)", 4)]).orbit(3) == (3,)


def test_orbit_rejects_bad_seeds():
    g = catalog("C5", 5)
    for seed in (9, -1, (0, 1)):
        with pytest.raises(ValueError):
            g.orbit(seed)


def test_transitivity():
    assert catalog("PSL(2,8)", 9).is_transitive()
    assert catalog("C5", 5).is_transitive()
    assert not PermutationGroup([Permutation.parse("(1 2)", 3)]).is_transitive()
    assert not PermutationGroup([], degree=3).is_transitive()
    assert PermutationGroup([], degree=1).is_transitive()


def test_primitivity_known_cases():
    assert catalog("M12", 12).is_primitive()
    assert catalog("C5", 5).is_primitive()  # prime degree
    assert not PermutationGroup([Permutation.parse("(1 2 3 4)")]).is_primitive()
    s2wr = PermutationGroup([Permutation.parse("(1 2)", 4), Permutation.parse("(1 3)(2 4)")])
    assert s2wr.is_transitive() and not s2wr.is_primitive()
    assert s2wr.minimal_block_system() == [(0, 1), (2, 3)]
    assert catalog("A4", 4).minimal_block_system() is None


def test_primitivity_matches_brute_force():
    cases = [
        catalog("C5", 5),
        catalog("D(2*5)", 5),
        catalog("AGL(1,5)", 5),
        catalog("PSL(2,5)", 6),
        catalog("A4", 4),
        catalog("S5", 5),
        catalog("AGL(1,7)", 7),
        PermutationGroup([Permutation.parse("(1 2 3 4)")]),
        PermutationGroup([Permutation.parse("(1 2 3 4 5 6)")]),
        PermutationGroup([Permutation.parse("(1 2 3)", 6), Permutation.parse("(1 2)", 6),
                          Permutation.parse("(1 4)(2 5)(3 6)")]),
    ]
    for g in cases:
        assert g.is_primitive() == brute_force_primitive(g), g.label


def test_homogeneity_trivial_group():
    t = PermutationGroup([], degree=3)
    ok, witness = t.is_ij_homogeneous(1, 1)
    assert not ok and witness == ((0,), (1,))


def test_homogeneity_known_values():
    c5 = catalog("C5", 5)
    d10 = catalog("D(2*5)", 5)
    for g in (c5, d10):
        assert g.is_ij_homogeneous(2, 3)[0]
        assert not g.is_ij_homogeneous(2, 2)[0]
    agl17 = catalog("AGL(1,7)", 7)
    assert agl17.is_ij_homogeneous(3, 4)[0]
    assert not agl17.is_ij_homogeneous(3, 3)[0]


def test_homogeneity_matches_brute_force():
    for g in (catalog("C5", 5), catalog("D(2*5)", 5), catalog("A4", 4), catalog("PSL(2,5)", 6)):
        for i in range(1, 4):
            for j in range(i, min(4, g.degree) + 1):
                assert g.is_ij_homogeneous(i, j)[0] == brute_force_ij_homogeneous(g, i, j)


def test_homogeneity_validates_args():
    g = catalog("C5", 5)
    with pytest.raises(ValueError):
        g.is_ij_homogeneous(3, 2)
    with pytest.raises(ValueError):
        g.is_ij_homogeneous(0, 2)


def test_homogeneity_witness_fails_for_real():
    g = catalog("C5", 5)
    ok, (I, J) = g.is_ij_homogeneous(2, 2)
    js = set(J)
    assert not any(all(h.images[p] in js for p in I) for h in g.elements())


def test_average_intersection_c5():
    g = catalog("C5", 5)
    A, B = [0, 1], [0, 1, 2]
    avg = g.average_intersection(A, B)
    assert avg == Fraction(6, 5)
    # independent oracle
    total = sum(len({h.images[p] for p in A} & set(B)) for h in g.elements())
    assert avg == Fraction(total, g.order())


def test_average_intersection_formula_random_pairs():
    rng = random.Random(5)
    for g in (catalog("C5", 5), catalog("PSL(2,5)", 6), catalog("AGL(1,7)", 7)):
        n = g.degree
        for _ in range(20):
            A = rng.sample(range(n), rng.randrange(1, n + 1))
            B = rng.sample(range(n), rng.randrange(1, n + 1))
            assert g.average_intersection(A, B) == Fraction(len(A) * len(B), n)


def test_average_intersection_edges():
    g = catalog("C5", 5)
    assert g.average_intersection(range(5), range(5)) == 5
    assert g.average_intersection([2], range(3)) == Fraction(3, 5)
    with pytest.raises(ValueError):
        PermutationGroup([Permutation.parse("(1 2)", 3)]).average_intersection([0], [1])
    with pytest.raises(ValueError):
        g.average_intersection([0, 9], [1])


def test_group_from_generator_text():
    text = """
    # the dihedral group on 5 points
    (1 2 3 4 5)
    1,5,4,3,2   # a reflection as an image list
    """
    g = group_from_generator_text(text, label="reflections")
    assert g.order() == 10 and g.degree == 5 and g.label == "reflections"
    with pytest.raises(ParseError) as err:
        group_from_generator_text("(1 2)\n(3 4")
    assert err.value.line == 2
    short = group_from_generator_text("(1 2)\n(4 5)")
    assert short.degree == 5 and short.order() == 4


@pytest.mark.parametrize("label,n", [("A9", 9), ("PSL(2,8)", 9), ("AGL(1,7)", 7), ("D(2*15)", 15)])
def test_subset_transversal_takes_each_orbit_least_mask_onto_its_own(label, n):
    # a fresh copy, so the table is built here and not read from a cache
    group = PermutationGroup(catalog(label, n).generators, degree=n, label=label)
    rows = group.subset_transversal()
    assert rows.shape == (1 << n, n) and rows.dtype == np.int8
    members = {tuple(row) for row in group.element_matrix().tolist()}
    assert all(tuple(row) in members for row in rows.tolist()), label
    least = group.subset_orbits()
    for mask, (row, root) in enumerate(zip(rows.tolist(), least.tolist())):
        assert sum(1 << row[p] for p in range(n) if (root >> p) & 1) == mask, (label, mask)
    assert group.subset_transversal() is rows
