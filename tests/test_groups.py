import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from normgroups.catalog import catalog
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


def brute_force_restrictions(group, points):
    # the first element of each distinct restriction to the points, and
    # how many elements fix every point
    firsts = {}
    fixers = 0
    for i, g in enumerate(group.elements()):
        firsts.setdefault(tuple(g.images[p] for p in points), i)
        fixers += all(g.images[p] == p for p in points)
    return sorted(firsts.values()), fixers


@pytest.mark.parametrize(
    "label,n,sample",
    [("A7", 7, None), ("S7", 7, None), ("AGL(1,7)", 7, None), ("PSL(2,5)", 6, None),
     ("C5", 5, None), ("trivial", 3, None), ("A8", 8, 20)],
)
def test_distinct_restrictions_match_brute_force(label, n, sample):
    # a fresh copy, so the table is built here and not read from a cache
    group = PermutationGroup(catalog(label, n).generators, degree=n, label=label)
    masks = range(1 << n)
    if sample is not None:
        masks = random.Random(17).sample(masks, sample)
    for mask in masks:
        points = [p for p in range(n) if (mask >> p) & 1]
        firsts, fixers = brute_force_restrictions(group, points)
        table = group.distinct_restrictions(mask)
        if fixers == 1:
            assert table is None, (label, points)
            assert firsts == list(range(group.order()))
        else:
            assert table is not None and table.dtype == np.int32, (label, points)
            assert table.tolist() == firsts, (label, points)
            assert len(firsts) * fixers == group.order()
        assert group.distinct_restrictions(mask) is table
