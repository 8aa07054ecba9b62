import itertools
import random

import pytest

from normgroups.transform import (
    KernelPartition,
    ParseError,
    Permutation,
    Transformation,
)


def naive_compose(s, t):
    # independent oracle: evaluate pointwise
    return [t.images[s.images[x]] for x in range(s.degree)]


def naive_conjugate(a, g):
    # independent oracle: x -> g(a(g^-1(x))) via dicts
    ginv = {v: x for x, v in enumerate(g.images)}
    return [g.images[a.images[ginv[x]]] for x in range(a.degree)]


def test_construction_validates():
    with pytest.raises(ValueError):
        Transformation([])
    with pytest.raises(ValueError):
        Transformation([0, 3, 1])
    with pytest.raises(ValueError):
        Transformation([0, -1])
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_compose_left_to_right():
    s = Transformation.from_one_based([2, 2, 3])
    t = Transformation.from_one_based([3, 1, 1])
    # (x)(s*t) = t(s(x))
    assert (s * t).images == tuple(naive_compose(s, t))
    assert (s * t).one_based() == (1, 1, 1)
    assert (t * s).one_based() == (3, 2, 2)


def test_compose_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        Transformation([0]) * Transformation([0, 1])


def test_idempotent_witness_map_squares_to_itself():
    a = Transformation.parse("1,1,3,4,1")
    assert (a * a) == a
    assert a.is_idempotent()


def test_conjugate_small_example():
    a = Transformation.from_one_based([1, 1, 2])
    g = Permutation.parse("(1 2 3)")
    c = a.conjugated_by(g)
    assert c.one_based() == (3, 2, 2)
    assert c.images == tuple(naive_conjugate(a, g))


def test_conjugate_matches_oracle_randomized():
    rng = random.Random(7)
    for n in range(1, 8):
        perms = list(itertools.permutations(range(n)))
        for _ in range(40):
            a = Transformation([rng.randrange(n) for _ in range(n)])
            g = Permutation(rng.choice(perms))
            assert a.conjugated_by(g).images == tuple(naive_conjugate(a, g))


def test_conjugation_preserves_rank_and_relabels_kernel():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(2, 8)
        a = Transformation([rng.randrange(n) for _ in range(n)])
        g = Permutation(rng.sample(range(n), n))
        c = a.conjugated_by(g)
        assert c.rank == a.rank
        assert sorted(len(k) for k in c.kernel().classes()) == sorted(
            len(k) for k in a.kernel().classes()
        )
        assert c.image() == tuple(sorted(g.images[p] for p in a.image()))


def test_kernel_of_degree9_map():
    a = Transformation.parse("7,8,8,6,9,4,8,7,5")
    got = {frozenset(p + 1 for p in c) for c in a.kernel().classes()}
    assert got == {
        frozenset({1, 8}),
        frozenset({2, 3, 7}),
        frozenset({4}),
        frozenset({5}),
        frozenset({6}),
        frozenset({9}),
    }
    assert a.rank == 6


def test_kernel_canonical_first_appearance():
    a = Transformation.from_one_based([5, 5, 2, 2, 1])
    assert a.kernel().class_ids == (0, 0, 1, 1, 2)
    b = Transformation.from_one_based([3, 3, 4, 4, 5])
    assert a.kernel() == b.kernel()


def test_image_of_degree12_witness_map():
    a = Transformation.parse("1,2,3,4,5,5,6,6,6,6,6,6")
    assert a.image() == (0, 1, 2, 3, 4, 5)
    assert tuple(p + 1 for p in a.image()) == (1, 2, 3, 4, 5, 6)


def test_image_of_idempotent_is_section_of_own_kernel():
    for n in range(1, 6):
        for images in itertools.product(range(n), repeat=n):
            t = Transformation(images)
            if t.is_idempotent():
                # the image meets every kernel class exactly once
                ids = t.kernel().class_ids
                assert sorted(ids[p] for p in t.image()) == list(range(t.rank))


def test_encode_examples():
    assert Transformation.from_one_based([1, 2]).encode() == 1
    assert Transformation.from_one_based([2, 1]).encode() == 2
    assert Transformation.from_one_based([1, 1, 1]).encode() == 0
    assert Transformation.from_one_based([3, 3, 3]).encode() == 26


def test_encode_decode_roundtrip_exhaustive():
    for n in (1, 2, 3):
        seen = set()
        for idx in range(n**n):
            t = Transformation.decode(n, idx)
            assert t.encode() == idx
            seen.add(t.images)
        assert len(seen) == n**n


def test_encoding_orders_lexicographically():
    # itertools.product lists the image tuples lexicographically
    ts = [Transformation(t) for t in itertools.product(range(3), repeat=3)]
    assert [t.encode() for t in ts] == list(range(27))


def test_decode_range_errors():
    with pytest.raises(ValueError):
        Transformation.decode(3, 27)
    with pytest.raises(ValueError):
        Transformation.decode(3, -1)
    with pytest.raises(ValueError):
        Transformation.decode(0, 0)


def test_permutation_inverse_and_cycles():
    g = Permutation.parse("(1 2 3)(4 5)", degree=6)
    assert g.images == (1, 2, 0, 4, 3, 5)
    assert (g * g.inverse()) == Permutation.identity(6)
    assert g.cycle_string() == "(1 2 3)(4 5)"
    assert Permutation.identity(4).cycle_string() == "()"
    assert Permutation.parse("2,3,1").cycle_string() == "(1 2 3)"


def test_cycle_parse_errors():
    with pytest.raises(ParseError):
        Permutation.parse("(1 2)(2 3)")
    with pytest.raises(ParseError):
        Permutation.parse("(1 2", degree=3)
    with pytest.raises(ParseError):
        Permutation.parse("(0 1)")
    with pytest.raises(ParseError):
        Permutation.parse("(1 5)", degree=3)
    err = None
    try:
        Transformation.parse("1,x,2")
    except ParseError as e:
        err = e
    assert err is not None and err.column == 3


def test_image_list_parse_validation():
    with pytest.raises(ParseError):
        Transformation.parse("1,2,9")
    with pytest.raises(ParseError):
        Transformation.parse("1,2", degree=3)
    with pytest.raises(ParseError):
        Permutation.parse("1,1,2")
    a = Transformation.parse("1, 1, 3, 4, 1")
    assert a.one_based() == (1, 1, 3, 4, 1)
    assert str(a) == "1,1,3,4,1"


def test_kernel_partition_rejects_bad_ids():
    with pytest.raises(ValueError):
        KernelPartition([1, 0])
    with pytest.raises(ValueError):
        KernelPartition([0, 2])
    assert KernelPartition([0, 0, 1]).classes() == [(0, 1), (2,)]
