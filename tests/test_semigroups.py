import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from normgroups import normalizing, semigroups
from normgroups.catalog import catalog
from normgroups.semigroups import (
    TransSemigroup,
    _first_in_columns,
    _grow_group,
    _is_odd,
    _mask,
    certificate_from_matrix,
    decode_encodings,
    encode_rows,
    in_r_class,
)
from normgroups.transform import Permutation, Transformation
from semigroup_facts import idempotents, is_idempotent_generated, is_regular
from tuple_search import kernel_members


def r_class_certificate(gens, anchor):
    # the certificate of a list of maps, through their image matrix
    return certificate_from_matrix(np.array([g.images for g in gens], dtype=np.int8), anchor)


def naive_closure(gens):
    # independent oracle: repeated two-sided products until fixpoint
    elems = set(gens)
    while True:
        new = set()
        for x in elems:
            for g in gens:
                for p in (x * g, g * x):
                    if p not in elems:
                        new.add(p)
        if not new:
            return elems
        elems |= new


def brute_r_class(elements, a):
    elems = set(elements)
    right = {a} | {a * s for s in elems}

    def reaches(x, y):
        return y == x or y in {x * s for s in elems}

    return {x for x in elems if x in right and reaches(x, a)}


def test_closure_of_a_three_cycle():
    s = TransSemigroup([Permutation.parse("(1 2 3)")])
    s.close()
    assert len(s) == 3 and s.complete


def test_closure_generates_full_monoid():
    gens = [
        Permutation.parse("(1 2)", 3),
        Permutation.parse("(1 2 3)"),
        Transformation.parse("1,1,2"),
    ]
    s = TransSemigroup(gens).close()
    assert len(s) == 27
    assert {t for t in s} == set(naive_closure(gens))


def test_closure_matches_oracle_randomized():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(2, 5)
        k = rng.randrange(1, 4)
        gens = [Transformation([rng.randrange(n) for _ in range(n)]) for _ in range(k)]
        s = TransSemigroup(gens).close()
        assert {t for t in s} == naive_closure(gens)


def test_contains_and_degree_checks():
    a = Transformation.parse("1,1,2")
    s = TransSemigroup([a])
    assert s.contains(a)
    assert not s.contains(Permutation.identity(3))
    with pytest.raises(ValueError):
        s.contains(Transformation.parse("1,1"))
    with pytest.raises(ValueError):
        TransSemigroup([])
    with pytest.raises(ValueError):
        TransSemigroup([a, Transformation.parse("1,1")])


def test_closure_refuses_degrees_above_9():
    # the seen-bitmap takes n**n bits
    with pytest.raises(ValueError, match="closures stop at degree 9"):
        TransSemigroup([Transformation.parse("1,1,2,3,4,5,6,7,8,9")])


def test_closure_generates_all_of_t4():
    gens = [
        Permutation.parse("(1 2)", 4),
        Permutation.parse("(1 2 3 4)"),
        Transformation.parse("1,1,2,3"),
    ]
    full = TransSemigroup(gens).close()
    assert full.complete and len(full) == 256


def test_element_order_is_deterministic():
    gens = [Transformation.parse("2,3,3"), Transformation.parse("1,1,2")]
    e1 = list(TransSemigroup(gens).close().encodings())
    e2 = list(TransSemigroup(gens).close().encodings())
    assert e1 == e2
    assert e1[0] == gens[0].encode() and e1[1] == gens[1].encode()


def test_idempotents_of_full_monoid():
    gens = [
        Permutation.parse("(1 2)", 3),
        Permutation.parse("(1 2 3)"),
        Transformation.parse("1,1,2"),
    ]
    s = TransSemigroup(gens).close()
    idems = idempotents(s)
    assert len(idems) == 10  # sum over k of C(3,k) * k^(3-k)
    assert all(e * e == e for e in idems)
    t3 = map(Transformation, itertools.product(range(3), repeat=3))
    assert set(idems) == {t for t in t3 if t * t == t}


def test_idempotent_generated_examples():
    a = Transformation.parse("2,3,3")
    s = TransSemigroup([a]).close()
    assert {t.one_based() for t in s} == {(2, 3, 3), (3, 3, 3)}
    assert not is_idempotent_generated(s)
    g = catalog("AGL(1,5)", 5)
    b = Transformation.parse("1,1,3,4,1")
    conj = sorted({b.conjugated_by(h) for h in g.elements()})
    assert is_idempotent_generated(TransSemigroup(conj))


def test_regularity_examples():
    assert not is_regular(TransSemigroup([Transformation.parse("2,3,3")]))
    gens = [
        Permutation.parse("(1 2)", 3),
        Permutation.parse("(1 2 3)"),
        Transformation.parse("1,1,2"),
    ]
    assert is_regular(TransSemigroup(gens))


def test_regularity_matches_brute_force():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(2, 5)
        gens = [Transformation([rng.randrange(n) for _ in range(n)]) for _ in range(2)]
        s = TransSemigroup(gens).close()
        elems = list(s)
        naive = all(any(x * y * x == x for y in elems) for x in elems)
        assert is_regular(s) == naive


def test_min_rank_pruning_keeps_high_rank_members_exactly():
    rng = random.Random(59)
    for _ in range(15):
        n = rng.randrange(3, 6)
        gens = [Transformation([rng.randrange(n) for _ in range(n)]) for _ in range(3)]
        full = naive_closure(gens)
        r = min(t.rank for t in gens)
        pruned = TransSemigroup(gens, min_rank=r).close()
        expected = {t for t in full if t.rank >= r} | set(gens)
        assert {t for t in pruned} == expected
        probe = next(iter(full))
        if probe.rank >= r:
            assert pruned.contains(probe)
    s = TransSemigroup([Transformation.parse("1,1,2")], min_rank=2).close()
    with pytest.raises(ValueError):
        s.contains(Transformation.parse("1,1,1"))


def _random_map_of_rank(rng, n, r):
    while True:
        t = Transformation([rng.randrange(n) for _ in range(n)])
        if t.rank == r:
            return t


def test_kernel_members_matches_closure():
    # every map with the anchor's kernel and rank, against the rank-pruned
    # closure of random generators of that rank, the anchor among them
    rng = random.Random(71)
    outcomes = [0, 0]
    for _ in range(250):
        n = rng.randrange(3, 7)
        r = rng.randrange(1, n)
        anchor = _random_map_of_rank(rng, n, r)
        gens = [anchor] + [_random_map_of_rank(rng, n, r) for _ in range(rng.randrange(0, 3))]
        rng.shuffle(gens)
        oracle = TransSemigroup(gens, min_rank=r)
        classes = anchor.kernel().class_ids
        targets = [
            Transformation(pick[c] for c in classes)
            for pick in itertools.permutations(range(n), r)
        ]
        got = kernel_members(
            np.array([g.images for g in gens], dtype=np.int8),
            anchor,
            np.array([t.images for t in targets], dtype=np.int8),
        )
        for t, member in zip(targets, got.tolist()):
            assert member == oracle.contains(t), ([g.images for g in gens], t.images)
            outcomes[member] += 1
    assert min(outcomes) > 100
    # a generator of another rank breaks the kernel argument: refused
    a = Transformation.parse("1,1,2,3")
    gens = np.array([a.images, Transformation.parse("1,1,1,2").images], dtype=np.int8)
    with pytest.raises(ValueError):
        kernel_members(gens, a, np.array([a.images], dtype=np.int8))


def test_masks_are_int16_up_to_degree_15():
    # every mask of at most 15 points fits int16; the mask of all 15 is the largest
    rng = random.Random(43)
    for n in range(1, 16):
        width = rng.randrange(1, n + 1)
        rows = np.array([[rng.randrange(n) for _ in range(width)] for _ in range(50)],
                        dtype=np.int8)
        masks = _mask(rows)
        assert masks.dtype == np.int16
        assert masks.tolist() == [sum(1 << p for p in set(row)) for row in rows.tolist()]
        assert _mask(rows[0]) == masks[0]
    assert _mask(np.arange(15, dtype=np.int8)) == 32767


def test_kernel_members_refuses_degrees_past_int16_masks():
    a = Transformation([0, 0] + list(range(1, 15)))
    gens = np.array([a.images], dtype=np.int8)
    with pytest.raises(ValueError, match="stop at degree 15"):
        kernel_members(gens, a, gens)


def test_certificate_single_idempotent():
    e = Transformation.parse("1,1,3")
    cert = r_class_certificate([e], e)
    assert cert.strong_orbit == ((0, 2),)
    assert cert.induced_group() == {(0, 1)}
    assert cert.size == 1
    assert in_r_class(cert, e)


def test_certificate_anchor_and_rank_filter():
    g = catalog("PSL(2,5)", 6)
    a = Transformation.parse("1,1,2,2,1,2")
    conj = sorted({a.conjugated_by(h) for h in g.elements()})
    cert = r_class_certificate(conj, a)
    assert in_r_class(cert, a)
    assert not in_r_class(cert, Transformation.parse("1,1,1,1,1,1"))
    assert not in_r_class(cert, Transformation.parse("1,2,3,4,5,6"))
    with pytest.raises(ValueError):
        in_r_class(cert, Transformation.parse("1,1"))


def test_certificate_refuses_a_generator_of_another_rank():
    # every edge's target is its generator's image set only when every
    # generator has the anchor's rank: another rank is refused
    a = Transformation.parse("1,1,2,3")
    lower = Transformation.parse("1,1,1,2")
    with pytest.raises(ValueError, match="rank 3"):
        r_class_certificate([a, lower], a)
    with pytest.raises(ValueError, match="rank 3"):
        certificate_from_matrix(np.array([a.images, lower.images], dtype=np.int8), a)
    with pytest.raises(ValueError, match="rank 3"):
        r_class_certificate([Permutation.parse("(1 2)", 4), a], a)


def test_certificate_refuses_malformed_generator_matrices():
    # no generators, rows of another degree than the anchor's, and a degree
    # whose masks no longer fit the int16 the search keeps them in
    a = Transformation.parse("1,1,2,3")
    with pytest.raises(ValueError, match="at least one generator"):
        certificate_from_matrix(np.empty((0, 4), dtype=np.int8), a)
    wide = np.array([a.images + (4,)], dtype=np.int8)
    with pytest.raises(ValueError, match="degree mismatch"):
        certificate_from_matrix(wide, a)
    b = Transformation([0, 0] + list(range(1, 15)))
    with pytest.raises(ValueError, match="stop at degree 15"):
        certificate_from_matrix(np.array([b.images], dtype=np.int8), b)


def test_certificate_matches_brute_force_r_class():
    g = catalog("PSL(2,5)", 6)
    a = Transformation.parse("1,1,2,2,1,2")
    conj = sorted({a.conjugated_by(h) for h in g.elements()})
    s = TransSemigroup(conj).close()
    elems = list(s)
    cert = r_class_certificate(conj, a)
    expected = brute_r_class(elems, a)
    got = {x for x in elems if in_r_class(cert, x)}
    assert got == expected
    assert cert.size == len(expected)
    # nothing outside the semigroup may pass
    for x in map(Transformation, itertools.product(range(6), repeat=6)):
        if in_r_class(cert, x):
            assert x in expected


def test_contains_products_matches_scalar_test():
    import numpy as np

    g = catalog("PSL(2,5)", 6)
    maps = ["1,1,2,2,1,2", "1,1,3,4,5,6", "2,2,4,4,6,6", "1,1,1,1,1,1"]
    for text in maps:
        a = Transformation.parse(text)
        conj = sorted({a.conjugated_by(h) for h in g.elements()})
        cert = r_class_certificate(conj, a)
        rows = g.element_matrix()[:, np.array(a.images, dtype=np.int64)]
        got = cert.contains_products(rows)
        for i, h in enumerate(g.elements()):
            assert bool(got[i]) == in_r_class(cert, a * h)


def test_contains_products_matches_brute_force_r_class_with_full_and_proper_induced_groups():
    # with the induced group all of Sym(r) a row passes on its image set
    # alone; either way the accepted maps of a's kernel are its R-class
    cases = [
        ("AGL(1,5)", 5, "1,1,2,3,3", True),
        ("A4", 4, "1,1,2,3", True),
        ("C5", 5, "1,2,4,3,2", False),
        ("D(2*5)", 5, "2,4,4,5,5", False),
    ]
    for label, n, text, full in cases:
        a = Transformation.parse(text)
        conj = sorted({a.conjugated_by(h) for h in catalog(label, n).elements()})
        cert = r_class_certificate(conj, a)
        assert (len(cert.induced_group()) == math.factorial(a.rank)) == full, label
        expected = brute_r_class(list(TransSemigroup(conj).close()), a)
        # every map of a's kernel: one injective choice of image per class
        picks = np.array(list(itertools.permutations(range(n), a.rank)), dtype=np.int8)
        rows = picks[:, list(a.kernel().class_ids)]
        got = cert.contains_products(rows)
        want = [Transformation(row.tolist()) in expected for row in rows]
        assert got.tolist() == want, label
        assert sum(want) == len(expected) == cert.size


def _induced_permutation(a, x):
    """The position permutation x induces on image(a), x of a's kernel."""
    img = sorted(set(a.images))
    pos = {p: j for j, p in enumerate(img)}
    reps = {a.images[q]: q for q in reversed(range(a.degree))}
    return tuple(pos[x.images[reps[p]]] for p in img)


def test_full_and_proper_induced_groups_match_the_brute_force_r_class():
    # the Sym(r) group is built only past r!/2 elements, and its rows only
    # when read; either way the group is what the members of the R-class
    # with a's image induce on it, and size and contains_products agree
    cases = [("A4", 4, "1,1,2,3", True), ("C5", 5, "1,2,4,3,2", False)]
    for label, n, text, full in cases:
        a = Transformation.parse(text)
        conj = sorted({a.conjugated_by(h) for h in catalog(label, n).elements()})
        cert = r_class_certificate(conj, a)
        expected = brute_r_class(list(TransSemigroup(conj).close()), a)
        same_image = [x for x in expected if x.image() == a.image()]
        group = cert.induced_group()
        assert group == {_induced_permutation(a, x) for x in same_image}, label
        assert (len(group) == math.factorial(a.rank)) == full, label
        assert cert.size == len(expected) == len(cert.strong_orbit) * len(group), label
        picks = np.array(list(itertools.permutations(range(n), a.rank)), dtype=np.int8)
        rows = picks[:, list(a.kernel().class_ids)]
        want = [Transformation(row.tolist()) in expected for row in rows]
        assert cert.contains_products(rows).tolist() == want, label


def test_certificate_words_replay():
    g = catalog("D(2*5)", 5)
    a = Transformation.parse("1,1,3,4,1")
    conj = sorted({a.conjugated_by(h) for h in g.elements()})
    cert = r_class_certificate(conj, a)
    base = set(cert.strong_orbit[0])
    for node, win, wback in zip(cert.strong_orbit, cert.words_in, cert.words_back):
        cur = base
        for k in win:
            cur = {conj[k].images[p] for p in cur}
        assert cur == set(node)
        for k in wback:
            cur = {conj[k].images[p] for p in cur}
        assert cur == base


def perm_closure(gens, r):
    """All products of the position permutations gens, identity included."""
    identity = tuple(range(r))
    built = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                prod = tuple(q[v] for v in p)
                if prod not in built:
                    built.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return built


def candidate_permutations(conj, cert):
    """Every "enter, step, return" permutation the certificate may use.

    For each strong-orbit node (entered by its word in) and each
    conjugate s that keeps it inside the strong orbit, follow s and then
    the word back; the induced permutation on the base positions is a
    candidate.  The induced group is the closure of all of them.
    """
    base = cert.strong_orbit[0]
    r = len(base)
    pos = {p: i for i, p in enumerate(base)}
    node_of = {frozenset(node): i for i, node in enumerate(cert.strong_orbit)}

    def walk(points, word):
        for k in word:
            points = [conj[k].images[p] for p in points]
        return points

    out = set()
    for win in cert.words_in:
        start = walk(list(base), win)
        for s in conj:
            moved = [s.images[p] for p in start]
            v = node_of.get(frozenset(moved))
            if v is not None and len(set(moved)) == r:
                out.add(tuple(pos[p] for p in walk(moved, cert.words_back[v])))
    return out


INDUCED_GROUP_CASES = [
    ("PSL(2,5)", 6, "1,1,2,2,1,2"),
    ("A6", 6, "1,2,2,3,4,4"),
    # rank 8: the induced group is Sym(8), once a 24 GiB re-closure
    ("PSL(2,8)", 9, "6,2,8,4,5,1,7,3,7"),
]


def test_induced_generators_generate_the_group():
    for label, n, text in INDUCED_GROUP_CASES:
        g = catalog(label, n)
        a = Transformation.parse(text)
        conj = sorted({a.conjugated_by(h) for h in g.elements()})
        cert = r_class_certificate(conj, a)
        gens = cert.induced_generators
        grp = cert.induced_group()
        r = cert.rank
        assert perm_closure(gens, r) == grp, label
        # each kept generator enlarged the group, so each at least doubled it
        for i, q in enumerate(gens):
            assert q not in perm_closure(gens[:i], r), (label, i)
        assert 2 ** len(gens) <= len(grp), label
        # the group is the closure of every candidate: the kept generators
        # are candidates, and every candidate lies in the group, which is
        # closed; the closure itself is built where it is cheap
        candidates = candidate_permutations(conj, cert)
        assert set(gens) <= candidates <= grp, label
        if len(candidates) * len(grp) <= 100_000:
            assert perm_closure(candidates, r) == grp, label


def test_grow_group_matches_perm_closure():
    # the coset-by-coset growth against the plain closure, a chunk of
    # candidates at a time: random permutations, some repeated, mixed with
    # members of the group so far.  The kept generators are exactly the
    # candidates outside the closure of those kept before them, in order.
    # A group proved Sym(r) is not listed, and no chunk follows it, as in
    # the certificate
    rng = random.Random(71)
    fired, several = [0, 0], 0
    for r in range(1, 8):
        for _ in range(6):
            rows = np.arange(r, dtype=np.int8)[None, :]
            encs = encode_rows(rows)
            gens: list[np.ndarray] = []
            want_gens: list[tuple[int, ...]] = []
            for _ in range(rng.randrange(1, 4)):
                chunk = [tuple(rng.sample(range(r), r)) for _ in range(rng.randrange(1, 5))]
                chunk += rng.choices(chunk, k=2)
                chunk += rng.choices([tuple(row) for row in rows.tolist()], k=2)
                rng.shuffle(chunk)
                for c in chunk:
                    if c not in perm_closure(want_gens, r):
                        want_gens.append(c)
                before = len(gens)
                chunk_rows = np.array(chunk, dtype=np.int8)
                rows, encs, full = _grow_group(
                    rows, encs, gens, chunk_rows, encode_rows(chunk_rows)
                )
                assert [tuple(g.tolist()) for g in gens] == want_gens
                several += len(gens) - before > 1
                want = perm_closure(want_gens, r)
                assert full == (len(want) == math.factorial(r))
                fired[full] += 1
                if full:
                    assert rows is None and encs is None
                    break
                got = {tuple(row) for row in rows.tolist()}
                assert got == want
                assert len(rows) == len(got)
                assert encs.tolist() == sorted(encode_rows(rows).tolist())
                assert tuple(rows[0].tolist()) == tuple(range(r))
    assert min(fired) > 10 and several > 0


def _grow_from_identity(r, perms):
    """_grow_group from the trivial group of r points, fed perms as one chunk."""
    rows = np.arange(r, dtype=np.int8)[None, :]
    gens: list[np.ndarray] = []
    candidates = np.array(perms, dtype=np.int8).reshape(-1, r)
    rows, encs, full = _grow_group(
        rows, encode_rows(rows), gens, candidates, encode_rows(candidates)
    )
    return rows, encs, full, [tuple(g.tolist()) for g in gens]


def _assert_lists_the_closure(rows, encs, perms, r):
    want = perm_closure([tuple(p) for p in perms], r)
    assert {tuple(row) for row in rows.tolist()} == want and len(rows) == len(want)
    assert tuple(rows[0].tolist()) == tuple(range(r))
    assert encs.tolist() == sorted(encode_rows(rows).tolist())


def test_grow_group_lists_pgl25_whose_order_is_the_index_bound():
    # |PGL(2,5)| = 120 = 5! on 6 points, with an odd generator: the bound
    # (r - 1)! is strict, so the group is listed, not taken for Sym(6)
    perms = [p.images for p in catalog("PGL(2,5)", 6).generators]
    assert any(_is_odd(np.array(p, dtype=np.int8)) for p in perms)
    rows, encs, full, gens = _grow_from_identity(6, perms)
    assert not full and len(rows) == 120
    _assert_lists_the_closure(rows, encs, perms, 6)


@pytest.mark.parametrize("r", [5, 6, 7, 8])
def test_grow_group_lists_alt_from_even_generators(r):
    # Alt(r) has more than (r - 1)! elements, but no odd member: not full
    perms = [p.images for p in catalog(f"A{r}", r).generators]
    rows, encs, full, _ = _grow_from_identity(r, perms)
    assert not full and 2 * len(rows) == math.factorial(r)
    _assert_lists_the_closure(rows, encs, perms, r)


def _cycle(r, points):
    p = list(range(r))
    for x, y in zip(points, points[1:] + points[:1]):
        p[x] = y
    return tuple(p)


@pytest.mark.parametrize("size", [5, 6, 7])
def test_grow_group_lists_sym_of_a_proper_support(size):
    # a cycle on the last `size` of 8 points and a transposition of two of
    # them generate Sym of those points; Sym(7) has exactly (8 - 1)!
    # elements and odd members, and the bound is strict, so it is listed
    omega = list(range(8 - size, 8))
    perms = [_cycle(8, omega), _cycle(8, omega[:2])]
    rows, encs, full, gens = _grow_from_identity(8, perms)
    assert not full and len(rows) == math.factorial(size)
    assert gens == perms
    _assert_lists_the_closure(rows, encs, perms, 8)


def test_grow_group_uses_lagrange_alone_below_five_points():
    # r = 1: the identity is Sym(1) before any candidate
    assert _grow_from_identity(1, [])[2]
    for r in (2, 3, 4):
        perms = [_cycle(r, list(range(r))), _cycle(r, [0, 1])]
        rows, encs, full, gens = _grow_from_identity(r, perms)
        assert full and rows is None and encs is None
        # on 2 points the cycle is (0 1) itself, so one generator is kept
        assert gens == (perms[:1] if r == 2 else perms)
    # D8 on 4 points has 8 > 3! elements and odd members, yet is proper
    perms = [_cycle(4, [0, 1, 2, 3]), _cycle(4, [0, 2])]
    rows, encs, full, _ = _grow_from_identity(4, perms)
    assert not full and len(rows) == 8
    _assert_lists_the_closure(rows, encs, perms, 4)


@pytest.mark.parametrize("r, first, then", [
    # 2 |{1}| = 2 > 2!/2
    (2, [], [(1, 0)]),
    # 2 |C3| = 6 > 3!/2
    (3, [_cycle(3, [0, 1, 2])], [_cycle(3, [0, 1])]),
    # AGL(1,5) has 20 elements and odd ones; 2 * 20 > (5 - 1)! = 24, below
    # the 5!/2 = 60 of Lagrange
    (5, [_cycle(5, [0, 1, 2, 3, 4]), (0, 2, 4, 1, 3)], [_cycle(5, [0, 1])]),
])
def test_grow_group_stops_at_a_first_coset_that_proves_sym(r, first, then):
    # the new generator g and the group H so far: the coset g H alone
    # proves Sym(r), so the growth stops with one more kept generator,
    # whatever candidates follow
    rows, encs, full, gens = _grow_from_identity(r, first)
    assert not full and len(rows) == len(perm_closure(first, r))
    kept = [np.array(g, dtype=np.int8) for g in gens]
    candidates = np.array(then + [_cycle(r, [0, 1])] * 2, dtype=np.int8)
    rows, encs, full = _grow_group(rows, encs, kept, candidates, encode_rows(candidates))
    assert full and rows is None and encs is None
    assert [tuple(g.tolist()) for g in kept] == gens + then


def _first_hits_brute_force(hits):
    pairs = []
    for j in range(hits.shape[1]):
        rows = [i for i in range(hits.shape[0]) if hits[i, j]]
        if rows:
            pairs.append((rows[0], j))
    pairs.sort()
    return pairs


def test_grow_group_without_a_fresh_candidate_returns_what_it_was_given():
    rows = _grow_from_identity(4, [(1, 0, 2, 3), (0, 1, 3, 2)])[0]
    encs = np.sort(encode_rows(rows))
    gens: list[np.ndarray] = []
    got = _grow_group(rows, encs, gens, rows[::-1], encode_rows(rows[::-1]))
    assert got[0] is rows and got[1] is encs and got[2] is False
    assert gens == []


def _panel_map(rng, n, rank):
    """A uniform map of the rank, drawn as the benchmark draws its panels."""
    image = rng.sample(range(n), rank)
    while True:
        pick = [rng.randrange(rank) for _ in range(n)]
        if len(set(pick)) == rank:
            return Transformation(image[i] for i in pick)


def test_one_tail_pass_keeps_the_doubling_chunks_certificates(monkeypatch):
    # the strong-orbit nodes past the base in one candidate pass, as long
    # as their steps fit _TAIL_ROWS, against chunks of 1, 2, 4, ... nodes
    # (_TAIL_ROWS = 0), on full tiers, all of a^G: the 28 not-normalizing
    # maps of the benchmark's AGL(1,7) rank-4 panel, the PSL(2,8) maps of
    # its degree-9 panel, and seeded maps of degrees 7-9
    cases = []
    rng = random.Random("maps-agl17-r4/panel")
    agl = normalizing._MapChecker(catalog("AGL(1,7)", 7))
    for _ in range(150):
        a = _panel_map(rng, 7, 4)
        if agl.check(a).status == normalizing.STATUS_NOT:
            cases.append((agl, a))
    assert len(cases) == 28
    rng = random.Random("maps-deg9/panel")
    psl = normalizing._MapChecker(catalog("PSL(2,8)", 9))
    for rank, count in {2: 4, 3: 4, 4: 4, 5: 4, 6: 4, 7: 1, 8: 1}.items():
        cases += [(psl, _panel_map(rng, 9, rank)) for _ in range(count)]
    rng = random.Random(2828)
    for label, n in [("A7", 7), ("PSL(2,7)", 8), ("AGL(1,8)", 8), ("PΓL(2,8)", 9)]:
        checker = normalizing._MapChecker(catalog(label, n))
        cases += [(checker, _random_map_of_rank(rng, n, rng.randrange(2, n))) for _ in range(4)]

    grow, tail, calls = semigroups._grow_group, semigroups._TAIL_ROWS, []

    def counted(*args):
        calls.append(args)
        return grow(*args)

    monkeypatch.setattr(semigroups, "_grow_group", counted)

    def build(rows, a, bound):
        monkeypatch.setattr(semigroups, "_TAIL_ROWS", bound)
        calls.clear()
        cert = certificate_from_matrix(rows, a)
        return (
            cert.strong_orbit, cert.words_in, cert.words_back, cert.induced_generators,
            cert.induced_full, sorted(cert.induced_group()), cert.size,
        ), len(calls)

    fewer = 0
    for checker, a in cases:
        rows = decode_encodings(checker._conjugates(a), a.degree)
        doubling, before = build(rows, a, 0)
        got, after = build(rows, a, tail)
        assert got == doubling, (checker.group.label, a.images)
        assert after <= before
        fewer += after < before
        if checker is agl:
            assert after <= 2, a.images
    assert fewer >= 21


def test_first_in_columns_matches_brute_force():
    rng = np.random.default_rng(23)
    shapes = [(1, 1), (1, 7), (7, 1), (3, 0), (1, 0), (5, 9), (12, 40), (40, 12)]
    for rows, cols in shapes * 6:
        hits = rng.random((rows, cols)) < rng.choice([0.0, 0.05, 0.3, 0.9])
        hits[:, rng.random(cols) < 0.2] = False  # all-false columns
        i, j = _first_in_columns(hits)
        assert i.shape == j.shape
        assert list(zip(i.tolist(), j.tolist())) == _first_hits_brute_force(hits)


# degrees 4-9; A7, A8 and A9 have at least 1024 elements, so their first
# tier is the conjugates by 256 strided elements
GOLDEN_GROUPS = [
    ("S4", 4), ("A4", 4), ("C5", 5), ("AGL(1,5)", 5), ("PSL(2,5)", 6), ("A6", 6),
    ("AGL(1,7)", 7), ("A7", 7), ("PSL(2,7)", 8), ("A8", 8), ("PSL(2,8)", 9), ("A9", 9),
]
# sha256 over every certificate's fields, recorded before the certificate
# was built one BFS level at a time; a faster build must reproduce it
GOLDEN_DIGEST = "83766c78a9a9eb636234e1d9143e59d146d91122302d573491d1a55e06250af4"


def _recorded_tiers(checker, a):
    """The conjugate subsets the digest was recorded over, least first.

    When 4 * 256 <= |G|, a conjugated by the 256 elements at indices
    i * |G| // 256, with a added; then picks at indices i * |a^G| // s of
    the sorted a^G, with a added, for s = 512, 1024, ... while 4s <= |a^G|
    (s = 256, ... when the element pick was skipped); then all of a^G.
    """
    M, order = checker.M, checker.M.shape[0]
    size = 256
    if 4 * size <= order:
        rows = M[np.arange(size) * order // size]
        picked = normalizing._conjugate_encodings(rows, a)
        yield np.union1d(picked, a.encode())
        size *= 2
    conj_encs = checker._conjugates(a)
    m = conj_encs.shape[0]
    while 4 * size <= m:
        yield np.union1d(conj_encs[np.arange(size) * m // size], a.encode())
        size *= 2
    yield conj_encs


def test_certificates_match_the_recorded_digest():
    rng = random.Random(4242)
    h = hashlib.sha256()
    built = 0
    for label, n in GOLDEN_GROUPS:
        group = catalog(label, n)
        checker = normalizing._MapChecker(group)
        for _ in range(4):
            pts = rng.sample(range(n), rng.randrange(2, n))
            a = Transformation([rng.choice(pts) for _ in range(n)])
            prods = checker.M[:, np.array(a.images, dtype=np.int64)]
            for tier, encs in enumerate(_recorded_tiers(checker, a)):
                if n == 9 and group.order() > 1024 and tier > 0:
                    break  # all of a^G under A9 is too slow for tier 1
                cert = certificate_from_matrix(decode_encodings(encs, n), a)
                h.update(repr((
                    label, a.images, tier, cert.strong_orbit, cert.words_in,
                    cert.words_back, cert.induced_generators,
                    sorted(cert.induced_group()), cert.size,
                )).encode())
                h.update(np.packbits(cert.contains_products(prods)).tobytes())
                built += 1
    assert built == 72
    assert h.hexdigest() == GOLDEN_DIGEST


def test_sym8_certificate_memory_is_linear_in_the_induced_group():
    # |H| = 8! = 40,320: its rows, encodings and the coset closure's set
    # of encodings take about 3 MiB; the whole build stays under 8 MiB
    group = catalog("PSL(2,8)", 9)
    a = Transformation.parse("6,2,8,4,5,1,7,3,7")
    rows = decode_encodings(normalizing._MapChecker(group)._conjugates(a), 9)
    tracemalloc.start()
    try:
        cert = certificate_from_matrix(rows, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.size // len(cert.strong_orbit) == 40_320
    assert peak < 8 * 2**20


@pytest.mark.parametrize("label, text", [
    ("PSL(2,8)", "9,5,1,7,6,8,8,3,4"),  # first tier: all 504 conjugates
    ("A9", "1,4,9,3,5,6,7,8,9"),  # first tier: 244 conjugates
])
def test_rank8_first_tier_certificate_stops_before_listing_alt8(label, text):
    # the induced group is Sym(8): proved from its order past 7! = 5,040
    # elements and an odd generator, it is never listed to 8!/2 = 20,160
    # (3.8 MiB of peak when it was)
    checker = normalizing._MapChecker(catalog(label, 9))
    a = Transformation.parse(text)
    orbit = normalizing._orbit_masks(checker.group, a)
    rows = next(checker._conjugate_tiers(a, orbit))
    assert (np.diff(encode_rows(rows)) > 0).all()
    tracemalloc.start()
    try:
        cert = certificate_from_matrix(rows, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.rank == 8 and cert.induced_full
    assert peak < 2 * 2**20, peak


def _brute_strong_orbit(gens, a):
    """Image sets reachable from image(a) at rank r that reach it back."""
    r = a.rank

    def steps(points):
        for g in gens:
            moved = frozenset(g.images[p] for p in points)
            if len(moved) == r:
                yield moved

    base = frozenset(a.images)
    forward, todo = {base}, [base]
    while todo:
        for t in steps(todo.pop()):
            if t not in forward:
                forward.add(t)
                todo.append(t)
    back = {base}
    grew = True
    while grew:
        grew = False
        for s in forward - back:
            if any(t in back for t in steps(s)):
                back.add(s)
                grew = True
    return back


def test_partial_tier_certificates_match_brute_force_set_searches():
    # a partial tier T of a^G is not G-invariant, so its strong orbit,
    # words and induced group are checked against plain set searches
    rng = random.Random(1213)
    cases = [("C5", 5), ("AGL(1,5)", 5), ("S5", 5), ("PSL(2,5)", 6), ("A6", 6),
             ("AGL(1,7)", 7), ("A7", 7)]
    closures = 0
    for label, n in cases:
        group = catalog(label, n)
        checker = normalizing._MapChecker(group)
        for _ in range(6):
            a = _random_map_of_rank(rng, n, rng.randrange(2, n))
            conj_encs = checker._conjugates(a)
            size = rng.randrange(1, min(40, len(conj_encs)) + 1)
            picked = rng.sample(range(len(conj_encs)), size)
            encs = np.union1d(conj_encs[picked], a.encode())
            conj = [Transformation(row.tolist()) for row in decode_encodings(encs, n)]
            cert = r_class_certificate(conj, a)
            assert cert.strong_orbit[0] == tuple(sorted(set(a.images)))
            assert {frozenset(s) for s in cert.strong_orbit} == _brute_strong_orbit(conj, a)
            assert len(set(cert.strong_orbit)) == len(cert.strong_orbit)
            base = set(cert.strong_orbit[0])
            for node, win, wback in zip(cert.strong_orbit, cert.words_in, cert.words_back):
                cur = base
                for k in win:
                    cur = {conj[k].images[p] for p in cur}
                assert cur == set(node), (label, a.images)
                for k in wback:
                    cur = {conj[k].images[p] for p in cur}
                assert cur == base, (label, a.images)
            grp = cert.induced_group()
            candidates = candidate_permutations(conj, cert)
            assert set(cert.induced_generators) <= candidates <= grp
            assert cert.size == len(cert.strong_orbit) * len(grp)
            if len(candidates) * len(grp) <= 100_000:
                assert perm_closure(candidates, cert.rank) == grp, (label, a.images)
                closures += 1
    assert closures > 30


# sha256 over the fields of three certificates over all of a^G under A9,
# recorded before the certificate was built on its generators' image sets
A9_FULL_TIER_DIGEST = "c83ff81f657fc1ce8b8a728d1ab55434f69ec80c9d122cf9f732e9a43d1af42d"


@pytest.mark.slow
def test_a9_full_tier_certificates_match_the_recorded_digest():
    # |a^G| = 90,720 and 181,440: the least-generator table spans several
    # chunks of generators, which the partial tiers of the digest above
    # never do; each build stays well under 96 MiB
    rng = random.Random(1)
    group = catalog("A9", 9)
    checker = normalizing._MapChecker(group)
    h = hashlib.sha256()
    for r in (4, 5, 6):
        a = _random_map_of_rank(rng, 9, r)
        rows = decode_encodings(checker._conjugates(a), 9)
        tracemalloc.start()
        try:
            cert = certificate_from_matrix(rows, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2**20, (r, peak)
        prods = checker.M[:, np.array(a.images, dtype=np.int64)]
        h.update(repr((
            "A9", a.images, cert.strong_orbit, cert.words_in, cert.words_back,
            cert.induced_generators, sorted(cert.induced_group()), cert.size,
        )).encode())
        h.update(np.packbits(cert.contains_products(prods)).tobytes())
    assert h.hexdigest() == A9_FULL_TIER_DIGEST
