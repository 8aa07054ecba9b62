import itertools
import random

import numpy as np
import pytest

from normgroups.catalog import catalog
from normgroups.semigroups import (
    ClosureCapExceeded,
    TransSemigroup,
    in_r_class,
    kernel_members,
    r_class_certificate,
)
from normgroups.transform import Permutation, Transformation, all_transformations


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


def test_cap_gives_tristate_membership():
    gens = [
        Permutation.parse("(1 2)", 4),
        Permutation.parse("(1 2 3 4)"),
        Transformation.parse("1,1,2,3"),
    ]
    s = TransSemigroup(gens, cap=10)
    s.close()
    assert s.capped and not s.complete
    assert len(s) > 10
    assert s.contains(gens[2])  # already seen
    with pytest.raises(ClosureCapExceeded):
        s.contains(Transformation.parse("4,4,4,4"))
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
    idems = s.idempotents()
    assert len(idems) == 10  # sum over k of C(3,k) * k^(3-k)
    assert all(e * e == e for e in idems)
    assert set(idems) == {t for t in all_transformations(3) if t * t == t}


def test_idempotent_generated_examples():
    a = Transformation.parse("2,3,3")
    s = TransSemigroup([a]).close()
    assert {t.one_based() for t in s} == {(2, 3, 3), (3, 3, 3)}
    assert not s.is_idempotent_generated()
    g = catalog("AGL(1,5)", 5)
    b = Transformation.parse("1,1,3,4,1")
    conj = sorted({b.conjugated_by(h) for h in g.elements()})
    assert TransSemigroup(conj).close().is_idempotent_generated()


def test_regularity_examples():
    assert not TransSemigroup([Transformation.parse("2,3,3")]).close().is_regular()
    gens = [
        Permutation.parse("(1 2)", 3),
        Permutation.parse("(1 2 3)"),
        Transformation.parse("1,1,2"),
    ]
    assert TransSemigroup(gens).close().is_regular()


def test_regularity_matches_brute_force():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(2, 5)
        gens = [Transformation([rng.randrange(n) for _ in range(n)]) for _ in range(2)]
        s = TransSemigroup(gens).close()
        elems = list(s)
        naive = all(any(x * y * x == x for y in elems) for x in elems)
        assert s.is_regular() == naive


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
    with pytest.raises(ValueError):
        s.idempotents()
    with pytest.raises(ValueError):
        s.is_regular()


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
    for x in all_transformations(6):
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
