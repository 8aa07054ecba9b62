"""Decision procedures for normalizing permutation groups.

A group G <= S_n is a-normalizing for a singular map a when
<a, G> \\ G = <a^G>, which reduces to the containment aG within <a^G>
because the right side is closed under conjugation by G.  This module
decides that containment per map, per rank, or over every singular map,
enumerates conjugation-orbit representatives through an n^n bitmap,
visiting only the maps of the requested rank (every rank below n for a
full sweep), and drives the per-degree classification of normalizing
groups.

Every conjugation orbit a^G here, the conjugates a check tests against,
an orbit a sweep crosses off and a G-orbit inside an S_n-class, comes
from _conjugate_encodings: a conjugated by every row of the element
matrix, sorted and deduplicated, least member first.  Every conjugate,
of a map or of a permutation, comes from one scatter, _conjugate_rows,
which needs no inverse rows.

Each map is checked on the image sets of its products where it can be,
and on its distinct products otherwise.  The image set of a*g is
g(image(a)), so the products' image sets are the orbit of image(a) on
point sets, at most C(n, r) of them, read from the group's subset_orbits
table.  a*g depends only on g on I = image(a), so aG has |G : G_(I)|
distinct members, G_(I) the pointwise stabilizer of I.  Where products
are needed as rows, the least g giving each is read from a per-group
table keyed by the bitmask of I (PermutationGroup.distinct_restrictions),
built by one pass over G the first time an image set is seen, so the
least failing g stays the witness.  That happens only in the shortcut
stage and for image sets a certificate with a proper induced group has
to decide.  The products go through a fixed strategy order:

1. shortcut: if no h in G maps image(a) onto a section of ker(a), then
   any product of two or more conjugates of a drops rank, so the
   rank-preserving members of <a^G> are exactly the conjugates; every
   a*g (same rank as a) is tested against the conjugate set directly.
   Exact in both directions.  Whether such an h exists is read from the
   group's orbits on point sets (a table over all 2^n bitmasks, built
   once per group): one exists exactly when some section, one point per
   kernel class, shares the orbit of image(a).
2. r-class: test a*g for membership in the R-class of a inside <a^G>
   via the strong-orbit certificate.  Sufficient for membership but not
   necessary, so only an all-pass is conclusive.  The certificate is
   first built over growing subsets T of a^G, each holding a itself.
   While 4s <= |G|, tier s is the conjugates of a by the s elements at
   indices i|G|//s, for s = 256, 512, ..., and by one element taking
   image(a) onto each set of its orbit the first 256 picks miss, read
   from the group's subset_transversal table: nested, each holding a
   (the first element is the identity), each with a conjugate of every
   image set a product can have, and none needing a pass over G.  A
   tier past the first is tried only while 7/8 of its picks are
   distinct, which holds about when 4|T| <= |a^G|; the last tier is all
   of a^G.  While a tier's induced group is all of Sym(r), a product
   passes exactly when its image set is a strong-orbit node, so the
   tier drops those sets and the check passes once none is left; from
   the first tier with a proper induced group on, the products of the
   sets left are tested as rows.  Each tier re-tests only what the
   earlier ones rejected, so a^G is built in full only after every
   element-pick tier has rejected something, or for the shortcut.  This
   is exact: if x is R-related to a in <T>, with a in T and T within
   a^G, then x is R-related to a in <a^G>, so the tiers together accept
   exactly what the full certificate accepts.
3. closure: the products the last tier rejected lie outside <a^G>, and
   the least g left is the witness; the stage does no work of its own and
   keeps its trace label, so reports stay as they were.  With maps acting
   on the right, let S = <a^G>, I = image(a), K = ker(a), r = rank(a).  A
   member x of S of kernel K and rank r is c*s, s in S^1, c = a^h of
   kernel K.  The image-set digraph of a^G is G-invariant, G transitive on
   its vertices, so it is balanced: some w takes image(x) back onto
   image(c), and with o the order of the permutation s*w induces on
   image(c), x*w*(s*w)^(o-1) = c, so x R c.  Past the shortcut every such
   c lies in R_a, so x lies in S exactly when it lies in R_a.  There
   T = {t in G : I*t is a section of K} is not empty; let beta_t =
   (t*a)|_I and Q = <(beta_t, t) : t in T>, a group in Sym(I) x G.
   (i) With y0 = 1 and ti = y(i-1)*yi^-1, a*a^y1*...*a^ym =
   a*t1*a*t2*...*a*tm*ym keeps rank r exactly when every ti lies in T,
   and is then a*beta_t1*...*beta_tm*(t1*...*tm)^-1: R_a, the rank-r
   members of a*S^1, is {a*pi*y^-1 : (pi, y) in Q}.  (ii) For k in G_K,
   the stabilizer of the partition K, k*a = a*delta_k, delta_k in Sym(I),
   and t*k lies in T with beta_(t*k) = beta_t*delta_k, so (delta_k, k)
   lies in Q.  (iii) ker(a^h) = K puts h in G_K, so a^h = a*delta_(h^-1)*h
   lies in R_a by (i) and (ii).  TransSemigroup, the tuple search and the
   criterion {1} x G <= Q are the tests' oracles.

check_pair, which replays one witness, runs the same ladder on the single
product a*g, so a replay accepted by the first tier also never passes
over G.

A sweep checks one map per orbit of the normalizer N = N_{S_n}(G), still
with G.  Conjugation by h in N is an automorphism of T_n fixing G
setwise; it maps aG to a^h G and <a^G> to <(a^h)^G>, so G is
a-normalizing exactly when it is a^h-normalizing.  The coset
representatives of G in N come from a brute-force pass over S_n, and
each N-orbit is the G-orbit of its least member conjugated by each of
them.  Reports still count G-orbits, as a sweep of every G-orbit would:
a normalizing verdict's `checked` is the number of G-orbits swept.  A
failure is N-invariant, so the first failing N-representative is the
least failing map e*, the map a G-sweep stops at, and the checker names
the same least g.  Its `checked` is recounted as the number of G-orbits
whose least member is at most e*, by an enumeration-only walk of the
G-orbits up to e*, so neither a resume nor the worker count can move it.
Progress reports and checkpoints are not recounted: they count the
G-orbits of every N-orbit swept so far (see SweepProgress).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import time
from collections import deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import islice
from math import comb, factorial
from typing import Callable, Iterator, Sequence

import numpy as np

from .bitset import Bitmap
from .catalog import catalog, catalog_hash, catalog_labels
from .groups import PermutationGroup, _first_of_each
from .semigroups import (
    _MAX_VECTOR_DEGREE,
    TransSemigroup,  # not called here; perfbench/tracer.py wraps this name
    _mask,
    _popcounts,
    certificate_from_matrix,
    decode_encodings,
    encode_rows,
    isin_sorted,
    in_r_class,  # not called here; perfbench/tracer.py wraps this name
)
from .transform import Permutation, Transformation

STATUS_NORMALIZING = "normalizing"
STATUS_NOT = "not-normalizing"
STATUS_INCONCLUSIVE = "inconclusive"  # no check returns it; perfbench/workloads.py reads it

REASON_CONJUGATE = "conjugate-mismatch"
REASON_MEMBERSHIP = "membership-failed"

MAX_SWEEP_DEGREE = 9

M12_WITNESS_MAP = (1, 2, 3, 4, 5, 5, 6, 6, 6, 6, 6, 6)
M12_WITNESS_G = "(1 3 2)(4 6 5)(7 9 8)"

# the normalizing groups per degree, among that degree's catalog entries
CLASSIFICATION_TABLE: dict[int, frozenset[str]] = {
    4: frozenset({"trivial", "A4", "S4"}),
    5: frozenset({"trivial", "AGL(1,5)", "A5", "S5"}),
    6: frozenset({"trivial", "PSL(2,5)", "PGL(2,5)", "A6", "S6"}),
    7: frozenset({"trivial", "A7", "S7"}),
    8: frozenset({"trivial", "A8", "S8"}),
    9: frozenset({"trivial", "PSL(2,8)", "PΓL(2,8)", "A9", "S9"}),
    12: frozenset({"trivial"}),
}

# maps known to defeat specific groups (up to relabeling); classify tries
# these before falling back to the full representative sweep
KNOWN_FAILING_MAPS: dict[tuple[int, str], tuple[int, ...]] = {
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

_CHECKPOINT_SECONDS = 60.0
_SWEEP_BATCH = 128
# candidates per bitmap test in the sweep walk, and permutations per
# premarking batch: below a few thousand a call's fixed cost outweighs
# its cost per candidate
_CANDIDATE_CHUNK = 4096

# r-class tiers: a conjugated by 256, 512, ... strided elements (and by one
# element onto each image set the first 256 miss), each tier tried only
# while 4 * its picks <= |G| and, past the first, while 7/8 of its picks
# are distinct (about 4 * its picks <= |a^G|); a subset nearer |a^G| saves
# less than a failed tier costs
_TIER_FIRST = 256
_TIER_CUTOFF = 4


class SweepCacheMismatch(ValueError):
    """A progress cache belongs to a different run configuration."""


@dataclass(frozen=True)
class FailureWitness:
    """A group element g whose product a*g escapes <a^G>."""

    g: Permutation
    reason: str

    def to_dict(self) -> dict:
        return {
            "g": {
                "cycles": self.g.cycle_string(),
                "images": list(self.g.one_based()),
            },
            "reason": self.reason,
        }


@dataclass(frozen=True)
class NormalizingVerdict:
    status: str
    group: str
    map: Transformation | None = None
    witness: FailureWitness | None = None
    trace: tuple[str, ...] = ()
    checked: int = 0
    seconds: float = field(default=0.0, compare=False)

    @property
    def normalizing(self) -> bool:
        return self.status == STATUS_NORMALIZING

    def to_dict(self, *, timings: bool = False) -> dict:
        out: dict = {
            "status": self.status,
            "group": self.group,
            "map": list(self.map.one_based()) if self.map is not None else None,
            "witness": self.witness.to_dict() if self.witness else None,
            "trace": list(self.trace),
            "checked": self.checked,
        }
        if timings:
            out["seconds"] = round(self.seconds, 3)
        return out


@dataclass(frozen=True)
class SweepProgress:
    """A progress report of a running sweep.

    checked (shown as `reps`) and orbits count the G-orbits swept so far,
    singular_seen the maps in them.  The sweep walks N-orbits, N the
    normalizer of G, so on a sweep that ends not-normalizing these count
    the G-orbits of every N-orbit swept so far, as does a checkpoint's
    meta["checked"]; some of those lie past the failing map, so the counts
    can exceed the verdict's `checked` (on C5, 187 against 64).
    """

    group: str
    checked: int
    orbits: int
    singular_seen: int
    singular_total: int
    seconds: float


ProgressFn = Callable[[SweepProgress], None]


def _image_mask(a: Transformation) -> int:
    """Bitmask of the points of image(a)."""
    return sum(1 << p for p in set(a.images))


def _orbit_masks(group: PermutationGroup, a: Transformation) -> np.ndarray:
    """The ascending masks of image(a)'s orbit: the image sets of the a*g."""
    label = group.subset_orbits()
    return (label == label[_image_mask(a)]).nonzero()[0]


def _has_section_mapper(
    group: PermutationGroup, a: Transformation, orbit: np.ndarray | None = None
) -> bool:
    """Whether some h in G maps image(a) onto a section of ker(a).

    A section takes one point from each of the r kernel classes, so an
    r-set is one exactly when it meets every class; h exists exactly when
    some set of image(a)'s orbit does.  orbit holds that orbit's masks,
    as _orbit_masks gives them, and is read from the group when omitted.
    """
    if orbit is None:
        orbit = _orbit_masks(group, a)
    # the bitmask of each kernel class, the fiber of one image point
    fibers: dict[int, int] = {}
    for p, y in enumerate(a.images):
        fibers[y] = fibers.get(y, 0) | 1 << p
    classes = np.array(list(fibers.values()), dtype=np.int64)
    return bool((orbit[:, None] & classes).all(axis=1).any())


def _conjugate_rows(maps: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Row i is p^-1 a p, for a = maps[i] and p = perms[i], as int8 rows.

    p^-1 a p sends p(x) to p(a(x)), so each row is one scatter through p,
    out[i, p[x]] = p[a[x]], and no inverse of p is needed.  Either side
    may be a single row, taken with every row of the other; the single
    row is used as an index as it is, never broadcast into a copy.
    """
    if perms.ndim == 1:
        out = np.empty_like(maps)
        out[:, perms] = perms[maps]
        return out
    out = np.empty_like(perms)
    out[np.arange(perms.shape[0])[:, None], perms] = perms[:, maps]
    return out


def _conjugate_encodings(perms: np.ndarray, a: Transformation) -> np.ndarray:
    """Sorted distinct encodings of a^p for the permutation rows perms.

    With the element matrix of a group this is the orbit a^G, least
    member first: the one routine that builds a conjugation orbit of
    maps, for the checker, the sweep and the class sweep alike.
    Deduplicated by a sort and an adjacent-difference flag, which returns
    what np.unique would without its hashing pass.
    """
    a8 = np.array(a.images, dtype=np.int8)
    encs = np.sort(encode_rows(_conjugate_rows(a8, perms)))
    keep = np.ones(encs.shape[0], dtype=bool)
    np.not_equal(encs[1:], encs[:-1], out=keep[1:])
    return encs[keep]


def _sorted_distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct map rows and their encodings, in ascending encoding order:
    decode_encodings of _conjugate_encodings, without the decoding."""
    encs, first = _first_of_each(encode_rows(rows))
    return rows[first], encs


def _require_vector_degree(n: int) -> None:
    if n > _MAX_VECTOR_DEGREE:
        raise ValueError(
            f"degree {n}: map checks stop at degree {_MAX_VECTOR_DEGREE}; "
            f"the int64 encodings of larger maps overflow"
        )


def _require_singular(group: PermutationGroup, a: Transformation) -> None:
    if a.degree != group.degree:
        raise ValueError(f"degree mismatch: map {a.degree}, group {group.degree}")
    _require_vector_degree(a.degree)
    if a.is_permutation():
        raise ValueError("the map must be singular (rank < degree)")


class _MapChecker:
    """Per-group arrays shared across many single-map checks."""

    def __init__(self, group: PermutationGroup):
        # refused before the element matrix, which stops at degree 127
        _require_vector_degree(group.degree)
        self.group = group
        self.M = group.element_matrix()

    def _conjugates(self, a: Transformation) -> np.ndarray:
        """Sorted distinct encodings of all of a^G: one pass over G."""
        return _conjugate_encodings(self.M, a)

    def _conjugate_tiers(
        self, a: Transformation, orbit: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The growing subsets T of a^G the r-class stage tries, as rows.

        Each tier is its distinct int8 rows with their encodings, both in
        ascending encoding order (_sorted_distinct), so the certificate
        reads the rows without decoding them.

        Tier s is a conjugated by the s elements at indices i * |G| // s,
        for s = _TIER_FIRST, 2 * _TIER_FIRST, ... while _TIER_CUTOFF * s <=
        |G|; those indices double with s, so the picks are nested, and the
        first element is the identity, so each tier holds a.  Every tier
        also holds a conjugated by one element taking image(a) onto each
        set of its orbit (orbit, the masks _orbit_masks gives) that the
        first tier's picks miss, read from subset_transversal(), so each
        tier has a conjugate of every image set a product can have, and
        the tiers stay nested.  A tier past the first is tried only when
        at least 7/8 of its s picks are distinct: s random picks from m
        conjugates give about s(1 - s/2m) of them, so the rule estimates
        _TIER_CUTOFF * s <= |a^G| without building a^G.  It is only an
        estimate: strided picks spread more evenly over an orbit than
        random ones, so more of them are distinct.  Under Sym{1..7} on 8
        points, 5,2,6,5,7,8,3,5 (|a^G| = 2,520) draws 915 distinct
        conjugates from 1,024 picks, so the 1,024-pick tier is tried where
        4 * s <= |a^G| would have stopped at 512.  The last tier is all of
        a^G, built only once every earlier tier has rejected a product.
        """
        a8 = np.array(a.images, dtype=np.int8)
        order = self.M.shape[0]
        size = _TIER_FIRST
        movers = None
        while _TIER_CUTOFF * size <= order:
            picks = self.M[np.arange(size) * order // size]
            rows, encs = _sorted_distinct(_conjugate_rows(a8, picks))
            if movers is None:
                movers = self._transported(a, picks, orbit)
            elif 8 * encs.shape[0] < 7 * size:
                break
            yield _sorted_distinct(np.concatenate([rows, movers])) if movers.size else (rows, encs)
            size *= 2
        yield _sorted_distinct(_conjugate_rows(a8, self.M))

    def _transported(
        self, a: Transformation, picks: np.ndarray, orbit: np.ndarray
    ) -> np.ndarray:
        """Rows of a conjugated onto each image set no pick reaches.

        One conjugate per set of image(a)'s orbit that no a^p, p in picks,
        has as its image set p(image(a)).  Row m of subset_transversal()
        takes the least set of m's orbit onto m, so the inverse of the row
        of image(a), then the row of m, takes image(a) onto m.
        """
        reached = np.zeros(1 << self.group.degree, dtype=bool)
        reached[_mask(picks[:, list(a.image())])] = True
        missed = orbit[~reached[orbit]]
        if not missed.size:
            return picks[:0]
        rows = self.group.subset_transversal()
        back = np.argsort(rows[_image_mask(a)])
        return _conjugate_rows(np.array(a.images, dtype=np.int8), rows[missed][:, back])

    def check(self, a: Transformation) -> NormalizingVerdict:
        """Decide whether every a*g lies in <a^G>."""
        _require_singular(self.group, a)
        orbit = _orbit_masks(self.group, a)
        return self._decide(a, orbit, orbit, functools.partial(self._distinct, a))

    def _distinct(self, a: Transformation) -> np.ndarray:
        """The least g of each distinct product a*g, as rows in ascending order.

        a*g depends only on g on image(a), so each product comes from
        |pointwise stabilizer of image(a)| elements; keeping the least g of
        each keeps the least failing g as the witness.
        """
        at = self.group.distinct_restrictions(_image_mask(a))
        return self.M if at is None else self.M[at]

    def check_pair(self, a: Transformation, g: Permutation) -> NormalizingVerdict:
        """Decide membership of the single product a*g in <a^G>."""
        _require_singular(self.group, a)
        if g.degree != self.group.degree:
            raise ValueError(f"degree mismatch: witness {g.degree}, group {self.group.degree}")
        if g not in self.group:
            raise ValueError(f"{g.cycle_string()} is not a member of {self.group.label}")
        g8 = np.array([g.images], dtype=np.int8)
        orbit = _orbit_masks(self.group, a)
        return self._decide(a, orbit, np.array([_image_mask(a * g)]), lambda: g8)

    def _decide(
        self,
        a: Transformation,
        orbit: np.ndarray,
        sets: np.ndarray,
        factors: Callable[[], np.ndarray],
    ) -> NormalizingVerdict:
        """The strategy ladder over the products a*g.

        orbit holds the masks of image(a)'s orbit (_orbit_masks), sets the
        ascending masks of the products' image sets, the sets g(image(a)),
        and factors() the g of the products as rows, in the order their
        products are tested, built only when products must be tested as
        rows.  The first product found outside <a^G> names its g as the
        witness.
        """
        t0 = time.perf_counter()
        a64 = np.array(a.images, dtype=np.int64)

        def verdict(status: str, trace: tuple[str, ...], g: np.ndarray | None = None,
                    reason: str = ""):
            witness = FailureWitness(Permutation(g.tolist()), reason) if g is not None else None
            return NormalizingVerdict(
                status, self.group.label, map=a, witness=witness, trace=trace,
                checked=1, seconds=time.perf_counter() - t0,
            )

        def within(sets: np.ndarray) -> np.ndarray:
            gs = factors()
            return gs[isin_sorted(_mask(gs[:, list(a.image())]), sets)]

        if not _has_section_mapper(self.group, a, orbit):
            gs = factors()
            bad = np.flatnonzero(~isin_sorted(encode_rows(gs[:, a64]), self._conjugates(a)))
            if bad.size:
                return verdict(STATUS_NOT, ("shortcut",), gs[bad[0]], REASON_CONJUGATE)
            return verdict(STATUS_NORMALIZING, ("shortcut",))
        # a product R-related to a in <T>, with a in T within a^G, is
        # R-related to a in <a^G>: a tier only accepts what the full
        # certificate accepts, so each tier re-tests the rest.  While the
        # induced group is Sym(r), a product passes exactly when its image
        # set is a node, so the rest is the image sets not yet accepted;
        # from the first proper induced group on it is the g of the
        # products rejected so far
        gs = None
        for rows, _ in self._conjugate_tiers(a, orbit):
            cert = certificate_from_matrix(rows, a)
            if gs is None and cert.induced_full:
                sets = sets[~cert.is_node(sets)]
                if sets.size == 0:
                    return verdict(STATUS_NORMALIZING, ("r-class",))
                continue
            if gs is None:
                gs = within(sets)
            gs = gs[~cert.contains_products(gs[:, a64])]
            if gs.shape[0] == 0:
                return verdict(STATUS_NORMALIZING, ("r-class",))
        # the last tier was all of a^G, whose certificate decides membership
        # exactly past the shortcut (stage 3 of the module docstring)
        if gs is None:
            gs = within(sets)
        return verdict(STATUS_NOT, ("r-class", "closure"), gs[0], REASON_MEMBERSHIP)


def exists_section_mapper(group: PermutationGroup, a: Transformation) -> Permutation | None:
    """The first h of G taking image(a) onto a section of ker(a), or None.

    First in group.elements() order.  Whether one exists is read from the
    group's orbits on point sets, so the elements are scanned only when it
    does.  When this returns None, every product of two or more
    G-conjugates of a has rank below rank(a), so the rank-preserving
    members of <a^G> are exactly the single conjugates.
    """
    _require_singular(group, a)
    if not _has_section_mapper(group, a):
        return None
    # h(image) is a section exactly when it meets every kernel class
    classes = np.array(a.kernel().class_ids, dtype=np.int64)
    hit = _mask(classes[group.element_matrix()[:, list(a.image())]])
    return group.elements()[int(np.argmax(hit == (1 << a.rank) - 1))]


def is_a_normalizing(group: PermutationGroup, a: Transformation) -> NormalizingVerdict:
    """Decide aG within <a^G> for one singular map a."""
    return _MapChecker(group).check(a)


def check_pair(group: PermutationGroup, a: Transformation, g: Permutation) -> NormalizingVerdict:
    """Replay a single (a, g) witness: is a*g a member of <a^G>?"""
    return _MapChecker(group).check_pair(a, g)


# -- conjugation-orbit enumeration ---------------------------------------------


def _maps_of_rank(n: int, k: int) -> int:
    """The number of maps on n points of rank k: S(n,k) n!/(n-k)!."""
    onto = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    return comb(n, k) * onto


def _digit_masks(n: int, digits: int) -> np.ndarray:
    """Image-point bitmask of every base-n digit string of that length."""
    rest = np.arange(n**digits, dtype=np.int64)
    masks = np.zeros_like(rest)
    for _ in range(digits):
        masks |= np.int64(1) << (rest % n)
        rest //= n
    return masks


def _rank_walk(n: int, rank: int | None) -> Callable[[int], Iterator[np.ndarray]]:
    """The walk over the maps of rank `rank` (of any rank below n when None).

    The walk, called with a start, yields the ascending encodings >= start
    of those maps in sorted chunks.  An encoding is a prefix of the first
    ceil(n/2) image digits and a suffix of the other l = floor(n/2).
    Whether a suffix completes a prefix to the wanted rank depends only on
    the prefix's image-point bitmask, so the candidates of one prefix are
    prefix * n^l + the sorted suffix table of its mask; a chunk joins the
    candidates of consecutive prefixes up to about _CANDIDATE_CHUNK.
    Tables are built on first use and kept across calls, so a walk can be
    restarted further on at no cost: at most 2^n of them, each of at most
    n^l entries.
    """
    low = n // 2
    scale = n**low
    ranks = _popcounts(n)
    wanted = ranks == rank if rank is not None else ranks < n
    suffix_masks = _digit_masks(n, low)
    prefix_masks = _digit_masks(n, n - low).tolist()
    tables: dict[int, np.ndarray] = {}

    def table(mask: int) -> np.ndarray:
        if mask not in tables:
            tables[mask] = np.flatnonzero(wanted[mask | suffix_masks]).astype(np.int32)
        return tables[mask]

    step = max(1, _CANDIDATE_CHUNK // scale)

    def chunks(start: int) -> Iterator[np.ndarray]:
        for lo in range(start // scale, len(prefix_masks), step):
            hi = min(lo + step, len(prefix_masks))
            parts = [table(mask) for mask in prefix_masks[lo:hi]]
            sizes = [t.size for t in parts]
            if not any(sizes):
                continue
            chunk = np.concatenate(parts) + np.repeat(
                np.arange(lo, hi, dtype=np.int64) * scale, sizes
            )
            chunk = chunk[np.searchsorted(chunk, start):]
            if chunk.size:
                yield chunk

    return chunks


@functools.lru_cache(maxsize=1)
def _permutation_rows(n: int) -> np.ndarray:
    """Every permutation of n points as an int8 row, in ascending encoding
    order (read-only; shared by the sweep's premarking, the normalizer and
    the class sweep).

    Built in numpy, one degree at a time: the rows of k points starting
    with f are f followed by the rows of k - 1 points, each entry at
    least f shifted up by one, which lists the points other than f in
    ascending order.
    """
    rows = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        block = rows.shape[0]
        out = np.empty((k * block, k), dtype=np.int8)
        for f in range(k):
            out[f * block : (f + 1) * block, 0] = f
            out[f * block : (f + 1) * block, 1:] = rows + (rows >= f)
        rows = out
    rows.setflags(write=False)
    return rows


def _normalizer_cosets(group: PermutationGroup) -> np.ndarray:
    """The least element of each coset of G in its normalizer N in S_n.

    Int8 rows in ascending order, so the identity comes first; |N|/|G| of
    them.  Brute force over the n! permutation rows: a row p survives a
    generator s when p^-1 s p lies in G, and the survivors of every
    generator are N.  The least uncovered row is then sought in windows of
    |G| rows from the last representative on, and its coset crossed off by
    one pass over G: each window either holds the next representative or
    is skipped for good, so past the n! conjugations per generator the
    cost is linear in |N| + [N:G]|G|, with one step per coset or window.
    """
    n = group.degree
    M = group.element_matrix()
    rows = _permutation_rows(n)
    if M.shape[0] == rows.shape[0]:
        return rows[:1]
    members = group.element_keys()
    for g in group.generators:
        conj = _conjugate_rows(np.array(g.images, dtype=np.int8), rows)
        rows = rows[isin_sorted(encode_rows(conj), members)]
    encs = encode_rows(rows)
    covered = np.zeros(rows.shape[0], dtype=bool)
    reps = []
    i, order = 0, M.shape[0]
    while i < rows.shape[0]:
        free = np.flatnonzero(~covered[i : i + order])
        if not free.size:
            i += order
            continue
        i += int(free[0])
        reps.append(rows[i])
        covered[np.searchsorted(encs, encode_rows(M[:, rows[i].astype(np.intp)]))] = True
    return np.array(reps)


class ConjugacySweep:
    """Ascending enumeration of conjugation-orbit representatives on T_n.

    One bit per encoding of T_n; permutation encodings are pre-marked.
    The walk visits only the candidate encodings of the wanted rank (any
    rank below n without a filter), in ascending order: every unset
    candidate is the least member of an unseen orbit, which is fully
    expanded and crossed off before the cursor moves on, so every
    yielded representative is the minimum of its orbit.  A chunk of
    candidates whose bitmap span is fully marked sends the walk on to the
    next unset bit.  Under a rank filter only the rank-k orbits are
    marked and counted, and singular_total is the number of rank-k maps.

    The orbits are those of the group generated by G and cosets, a set of
    coset representatives of G in a group H with G <= H <= N_{S_n}(G);
    the default, the identity alone, gives the G-orbits.  An H-orbit is
    the G-orbit of its least member a, read from the element matrix by
    _conjugate_encodings and marked by one set_batch, followed by
    (a^t)^G = (a^G)^t for each other representative t, the G-orbit's rows
    conjugated by t in one _conjugate_rows call, skipped when a^t is
    already marked (the bitmap holds whole G-orbits).  orbits counts
    G-orbits and singular_seen maps, so both mean the same for every
    coset set.  A sweep under N loses nothing, since conjugation by N
    preserves every verdict; the module docstring gives the proof and how
    a failure's `checked` is recounted over the G-orbits.
    State (bitmap, cursor, counters, metadata) can be saved and resumed.
    """

    ENCODING_ID = "imgdigits-be-v1"

    def __init__(
        self,
        group: PermutationGroup,
        *,
        rank: int | None = None,
        cosets: np.ndarray | None = None,
    ):
        n = group.degree
        if n > MAX_SWEEP_DEGREE:
            need = n**n / 8 / 2**30
            raise ValueError(
                f"degree {n} needs a {need:.1f} GiB bitmap; sweeps stop at degree {MAX_SWEEP_DEGREE}"
            )
        if rank is not None and not 1 <= rank < n:
            raise ValueError(f"rank filter {rank} out of range for degree {n}")
        self.group = group
        self.degree = n
        self.rank = rank
        self.total = n**n
        if rank is None:
            self.singular_total = n**n - factorial(n)
        else:
            self.singular_total = _maps_of_rank(n, rank)
        self.cursor = 0
        self.orbits = 0
        self.singular_seen = 0
        self.meta: dict = {}
        self.bitmap = Bitmap(self.total)
        perms = _permutation_rows(n)
        for i in range(0, perms.shape[0], _CANDIDATE_CHUNK):
            self.bitmap.set_batch(encode_rows(perms[i : i + _CANDIDATE_CHUNK]))
        self._matrix = group.element_matrix()
        if cosets is None:
            cosets = np.arange(n, dtype=np.int8)[None, :]
        self.cosets = np.ascontiguousarray(cosets, dtype=np.int8)

    def _expand(self, enc: int) -> tuple[int, int]:
        """Mark the orbit of the unmarked map enc: (G-orbits in it, maps in it)."""
        orbit = _conjugate_encodings(self._matrix, Transformation.decode(self.degree, enc))
        self.bitmap.set_batch(orbit)
        found, size = 1, orbit.shape[0]
        if self.cosets.shape[0] > 1:
            rows = decode_encodings(orbit, self.degree)
            for t in self.cosets[1:]:
                image = encode_rows(_conjugate_rows(rows, t))  # row i is (orbit[i])^t
                if not self.bitmap.test(int(image[0])):
                    self.bitmap.set_batch(image)
                    found += 1
                    size += image.shape[0]
        return found, size

    def _advance(self) -> Iterator[tuple[int, int]]:
        """Expand each unseen orbit from the cursor on: (least encoding, size)."""
        data = self.bitmap.data
        walk = _rank_walk(self.degree, self.rank)
        start: int | None = self.cursor
        while start is not None:
            for chunk in walk(start):
                # every bit of the span is marked: resume at the next unset one
                if (data[chunk[0] >> 3 : (chunk[-1] >> 3) + 1] == 0xFF).all():
                    start = self.bitmap.next_unset(int(chunk[-1]) + 1)
                    break
                for enc in self.bitmap.filter_unset(chunk).tolist():
                    # an expansion can mark later members of the same chunk
                    if self.bitmap.test(enc):
                        continue
                    found, size = self._expand(enc)
                    self.cursor = enc + 1
                    self.orbits += found
                    self.singular_seen += size
                    yield enc, size
            else:
                start = None
        self.cursor = self.total

    def __iter__(self) -> Iterator[tuple[Transformation, int]]:
        for enc, size in self._advance():
            yield Transformation.decode(self.degree, enc), size

    def run_to_end(self) -> None:
        """Expand every remaining orbit, keeping counters but no yields.

        Orbit-size accounting only needs the totals; when every G-orbit is
        a singleton (order-one group, one coset) this marks whole candidate
        chunks at once instead of walking 387 million one-map orbits.
        """
        if self.group.order() == 1 and self.cosets.shape[0] == 1:
            for chunk in _rank_walk(self.degree, self.rank)(self.cursor):
                fresh = self.bitmap.filter_unset(chunk)
                self.bitmap.set_batch(fresh)
                self.orbits += fresh.shape[0]
                self.singular_seen += fresh.shape[0]
            self.cursor = self.total
            return
        for _ in self._advance():
            pass

    @property
    def complete(self) -> bool:
        return self.cursor >= self.total

    # -- persistence -----------------------------------------------------------

    def _header(self) -> dict:
        return {
            "schema": 1,
            "kind": "normgroups-sweep-cache",
            "degree": self.degree,
            "group": self.group.label,
            "catalog_hash": catalog_hash(self.group),
            "encoding": self.ENCODING_ID,
            "rank": self.rank,
            "cosets": {
                "index": self.cosets.shape[0],
                "digest": hashlib.sha256(self.cosets.tobytes()).hexdigest()[:16],
            },
            "cursor": self.cursor,
            "orbits": self.orbits,
            "singular_seen": self.singular_seen,
            "meta": self.meta,
        }

    def save(self, path: str) -> None:
        payload = json.dumps(self._header(), sort_keys=True).encode() + b"\n"
        d = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".sweep-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
                fh.write(self.bitmap.tobytes())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(
        cls,
        path: str,
        group: PermutationGroup,
        *,
        rank: int | None = None,
        cosets: np.ndarray | None = None,
    ) -> "ConjugacySweep":
        """Resume a saved sweep, refusing a foreign or inconsistent cache.

        Consistency: the bitmap holds the n! premarked permutations plus
        every map counted in singular_seen, and meta["checked"] counts
        every representative enumerated, so a resume never skips an
        unchecked map.  A rank-filtered cache from before the walk kept
        to the filtered rank counted orbits of other ranks too, and is
        refused by that rule.  The cache must also name the same coset
        representatives: [N:G] and a digest of their rows.  The bitmap is
        read only after the header passes, into the fresh sweep's own
        array, which it must fill exactly, so a load holds one bitmap.
        """
        sweep = cls(group, rank=rank, cosets=cosets)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            expected = sweep._header()
            for key in ("schema", "kind", "degree", "group", "catalog_hash", "encoding", "rank"):
                if header.get(key) != expected[key]:
                    raise SweepCacheMismatch(
                        f"cache field {key!r}: have {header.get(key)!r}, need {expected[key]!r}"
                    )
            if header.get("cosets") != expected["cosets"]:
                raise SweepCacheMismatch(
                    f"cache field 'cosets': have {header.get('cosets')!r}, need "
                    f"{expected['cosets']!r}; the cache was swept under other coset "
                    f"representatives or before sweeps ran under the normalizer, "
                    f"delete {path} and rerun"
                )
            if not sweep.bitmap.readinto(fh):
                raise SweepCacheMismatch(
                    f"cache bitmap is not {sweep.bitmap.data.shape[0]} bytes long; the "
                    f"cache is truncated or corrupt, delete {path} and rerun"
                )
        sweep.cursor = header["cursor"]
        sweep.orbits = header["orbits"]
        sweep.singular_seen = header["singular_seen"]
        sweep.meta = header.get("meta", {})
        marked = sweep.bitmap.popcount()
        if marked != factorial(sweep.degree) + sweep.singular_seen:
            raise SweepCacheMismatch(
                f"cache field 'singular_seen' is {sweep.singular_seen} but the bitmap "
                f"marks {marked} maps including {factorial(sweep.degree)} permutations; "
                f"the cache is corrupt, delete {path} and rerun"
            )
        checked = sweep.meta.get("checked", 0)
        if checked != sweep.orbits:
            raise SweepCacheMismatch(
                f"cache field 'meta.checked' is {checked} but {sweep.orbits} orbits were "
                f"enumerated; the cache is corrupt or comes from a rank sweep that also "
                f"counted other ranks, delete {path} and rerun"
            )
        return sweep


def sweep_cache_path(cache_dir: str, group: PermutationGroup, rank: int | None = None) -> str:
    """The cache file of a sweep of group (of one rank, if given) in cache_dir.

    Creates cache_dir if it does not exist.
    """
    os.makedirs(cache_dir, exist_ok=True)
    tag = f"-rank{rank}" if rank is not None else ""
    return os.path.join(cache_dir, f"deg{group.degree}{tag}-{catalog_hash(group)}.sweep")


# -- sweeping checks -----------------------------------------------------------


_WORKER_CHECKER: _MapChecker | None = None


def _worker_init(group: PermutationGroup) -> None:
    global _WORKER_CHECKER
    _WORKER_CHECKER = _MapChecker(group)


def _check_batch(
    checker: _MapChecker, reps: Sequence[Transformation]
) -> list[NormalizingVerdict]:
    """Verdicts for reps in order, ending at the first not-normalizing one."""
    out = []
    for rep in reps:
        out.append(checker.check(rep))
        if out[-1].status == STATUS_NOT:
            break
    return out


def _worker_check(reps: Sequence[Transformation]) -> list[NormalizingVerdict]:
    assert _WORKER_CHECKER is not None
    return _check_batch(_WORKER_CHECKER, reps)


class _InlineExecutor(Executor):
    """Runs each submission to completion in the calling process."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def _analytic_verdict(group: PermutationGroup, t0: float) -> NormalizingVerdict:
    return NormalizingVerdict(
        STATUS_NORMALIZING, group.label, trace=("analytic",),
        checked=0, seconds=time.perf_counter() - t0,
    )


def _orbits_through(group: PermutationGroup, rank: int | None, enc: int) -> int:
    """The number of G-orbits (of the rank) whose least member is at most enc.

    A walk of the one-coset sweep up to enc, with no checks: the `checked`
    a G-sweep would report had it stopped at enc.
    """
    count = 0
    for least, _ in ConjugacySweep(group, rank=rank)._advance():
        if least > enc:
            break
        count += 1
    return count


def _sweep_check(
    group: PermutationGroup,
    *,
    rank: int | None,
    workers: int,
    cache_path: str | None,
    progress: ProgressFn | None,
    progress_interval: float,
) -> NormalizingVerdict:
    t0 = time.perf_counter()
    if group.order() == 1:
        # aG = {a} and a = a^1 is a generator of <a^G>
        return _analytic_verdict(group, t0)
    if rank == 1:
        # rank-1 maps are constants: a*g is the constant onto g(c), and
        # so is the conjugate a^g, so a*g is itself a generator
        return _analytic_verdict(group, t0)
    cosets = _normalizer_cosets(group)
    if cache_path and os.path.exists(cache_path):
        sweep = ConjugacySweep.load(cache_path, group, rank=rank, cosets=cosets)
    else:
        sweep = ConjugacySweep(group, rank=rank, cosets=cosets)
    checked = int(sweep.meta.get("checked", 0))
    last_tick = last_save = time.monotonic()

    def report(force: bool = False) -> None:
        nonlocal last_tick
        now = time.monotonic()
        if progress and (force or now - last_tick >= progress_interval):
            last_tick = now
            progress(
                SweepProgress(
                    group.label, checked, sweep.orbits, sweep.singular_seen,
                    sweep.singular_total, time.perf_counter() - t0,
                )
            )

    def checkpoint() -> None:
        nonlocal last_save
        last_save = time.monotonic()
        sweep.meta.update(checked=checked)
        sweep.save(cache_path)

    if workers <= 1:
        # the caller's group, whose element matrix is already built; one
        # batch at a time, so no map after a failure is ever checked
        pool: Executor = _InlineExecutor()
        check = functools.partial(_check_batch, _MapChecker(group))
        depth = 1
    else:
        # the caller's group too, its element rows built above, so no
        # worker walks the group again
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(group,)
        )
        check = _worker_check
        depth = 2 * workers
    # each representative with the number of G-orbits swept up to its own
    reps = ((rep, sweep.orbits) for rep, _ in sweep)
    pending: deque[tuple[Future, tuple[int, ...]]] = deque()

    def refill() -> None:
        while len(pending) < depth:
            batch = list(islice(reps, _SWEEP_BATCH))
            if not batch:
                return
            maps, counts = zip(*batch)
            pending.append((pool.submit(check, list(maps)), counts))

    with pool:
        refill()
        while pending:
            future, counts = pending.popleft()
            for v, checked in zip(future.result(), counts):
                if v.status == STATUS_NOT:
                    for f, _ in pending:
                        f.cancel()
                    return replace(
                        v, trace=("sweep",) + v.trace,
                        checked=_orbits_through(group, rank, v.map.encode()),
                        seconds=time.perf_counter() - t0,
                    )
            report()
            # a checkpoint must not record maps still in flight: once one
            # is due, submit nothing until every pending batch is back
            if cache_path and time.monotonic() - last_save >= _CHECKPOINT_SECONDS:
                if not pending:
                    checkpoint()
                    refill()
            else:
                refill()
    report(force=True)
    if cache_path:
        checkpoint()
    return NormalizingVerdict(
        STATUS_NORMALIZING, group.label, trace=("sweep",),
        checked=checked, seconds=time.perf_counter() - t0,
    )


def is_normalizing(
    group: PermutationGroup,
    *,
    workers: int = 1,
    cache_path: str | None = None,
    progress: ProgressFn | None = None,
    progress_interval: float = 5.0,
) -> NormalizingVerdict:
    """Is G a-normalizing for every singular a of its degree?"""
    return _sweep_check(
        group, rank=None, workers=workers, cache_path=cache_path,
        progress=progress, progress_interval=progress_interval,
    )


def is_k_normalizing(
    group: PermutationGroup,
    k: int,
    *,
    workers: int = 1,
    cache_path: str | None = None,
    progress: ProgressFn | None = None,
    progress_interval: float = 5.0,
) -> NormalizingVerdict:
    """Is G a-normalizing for every map of rank k?"""
    if not 1 <= k < group.degree:
        raise ValueError(f"need 1 <= k < degree, got k={k} degree={group.degree}")
    return _sweep_check(
        group, rank=k, workers=workers, cache_path=cache_path,
        progress=progress, progress_interval=progress_interval,
    )


def is_class_normalizing(group: PermutationGroup, a: Transformation) -> NormalizingVerdict:
    """Is G a'-normalizing for every a' sharing a's conjugacy type in S_n?

    The verdict depends only on the S_n-class of a, never on how the
    catalog happens to label points: relabeling both G and a together
    preserves every verdict, so checking one G against the whole class
    of a covers all labelings of G against the map itself.  The class is
    a^{S_n}, read from the n! permutation rows; walking it in ascending
    order, each member no earlier orbit covered is the least of its
    G-orbit, which is crossed off in a flag array over the class.
    """
    t0 = time.perf_counter()
    _require_singular(group, a)
    n = group.degree
    if n > MAX_SWEEP_DEGREE:
        raise ValueError(f"class sweeps stop at degree {MAX_SWEEP_DEGREE}")
    class_encs = _conjugate_encodings(_permutation_rows(n), a)
    M = group.element_matrix()
    covered = np.zeros(class_encs.shape[0], dtype=bool)
    reps: list[Transformation] = []
    for i, enc in enumerate(class_encs.tolist()):
        if not covered[i]:
            rep = Transformation.decode(n, enc)
            covered[np.searchsorted(class_encs, _conjugate_encodings(M, rep))] = True
            reps.append(rep)
    checker = _MapChecker(group)
    # mapper-free representatives decide via the exact shortcut; try them first
    reps.sort(key=lambda r: (_has_section_mapper(group, r), r.encode()))
    for idx, rep in enumerate(reps):
        v = checker.check(rep)
        if v.status == STATUS_NOT:
            return replace(
                v, trace=("class-sweep",) + v.trace, checked=idx + 1,
                seconds=time.perf_counter() - t0,
            )
    return NormalizingVerdict(
        STATUS_NORMALIZING, group.label, map=a, trace=("class-sweep",),
        checked=len(reps), seconds=time.perf_counter() - t0,
    )


def m12_witness_check() -> NormalizingVerdict:
    """The degree-12 counterexample, pinned to its published witness pair.

    Asserts the full chain: the witness permutation belongs to M12, no
    element of M12 maps image(a) onto a section of ker(a) (so membership
    in <a^G> at full rank means being a conjugate), and a*g is not a
    conjugate of a.  Any deviation raises instead of returning.
    """
    t0 = time.perf_counter()
    group = catalog("M12", 12)
    a = Transformation.from_one_based(M12_WITNESS_MAP)
    g = Permutation.parse(M12_WITNESS_G, 12)
    if g not in group:
        raise RuntimeError("witness permutation is not in M12")
    if _has_section_mapper(group, a):
        raise RuntimeError("unexpected section mapper for the M12 witness map")
    pair = _MapChecker(group).check_pair(a, g)
    if pair.status != STATUS_NOT:
        raise RuntimeError("M12 witness pair unexpectedly inside the semigroup")
    return replace(pair, seconds=time.perf_counter() - t0)


# -- structural filters ----------------------------------------------------------


@dataclass(frozen=True)
class FilterCheck:
    name: str
    passed: bool
    detail: str
    witness_map: Transformation | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "witness_map": list(self.witness_map.one_based())
            if self.witness_map
            else None,
        }


@dataclass(frozen=True)
class FilterReport:
    group: str
    degree: int
    checks: tuple[FilterCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_rejection(self) -> str | None:
        return next((c.name for c in self.checks if not c.passed), None)

    def witness_maps(self) -> tuple[Transformation, ...]:
        return tuple(c.witness_map for c in self.checks if c.witness_map is not None)

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "degree": self.degree,
            "passed": self.passed,
            "first_rejection": self.first_rejection,
            "checks": [c.to_dict() for c in self.checks],
        }


def _intransitive_witness(group: PermutationGroup) -> Transformation:
    # identity on one non-singleton orbit A, everything else to min(A):
    # conjugates and their products all fix A pointwise, a*g does not
    # for any g moving a point of A
    orbit = next(o for o in group.orbits_on_points() if len(o) >= 2)
    inside = set(orbit)
    base = min(orbit)
    return Transformation(p if p in inside else base for p in range(group.degree))


def _imprimitive_witness(group: PermutationGroup) -> Transformation:
    # collapse each block onto its least point: conjugates and products
    # all fix every block setwise, a*g does not whenever g moves a block
    blocks = group.minimal_block_system()
    assert blocks is not None
    rep = {}
    for block in blocks:
        least = min(block)
        for p in block:
            rep[p] = least
    return Transformation(rep[p] for p in range(group.degree))


def _homogeneity_witness(n: int, I: tuple[int, ...], J: tuple[int, ...]) -> Transformation:
    # singleton kernel classes on I sent into J, the rest onto the last
    # point of J; no g maps I into J, so no h maps image(a)=J onto a
    # section I+{p} of ker(a), and the shortcut regime applies
    images = [J[-1]] * n
    for t, p in enumerate(I):
        images[p] = J[t]
    return Transformation(images)


def _certified_homogeneity_witness(
    checker: _MapChecker, I: tuple[int, ...], J: tuple[int, ...]
) -> Transformation | None:
    """The standard witness map, only if it provably escapes <a^G>.

    Mapper absence holds by construction, so the check ends at the exact
    shortcut stage.  Small degrees admit failed pairings whose standard
    map is still normalized (a C2 fixing two of four points, say), and
    those return None.
    """
    witness = _homogeneity_witness(checker.group.degree, I, J)
    return witness if checker.check(witness).status == STATUS_NOT else None


def structural_filters(group: PermutationGroup) -> FilterReport:
    """Necessary conditions for a nontrivial group to be normalizing.

    Transitivity, primitivity, and (k-1,k)-homogeneity for every k up
    to floor((n+1)/2).  Each failed condition carries a map the group
    provably fails to normalize.  Passing everything proves nothing:
    the full check stays the ground truth.
    """
    n = group.degree
    checks: list[FilterCheck] = []
    if group.order() == 1:
        checks.append(
            FilterCheck(
                "trivial", True,
                "the trivial group normalizes everything; filters do not apply",
            )
        )
        return FilterReport(group.label, n, tuple(checks))
    transitive = group.is_transitive()
    if transitive:
        checks.append(FilterCheck("transitive", True, "single orbit"))
        if group.is_primitive():
            checks.append(FilterCheck("primitive", True, "no nontrivial block system"))
        else:
            blocks = group.minimal_block_system()
            shown = ", ".join(
                "{" + ",".join(str(p + 1) for p in b) + "}" for b in (blocks or [])
            )
            checks.append(
                FilterCheck(
                    "primitive", False, f"blocks {shown}",
                    _imprimitive_witness(group),
                )
            )
    else:
        orbits = group.orbits_on_points()
        shown = ", ".join(
            "{" + ",".join(str(p + 1) for p in o) + "}" for o in orbits
        )
        checks.append(
            FilterCheck(
                "transitive", False, f"orbits {shown}", _intransitive_witness(group)
            )
        )
        checks.append(
            FilterCheck("primitive", False, "not applicable: group is intransitive")
        )
    checker: _MapChecker | None = None
    for k in range(2, (n + 1) // 2 + 1):
        name = f"({k - 1},{k})-homogeneous"
        ok, wit = group.is_ij_homogeneous(k - 1, k)
        if ok:
            checks.append(FilterCheck(name, True, "every pairing reachable"))
        else:
            I, J = wit
            detail = (
                "I={" + ",".join(str(p + 1) for p in I) + "} never lands inside "
                "J={" + ",".join(str(p + 1) for p in J) + "}"
            )
            if checker is None:
                checker = _MapChecker(group)
            witness = _certified_homogeneity_witness(checker, I, J)
            if witness is None:
                detail += "; the standard map for this pairing is still normalized"
            checks.append(FilterCheck(name, False, detail, witness))
    return FilterReport(group.label, n, tuple(checks))


# -- classification ---------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    degree: int
    verdicts: tuple[NormalizingVerdict, ...]
    expected: frozenset[str]
    seconds: float = field(default=0.0, compare=False)

    @property
    def normalizing_labels(self) -> tuple[str, ...]:
        return tuple(v.group for v in self.verdicts if v.normalizing)

    @property
    def matches_expected(self) -> bool:
        return set(self.normalizing_labels) == set(self.expected)

    def mismatches(self) -> tuple[str, ...]:
        got = set(self.normalizing_labels)
        return tuple(sorted(got.symmetric_difference(self.expected)))

    def to_dict(self, *, timings: bool = False) -> dict:
        out = {
            "degree": self.degree,
            "verdicts": [v.to_dict(timings=timings) for v in self.verdicts],
            "expected_normalizing": sorted(self.expected),
            "computed_normalizing": sorted(self.normalizing_labels),
            "matches_expected": self.matches_expected,
        }
        if timings:
            out["seconds"] = round(self.seconds, 3)
        return out


def classify(
    n: int,
    *,
    workers: int = 1,
    cache_dir: str | None = None,
    progress: ProgressFn | None = None,
    progress_interval: float = 5.0,
) -> ClassificationReport:
    """Compute the normalizing groups among the degree-n catalog.

    Degrees 4 through 9 run the full decision per candidate; degree 12
    runs the pinned M12 witness computation.  Known failing maps are
    tried first (up to relabeling, via the class sweep) so negative
    candidates skip the full representative sweep; a candidate whose
    known map unexpectedly passes falls through to the sweep.
    """
    if n not in CLASSIFICATION_TABLE:
        raise ValueError(f"no classification run for degree {n}")
    t0 = time.perf_counter()
    verdicts: list[NormalizingVerdict] = []
    for label in catalog_labels(n):
        group = catalog(label, n)
        if label == "M12":
            v = m12_witness_check()
            verdicts.append(replace(v, trace=("fixture",) + v.trace))
            continue
        fixture = KNOWN_FAILING_MAPS.get((n, label))
        if fixture is not None:
            v = is_class_normalizing(group, Transformation.from_one_based(fixture))
            if v.status == STATUS_NOT:
                verdicts.append(replace(v, trace=("fixture",) + v.trace))
                continue
        cache_path = sweep_cache_path(cache_dir, group) if cache_dir else None
        verdicts.append(
            is_normalizing(
                group, workers=workers, cache_path=cache_path,
                progress=progress, progress_interval=progress_interval,
            )
        )
    return ClassificationReport(
        degree=n,
        verdicts=tuple(verdicts),
        expected=CLASSIFICATION_TABLE[n],
        seconds=time.perf_counter() - t0,
    )
