"""Transformation semigroups: closure, membership, and R-class tests.

A semigroup is grown from its generators by breadth-first closure,
taking both left and right products each round so mixed factorizations
are found at their true word length.  Elements are deduplicated through
their integer encodings: a packed bitmap over all n**n encodings for
degree <= 9, a sorted encoding array beyond that.  Enumeration stops at
a configurable element cap; a capped semigroup still answers positive
membership for anything already seen but refuses to certify absence.

For membership of maps that share a kernel with a known element a,
full closure is usually overkill.  r_class_certificate builds the data
needed to test membership in the R-class of a directly: the strong
orbit of image(a) under right multiplication by the generators (the
sets reachable from image(a) that can also reach back), one word into
and one word back per orbit member, and the induced stabilizer group,
generated by the permutations that "enter at B, step along an edge,
and return" induce on image(a).  in_r_class then needs only a kernel
comparison, a strong-orbit lookup, and one group membership test.

The orbit is searched breadth first over whole batches of image sets,
each keyed by its bitmask in a table of 2**n entries, with the numbering
and the words a one-set-at-a-time search would give.

The induced group is built one candidate permutation at a time: a
candidate already in the group is skipped (binary search of the sorted
encodings), any other becomes a generator and the group is extended
from its current elements.  Each kept generator at least doubles the
group, so a certificate stores at most log2 |H| of them and the work
grows with |H| times that, never with |H|**2.

kernel_members decides full membership, not just the R-class, for maps
of the anchor's kernel and rank in a semigroup generated by maps of that
rank, with no cap: a search over the orbit of the injective tuples such
a map takes on a transversal of the kernel.  TransSemigroup stays as the
exact oracle the tests compare it with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Iterator, Sequence

import numpy as np

from .bitset import Bitmap
from .transform import KernelPartition, Transformation

DEFAULT_CAP = 50_000_000

# encodings are int64; beyond degree 15 the digit polynomial overflows
_MAX_VECTOR_DEGREE = 15
_BITMAP_DEGREE = 9
_CANDIDATE_ROW_BUDGET = 4_000_000


class ClosureCapExceeded(RuntimeError):
    """Membership undecidable: enumeration stopped at the element cap."""

    def __init__(self, cap: int, count: int):
        self.cap = cap
        self.count = count
        super().__init__(f"closure stopped at cap {cap} with {count} elements")


@functools.lru_cache(maxsize=None)
def power_vector(n: int) -> np.ndarray:
    v = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    v.setflags(write=False)
    return v


def encode_rows(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    return rows.astype(np.int64) @ power_vector(n)


def decode_encodings(encs: np.ndarray, n: int) -> np.ndarray:
    return ((encs[:, None] // power_vector(n)) % n).astype(np.int8)


class TransSemigroup:
    """The semigroup generated by a list of transformations."""

    def __init__(
        self,
        generators: Sequence[Transformation],
        *,
        cap: int = DEFAULT_CAP,
        min_rank: int | None = None,
    ):
        """Grow the closure of `generators`.

        With `min_rank` set, products of lower rank are discarded as they
        appear.  Multiplication never raises rank, so every member of rank
        >= min_rank has a factorization whose prefixes all stay at rank
        >= min_rank; the pruned enumeration therefore finds exactly the
        members of rank >= min_rank (plus the generators), and membership
        queries remain exact for maps of rank >= min_rank.
        """
        gens = tuple(generators)
        if not gens:
            raise ValueError("a semigroup needs at least one generator")
        n = gens[0].degree
        for g in gens:
            if not isinstance(g, Transformation):
                raise TypeError(f"generator {g!r} is not a Transformation")
            if g.degree != n:
                raise ValueError(f"degree mismatch: {g.degree} vs {n}")
        if n > _MAX_VECTOR_DEGREE:
            raise ValueError(f"degrees above {_MAX_VECTOR_DEGREE} are not supported")
        if min_rank is not None and not 1 <= min_rank <= n:
            raise ValueError(f"min_rank {min_rank} out of range for degree {n}")
        self.generators = gens
        self.degree = n
        self.cap = cap
        self.min_rank = min_rank
        self._gen_matrix = np.array([g.images for g in gens], dtype=np.int8)
        self._capped = False
        if n <= _BITMAP_DEGREE:
            self._seen_bitmap: Bitmap | None = Bitmap(n**n)
            self._seen_sorted: np.ndarray | None = None
        else:
            self._seen_bitmap = None
            self._seen_sorted = np.empty(0, dtype=np.int64)
        self._enc_chunks: list[np.ndarray] = []
        self._count = 0
        # round 0: the generators themselves
        gen_encs = encode_rows(self._gen_matrix)
        uniq, first = np.unique(gen_encs, return_index=True)
        order = np.argsort(first)
        uniq, first = uniq[order], first[order]
        self._mark(uniq)
        self._append(uniq)
        self._frontier = self._gen_matrix[first]

    # -- bookkeeping ----------------------------------------------------------

    def _mark(self, encs: np.ndarray) -> None:
        if self._seen_bitmap is not None:
            self._seen_bitmap.set_batch(encs)
        else:
            self._seen_sorted = np.union1d(self._seen_sorted, encs)

    def _unseen(self, encs: np.ndarray) -> np.ndarray:
        if self._seen_bitmap is not None:
            return ~self._seen_bitmap.test_batch(encs)
        return ~np.isin(encs, self._seen_sorted)

    def _seen_one(self, enc: int) -> bool:
        if self._seen_bitmap is not None:
            return self._seen_bitmap.test(enc)
        return bool(np.isin(enc, self._seen_sorted))

    def _append(self, encs: np.ndarray) -> None:
        self._enc_chunks.append(encs)
        self._count += encs.shape[0]

    # -- closure --------------------------------------------------------------

    @property
    def complete(self) -> bool:
        return self._frontier.shape[0] == 0 and not self._capped

    @property
    def capped(self) -> bool:
        return self._capped

    def __len__(self) -> int:
        return self._count

    def close(self) -> "TransSemigroup":
        """Run closure rounds until finished or the cap is reached."""
        while self._frontier.shape[0] and not self._capped:
            self._advance_round()
        return self

    def _advance_round(self) -> None:
        F = self._frontier
        m = self._gen_matrix.shape[0]
        f = F.shape[0]
        gen_chunk = max(1, _CANDIDATE_ROW_BUDGET // max(2 * f, 1))
        new_rows: list[np.ndarray] = []
        for g0 in range(0, m, gen_chunk):
            gm = self._gen_matrix[g0 : g0 + gen_chunk]
            k = gm.shape[0]
            # right products x*g then left products g*x, both gen-major:
            # row j*f + i of a block pairs generator g0+j with frontier row i
            right = gm[:, F].reshape(f * k, -1)
            left = np.concatenate([F[:, g.astype(np.int64)] for g in gm])
            cand = np.concatenate([right, left])
            encs = encode_rows(cand)
            fresh = self._unseen(encs)
            if not fresh.any():
                continue
            cand, encs = cand[fresh], encs[fresh]
            if self.min_rank is not None:
                srt = np.sort(cand, axis=1)
                ranks = (np.diff(srt.astype(np.int16), axis=1) != 0).sum(axis=1) + 1
                tall = ranks >= self.min_rank
                if not tall.any():
                    continue
                cand, encs = cand[tall], encs[tall]
            uniq, first = np.unique(encs, return_index=True)
            self._mark(uniq)
            keep = np.sort(first)
            self._append(encs[keep])
            new_rows.append(cand[keep])
            if self._count > self.cap:
                break
        if new_rows:
            self._frontier = np.concatenate(new_rows)
        else:
            self._frontier = np.empty((0, self.degree), dtype=np.int8)
        if self._count > self.cap:
            self._capped = True

    # -- membership and enumeration -------------------------------------------

    def contains(self, t: Transformation) -> bool:
        """True/False membership; raises ClosureCapExceeded when unknowable."""
        if t.degree != self.degree:
            raise ValueError(f"degree mismatch: {t.degree} vs {self.degree}")
        if self.min_rank is not None and t.rank < self.min_rank:
            raise ValueError(
                f"rank {t.rank} below min_rank {self.min_rank}: not tracked"
            )
        enc = t.encode()
        if self._seen_one(enc):
            return True
        while self._frontier.shape[0] and not self._capped:
            self._advance_round()
            if self._seen_one(enc):
                return True
        if self._capped:
            raise ClosureCapExceeded(self.cap, self._count)
        return False

    def __contains__(self, t: Transformation) -> bool:
        return self.contains(t)

    def encodings(self) -> np.ndarray:
        """Encodings of all elements found so far, in discovery order."""
        if not self._enc_chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self._enc_chunks)

    def elements(self) -> Iterator[Transformation]:
        self.close()
        if self._capped:
            raise ClosureCapExceeded(self.cap, self._count)
        for chunk in self._enc_chunks:
            for row in decode_encodings(chunk, self.degree):
                yield Transformation(int(v) for v in row)

    def __iter__(self) -> Iterator[Transformation]:
        return self.elements()

    # -- structure ------------------------------------------------------------

    def _require_full(self) -> None:
        if self.min_rank is not None:
            raise ValueError("not meaningful on a rank-pruned enumeration")

    def idempotents(self) -> tuple[Transformation, ...]:
        self._require_full()
        self.close()
        if self._capped:
            raise ClosureCapExceeded(self.cap, self._count)
        out: list[Transformation] = []
        for chunk in self._enc_chunks:
            rows = decode_encodings(chunk, self.degree)
            sq = np.take_along_axis(rows, rows.astype(np.int64), axis=1)
            for row in rows[np.all(sq == rows, axis=1)]:
                out.append(Transformation(int(v) for v in row))
        return tuple(out)

    def is_idempotent_generated(self) -> bool:
        """True iff the idempotents generate the whole semigroup."""
        idems = self.idempotents()
        if not idems:
            return False
        sub = TransSemigroup(idems, cap=self.cap)
        sub.close()
        return len(sub) == len(self)

    def is_regular(self) -> bool:
        """True iff every element x has some y in S with x*y*x = x.

        Brute force over the materialized semigroup, batched per image
        set: x*y*x = x iff y sends each image point w of x into the
        kernel class that x maps onto w, so only the restriction of y
        to image(x) matters.  Desk scale only.
        """
        self._require_full()
        self.close()
        if self._capped:
            raise ClosureCapExceeded(self.cap, self._count)
        rows = np.concatenate(
            [decode_encodings(c, self.degree) for c in self._enc_chunks]
        )
        n = self.degree
        restrictions: dict[tuple[int, ...], np.ndarray] = {}
        achievable: dict[tuple, set[int]] = {}
        rpow_cache: dict[int, np.ndarray] = {}
        for x in rows:
            img = tuple(int(v) for v in np.unique(x))
            r = len(img)
            rpow = rpow_cache.get(r)
            if rpow is None:
                rpow = r ** np.arange(r - 1, -1, -1, dtype=np.int64)
                rpow_cache[r] = rpow
            # kernel class ids in first-appearance order
            cls = np.empty(n, dtype=np.int64)
            ids: dict[int, int] = {}
            for p in range(n):
                cls[p] = ids.setdefault(int(x[p]), len(ids))
            # class that x maps onto each image point, keyed by the point
            target = np.empty(r, dtype=np.int64)
            first_preimage: dict[int, int] = {}
            for p in range(n):
                first_preimage.setdefault(int(x[p]), p)
            for k, w in enumerate(img):
                target[k] = cls[first_preimage[w]]
            key = (img, cls.tobytes())
            hit = achievable.get(key)
            if hit is None:
                U = restrictions.get(img)
                if U is None:
                    U = np.unique(rows[:, list(img)], axis=0)
                    restrictions[img] = U
                hit = set((cls[U.astype(np.int64)] @ rpow).tolist())
                achievable[key] = hit
            if int(target @ rpow) not in hit:
                return False
        return True


# ---------------------------------------------------------------------------
# R-class certificates


@dataclass
class RClassCertificate:
    """Everything needed to test membership in the R-class of anchor.

    induced_generators holds only the candidates that enlarged the
    induced group when they were found, in the order found: each lies
    outside the group generated by the ones before it.
    """

    anchor: Transformation
    strong_orbit: tuple[tuple[int, ...], ...]
    words_in: tuple[tuple[int, ...], ...]
    words_back: tuple[tuple[int, ...], ...]
    induced_generators: tuple[tuple[int, ...], ...]
    _node_of: np.ndarray = field(repr=False)
    _t_back: np.ndarray = field(repr=False)
    _pos_of: np.ndarray = field(repr=False)
    _group_encs: np.ndarray = field(repr=False)
    _anchor_kernel: KernelPartition = field(repr=False)
    _fiber_reps: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        return len(self.strong_orbit[0])

    def induced_group(self) -> frozenset[tuple[int, ...]]:
        """The induced stabilizer group as position permutations."""
        r = self.rank
        rows = decode_encodings(self._group_encs, r) if r > 1 else np.zeros(
            (len(self._group_encs), 1), dtype=np.int8
        )
        return frozenset(tuple(int(v) for v in row) for row in rows)

    @property
    def size(self) -> int:
        """Number of elements in the R-class."""
        return len(self.strong_orbit) * len(self._group_encs)

    def contains_products(self, rows: np.ndarray) -> np.ndarray:
        """R-class membership for each row, all sharing the anchor's kernel.

        Intended for anchor*g products (g a permutation), whose kernel
        always equals the anchor's; the kernel comparison is skipped.
        Returns one boolean per row.
        """
        xi = rows.astype(np.int64)[:, self._fiber_reps]
        nodes = self._node_of[_mask(xi)]
        found = nodes >= 0
        out = np.zeros(rows.shape[0], dtype=bool)
        if not found.any():
            return out
        tb = self._t_back[nodes[found]].astype(np.int64)
        pis = self._pos_of[np.take_along_axis(tb, xi[found], axis=1)]
        out[found] = isin_sorted(encode_rows_base(pis, self.rank), self._group_encs)
        return out


class _CertificateCore:
    """Strong orbit, return words, and induced group over raw arrays."""

    def __init__(self, gen_matrix: np.ndarray, anchor_images: np.ndarray):
        Gm = gen_matrix
        n = Gm.shape[1]
        a = np.asarray(anchor_images, dtype=np.int8)
        img = np.unique(a)
        r = img.shape[0]
        pos_of = np.full(n, -1, dtype=np.int8)
        pos_of[img.astype(np.int64)] = np.arange(r, dtype=np.int8)
        self.pos_of = pos_of

        # forward orbit of image(a) under the generators, as a queue taken
        # a batch of nodes at a time: a batch's new nodes are numbered in
        # (parent, mask) order, as one node at a time would number them, and
        # each edge keeps the least generator index that realises it
        m = Gm.shape[0]
        node_of = np.full(1 << n, -1, dtype=np.int64)  # node id by image mask
        node_pts = np.empty((comb(n, r), r), dtype=np.int8)
        node_pts[0] = img
        node_of[_mask(img)] = 0
        tree_u, tree_k = [np.full(1, -1)], [np.full(1, -1)]
        edge_u: list[np.ndarray] = []
        edge_v: list[np.ndarray] = []
        edge_k: list[np.ndarray] = []
        count, head = 1, 0
        step = max(1, _CANDIDATE_ROW_BUDGET // m)
        popcounts = _popcounts(n)
        while head < count:
            batch = np.arange(head, min(count, head + step))
            head = int(batch[-1]) + 1
            cols = Gm[:, node_pts[batch].astype(np.int64)]
            masks = _mask(cols)
            k, b = np.nonzero(popcounts[masks] == r)
            # generator-major order: the first of each (parent, mask) has least k
            _, first = np.unique(batch[b] << n | masks[k, b], return_index=True)
            k, b = k[first], b[first]
            u, masks = batch[b], masks[k, b]
            fresh = np.flatnonzero(node_of[masks] < 0)
            _, once = np.unique(masks[fresh], return_index=True)
            fresh = fresh[np.sort(once)]
            node_of[masks[fresh]] = np.arange(count, count + fresh.shape[0])
            node_pts[count : count + fresh.shape[0]] = np.sort(cols[k[fresh], b[fresh]], axis=1)
            count += fresh.shape[0]
            tree_u.append(u[fresh])
            tree_k.append(k[fresh])
            edge_u.append(u)
            edge_v.append(node_of[masks])
            edge_k.append(k)
        tree = np.stack([np.concatenate(tree_u), np.concatenate(tree_k)], axis=1).tolist()
        eu, ev, ek = (np.concatenate(e) for e in (edge_u, edge_v, edge_k))

        # strong component of the base: forward-reachable nodes that reach
        # back, by a backward BFS over the edges into each node in the order
        # they were found, one level at a time
        by_v = np.argsort(ev, kind="stable")
        starts = np.searchsorted(ev[by_v], np.arange(count + 1))
        in_scc = np.zeros(count, dtype=bool)
        in_scc[0] = True
        back_tree = np.full((count, 2), -1, dtype=np.int64)
        frontier = [0]
        while frontier:
            into = by_v[np.concatenate([np.arange(starts[v], starts[v + 1]) for v in frontier])]
            into = into[~in_scc[eu[into]]]
            _, once = np.unique(eu[into], return_index=True)
            into = into[np.sort(once)]
            found = eu[into]
            in_scc[found] = True
            back_tree[found, 0] = ev[into]
            back_tree[found, 1] = ek[into]
            frontier = found.tolist()
        back_tree = back_tree.tolist()
        scc = np.flatnonzero(in_scc).tolist()
        self.nodes = [node_pts[i] for i in scc]
        self.node_of = np.full(1 << n, -1, dtype=np.int64)
        self.node_of[_mask(node_pts[scc])] = np.arange(len(scc))

        def word_in(i: int) -> tuple[int, ...]:
            out: list[int] = []
            while tree[i][0] != -1:
                parent, k = tree[i]
                out.append(k)
                i = parent
            return tuple(reversed(out))

        def word_back(i: int) -> tuple[int, ...]:
            out: list[int] = []
            while back_tree[i][0] != -1:
                nxt, k = back_tree[i]
                out.append(k)
                i = nxt
            return tuple(out)

        self.words_in = [word_in(i) for i in scc]
        self.words_back = [word_back(i) for i in scc]

        def compose_word(word: tuple[int, ...]) -> np.ndarray:
            cur = np.arange(n, dtype=np.int8)
            for k in word:
                cur = Gm[k][cur.astype(np.int64)]
            return cur

        self.t_in = np.array([compose_word(w) for w in self.words_in], dtype=np.int8)
        self.t_back = np.array([compose_word(w) for w in self.words_back], dtype=np.int8)

        # induced stabilizer group: a candidate joins the generators only
        # when it lies outside the group built so far, which at least doubles
        # the group, so at most log2 |H| generators are kept; stop at Sym(r)
        full = factorial(r)
        group_rows = np.arange(r, dtype=np.int8)[None, :]
        group_encs = encode_rows_base(group_rows, r)
        gens: list[np.ndarray] = []
        for local_u in range(len(scc)):
            if group_encs.shape[0] >= full:
                break
            ucols = self.t_in[local_u][img.astype(np.int64)].astype(np.int64)
            cols = Gm[:, ucols].astype(np.int64)
            # an image that collapses has fewer than r points: no node
            known = self.node_of[_mask(cols)]
            ok = known >= 0
            if not ok.any():
                continue
            tb = self.t_back[known[ok]].astype(np.int64)
            pis = pos_of[np.take_along_axis(tb, cols[ok], axis=1)]
            encs, first = np.unique(encode_rows_base(pis, r), return_index=True)
            fresh = ~isin_sorted(encs, group_encs)
            while fresh.any():
                gens.append(pis[first[fresh.argmax()]])
                group_rows, group_encs = _extend_group(group_rows, group_encs, gens, r)
                fresh &= ~isin_sorted(encs, group_encs)
        self.group_encs = group_encs
        self.induced_generators = tuple(tuple(int(v) for v in row) for row in gens)


def encode_rows_base(rows: np.ndarray, base: int) -> np.ndarray:
    if base == 1:
        return np.zeros(rows.shape[0], dtype=np.int64)
    pow_vec = base ** np.arange(base - 1, -1, -1, dtype=np.int64)
    return rows.astype(np.int64) @ pow_vec


def _mask(points: np.ndarray) -> np.ndarray:
    """The bitmask of the point set along the last axis."""
    out = np.zeros(points.shape[:-1], dtype=np.int64)
    for j in range(points.shape[-1]):
        out |= np.left_shift(1, points[..., j], dtype=np.int64)
    return out


@functools.lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    """Number of set bits of every n-bit mask."""
    c = np.zeros(1 << n, dtype=np.int8)
    for b in range(n):
        c[1 << b : 2 << b] = c[: 1 << b] + 1
    c.setflags(write=False)
    return c


def isin_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership of each value in a sorted, non-empty table."""
    pos = np.searchsorted(table, values).clip(max=table.shape[0] - 1)
    return table[pos] == values


def _extend_group(
    rows: np.ndarray, encs: np.ndarray, gens: list[np.ndarray], r: int
) -> tuple[np.ndarray, np.ndarray]:
    """The group generated by gens, given the one generated by gens[:-1].

    rows lists that smaller group and encs holds its sorted encodings.
    The earlier generators map it into itself, so the first round only
    applies the new one; later rounds apply all of them to the fresh rows.
    Returns (rows, sorted encodings) of the larger group.
    """
    frontier, step = rows, gens[-1:]
    while frontier.shape[0]:
        f64 = frontier.astype(np.int64)
        cand = np.concatenate([g[f64] for g in step])
        cencs = encode_rows_base(cand, r)
        fresh = ~isin_sorted(cencs, encs)
        uniq, first = np.unique(cencs[fresh], return_index=True)
        frontier = cand[fresh][first]
        rows = np.concatenate([rows, frontier])
        encs = np.sort(np.concatenate([encs, uniq]))
        step = gens
    return rows, encs


def r_class_certificate(
    generators: Sequence[Transformation], anchor: Transformation
) -> RClassCertificate:
    """Certificate for the R-class of anchor in the semigroup they generate."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if g.degree != anchor.degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {anchor.degree}")
    Gm = np.array([g.images for g in gens], dtype=np.int8)
    return certificate_from_matrix(Gm, anchor)


def certificate_from_matrix(Gm: np.ndarray, anchor: Transformation) -> RClassCertificate:
    """r_class_certificate taking the generators as an image matrix."""
    core = _CertificateCore(Gm, np.array(anchor.images, dtype=np.int8))
    return RClassCertificate(
        anchor=anchor,
        strong_orbit=tuple(tuple(int(v) for v in node) for node in core.nodes),
        words_in=tuple(core.words_in),
        words_back=tuple(core.words_back),
        induced_generators=core.induced_generators,
        _node_of=core.node_of,
        _t_back=core.t_back,
        _pos_of=core.pos_of,
        _group_encs=core.group_encs,
        _anchor_kernel=anchor.kernel(),
        _fiber_reps=_first_preimages(anchor),
    )


def _first_preimages(anchor: Transformation) -> np.ndarray:
    """For each image point of anchor (sorted), its least preimage."""
    img = sorted(set(anchor.images))
    first: dict[int, int] = {}
    for p, v in enumerate(anchor.images):
        first.setdefault(v, p)
    return np.array([first[w] for w in img], dtype=np.int64)


def kernel_members(gens: np.ndarray, anchor: Transformation, rows: np.ndarray) -> np.ndarray:
    """Membership of each row in the semigroup the generator rows generate.

    Every generator must have rank r = rank(anchor), and every row the
    anchor's kernel K and rank r, as anchor*g has for a permutation g.
    If x = c1 c2 ... ck has rank r, then ker(c1) = K; on a transversal T
    of K, x[T] is the injective tuple c1[T] pushed through c2, ..., ck,
    and it stays injective at every step.  Conversely every tuple reached
    that way is y[T] for the one product y of kernel K it came from.  So
    a row is a member exactly when its tuple on T is reached by a breadth
    first search over injective r-tuples that starts from c[T] for the
    generators of kernel K and steps t -> c[t] for every generator c.

    The search stops once every row's tuple is reached.  It visits at
    most n!/(n-r)! tuples and keeps only those, as a sorted encoding array.
    Returns one boolean per row.
    """
    n = gens.shape[1]
    a = np.array(anchor.images, dtype=np.int64)
    T = _first_preimages(anchor)
    r = T.shape[0]
    popcounts = _popcounts(n)
    if np.any(popcounts[_mask(gens)] != r):
        raise ValueError(f"every generator must have rank {r}")
    pw = n ** np.arange(r - 1, -1, -1, dtype=np.int64)
    wanted = rows[:, T].astype(np.int64) @ pw
    # c has kernel K iff it agrees with c[T] read through the class of each point
    cls = np.searchsorted(np.unique(a), a)
    on_T = gens[:, T]
    frontier = on_T[np.all(on_T[:, cls] == gens, axis=1)]
    if frontier.shape[0] == 0:
        return np.zeros(rows.shape[0], dtype=bool)
    seen, first = np.unique(frontier.astype(np.int64) @ pw, return_index=True)
    frontier = frontier[first]
    missing = np.setdiff1d(wanted, seen)
    while missing.shape[0] and frontier.shape[0]:
        f = frontier.shape[0]
        step = max(1, _CANDIDATE_ROW_BUDGET // (f * r))
        cols = frontier.astype(np.int64)
        fresh_rows: list[np.ndarray] = []
        for k0 in range(0, gens.shape[0], step):
            cand = gens[k0 : k0 + step][:, cols].reshape(-1, r)
            cand = cand[popcounts[_mask(cand)] == r]
            encs = cand.astype(np.int64) @ pw
            new = ~isin_sorted(encs, seen)
            uniq, once = np.unique(encs[new], return_index=True)
            if not uniq.shape[0]:
                continue
            fresh_rows.append(cand[new][once])
            seen = np.insert(seen, np.searchsorted(seen, uniq), uniq)
            missing = missing[~isin_sorted(missing, uniq)]
            if not missing.shape[0]:
                break
        frontier = np.concatenate(fresh_rows) if fresh_rows else on_T[:0]
    return isin_sorted(wanted, seen)


def in_r_class(cert: RClassCertificate, x: Transformation) -> bool:
    """Membership of x in the R-class of the certificate's anchor.

    True iff x has the anchor's kernel, image(x) lies in the strong
    orbit, and the permutation induced on image(anchor) by x followed
    by the stored return word lies in the induced stabilizer group.
    True implies x belongs to the generated semigroup and is R-related
    to the anchor there.
    """
    if x.degree != cert.anchor.degree:
        raise ValueError(f"degree mismatch: {x.degree} vs {cert.anchor.degree}")
    if x.kernel() != cert._anchor_kernel:
        return False
    return bool(cert.contains_products(np.array([x.images], dtype=np.int8))[0])
