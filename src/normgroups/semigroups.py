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
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from math import factorial
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
    """Everything needed to test membership in the R-class of anchor."""

    anchor: Transformation
    strong_orbit: tuple[tuple[int, ...], ...]
    words_in: tuple[tuple[int, ...], ...]
    words_back: tuple[tuple[int, ...], ...]
    induced_generators: tuple[tuple[int, ...], ...]
    _mask_index: dict[int, int] = field(repr=False)
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
        """Vectorized in_r_class over rows that share the anchor's kernel.

        Intended for anchor*g products (g a permutation), whose kernel
        always equals the anchor's; the kernel comparison is skipped.
        Returns one boolean per row.
        """
        xi = rows.astype(np.int64)[:, self._fiber_reps]
        masks = np.bitwise_or.reduce(1 << xi, axis=1)
        keys = np.array(sorted(self._mask_index), dtype=np.int64)
        vals = np.array([self._mask_index[int(k)] for k in keys], dtype=np.int64)
        pos = np.searchsorted(keys, masks).clip(max=keys.shape[0] - 1)
        found = keys[pos] == masks
        out = np.zeros(rows.shape[0], dtype=bool)
        if not found.any():
            return out
        tb = self._t_back[vals[pos[found]]].astype(np.int64)
        pis = self._pos_of[np.take_along_axis(tb, xi[found], axis=1)]
        encs = encode_rows_base(pis, self.rank)
        gi = np.searchsorted(self._group_encs, encs).clip(
            max=self._group_encs.shape[0] - 1
        )
        out[np.flatnonzero(found)] = self._group_encs[gi] == encs
        return out


class _CertificateCore:
    """Strong orbit, return words, and induced group over raw arrays."""

    def __init__(self, gen_matrix: np.ndarray, anchor_images: np.ndarray):
        Gm = gen_matrix
        n = Gm.shape[1]
        a = np.asarray(anchor_images, dtype=np.int8)
        img = np.unique(a)
        r = img.shape[0]
        self.degree = n
        self.rank = r
        self.image_points = img
        pos_of = np.full(n, -1, dtype=np.int8)
        pos_of[img.astype(np.int64)] = np.arange(r, dtype=np.int8)
        self.pos_of = pos_of
        self.rpow = r ** np.arange(r - 1, -1, -1, dtype=np.int64)

        nodes: list[np.ndarray] = [img]
        mask_index: dict[int, int] = {int(np.bitwise_or.reduce(1 << img.astype(np.int64))): 0}
        edges: list[dict[int, int]] = [{}]
        redges: list[list[tuple[int, int]]] = [[]]
        tree: list[tuple[int, int]] = [(-1, -1)]
        queue = deque([0])
        while queue:
            u = queue.popleft()
            pts = nodes[u].astype(np.int64)
            cols = Gm[:, pts].astype(np.int64)
            srt = np.sort(cols, axis=1)
            keep = np.all(np.diff(srt, axis=1) > 0, axis=1) if r > 1 else np.ones(
                cols.shape[0], dtype=bool
            )
            if not keep.any():
                continue
            masks = np.bitwise_or.reduce(1 << srt[keep], axis=1)
            gen_ids = np.flatnonzero(keep)
            uniq_masks, first = np.unique(masks, return_index=True)
            for mask, fi in zip(uniq_masks.tolist(), first.tolist()):
                k = int(gen_ids[fi])
                v = mask_index.get(mask)
                if v is None:
                    v = len(nodes)
                    mask_index[mask] = v
                    nodes.append(srt[keep][fi].astype(np.int8))
                    edges.append({})
                    redges.append([])
                    tree.append((u, k))
                    queue.append(v)
                if v not in edges[u]:
                    edges[u][v] = k
                    redges[v].append((u, k))

        # strong component of the base: forward-reachable nodes that reach back
        in_scc = [False] * len(nodes)
        in_scc[0] = True
        queue = deque([0])
        back_tree: dict[int, tuple[int, int]] = {0: (-1, -1)}
        while queue:
            v = queue.popleft()
            for u, k in redges[v]:
                if not in_scc[u]:
                    in_scc[u] = True
                    back_tree[u] = (v, k)
                    queue.append(u)
        scc = [i for i, ok in enumerate(in_scc) if ok]
        self.node_order = scc
        self.nodes = [nodes[i] for i in scc]
        new_id = {old: new for new, old in enumerate(scc)}
        self.mask_index = {m: new_id[i] for m, i in mask_index.items() if in_scc[i]}

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

        # induced stabilizer group, grown incrementally with early exit at Sym(r)
        full = factorial(r)
        group_rows = np.arange(r, dtype=np.int8)[None, :]
        group_encs = encode_rows_base(group_rows, r)
        gen_rows: list[np.ndarray] = []
        for local_u in range(len(scc)):
            ucols = self.t_in[local_u][img.astype(np.int64)].astype(np.int64)
            cols = Gm[:, ucols].astype(np.int64)
            srt = np.sort(cols, axis=1)
            keep = np.all(np.diff(srt, axis=1) > 0, axis=1) if r > 1 else np.ones(
                cols.shape[0], dtype=bool
            )
            if not keep.any():
                continue
            masks = np.bitwise_or.reduce(1 << srt[keep], axis=1)
            known = np.array([self.mask_index.get(int(m), -1) for m in masks], dtype=np.int64)
            ok = known >= 0
            if not ok.any():
                continue
            cols_ok = cols[keep][ok]
            tb = self.t_back[known[ok]].astype(np.int64)
            pis = pos_of[np.take_along_axis(tb, cols_ok, axis=1)]
            encs = encode_rows_base(pis, r)
            fresh = ~np.isin(encs, group_encs)
            if fresh.any():
                uniq, first = np.unique(encs[fresh], return_index=True)
                gen_rows.append(pis[fresh][first])
                group_rows, group_encs = _perm_closure(
                    np.concatenate([group_rows] + gen_rows), r
                )
                if group_encs.shape[0] >= full:
                    break
        self.group_encs = group_encs
        self.induced_generators = tuple(
            tuple(int(v) for v in row) for chunk in gen_rows for row in chunk
        )

    def base_mask(self) -> int:
        return int(np.bitwise_or.reduce(1 << self.image_points.astype(np.int64)))


def encode_rows_base(rows: np.ndarray, base: int) -> np.ndarray:
    if base == 1:
        return np.zeros(rows.shape[0], dtype=np.int64)
    pow_vec = base ** np.arange(base - 1, -1, -1, dtype=np.int64)
    return rows.astype(np.int64) @ pow_vec


def _perm_closure(gen_rows: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Group closure of permutations on r points; (rows, sorted encodings)."""
    identity = np.arange(r, dtype=np.int8)[None, :]
    rows = identity
    encs = encode_rows_base(identity, r)
    uniq_gens = np.unique(gen_rows, axis=0)
    frontier = identity
    while frontier.shape[0]:
        cand = np.concatenate([g[frontier.astype(np.int64)] for g in uniq_gens])
        cencs = encode_rows_base(cand, r)
        fresh = ~np.isin(cencs, encs)
        if not fresh.any():
            break
        uniq, first = np.unique(cencs[fresh], return_index=True)
        frontier = cand[fresh][first]
        rows = np.concatenate([rows, frontier])
        encs = np.sort(np.concatenate([encs, uniq]))
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
        _mask_index=core.mask_index,
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
    xi = np.array(x.images, dtype=np.int64)
    mask = int(np.bitwise_or.reduce(1 << np.unique(xi)))
    node = cert._mask_index.get(mask)
    if node is None:
        return False
    tb = cert._t_back[node].astype(np.int64)
    pi = cert._pos_of[tb[xi[cert._fiber_reps]]]
    r = cert.rank
    enc = int(encode_rows_base(pi[None, :], r)[0])
    i = int(np.searchsorted(cert._group_encs, enc))
    return i < cert._group_encs.shape[0] and int(cert._group_encs[i]) == enc
