"""Transformation semigroups: R-class certificates and the closure oracle.

The decision engine asks one question of a semigroup <T> generated by
maps of one rank r: which products a*g lie in it.  The certificate below
answers for the R-class of a, and the closure stage in normalizing
decides full membership from it.

RClassCertificate, also named certificate_from_matrix, builds what is
needed to test membership in the R-class of a directly: the strong
orbit of image(a) under right multiplication by the generators (the
sets reachable from image(a) that can also reach back), one word into
and one word back per orbit member, and the induced stabilizer group,
generated by the permutations that "enter at a node, step along an
edge, and return" induce on image(a).  contains_products then needs
only a strong-orbit lookup and one sorted-table search per product, and
only the lookup when the induced group is all of Sym(r).  Two public
reads, induced_full and is_node, let a caller decide on image sets
alone in that case.

Every generator has the anchor's rank r, so a step S -> c(S) that keeps
r points lands on image(c): the target of an edge is its generator's
alone.  The build rests on that:

- one table, valid[t, k], says whether generator k keeps target t (a
  generator's image set, or image(a)) at r points.  It takes one byte
  per entry and is kept for the induced group; it is built a chunk of
  generators at a time, so the integer arrays that build it stay within
  the same row budget as the other batched searches;
- a segmented minimum over the generators grouped by target reduces it
  to least[t, u], the least generator taking target t onto target u;
- the forward and backward searches run a whole BFS level at a time on
  edge = least < m, with no per-edge sort: a new node keeps its edge
  from (or into) the earliest node of the level, its first parent, read
  by one argmax down the level's rows, and the new nodes are ordered by
  that parent with a stable sort.  So the nodes are numbered, and the
  least generator of each tree edge kept, as a one-node-at-a-time search
  taking targets in mask order would number and keep them;
- the transforms into and back from each node are carried along the
  two BFS trees with one gather per level;
- the words, the strong orbit as tuples and the kept generators are
  read from the trees only when asked for.

The induced group is grown by one function, _grow_group, a chunk of
strong-orbit nodes at a time: the base node alone, where the group is
most often already Sym(r); then every node left in one chunk, once they
have at most _TAIL_ROWS steps (nodes times generators), and otherwise
chunks of 2, 4, ... nodes, up to the row budget, until the rest fits.
Each candidate permutation whose step keeps r points and returns from a
strong-orbit node, read from valid, is encoded by encode_rows, and the
chunk's encodings are taken in (node, encoding) order, so the chunking
changes no kept generator.  A chunk with no candidate outside the group
costs one sorted search; otherwise a candidate already in the group is
skipped, any other becomes a generator, and the group is extended coset
by coset (Dimino's algorithm), one gather per new coset, one encoding
pass per batch of coset representatives and one set of encodings per
chunk.  Each kept generator at least
doubles the group, so a certificate stores at most log2 |H| of them,
and its memory grows linearly with |H|.  Each new coset shows how many
elements the group has at least, and the growth stops, before building
that coset, once the count proves the group is Sym(r): past r!/2
elements (Lagrange), or, for r >= 5 with an odd kept generator, past
(r - 1)!, since Alt(r) has no proper subgroup of index below r.  The
first new coset is the new generator's own, so when twice the group so
far passes the bound the growth stops before any gather.  Every later
candidate is then already in it; the certificate records that the
group is full, and builds the r! permutations only if induced_group()
is read.  _grow_group is the one place these stops are made.

TransSemigroup is the exact oracle the tests compare it with: a
breadth-first closure multiplying each round's new elements on the
right by every generator.  Every member is a word g1...gk in the
generators and is reached from its prefix, so no left products are
needed.  Elements are deduplicated through a packed bitmap over all
n**n encodings, so it refuses degrees above 9.  It has no element cap:
it grows until the frontier is empty, or, for a membership query, until
the map turns up.  Its semigroup facts (idempotents, regularity) are
computed by brute force in the tests, from encodings().
"""
from __future__ import annotations

import functools
import itertools
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from .bitset import Bitmap
from .transform import Transformation

_CANDIDATE_ROW_BUDGET = 4_000_000
# steps (nodes times generators) up to which the certificate takes every
# strong-orbit node past the base in one candidate pass
_TAIL_ROWS = 4096


@functools.lru_cache(maxsize=None)
def power_vector(n: int) -> np.ndarray:
    v = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    v.setflags(write=False)
    return v


# encodings are int64; beyond degree 15 the digit polynomial overflows
_MAX_VECTOR_DEGREE = 15


def encode_rows(rows: np.ndarray, base: int | None = None) -> np.ndarray:
    """Each row as one code: its digits in base, by default the row length,
    most significant first.  Rows may be no longer than base."""
    n = rows.shape[1]
    base = n if base is None else base
    return rows.astype(np.int64) @ power_vector(base)[base - n :]


def decode_encodings(encs: np.ndarray, n: int) -> np.ndarray:
    return ((encs[:, None] // power_vector(n)) % n).astype(np.int8)


class TransSemigroup:
    """The semigroup generated by a list of transformations."""

    def __init__(
        self,
        generators: Sequence[Transformation],
        *,
        min_rank: int | None = None,
    ):
        """Start the closure of `generators`, which grows as it is queried.

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
        if n > 9:
            need = n**n / 8 / 2**30
            raise ValueError(
                f"degree {n} needs a {need:.1f} GiB bitmap; closures stop at degree 9"
            )
        if min_rank is not None and not 1 <= min_rank <= n:
            raise ValueError(f"min_rank {min_rank} out of range for degree {n}")
        self.generators = gens
        self.degree = n
        self.min_rank = min_rank
        self._gen_matrix = np.array([g.images for g in gens], dtype=np.int8)
        self._seen = Bitmap(n**n)
        self._enc_chunks: list[np.ndarray] = []
        self._count = 0
        # round 0: the generators themselves
        gen_encs = encode_rows(self._gen_matrix)
        uniq, first = np.unique(gen_encs, return_index=True)
        order = np.argsort(first)
        uniq, first = uniq[order], first[order]
        self._seen.set_batch(uniq)
        self._append(uniq)
        self._frontier = self._gen_matrix[first]

    def _append(self, encs: np.ndarray) -> None:
        self._enc_chunks.append(encs)
        self._count += encs.shape[0]

    # -- closure --------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """True once the frontier is empty: every element has been found."""
        return self._frontier.shape[0] == 0

    def __len__(self) -> int:
        return self._count

    def close(self) -> "TransSemigroup":
        """Run closure rounds until the frontier is empty."""
        while self._frontier.shape[0]:
            self._advance_round()
        return self

    def _advance_round(self) -> None:
        F = self._frontier
        m = self._gen_matrix.shape[0]
        f = F.shape[0]
        gen_chunk = max(1, _CANDIDATE_ROW_BUDGET // f)
        new_rows: list[np.ndarray] = []
        for g0 in range(0, m, gen_chunk):
            gm = self._gen_matrix[g0 : g0 + gen_chunk]
            # right products x*g, gen-major: row j*f + i of a block pairs
            # generator g0+j with frontier row i
            cand = gm[:, F].reshape(f * gm.shape[0], -1)
            encs = encode_rows(cand)
            fresh = ~self._seen.test_batch(encs)
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
            self._seen.set_batch(uniq)
            keep = np.sort(first)
            self._append(encs[keep])
            new_rows.append(cand[keep])
        if new_rows:
            self._frontier = np.concatenate(new_rows)
        else:
            self._frontier = np.empty((0, self.degree), dtype=np.int8)

    # -- membership and enumeration -------------------------------------------

    def contains(self, t: Transformation) -> bool:
        """Membership, growing the closure until t turns up or it is complete."""
        if t.degree != self.degree:
            raise ValueError(f"degree mismatch: {t.degree} vs {self.degree}")
        if self.min_rank is not None and t.rank < self.min_rank:
            raise ValueError(
                f"rank {t.rank} below min_rank {self.min_rank}: not tracked"
            )
        enc = t.encode()
        while not self._seen.test(enc):
            if not self._frontier.shape[0]:
                return False
            self._advance_round()
        return True

    def __contains__(self, t: Transformation) -> bool:
        return self.contains(t)

    def encodings(self) -> np.ndarray:
        """Encodings of all elements found so far, in discovery order."""
        if not self._enc_chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self._enc_chunks)

    def elements(self) -> Iterator[Transformation]:
        self.close()
        for chunk in self._enc_chunks:
            for row in decode_encodings(chunk, self.degree):
                yield Transformation(int(v) for v in row)

    def __iter__(self) -> Iterator[Transformation]:
        return self.elements()


# ---------------------------------------------------------------------------
# R-class certificates


class RClassCertificate:
    """Everything needed to test membership in the R-class of anchor.

    gen_matrix is an int8 image matrix, one generator per row, such as
    the conjugates of the anchor.  It must hold at least one row, its
    rows must have the anchor's degree, at most 15, and every generator
    must have the anchor's rank r; anything else raises ValueError.
    Building it runs the whole search but keeps arrays only: the strong
    orbit node of every image mask, the transform back to image(anchor)
    from every node, and the sorted encodings of the induced group, or
    only the fact that it is all of Sym(r).
    strong_orbit, the words, induced_generators and the rows of a full
    induced group are read from these and the two search trees on first
    use, since membership tests need none of them.

    The searches run on least[t, u], the least generator taking target t
    onto target u, where the targets are the generators' image sets: a
    step that keeps r points lands on its generator's image.  Each
    search level takes, for every new node, the earliest node of the
    current level it is joined to, its first parent: the argmax of its
    column of edge = least < m over the level's rows.  A stable sort
    orders the new nodes by that parent and then by mask (forward) or
    node number (backward), which is the order a one-node-at-a-time
    search taking targets in mask order would give.  So the nodes, the
    words and the kept generators do not depend on the batching.

    induced_generators holds the candidates _grow_group kept, in the
    order found: each lies outside the group generated by the ones
    before it.  The growth stops once the group's order proves it is
    Sym(r), past r!/2 elements or, for r >= 5 with an odd kept
    generator, past (r - 1)!; no later candidate can enlarge it.  When
    the new generator's own coset already proves it, the growth stops
    before any gather.
    """

    def __init__(self, gen_matrix: np.ndarray, anchor: Transformation):
        Gm = gen_matrix
        m, n = Gm.shape
        if m == 0:
            raise ValueError("a certificate needs at least one generator")
        if n != anchor.degree:
            raise ValueError(f"degree mismatch: generators {n}, anchor {anchor.degree}")
        if n > _MAX_VECTOR_DEGREE:
            raise ValueError(f"degree {n}: certificates stop at degree {_MAX_VECTOR_DEGREE}")
        self.anchor = anchor
        # image(a) sorted, and the least preimage of each of its points,
        # read from the at most 15 images
        images = anchor.images
        img = sorted(set(images))
        self._fiber_reps = np.array([images.index(p) for p in img])
        r = self.rank = len(img)
        base = sum(1 << p for p in img)
        img = np.array(img)
        pos_of = self._pos_of = np.full(n, -1, dtype=np.int8)
        pos_of[img] = np.arange(r, dtype=np.int8)
        popcounts = _popcounts(n)
        gen_masks = _mask(Gm)
        if np.any(popcounts[gen_masks] != r):
            raise ValueError(f"every generator must have rank {r}")

        # the targets: every generator's image set, and image(a), numbered
        # in mask order.  A step S -> c(S) that keeps r points lands on
        # image(c), so an edge's target is its generator's.  The generators
        # are taken grouped by target (a stable sort keeps the least index
        # first in each group), and valid[t, j] says whether grouped
        # generator j keeps target t at r points, a chunk of generators at
        # a time.  A segmented minimum over each group gives least[t, u],
        # the least generator taking target t onto target u, or m for none
        is_target = np.zeros(1 << n, dtype=bool)
        is_target[gen_masks] = True
        is_target[base] = True
        masks = np.flatnonzero(is_target)
        nt = masks.shape[0]
        # up to degree 15, int16 holds every mask and numbers the at most
        # C(15, 7) < 2**15 targets, and the stable sort of int16 keys is a
        # radix sort
        number = (np.cumsum(is_target) - 1).astype(np.int16)
        order = np.argsort(number[gen_masks], kind="stable")
        tgt = number[gen_masks[order]]
        GmT = np.ascontiguousarray(Gm[order].T)
        t_points = np.nonzero((masks[:, None] >> np.arange(n)) & 1)[1].reshape(nt, r)
        grouped_masks = masks[tgt].astype(np.int16)
        valid = np.empty((nt, m), dtype=bool)
        least = np.full((nt, nt), m, dtype=np.int64)
        step = max(1, _CANDIDATE_ROW_BUDGET // (nt * r))
        for j0 in range(0, m, step):
            j1 = min(m, j0 + step)
            bits = np.left_shift(1, GmT[:, j0:j1], dtype=np.int16)
            hit = bits[t_points[:, 0]]
            for p in range(1, r):
                hit |= bits[t_points[:, p]]
            # a step keeps r points exactly when it covers its generator's image
            keeps = np.equal(hit, grouped_masks[j0:j1], out=valid[:, j0:j1])
            group = tgt[j0:j1]
            first = np.empty(j1 - j0, dtype=bool)
            first[0] = True
            np.not_equal(group[1:], group[:-1], out=first[1:])
            starts = first.nonzero()[0]
            # the first valid position j of each group, as the largest
            # j1 - j, or 0 when there is none
            from_end = keeps * np.arange(j1 - j0, 0, -1, dtype=np.int32)
            from_end = np.maximum.reduceat(from_end, starts, axis=1)
            found = np.where(from_end > 0, order[j1 - np.maximum(from_end, 1)], m)
            cols = group[starts]
            least[:, cols] = np.minimum(least[:, cols], found)

        # forward orbit of image(a), a whole BFS level at a time, on least:
        # a new node keeps its edge from the earliest parent in the level,
        # and the level's new nodes are numbered in (parent, mask) order, as
        # one node at a time in mask order would number them.  t_in[v] is
        # the product along the tree word into v, carried down the tree one
        # level at a time, and t_in[v][img] lists v's points.  edge[t, u]
        # says whether some generator takes target t onto target u
        edge = least < m
        node_t = np.empty(nt, dtype=np.int64)  # target of each node
        node_t[0] = number[base]
        unseen = np.ones(nt, dtype=bool)  # targets that are not nodes yet
        unseen[node_t[0]] = False
        t_in = np.empty((nt, n), dtype=np.int8)
        t_in[0] = np.arange(n)
        tree_u, tree_k = [np.full(1, -1)], [np.full(1, -1)]
        level, count = np.zeros(1, dtype=np.int64), 1
        while level.shape[0]:
            i, t = _first_in_columns(edge[node_t[level]] & unseen)
            u, new = level[i], np.arange(count, count + t.shape[0])
            k = least[node_t[u], t]
            node_t[new], unseen[t] = t, False
            t_in[new] = Gm[k[:, None], t_in[u]]
            tree_u.append(u)
            tree_k.append(k)
            level, count = new, count + t.shape[0]

        # strong component of the base: forward-reachable nodes that reach
        # back, by a backward BFS on least, a level at a time.  A new node
        # keeps its edge into the earliest node of the level, and the new
        # level is ordered by that node, then by node number, as gathering
        # the edges into each node in turn would order it.  t_back[v] is the
        # product along the word back from v, carried up one level at a
        # time: the edge v -> w by generator k gives t_back[w] after k
        in_scc = np.zeros(count, dtype=bool)
        in_scc[0] = True
        back_v = np.full(count, -1, dtype=np.int64)
        back_k = np.full(count, -1, dtype=np.int64)
        t_back = np.empty((count, n), dtype=np.int8)
        t_back[0] = np.arange(n)
        level = np.zeros(1, dtype=np.int64)
        while level.shape[0]:
            out = (~in_scc).nonzero()[0]
            i, j = _first_in_columns(edge[node_t[out], node_t[level][:, None]])
            level, w = out[j], level[i]
            k = least[node_t[level], node_t[w]]
            in_scc[level] = True
            back_v[level], back_k[level] = w, k
            t_back[level] = t_back[w[:, None], Gm[k]]
        scc = np.flatnonzero(in_scc)
        # strong-orbit node by image mask, and by target
        node_of = self._node_of = np.full(1 << n, -1, dtype=np.int64)
        node_of[masks[node_t[scc]]] = np.arange(scc.shape[0])
        t_scc = np.full(nt, -1, dtype=np.int64)
        t_scc[node_t[scc]] = np.arange(scc.shape[0])
        t_back = self._t_back = t_back[scc]
        points = self._points = t_in[scc][:, img]
        self._trees = (scc, np.concatenate(tree_u), np.concatenate(tree_k), back_v, back_k)

        # induced stabilizer group: the candidates "enter at a node, step
        # by a generator, return", in (node, encoding) order, as one node at
        # a time would take them; valid says which steps keep r points, and
        # the step's target which node they return from, and only the steps
        # that keep r points and land in the strong orbit are gathered.
        # _grow_group keeps the candidates that enlarge the group and says
        # when it is Sym(r).  The base node is a chunk of its own: the group
        # is most often Sym(r) there, and then no other node's candidates are
        # built.  Past it, the nodes left are one chunk once they have at most
        # _TAIL_ROWS steps, and otherwise the chunks grow 2, 4, ... nodes, up
        # to the row budget, so a large proper group is not built from one
        # pass over every node's steps
        h_rows = np.arange(r, dtype=np.int8)[None, :]
        h_encs = encode_rows(h_rows)
        lands = t_scc[tgt]  # node each grouped generator's step returns from
        returns = lands >= 0
        cap = max(1, _CANDIDATE_ROW_BUDGET // (m * r))
        self._gens: list[np.ndarray] = []
        nodes = scc.shape[0]
        full, lo, size = False, 0, 1
        while lo < nodes and not full:
            hi = lo + size
            # candidate e is node lo + i[e] stepped by grouped generator k[e]
            i, k = (valid[node_t[scc[lo:hi]]] & returns).nonzero()
            steps = pos_of[t_back[lands[k, None], GmT[points[lo + i], k[:, None]]]]
            encs = encode_rows(steps)
            order = np.lexsort((encs, i))
            h_rows, h_encs, full = _grow_group(
                h_rows, h_encs, self._gens, steps[order], encs[order]
            )
            lo, size = hi, min(2 * size, cap)
            if (nodes - lo) * m <= _TAIL_ROWS:
                size = nodes - lo
        # whether the induced group is all of Sym(r)
        self.induced_full = full
        # None when full: Sym(r) is built only when induced_group() is read
        self._group_encs = h_encs

    @functools.cached_property
    def strong_orbit(self) -> tuple[tuple[int, ...], ...]:
        """The point sets of the strong orbit, base first, each sorted."""
        return tuple(map(tuple, np.sort(self._points, axis=1).tolist()))

    @functools.cached_property
    def words_in(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the generator indices that carry the base onto it."""
        scc, parent, via = (t.tolist() for t in self._trees[:3])
        return tuple(_tree_word(parent, via, i)[::-1] for i in scc)

    @functools.cached_property
    def words_back(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the generator indices that carry it back onto the base."""
        scc, _, _, nxt, via = (t.tolist() for t in self._trees)
        return tuple(_tree_word(nxt, via, i) for i in scc)

    @functools.cached_property
    def induced_generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(g.tolist()) for g in self._gens)

    def induced_group(self) -> frozenset[tuple[int, ...]]:
        """The induced stabilizer group as position permutations."""
        r = self.rank
        if self.induced_full:
            return frozenset(itertools.permutations(range(r)))
        return frozenset(map(tuple, decode_encodings(self._group_encs, r).tolist()))

    def is_node(self, masks: np.ndarray) -> np.ndarray:
        """Whether each image set, given by its bitmask, is a strong-orbit node."""
        return self._node_of[masks] >= 0

    @property
    def size(self) -> int:
        """Number of elements in the R-class."""
        order = factorial(self.rank) if self.induced_full else self._group_encs.shape[0]
        return self._points.shape[0] * order

    def contains_products(self, rows: np.ndarray) -> np.ndarray:
        """R-class membership for each row, all sharing the anchor's kernel.

        Intended for anchor*g products (g a permutation), whose kernel
        always equals the anchor's; the kernel comparison is skipped.
        Returns one boolean per row.  When the induced group is all of
        Sym(r), every permutation the return word induces lies in it, so
        a row passes exactly when its image set is a strong-orbit node.
        """
        xi = rows[:, self._fiber_reps]
        nodes = self._node_of[_mask(xi)]
        found = nodes >= 0
        if self.induced_full:
            return found
        out = np.zeros(rows.shape[0], dtype=bool)
        if not found.any():
            return out
        tb = self._t_back[nodes[found]].astype(np.int64)
        pis = self._pos_of[np.take_along_axis(tb, xi[found], axis=1)]
        out[found] = isin_sorted(encode_rows(pis), self._group_encs)
        return out


# the name normalizing builds certificates by, which perfbench/tracer.py wraps
certificate_from_matrix = RClassCertificate


def _tree_word(parent: list[int], via: list[int], i: int) -> tuple[int, ...]:
    """The labels on the tree path from node i up to the root."""
    out: list[int] = []
    while parent[i] != -1:
        out.append(via[i])
        i = parent[i]
    return tuple(out)


def _mask(points: np.ndarray) -> np.ndarray:
    """The bitmask of the point set along the last axis of a 1-D or 2-D array.

    The masks are int16: every caller stops at degree _MAX_VECTOR_DEGREE
    = 15, where the largest mask, of all 15 points, is 2**15 - 1.
    """
    # the shifts laid out point by point, so that each OR runs over a whole
    # contiguous row of them, not along each short row of points
    bits = np.left_shift(1, points.T, dtype=np.int16, order="C")
    out = bits[0].copy()
    for row in bits[1:]:
        out |= row
    return out


def _first_in_columns(hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of the first hit in each column, in row-major order.

    hits must have at least one row.  argmax gives each column's first
    true row, and a stable sort by row keeps the columns of one row
    ascending.
    """
    cols = hits.any(axis=0).nonzero()[0]
    rows = hits.argmax(axis=0)[cols]
    order = rows.argsort(kind="stable")
    return rows[order], cols[order]


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
    pos = np.minimum(np.searchsorted(table, values), table.shape[0] - 1)
    return table[pos] == values


def _grow_group(
    rows: np.ndarray,
    encs: np.ndarray,
    gens: list[np.ndarray],
    cand_rows: np.ndarray,
    cand_encs: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray | None, bool]:
    """Grow a group by every candidate that lies outside it.

    rows lists the group, identity first, and encs holds its sorted
    encodings; the candidates are permutation rows with their encodings.
    They are taken in order; each one outside the group so far, H, is
    appended to gens, and H grows to the group gens generates by Dimino's
    algorithm: the larger group is a union of cosets x H, and a union of
    cosets that holds H and is closed under left multiplication by every
    generator is the whole group.  So each coset representative x, in
    the order found, is multiplied by each generator s in turn, and when
    s x is new its whole coset s x H joins, with one gather.  The
    identity's products are the generators, of which the new one, g,
    alone lies outside H, so g H is the first new coset; after it the
    products of all the representatives found since the last batch are
    built and encoded at once.  One set of encodings serves every
    candidate.

    Each new coset shows the group holds at least the elements listed so
    far plus |H|, and that count may prove it symmetric (_sym_bound).
    Proved Sym(r), the growth stops before the coset is built, and
    (None, None, True) is returned: every later candidate lies in it.
    When g H alone, 2 |H| elements, proves it, the growth stops before
    any gather.  Otherwise returns (rows, sorted encodings, False), and
    when no candidate lies outside H, the rows and encodings it was given,
    before any set of encodings is built.
    """
    r = rows.shape[1]
    odd = any(_is_odd(g) for g in gens)
    if rows.shape[0] > _sym_bound(r, odd):
        return None, None, True  # r = 1: the identity alone is Sym(1)
    fresh = (~isin_sorted(cand_encs, encs)).nonzero()[0]
    if not fresh.size:
        return rows, encs, False
    known = set(encs.tolist())
    blocks, enc_blocks = [rows], [encs]
    for j, c in zip(fresh.tolist(), cand_encs[fresh].tolist()):
        if c in known:
            continue
        g = cand_rows[j].copy()  # not a view that holds the whole chunk
        gens.append(g)
        odd = odd or _is_odd(g)
        full_above = _sym_bound(r, odd)
        if 2 * len(known) > full_above:
            return None, None, True
        steps, group = np.array(gens), np.concatenate(blocks)
        # the first batch is g alone, the identity's one new product
        ys, ys_encs, reps, done = g[None], [c], [], 0
        while True:
            for i, enc in enumerate(ys_encs):
                if enc in known:
                    continue
                # the new coset y H is disjoint from the cosets listed
                if len(known) + group.shape[0] > full_above:
                    return None, None, True
                y = ys[i]
                coset = y[group]
                cencs = encode_rows(coset)
                known.update(cencs.tolist())
                blocks.append(coset)
                enc_blocks.append(cencs)
                reps.append(y)
            if done == len(reps):
                break
            ys = steps[:, np.array(reps[done:])].swapaxes(0, 1).reshape(-1, r)
            ys_encs, done = encode_rows(ys).tolist(), len(reps)
    return np.concatenate(blocks), np.sort(np.concatenate(enc_blocks)), False


def _sym_bound(r: int, odd: bool) -> int:
    """A subgroup of Sym(r) with more elements than this, and an odd
    member if odd, is Sym(r).

    More than r!/2 elements make Sym(r) by Lagrange.  For r >= 5, Alt(r)
    has no proper subgroup of index below r (Dixon & Mortimer,
    Permutation Groups, 1996, 5.2), so a group with more than (r - 1)!
    elements meets Alt(r) in more than (r - 1)!/2 of them, an index below
    r: it holds Alt(r), and with an odd member it is Sym(r).
    """
    return factorial(r - 1) if odd and r >= 5 else factorial(r) // 2


def _is_odd(perm: np.ndarray) -> bool:
    """Whether a permutation row is odd: sorting it by swaps takes an odd
    number of them (its length minus its number of cycles)."""
    p, odd = perm.tolist(), False
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], j
            odd = not odd
    return odd


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
    if x.kernel() != cert.anchor.kernel():
        return False
    return bool(cert.contains_products(np.array([x.images], dtype=np.int8))[0])
