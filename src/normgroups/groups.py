"""Finite permutation groups given by generators.

Groups are stored as generator lists and materialized fully on demand:
every group handled here has at most a few hundred thousand elements,
so a deterministic breadth-first closure (identity first, generators
applied in listed order) is both simple and fast, and the resulting
element order anchors every "first witness" the rest of the package
reports.

The element matrix (one row per element, one column per point) is the
workhorse for the vectorized callers in the normalizing machinery, and
its sorted rows answer membership by binary search.  Orbits here are
point orbits and orbits on point sets; conjugation orbits of maps live
with the sweep in normalizing.py.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Iterable

import numpy as np

from .transform import ParseError, Permutation, Transformation


class PermutationGroup:
    """A permutation group on the points 0..degree-1."""

    def __init__(
        self,
        generators: Iterable[Permutation],
        *,
        degree: int | None = None,
        label: str | None = None,
    ):
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Permutation):
                raise TypeError(f"generator {g!r} is not a Permutation")
        if gens:
            n = gens[0].degree
            for g in gens:
                if g.degree != n:
                    raise ValueError(f"degree mismatch: {g.degree} vs {n}")
            if degree is not None and degree != n:
                raise ValueError(f"degree mismatch: {degree} vs generator degree {n}")
        elif degree is None:
            raise ValueError("a group without generators needs an explicit degree")
        else:
            n = degree
        if n < 1:
            raise ValueError("degree must be at least 1")
        self.degree = n
        self.generators = gens
        self.label = label if label is not None else _default_label(gens)
        self._elements: tuple[Permutation, ...] | None = None
        self._matrix: np.ndarray | None = None
        self._inverse_matrix: np.ndarray | None = None
        self._sorted_rows: np.ndarray | None = None
        self._subset_orbits: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._restrictions: dict[int, np.ndarray | None] = {}

    # -- element enumeration -------------------------------------------------

    def elements(self) -> tuple[Permutation, ...]:
        """All elements in deterministic breadth-first discovery order."""
        if self._elements is None:
            identity = tuple(range(self.degree))
            seen = {identity}
            order: list[tuple[int, ...]] = [identity]
            queue = deque([identity])
            gens = [g.images for g in self.generators]
            while queue:
                cur = queue.popleft()
                for g in gens:
                    nxt = tuple(g[v] for v in cur)
                    if nxt not in seen:
                        seen.add(nxt)
                        order.append(nxt)
                        queue.append(nxt)
            self._elements = tuple(Permutation(p) for p in order)
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def element_matrix(self) -> np.ndarray:
        """(order, degree) int8 matrix of images, rows in discovery order."""
        if self._matrix is None:
            self._matrix = np.array([p.images for p in self.elements()], dtype=np.int8)
        return self._matrix

    def inverse_matrix(self) -> np.ndarray:
        """Row i is the inverse of element_matrix row i."""
        if self._inverse_matrix is None:
            m = self.element_matrix()
            inv = np.empty_like(m)
            rows = np.arange(m.shape[0])[:, None]
            inv[rows, m.astype(np.int64)] = np.arange(self.degree, dtype=np.int8)
            self._inverse_matrix = inv
        return self._inverse_matrix

    def __contains__(self, p: Transformation) -> bool:
        """Membership by one binary search over the sorted element rows."""
        if not isinstance(p, Permutation) or p.degree != self.degree:
            return False
        if self._sorted_rows is None:
            self._sorted_rows = np.sort(_row_keys(self.element_matrix()))
        key = _row_keys(np.array([p.images], dtype=np.int8))
        i = int(np.searchsorted(self._sorted_rows, key)[0])
        return i < self._sorted_rows.shape[0] and bool(self._sorted_rows[i] == key[0])

    def __len__(self) -> int:
        return self.order()

    def conjugated_by(self, p: Permutation, label: str | None = None) -> "PermutationGroup":
        """The relabeled copy p^-1 * G * p."""
        return PermutationGroup(
            [g.conjugated_by(p) for g in self.generators],
            degree=self.degree,
            label=label or f"{self.label}^{p.cycle_string()}",
        )

    def __repr__(self) -> str:
        return f"PermutationGroup(label={self.label!r}, degree={self.degree})"

    # -- orbits ---------------------------------------------------------------

    def orbit(self, point: int) -> tuple[int, ...]:
        """The orbit of a point, in breadth-first discovery order."""
        if not isinstance(point, int) or not 0 <= point < self.degree:
            raise ValueError(f"point seed {point!r} outside 0..{self.degree - 1}")
        members = [point]
        seen = {point}
        for x in members:  # the list grows as the walk reaches new points
            for g in self.generators:
                y = g.images[x]
                if y not in seen:
                    seen.add(y)
                    members.append(y)
        return tuple(members)

    def subset_orbits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The orbits on point sets, each set given by its bitmask.

        Returns (label, parent, via), one entry per mask m of the 2**degree:
        label[m] is the least mask of m's orbit, the root of a Schreier
        tree over the orbit, in which generator via[m] maps the set
        parent[m] onto m (both -1 at a root).  Built on first use.
        """
        if self._subset_orbits is None:
            size = 1 << self.degree
            masks = np.arange(size, dtype=np.int64)
            acts = []
            for g in self.generators:
                moved = np.zeros(size, dtype=np.int64)
                for p, q in enumerate(g.images):
                    moved |= ((masks >> p) & 1) << q
                acts.append(moved.tolist())
            label, parent, via = [-1] * size, [-1] * size, [-1] * size
            # roots ascend, so each root is the least mask of its orbit
            for root in range(size):
                if label[root] >= 0:
                    continue
                label[root] = root
                tree = [root]
                for m in tree:  # the list grows as the walk reaches new sets
                    for gi, act in enumerate(acts):
                        y = act[m]
                        if label[y] < 0:
                            label[y], parent[y], via[y] = root, m, gi
                            tree.append(y)
            self._subset_orbits = (np.array(label), np.array(parent), np.array(via))
        return self._subset_orbits

    def distinct_restrictions(self, mask: int) -> np.ndarray | None:
        """The first element of each distinct restriction to a point set.

        For the set I given by its bitmask, the ascending (discovery-order)
        int32 indices of the elements g at which each restriction g|_I
        first occurs; there are |G : G_(I)| of them, G_(I) the pointwise
        stabilizer of I.  None when G_(I) is trivial, where every element
        is its own first.  Built per mask on first use, by one pass over
        the elements with a base-degree key of their images on I.
        """
        if mask not in self._restrictions:
            n = self.degree
            points = [p for p in range(n) if (mask >> p) & 1]
            keys = self.element_matrix()[:, points].astype(np.int64) @ (
                n ** np.arange(len(points), dtype=np.int64)
            )
            # row 0 is the identity, so rows with its key make up G_(I)
            if np.count_nonzero(keys == keys[0]) == 1:
                self._restrictions[mask] = None
            else:
                firsts = np.unique(keys, return_index=True)[1]
                self._restrictions[mask] = np.sort(firsts).astype(np.int32)
        return self._restrictions[mask]

    def subset_transporter(self, src: int, dst: int) -> Permutation | None:
        """Some element mapping the point set src onto dst (bitmasks), if any.

        Read from the Schreier trees of subset_orbits: the words from the
        orbit's root to src and to dst give h = (word to src)^-1 (word to dst).
        """
        label, parent, via = self.subset_orbits()
        if label[src] != label[dst]:
            return None
        gens = [np.array(g.images) for g in self.generators]

        def from_root(m: int) -> np.ndarray:
            path = []
            while parent[m] >= 0:
                path.append(int(via[m]))
                m = int(parent[m])
            perm = np.arange(self.degree)
            for gi in reversed(path):
                perm = gens[gi][perm]
            return perm

        h = np.empty(self.degree, dtype=np.int64)
        h[from_root(src)] = from_root(dst)
        return Permutation(h.tolist())

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def orbits_on_points(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for p in range(self.degree):
            if p not in seen:
                orb = self.orbit(p)
                seen.update(orb)
                out.append(tuple(sorted(orb)))
        return out

    # -- primitivity ----------------------------------------------------------

    def is_primitive(self) -> bool:
        """True iff transitive with no nontrivial invariant partition.

        Degrees 1 and 2 admit no nontrivial partition at all.
        """
        return self.is_transitive() and self.minimal_block_system() is None

    def minimal_block_system(self) -> list[tuple[int, ...]] | None:
        """A nontrivial invariant partition, or None if primitive.

        Returns the finest congruence gluing 0 with the least point that
        yields a nontrivial one, as sorted blocks.
        """
        if not self.is_transitive():
            raise ValueError("block systems are defined for transitive groups")
        for beta in range(1, self.degree):
            parent = list(range(self.degree))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            merged = deque([(0, beta)])
            parent[find(0)] = find(beta)
            while merged:
                x, y = merged.popleft()
                for g in self.generators:
                    gx, gy = g.images[x], g.images[y]
                    rx, ry = find(gx), find(gy)
                    if rx != ry:
                        parent[rx] = ry
                        merged.append((gx, gy))
            blocks: dict[int, list[int]] = {}
            for p in range(self.degree):
                blocks.setdefault(find(p), []).append(p)
            if 1 < len(blocks) < self.degree:
                return sorted(tuple(sorted(b)) for b in blocks.values())
        return None

    # -- set transitivity -----------------------------------------------------

    def is_ij_homogeneous(self, i: int, j: int) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
        """Whether every i-set maps into some position inside every j-set.

        True iff for all |I| = i and |J| = j there is g with I*g a subset
        of J.  On failure returns the witness pair (I, J), both 0-based
        sorted tuples, least in lexicographic scan order.
        """
        n = self.degree
        if not 1 <= i <= j <= n:
            raise ValueError(f"need 1 <= i <= j <= degree, got i={i} j={j} n={n}")
        m = self.element_matrix().astype(np.int64)
        all_j = [sum(1 << p for p in J) for J in itertools.combinations(range(n), j)]
        seen: set[int] = set()
        for I in itertools.combinations(range(n), i):
            mask = sum(1 << p for p in I)
            if mask in seen:
                continue
            cols = m[:, I]
            orbit_masks = np.unique(np.bitwise_or.reduce(1 << cols, axis=1))
            seen.update(int(v) for v in orbit_masks)
            for jmask in all_j:
                if not np.any((orbit_masks & ~jmask) == 0):
                    J = tuple(p for p in range(n) if (jmask >> p) & 1)
                    return False, (I, J)
        return True, None

    # -- counting -------------------------------------------------------------

    def average_intersection(self, A: Iterable[int], B: Iterable[int]) -> Fraction:
        """Exact average of |A*g meet B| over the group; needs transitivity."""
        if not self.is_transitive():
            raise ValueError("average intersection requires a transitive group")
        A = sorted(set(A))
        B = sorted(set(B))
        for p in A + B:
            if not 0 <= p < self.degree:
                raise ValueError(f"point {p} outside 0..{self.degree - 1}")
        if not A or not B:
            return Fraction(0)
        m = self.element_matrix()
        cols = m[:, A]
        total = int(np.isin(cols, np.array(B, dtype=np.int8)).sum(dtype=np.int64))
        return Fraction(total, self.order())


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each int8 row as one opaque key; sorts lexicographically at any degree."""
    return np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1]))).ravel()


def _default_label(gens: tuple[Permutation, ...]) -> str:
    if not gens:
        return "trivial"
    body = ", ".join(g.cycle_string() for g in gens[:3])
    if len(gens) > 3:
        body += ", ..."
    return f"<{body}>"


def group_from_generator_text(
    text: str, *, degree: int | None = None, label: str | None = None
) -> PermutationGroup:
    """Parse a generator file: one permutation per line, # comments, blanks ok.

    Lines may use cycle notation or 1-based image lists.  Generators of
    smaller inferred degree are extended by fixed points to the largest
    degree seen (or the explicit one).
    """
    raw: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            raw.append((lineno, body))
    perms: list[Permutation] = []
    for lineno, body in raw:
        try:
            perms.append(Permutation.parse(body, degree))
        except ParseError as e:
            raise ParseError(str(e), line=lineno) from None
    if degree is None:
        n = max((p.degree for p in perms), default=1)
        perms = [_extend(p, n) for p in perms]
    return PermutationGroup(perms, degree=degree if degree is not None else max(
        (p.degree for p in perms), default=1
    ), label=label)


def _extend(p: Permutation, degree: int) -> Permutation:
    if p.degree == degree:
        return p
    return Permutation(p.images + tuple(range(p.degree, degree)))
