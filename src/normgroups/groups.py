"""Finite permutation groups given by generators.

Groups are stored as generator lists, and their elements are built on
first use as one int8 matrix: one row per element, one column per point.
The rows come from a breadth-first closure (identity first, generators
applied in listed order), run level by level, so one numpy gather applies
every generator to a whole level at once; that order anchors every
"first witness" the rest of the package reports.  Small levels drop the
rows already seen through a set of row bytes, large ones (up to degree
15) through one sorted int64 array of the rows' encode_rows keys, which
the walk then leaves behind as element_keys().  elements() reads the
same rows as Permutation objects, one at a time, and only when asked.

The element matrix is the workhorse for the vectorized callers in the
normalizing machinery, and its sorted keys answer membership by binary
search.  Orbits here are point orbits and orbits on point sets, the
latter labeled once per group by subset_orbits, with one element per
point set taking its orbit's least set onto it in subset_transversal;
the conjugation orbit a^G of a map is read from the element matrix
alone, by normalizing._conjugate_encodings.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from collections.abc import Sequence
from fractions import Fraction
from typing import Iterable, Iterator, SupportsIndex

import numpy as np

from .semigroups import _MAX_VECTOR_DEGREE, encode_rows, isin_sorted
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
        self._matrix: np.ndarray | None = None
        self._inverse_matrix: np.ndarray | None = None
        self._keys: np.ndarray | None = None
        self._subset_orbits: np.ndarray | None = None
        self._subset_transversal: np.ndarray | None = None

    # -- element enumeration -------------------------------------------------

    def elements(self) -> ElementSequence:
        """All elements in breadth-first discovery order, as a sequence view.

        Row i of element_matrix() is element i; the view builds one
        Permutation per element read, and never all of them at once.
        """
        return ElementSequence(self.element_matrix())

    def order(self) -> int:
        return self.element_matrix().shape[0]

    def element_matrix(self) -> np.ndarray:
        """(order, degree) int8 matrix of images, rows in discovery order."""
        if self._matrix is None:
            self._matrix, self._keys = _breadth_first_rows(self.generators, self.degree)
        return self._matrix

    def element_keys(self) -> np.ndarray:
        """The elements' _row_keys, ascending: int64 encode_rows codes up
        to degree 15, row bytes above.

        A walk that dropped seen rows by key leaves them behind; otherwise
        they are built on first use.
        """
        m = self.element_matrix()
        if self._keys is None:
            self._keys = np.sort(_row_keys(m))
        return self._keys

    def inverse_matrix(self) -> np.ndarray:
        """Row i is the inverse of element_matrix row i; only perfbench's set-up builds it."""
        if self._inverse_matrix is None:
            m = self.element_matrix()
            inv = np.empty_like(m)
            rows = np.arange(m.shape[0])[:, None]
            inv[rows, m.astype(np.int64)] = np.arange(self.degree, dtype=np.int8)
            self._inverse_matrix = inv
        return self._inverse_matrix

    def __contains__(self, p: Transformation) -> bool:
        """Membership by one binary search over the sorted element keys.

        Up to degree _MAX_VECTOR_DEGREE the key is p's encoding, computed
        in Python; above it, the row bytes.
        """
        if not isinstance(p, Permutation) or p.degree != self.degree:
            return False
        keys = self.element_keys()
        if self.degree > _MAX_VECTOR_DEGREE:
            key = _row_keys(np.array([p.images], dtype=np.int8))
            return bool(isin_sorted(key, keys)[0])
        key = p.encode()
        at = int(keys.searchsorted(key))
        return at < keys.shape[0] and int(keys[at]) == key

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

    def _mask_actions(self) -> np.ndarray:
        """Row 0 is every point-set bitmask itself, row j + 1 its image under
        generator j, built one highest bit at a time."""
        n = self.degree
        gens = np.array([g.images for g in self.generators], dtype=np.int64).reshape(-1, n)
        acts = np.zeros((gens.shape[0] + 1, 1 << n), dtype=np.int64)
        acts[0] = np.arange(1 << n)
        for b in range(n):
            acts[1:, 1 << b : 2 << b] = acts[1:, : 1 << b] | (1 << gens[:, b, None])
        return acts

    def subset_orbits(self) -> np.ndarray:
        """The orbits on point sets, each set given by its bitmask.

        One label per mask m of the 2**degree: the least mask of m's
        orbit.  Built on first use, by a fixpoint over all masks at once:
        each round takes the least label among a mask's images under the
        generators (and its own), then the label of that label.  A label
        stays in its mask's orbit and never rises, and at the fixpoint no
        generator step raises it, so it is one value over the orbit, no
        more than any member: the least mask.
        """
        if self._subset_orbits is None:
            acts = self._mask_actions()
            label = acts[0]
            while True:
                least = label[acts].min(axis=0)
                least = least[least]
                if np.array_equal(least, label):
                    break
                label = least
            self._subset_orbits = label
        return self._subset_orbits

    def subset_transversal(self) -> np.ndarray:
        """Row m is an element taking the least mask of m's orbit onto m.

        A (2**degree, degree) int8 matrix, built on first use by a
        breadth-first walk over the masks under the generators, a level at
        a time: the orbits' least masks start with the identity, and a
        mask first reached from m by generator s gets s after row m.  So
        p^-1 followed by q, for rows p of a set I and q of a set J in I's
        orbit, takes I onto J.
        """
        if self._subset_transversal is None:
            n = self.degree
            acts = self._mask_actions()
            gens = np.array([g.images for g in self.generators], dtype=np.int8).reshape(-1, n)
            rows = np.empty((1 << n, n), dtype=np.int8)
            frontier = np.flatnonzero(self.subset_orbits() == acts[0])
            reached = np.zeros(1 << n, dtype=bool)
            reached[frontier] = True
            rows[frontier] = np.arange(n, dtype=np.int8)
            while frontier.shape[0]:
                # step k * |frontier| + i is frontier mask i under generator k
                targets = acts[1:, frontier].ravel()
                fresh = np.flatnonzero(~reached[targets])
                new, first = np.unique(targets[fresh], return_index=True)
                gen, src = np.divmod(fresh[first], frontier.shape[0])
                rows[new] = gens[gen[:, None], rows[frontier[src]]]
                reached[new] = True
                frontier = new
            self._subset_transversal = rows
        return self._subset_transversal

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
        sorted tuples, least in lexicographic scan order.  The orbit of
        each I is read from the subset_orbits labels, once per orbit.
        """
        n = self.degree
        if not 1 <= i <= j <= n:
            raise ValueError(f"need 1 <= i <= j <= degree, got i={i} j={j} n={n}")
        label = self.subset_orbits()
        all_j = [sum(1 << p for p in J) for J in itertools.combinations(range(n), j)]
        seen: set[int] = set()
        for I in itertools.combinations(range(n), i):
            root = int(label[sum(1 << p for p in I)])
            if root in seen:
                continue
            seen.add(root)
            orbit_masks = np.flatnonzero(label == root)
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


class ElementSequence(Sequence[Permutation]):
    """A group's elements as Permutations, read row by row from its element matrix."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray):
        self._matrix = matrix

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def __getitem__(self, i: SupportsIndex) -> Permutation:
        return Permutation(self._matrix[operator.index(i)].tolist())

    def __iter__(self) -> Iterator[Permutation]:
        for row in self._matrix:
            yield Permutation(row.tolist())


_MAX_ROW_DEGREE = 127  # element rows are int8
# successors per level up to which a set of row bytes dedupes faster than
# sorted keys, whose dozen numpy calls per level cost more on small levels
_SET_LEVEL = 1 << 14


def _breadth_first_rows(
    generators: tuple[Permutation, ...], n: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Every element of <generators> as an int8 row, in breadth-first order.

    This is the order of a FIFO walk from the identity that appends each
    row's unseen successors in generator order: the walk takes all of
    level L before level L+1, so level L+1 is the first occurrences, in
    (row, generator) order, of the successors of level L not seen before.
    One gather builds those successors for the whole level.  A set of row
    bytes drops the ones already seen until a level has more than
    _SET_LEVEL successors; from then on, up to degree _MAX_VECTOR_DEGREE,
    one sorted int64 array of every row's _row_keys does (_next_level).
    Returns the rows and that array, or None if the walk never needed it.
    """
    if n > _MAX_ROW_DEGREE:
        raise ValueError(f"degree {n}: int8 element rows stop at degree {_MAX_ROW_DEGREE}")
    gens = np.array([g.images for g in generators], dtype=np.int8).reshape(-1, n)
    row = np.dtype((np.void, n))
    frontier = np.arange(n, dtype=np.int8)[None, :]
    seen = {frontier.tobytes()}
    mark = seen.add
    levels = [frontier]
    keys = None
    while frontier.shape[0]:
        if keys is None and (
            frontier.shape[0] * gens.shape[0] <= _SET_LEVEL or n > _MAX_VECTOR_DEGREE
        ):
            # successor r * len(gens) + j is frontier row r followed by generator j
            step = np.ascontiguousarray(gens[:, frontier].swapaxes(0, 1)).reshape(-1, n)
            # mark(key) returns None, so each unseen key passes once, in order
            fresh = [key for key in step.view(row).ravel().tolist()
                     if key not in seen and not mark(key)]
            frontier = np.frombuffer(b"".join(fresh), dtype=np.int8).reshape(-1, n)
        else:
            if keys is None:
                keys = np.sort(_row_keys(np.concatenate(levels)))
            frontier, keys = _next_level(gens, frontier, keys)
        levels.append(frontier)
    return np.concatenate(levels), keys


def _next_level(
    gens: np.ndarray, frontier: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The walk's next level after frontier, and keys with its keys merged in.

    keys holds the sorted keys of every row seen so far.  The successors
    are built one generator at a time into (row, generator) order and
    keyed; _first_of_each gives each distinct key with its first position,
    one binary search in keys drops the keys seen, and the positions of
    the rest, ascending, are the new level.
    """
    (k, n), m = gens.shape, frontier.shape[0]
    step = np.empty((m, k, n), dtype=np.int8)
    for j in range(k):
        np.take(gens[j], frontier, out=step[:, j])
    step = step.reshape(-1, n)
    distinct, first = _first_of_each(_row_keys(step))
    at = np.searchsorted(keys, distinct)
    fresh = keys[np.minimum(at, keys.shape[0] - 1)] != distinct
    return step[np.sort(first[fresh])], np.insert(keys, at[fresh], distinct[fresh])


def _first_of_each(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the least index at which each occurs.

    One unstable sort: equal keys form one run of the sorted order, found
    by an adjacent-difference flag; the sort scrambles the indices within
    a run, but the run's least index is its first occurrence, which is
    what a stable sort would have put at its head.
    """
    order = np.argsort(keys)
    sorted_keys = keys[order]
    starts = np.ones(sorted_keys.shape[0], dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    return sorted_keys[starts], np.minimum.reduceat(order, starts)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each int8 row as one key that sorts lexicographically.

    Up to degree _MAX_VECTOR_DEGREE the key is the row's int64 encode_rows
    code; above it, where that code overflows, the opaque row bytes.
    """
    n = rows.shape[1]
    if n <= _MAX_VECTOR_DEGREE:
        return encode_rows(rows)
    return np.ascontiguousarray(rows).view(np.dtype((np.void, n))).ravel()


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
