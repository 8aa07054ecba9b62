"""Transformations and permutations of a finite point set.

Elements of the full transformation monoid T_n are stored as image
tuples over the points 0..n-1.  All text formats (comma separated image
lists, cycle notation) are 1-based; conversion happens only at the
parse/format boundary.

Composition is left to right throughout: (s * t)(x) = t(s(x)).  Point
images follow the same right-action convention, so conjugation is
a.conjugated_by(g) = g^-1 * a * g.

Every transformation on n points has an integer encoding, the base-n
number whose most significant digit is the image of point 0:

    encode(a) = sum(a(i) * n**(n-1-i) for i in range(n))

Encodings order T_n lexicographically by image tuple and are the keys
used for deduplication, orbit bitmaps, and cache files.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Malformed transformation or permutation text.

    Carries 1-based line/column positions when known so callers can
    point at the offending character.
    """

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where += f"line {line}"
        if column is not None:
            where += (", " if where else "") + f"column {column}"
        super().__init__(f"{message} ({where})" if where else message)


class KernelPartition:
    """The partition of the points induced by equal images.

    Stored in canonical form: class ids are assigned in order of first
    appearance while scanning points 0..n-1, so two transformations have
    equal kernels iff their id tuples are equal.
    """

    __slots__ = ("class_ids", "num_classes")

    def __init__(self, class_ids: Iterable[int]):
        ids = tuple(class_ids)
        if not ids:
            raise ValueError("degree must be at least 1")
        seen = 0
        for i, c in enumerate(ids):
            if c > seen or c < 0:
                raise ValueError(f"class ids not in first-appearance form at point {i}")
            if c == seen:
                seen += 1
        self.class_ids = ids
        self.num_classes = seen

    @classmethod
    def from_images(cls, images: Sequence[int]) -> "KernelPartition":
        ids: dict[int, int] = {}
        return cls(ids.setdefault(v, len(ids)) for v in images)

    @property
    def degree(self) -> int:
        return len(self.class_ids)

    def classes(self) -> list[tuple[int, ...]]:
        """Classes as point tuples, ordered by class id."""
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for p, c in enumerate(self.class_ids):
            out[c].append(p)
        return [tuple(c) for c in out]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KernelPartition) and self.class_ids == other.class_ids

    def __hash__(self) -> int:
        return hash(self.class_ids)

    def __repr__(self) -> str:
        body = "".join("{" + " ".join(str(p + 1) for p in c) + "}" for c in self.classes())
        return f"KernelPartition({body})"


class Transformation:
    """A total map on n points, stored as the tuple of 0-based images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        if n == 0:
            raise ValueError("degree must be at least 1")
        for i, v in enumerate(imgs):
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(f"image {v!r} of point {i} outside 0..{n - 1}")
        self.images = imgs

    @classmethod
    def from_one_based(cls, images: Iterable[int]) -> "Transformation":
        return cls(v - 1 for v in images)

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Transformation":
        """Parse a comma separated 1-based image list such as "1,1,3,4,1"."""
        return _parse_image_list(cls, text, degree)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Transformation") -> "Transformation":
        _check_same_degree(self, other)
        t = other.images
        result = tuple(t[v] for v in self.images)
        klass = Permutation if isinstance(self, Permutation) and isinstance(other, Permutation) else Transformation
        return klass(result)

    def conjugated_by(self, g: "Permutation") -> "Transformation":
        """g^-1 * self * g, the relabeling of this map along g."""
        _check_same_degree(self, g)
        inv = g.inverse().images
        gi = g.images
        result = tuple(gi[self.images[inv[x]]] for x in range(self.degree))
        return type(self)(result)

    @property
    def rank(self) -> int:
        return len(set(self.images))

    def image(self) -> tuple[int, ...]:
        """The image set as a sorted point tuple."""
        return tuple(sorted(set(self.images)))

    def kernel(self) -> KernelPartition:
        return KernelPartition.from_images(self.images)

    def is_permutation(self) -> bool:
        return self.rank == self.degree

    def is_idempotent(self) -> bool:
        return self * self == self

    def encode(self) -> int:
        n = self.degree
        idx = 0
        for v in self.images:
            idx = idx * n + v
        return idx

    @classmethod
    def decode(cls, degree: int, index: int) -> "Transformation":
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if not 0 <= index < degree**degree:
            raise ValueError(f"index {index} outside 0..{degree**degree - 1}")
        digits = []
        for _ in range(degree):
            index, d = divmod(index, degree)
            digits.append(d)
        return cls(reversed(digits))

    def one_based(self) -> tuple[int, ...]:
        return tuple(v + 1 for v in self.images)

    def image_csv(self) -> str:
        return ",".join(str(v + 1) for v in self.images)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Transformation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Transformation") -> bool:
        return self.images < other.images

    def __str__(self) -> str:
        return self.image_csv()

    def __repr__(self) -> str:
        return f"{type(self).__name__}.parse({self.image_csv()!r})"


class Permutation(Transformation):
    """A bijective transformation."""

    __slots__ = ()

    def __init__(self, images: Iterable[int]):
        super().__init__(images)
        if len(set(self.images)) != self.degree:
            raise ValueError("images are not a bijection")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, v in enumerate(self.images):
            inv[v] = x
        return Permutation(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]], degree: int) -> "Permutation":
        """Build from 0-based cycles; unlisted points are fixed."""
        images = list(range(degree))
        touched: set[int] = set()
        for cyc in cycles:
            pts = list(cyc)
            for p in pts:
                if not 0 <= p < degree:
                    raise ValueError(f"point {p} outside 0..{degree - 1}")
                if p in touched:
                    raise ValueError(f"point {p} appears twice across cycles")
                touched.add(p)
            for i, p in enumerate(pts):
                images[p] = pts[(i + 1) % len(pts)]
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse cycle notation "(1 2 3)(4 5)" or an image list "2,3,1"."""
        stripped = text.strip()
        if stripped.startswith("("):
            return _parse_cycles(stripped, degree)
        t = _parse_image_list(Transformation, text, degree)
        if not t.is_permutation():
            raise ParseError("image list is not a permutation")
        return cls(t.images)

    def __str__(self) -> str:
        return self.cycle_string()

    def __repr__(self) -> str:
        return f"Permutation.parse({self.cycle_string()!r})"


# ---------------------------------------------------------------------------
# parsing helpers

_CYCLE_TOKEN = re.compile(r"\s*(\(|\)|\d+|,)")


def _parse_image_list(cls: type, text: str, degree: int | None) -> Transformation:
    entries = text.split(",")
    images = []
    col = 1
    for k, entry in enumerate(entries):
        stripped = entry.strip()
        if not stripped.isdigit():
            raise ParseError(f"expected a 1-based point, got {stripped!r}", column=col)
        images.append(int(stripped))
        col += len(entry) + 1
    n = degree if degree is not None else len(images)
    if len(images) != n:
        raise ParseError(f"expected {n} images, got {len(images)}")
    col = 1
    for k, (entry, v) in enumerate(zip(entries, images)):
        if not 1 <= v <= n:
            raise ParseError(f"image {v} of point {k + 1} outside 1..{n}", column=col)
        col += len(entry) + 1
    return cls(v - 1 for v in images)


def _parse_cycles(text: str, degree: int | None) -> Permutation:
    cycles: list[list[int]] = []
    current: list[int] | None = None
    seen: set[int] = set()
    pos = 0
    while pos < len(text):
        m = _CYCLE_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", column=pos + 1)
        token = m.group(1)
        if token == "(":
            if current is not None:
                raise ParseError("nested '('", column=m.start(1) + 1)
            current = []
        elif token == ")":
            if current is None:
                raise ParseError("')' without '('", column=m.start(1) + 1)
            cycles.append(current)
            current = None
        elif token == ",":
            if current is None:
                raise ParseError("',' outside a cycle", column=m.start(1) + 1)
        else:
            if current is None:
                raise ParseError("point outside a cycle", column=m.start(1) + 1)
            p = int(token)
            if p < 1:
                raise ParseError("points are 1-based", column=m.start(1) + 1)
            if p in seen:
                raise ParseError(f"point {p} appears twice", column=m.start(1) + 1)
            seen.add(p)
            current.append(p - 1)
        pos = m.end()
    if current is not None:
        raise ParseError("unclosed '('", column=len(text))
    n = degree if degree is not None else (max(seen) if seen else 1)
    for cyc in cycles:
        for p in cyc:
            if p >= n:
                raise ParseError(f"point {p + 1} outside degree {n}")
    return Permutation.from_cycles(cycles, n)


# ---------------------------------------------------------------------------
# helpers over the classes above

def is_section(points: Iterable[int], partition: KernelPartition) -> bool:
    """True iff the point set meets every class of the partition exactly once."""
    seen: set[int] = set()
    for p in points:
        if not 0 <= p < partition.degree:
            raise ValueError(f"point {p} outside 0..{partition.degree - 1}")
        c = partition.class_ids[p]
        if c in seen:
            return False
        seen.add(c)
    return len(seen) == partition.num_classes


def all_transformations(degree: int) -> Iterator[Transformation]:
    """All of T_n in encoding order.  Desk scale only: n**n elements."""
    for idx in range(degree**degree):
        yield Transformation.decode(degree, idx)


def _check_same_degree(s: Transformation, t: Transformation) -> None:
    if s.degree != t.degree:
        raise ValueError(f"degree mismatch: {s.degree} vs {t.degree}")
