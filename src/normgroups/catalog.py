"""Catalog of the named permutation groups used by the classifier.

Each entry is built from explicit generators (affine maps, projective
fractional-linear maps, field automorphisms, or literal cycles) and
verified by an order assertion on first construction, then cached.
Labels are matched case-insensitively with common ASCII spellings of
the Greek Gamma accepted.

Point labelings: affine groups act on the field (or vector space) with
point i+1 standing for the field element i (vectors read big-endian by
coordinate); projective groups act on the projective line with points
1..q for the field elements 0..q-1 and point q+1 for infinity.
"""

from __future__ import annotations

import functools
import hashlib
import re
from math import factorial
from typing import Sequence

from .groups import PermutationGroup
from .transform import Permutation


class CatalogError(ValueError):
    """Unknown label or a label/degree mismatch."""


# ---------------------------------------------------------------------------
# GF(8) arithmetic, elements as 3-bit integers over x^3 = x + 1

def _gf8_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 8:
            a ^= 0b1011
    return r


_GF8_INV = [0] * 8
for _x in range(1, 8):
    for _y in range(1, 8):
        if _gf8_mul(_x, _y) == 1:
            _GF8_INV[_x] = _y


class _Field:
    """Arithmetic for GF(p) and GF(8), enough for the catalog."""

    def __init__(self, q: int):
        if q == 8:
            self.mul = _gf8_mul
            self.add = lambda a, b: a ^ b
            self.neg = lambda a: a
            self.inv = lambda a: _GF8_INV[a]
            self.primitive = 2
        else:
            self.mul = lambda a, b: (a * b) % q
            self.add = lambda a, b: (a + b) % q
            self.neg = lambda a: (-a) % q
            self.inv = lambda a: pow(a, q - 2, q)
            self.primitive = _primitive_root(q)
        self.q = q


def _primitive_root(p: int) -> int:
    for w in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = (x * w) % p
            seen.add(x)
        if len(seen) == p - 1:
            return w
    raise ValueError(f"no primitive root modulo {p}")


# ---------------------------------------------------------------------------
# constructions

def _affine_1d(q: int, *, frobenius: bool = False) -> list[Permutation]:
    """x -> x + 1 and x -> w*x on GF(q), plus x -> x^2 when asked."""
    f = _Field(q)
    gens = [
        Permutation(f.add(x, 1) for x in range(q)),
        Permutation(f.mul(f.primitive, x) for x in range(q)),
    ]
    if frobenius:
        gens.append(Permutation(f.mul(x, x) for x in range(q)))
    return gens


def _mobius_perm(mat: tuple[int, int, int, int], f: _Field) -> Permutation:
    """The map x -> (a*x + b)/(c*x + d) on the projective line.

    Points 0..q-1 are the field elements, point q is infinity.
    """
    a, b, c, d = mat
    q = f.q
    images = []
    for x in range(q):
        den = f.add(f.mul(c, x), d)
        num = f.add(f.mul(a, x), b)
        images.append(q if den == 0 else f.mul(num, f.inv(den)))
    images.append(q if c == 0 else f.mul(a, f.inv(c)))
    return Permutation(images)


def _projective(q: int, *, full: bool = False, frobenius: bool = False) -> list[Permutation]:
    f = _Field(q)
    w = f.primitive
    gens = [
        _mobius_perm((1, 1, 0, 1), f),
        _mobius_perm((1, 0, 1, 1), f),
        _mobius_perm((w, 0, 0, f.inv(w)), f),
    ]
    if full:
        gens.append(_mobius_perm((w, 0, 0, 1), f))
    if frobenius:
        gens.append(Permutation([f.mul(x, x) for x in range(q)] + [q]))
    return gens


def _vec_label(v: Sequence[int], p: int) -> int:
    out = 0
    for c in v:
        out = out * p + c
    return out


def _affine_matrix_group(dim: int, p: int, mats: list[list[list[int]]]) -> list[Permutation]:
    """Translations by all basis vectors plus the given linear maps on GF(p)^dim."""
    points = p**dim

    def unlabel(i: int) -> list[int]:
        v = []
        for _ in range(dim):
            i, c = divmod(i, p)
            v.append(c)
        return list(reversed(v))

    gens = []
    for k in range(dim):
        e = [0] * dim
        e[k] = 1
        gens.append(
            Permutation(
                _vec_label([(c + ec) % p for c, ec in zip(unlabel(i), e)], p)
                for i in range(points)
            )
        )
    for mat in mats:
        images = []
        for i in range(points):
            v = unlabel(i)
            w = [sum(mat[r][c] * v[c] for c in range(dim)) % p for r in range(dim)]
            images.append(_vec_label(w, p))
        gens.append(Permutation(images))
    return gens


def _cyclic(n: int) -> list[Permutation]:
    return [Permutation([(x + 1) % n for x in range(n)])]


def _dihedral(n: int) -> list[Permutation]:
    return _cyclic(n) + [Permutation([(-x) % n for x in range(n)])]


def _symmetric(n: int) -> list[Permutation]:
    if n < 2:
        return []
    if n == 2:
        return [Permutation([1, 0])]
    return [
        Permutation([1, 0] + list(range(2, n))),
        Permutation([(x + 1) % n for x in range(n)]),
    ]


def _alternating(n: int) -> list[Permutation]:
    if n < 3:
        return []
    three = Permutation([1, 2, 0] + list(range(3, n)))
    if n == 3:
        return [three]
    if n % 2:
        cyc = Permutation([(x + 1) % n for x in range(n)])
    else:
        cyc = Permutation([0] + [1 + (x % (n - 1)) for x in range(1, n)])
    return [three, cyc]


M12_GENERATOR_CYCLES = (
    "(1 2 3)(4 5 6)(7 8 9)",
    "(2 4 3 7)(5 6 9 8)",
    "(2 9 3 5)(4 6 7 8)",
    "(1 10)(4 7)(5 6)(8 9)",
    "(4 8)(5 9)(6 7)(10 11)",
    "(4 7)(5 8)(6 9)(11 12)",
)


def _m12() -> list[Permutation]:
    return [Permutation.parse(c, degree=12) for c in M12_GENERATOR_CYCLES]


# ---------------------------------------------------------------------------
# label table: canonical -> (degree, expected order, builder)

_SL23 = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
_GL32 = [
    [[1, 1, 0], [0, 1, 0], [0, 0, 1]],   # a transvection
    [[0, 0, 1], [1, 0, 1], [0, 1, 0]],   # companion matrix of x^3 + x + 1, order 7
]

_ENTRIES: dict[str, tuple[int, int, object]] = {
    "C5": (5, 5, lambda: _cyclic(5)),
    "D(2*5)": (5, 10, lambda: _dihedral(5)),
    "AGL(1,5)": (5, 20, lambda: _affine_1d(5)),
    "PSL(2,5)": (6, 60, lambda: _projective(5)),
    "PGL(2,5)": (6, 120, lambda: _projective(5, full=True)),
    "AGL(1,7)": (7, 42, lambda: _affine_1d(7)),
    "AGL(1,8)": (8, 56, lambda: _affine_1d(8)),
    "AΓL(1,8)": (8, 168, lambda: _affine_1d(8, frobenius=True)),
    "ASL(3,2)": (8, 1344, lambda: _affine_matrix_group(3, 2, _GL32)),
    "PSL(2,7)": (8, 168, lambda: _projective(7)),
    "PGL(2,7)": (8, 336, lambda: _projective(7, full=True)),
    "PSL(2,8)": (9, 504, lambda: _projective(8)),
    "PGL(2,8)": (9, 504, lambda: _projective(8, full=True)),
    "PΓL(2,8)": (9, 1512, lambda: _projective(8, frobenius=True)),
    "ASL(2,3)": (9, 216, lambda: _affine_matrix_group(2, 3, _SL23)),
    "AGL(2,3)": (9, 432, lambda: _affine_matrix_group(2, 3, _SL23 + [[[2, 0], [0, 1]]])),
    "M12": (12, 95040, _m12),
}

_ALIASES = {
    "D10": "D(2*5)",
    "D(2X5)": "D(2*5)",
    "AGAMMAL(1,8)": "AΓL(1,8)",
    "AGL^GAMMA(1,8)": "AΓL(1,8)",
    "PGAMMAL(2,8)": "PΓL(2,8)",
    "PGAMMA_L(2,8)": "PΓL(2,8)",
    "AGL(3,2)": "ASL(3,2)",
    "1": "trivial",
    "TRIV": "trivial",
    "TRIVIAL": "trivial",
    "I": "trivial",
}

_AS_RE = re.compile(r"^([AS])_?(\d+)?$")


def canonical_label(label: str, degree: int | None = None) -> str:
    """Normalize a user-facing label; degree resolves bare "A"/"S"/"C"/"D"."""
    key = label.strip().replace(" ", "").replace("Γ", "GAMMA").upper()
    key = key.replace("GAMMA", "Γ")
    if key in _ALIASES:
        return _ALIASES[key]
    if key.replace("Γ", "GAMMA") in _ALIASES:
        return _ALIASES[key.replace("Γ", "GAMMA")]
    for name in _ENTRIES:
        if key == name.upper().replace(" ", ""):
            return name
    m = _AS_RE.match(key.replace("Γ", ""))
    if m:
        kind, num = m.groups()
        n = int(num) if num else degree
        if n is None:
            raise CatalogError(f"label {label!r} needs a degree")
        return f"{kind}{n}"
    if re.match(r"^C\d+$", key):
        return key
    if re.match(r"^D\(2\*\d+\)$", key):
        return key
    raise CatalogError(f"unknown group label {label!r}")


@functools.lru_cache(maxsize=None)
def _build(canonical: str, degree: int) -> PermutationGroup:
    if canonical == "trivial":
        return PermutationGroup([], degree=degree, label="trivial")
    expected: int | None
    if canonical in _ENTRIES:
        native_degree, expected, builder = _ENTRIES[canonical]
        if degree != native_degree:
            raise CatalogError(f"{canonical} acts on {native_degree} points, not {degree}")
        gens = builder()
    else:
        m = re.match(r"^([AS])(\d+)$", canonical)
        if m:
            kind, num = m.group(1), int(m.group(2))
            if num != degree:
                raise CatalogError(f"{canonical} acts on {num} points, not {degree}")
            if degree > 9:
                raise CatalogError(f"{canonical}: degrees above 9 are not materialized")
            gens = _symmetric(degree) if kind == "S" else _alternating(degree)
            expected = factorial(degree) if kind == "S" else max(1, factorial(degree) // 2)
        elif re.match(r"^C(\d+)$", canonical):
            num = int(canonical[1:])
            if num != degree:
                raise CatalogError(f"{canonical} acts on {num} points, not {degree}")
            gens = _cyclic(degree)
            expected = degree
        else:
            m = re.match(r"^D\(2\*(\d+)\)$", canonical)
            assert m is not None
            num = int(m.group(1))
            if num != degree:
                raise CatalogError(f"{canonical} acts on {num} points, not {degree}")
            if degree < 3:
                raise CatalogError(f"{canonical}: dihedral needs at least 3 points")
            gens = _dihedral(degree)
            expected = 2 * degree
    group = PermutationGroup(gens, degree=degree, label=canonical)
    got = group.order()
    if got != expected:
        raise AssertionError(f"{canonical}: built order {got}, expected {expected}")
    return group


def catalog(label: str, degree: int) -> PermutationGroup:
    """Build (or fetch) a named group on the given number of points."""
    if degree < 1:
        raise CatalogError("degree must be at least 1")
    return _build(canonical_label(label, degree), degree)


# classification candidates per degree, in report order
_CANDIDATES: dict[int, tuple[str, ...]] = {
    4: ("trivial", "A4", "S4"),
    5: ("trivial", "C5", "D(2*5)", "AGL(1,5)", "A5", "S5"),
    6: ("trivial", "PSL(2,5)", "PGL(2,5)", "A6", "S6"),
    7: ("trivial", "AGL(1,7)", "A7", "S7"),
    8: ("trivial", "AGL(1,8)", "AΓL(1,8)", "ASL(3,2)", "PSL(2,7)", "PGL(2,7)", "A8", "S8"),
    9: ("trivial", "PSL(2,8)", "PΓL(2,8)", "ASL(2,3)", "AGL(2,3)", "A9", "S9"),
    12: ("trivial", "M12"),
}


def catalog_labels(degree: int) -> tuple[str, ...]:
    """The classification candidates at this degree, in report order."""
    if degree in _CANDIDATES:
        return _CANDIDATES[degree]
    if 1 <= degree <= 9:
        return ("trivial", f"A{degree}", f"S{degree}")
    raise CatalogError(f"no catalog for degree {degree}")


def catalog_degrees() -> tuple[int, ...]:
    """Degrees with a dedicated candidate list, ascending."""
    return tuple(sorted(_CANDIDATES))


def catalog_hash(group: PermutationGroup) -> str:
    """Digest of (degree, generator images); pins cache files to a group."""
    h = hashlib.sha256()
    h.update(str(group.degree).encode())
    for g in group.generators:
        h.update(b"|")
        h.update(",".join(map(str, g.images)).encode())
    return h.hexdigest()[:16]
