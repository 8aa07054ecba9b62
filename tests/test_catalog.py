import hashlib
import json

import pytest

from normgroups.catalog import (
    CatalogError,
    canonical_label,
    catalog,
    catalog_hash,
    catalog_labels,
)

EXPECTED_ORDERS = {
    ("trivial", 5): 1,
    ("C5", 5): 5,
    ("D(2*5)", 5): 10,
    ("AGL(1,5)", 5): 20,
    ("A5", 5): 60,
    ("S5", 5): 120,
    ("PSL(2,5)", 6): 60,
    ("PGL(2,5)", 6): 120,
    ("AGL(1,7)", 7): 42,
    ("AGL(1,8)", 8): 56,
    ("AΓL(1,8)", 8): 168,
    ("ASL(3,2)", 8): 1344,
    ("PSL(2,7)", 8): 168,
    ("PGL(2,7)", 8): 336,
    ("PSL(2,8)", 9): 504,
    ("PGL(2,8)", 9): 504,
    ("PΓL(2,8)", 9): 1512,
    ("ASL(2,3)", 9): 216,
    ("AGL(2,3)", 9): 432,
    ("A4", 4): 12,
    ("S6", 6): 720,
}


def test_catalog_orders():
    for (label, degree), order in EXPECTED_ORDERS.items():
        assert catalog(label, degree).order() == order, label


def test_m12_order_and_degree():
    g = catalog("M12", 12)
    assert g.order() == 95040
    assert g.degree == 12
    assert g.is_transitive()


def test_catalog_groups_transitive():
    for degree in (5, 6, 7, 8, 9):
        for label in catalog_labels(degree):
            if label == "trivial":
                continue
            assert catalog(label, degree).is_transitive(), label


def test_first_element_is_the_identity():
    # the conjugate tiers and the distinct-restriction table both take
    # element 0 to be the identity
    groups = {(label, degree) for label, degree in EXPECTED_ORDERS}
    for degree in (*range(1, 10), 12):
        groups.update((label, degree) for label in catalog_labels(degree))
    for label, degree in sorted(groups):
        group = catalog(label, degree)
        assert group.elements()[0].images == tuple(range(degree)), label
        assert group.element_matrix()[0].tolist() == list(range(degree)), label


def test_label_aliases():
    assert canonical_label("d10") == "D(2*5)"
    assert canonical_label("AGammaL(1,8)") == "AΓL(1,8)"
    assert canonical_label("PGammaL(2,8)") == "PΓL(2,8)"
    assert canonical_label("PΓL(2,8)") == "PΓL(2,8)"
    assert canonical_label("s", degree=9) == "S9"
    assert canonical_label("A_7") == "A7"
    assert canonical_label("trivial") == "trivial"
    assert canonical_label("1") == "trivial"
    assert canonical_label("agl(3,2)") == "ASL(3,2)"
    assert catalog("S", 5).order() == 120
    assert catalog("psl(2, 8)", 9).order() == 504


def test_family_labels_take_their_points_from_the_degree():
    assert canonical_label("C", 5) == "C5"
    assert canonical_label("d", degree=6) == "D(2*6)"
    assert catalog("D", 7).order() == 14
    assert catalog("c", 7).order() == 7


# sha256 of the JSON list of (label, degree, catalog_hash, order), sorted by
# (label, degree), over every named entry at its degree, A, S and C at
# degrees 1-9, D(2*n) at 3-9 and trivial at 1-12: 61 groups
CATALOG_DIGEST = "f047e76cc50c9a6d98d260f3f76c6f515c3fd3f7c5b9a3e1f564a53c4d0eedb1"
NAMED = {
    "C5": 5, "D(2*5)": 5, "AGL(1,5)": 5, "PSL(2,5)": 6, "PGL(2,5)": 6, "AGL(1,7)": 7,
    "AGL(1,8)": 8, "AΓL(1,8)": 8, "ASL(3,2)": 8, "PSL(2,7)": 8, "PGL(2,7)": 8,
    "PSL(2,8)": 9, "PGL(2,8)": 9, "PΓL(2,8)": 9, "ASL(2,3)": 9, "AGL(2,3)": 9, "M12": 12,
}


def test_catalog_builds_are_pinned():
    pairs = set(NAMED.items())
    pairs |= {(f"{kind}{n}", n) for kind in "ASC" for n in range(1, 10)}
    pairs |= {(f"D(2*{n})", n) for n in range(3, 10)}
    pairs |= {("trivial", n) for n in range(1, 13)}
    rows = []
    for label, degree in sorted(pairs):
        group = catalog(label, degree)
        rows.append((group.label, degree, catalog_hash(group), group.order()))
    assert len(rows) == 61
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == CATALOG_DIGEST


def test_label_errors():
    with pytest.raises(CatalogError):
        canonical_label("Q8")
    with pytest.raises(CatalogError):
        catalog("M12", 11)
    with pytest.raises(CatalogError):
        catalog("C5", 6)
    with pytest.raises(CatalogError):
        catalog("A", 11)
    with pytest.raises(CatalogError):
        canonical_label("S")  # needs a degree


def test_catalog_labels_per_degree():
    assert catalog_labels(5) == ("trivial", "C5", "D(2*5)", "AGL(1,5)", "A5", "S5")
    assert catalog_labels(9) == (
        "trivial", "PSL(2,8)", "PΓL(2,8)", "ASL(2,3)", "AGL(2,3)", "A9", "S9",
    )
    assert catalog_labels(12) == ("trivial", "M12")
    assert catalog_labels(3) == ("trivial", "A3", "S3")
    with pytest.raises(CatalogError):
        catalog_labels(10)
    for degree in (4, 5, 6, 7, 8, 9, 12):
        labels = catalog_labels(degree)
        assert len(labels) == len(set(labels))
        for label in labels:
            assert canonical_label(label, degree) == label


def test_pgl28_equals_psl28_as_a_set():
    a = {p.images for p in catalog("PSL(2,8)", 9).elements()}
    b = {p.images for p in catalog("PGL(2,8)", 9).elements()}
    assert a == b


def test_degree9_affine_pair_nested():
    small = {p.images for p in catalog("ASL(2,3)", 9).elements()}
    big = {p.images for p in catalog("AGL(2,3)", 9).elements()}
    assert small < big


def test_catalog_is_cached_and_hash_stable():
    g1 = catalog("AGL(1,5)", 5)
    g2 = catalog("agl(1,5)", 5)
    assert g1 is g2
    assert catalog_hash(g1) == catalog_hash(g2)
    assert catalog_hash(g1) != catalog_hash(catalog("C5", 5))
