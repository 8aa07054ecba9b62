"""Normalizing permutation groups over the full transformation monoid.

A group G <= S_n is a-normalizing for a singular transformation a when
<a, G> \\ G = <a^G>, and normalizing when that holds for every singular
a.  The package decides these properties per map, per rank, or in full,
and classifies the catalog of candidate groups degree by degree.
"""

from .bitset import Bitmap
from .catalog import (
    CatalogError,
    canonical_label,
    catalog,
    catalog_degrees,
    catalog_hash,
    catalog_labels,
)
from .groups import PermutationGroup, group_from_generator_text
from .normalizing import (
    CLASSIFICATION_TABLE,
    KNOWN_FAILING_MAPS,
    ClassificationReport,
    ConjugacySweep,
    FailureWitness,
    FilterCheck,
    FilterReport,
    NormalizingVerdict,
    STATUS_INCONCLUSIVE,
    STATUS_NORMALIZING,
    STATUS_NOT,
    SweepCacheMismatch,
    SweepProgress,
    check_pair,
    classify,
    conjugacy_orbit_reps,
    exists_section_mapper,
    is_a_normalizing,
    is_class_normalizing,
    is_k_normalizing,
    is_normalizing,
    m12_witness_check,
    structural_filters,
)
from .semigroups import (
    RClassCertificate,
    TransSemigroup,
    in_r_class,
    r_class_certificate,
)
from .transform import (
    KernelPartition,
    ParseError,
    Permutation,
    Transformation,
)

__version__ = "0.1.0"

__all__ = [
    "Bitmap",
    "CLASSIFICATION_TABLE",
    "CatalogError",
    "ClassificationReport",
    "ConjugacySweep",
    "FailureWitness",
    "FilterCheck",
    "FilterReport",
    "KNOWN_FAILING_MAPS",
    "KernelPartition",
    "NormalizingVerdict",
    "ParseError",
    "Permutation",
    "PermutationGroup",
    "RClassCertificate",
    "STATUS_INCONCLUSIVE",
    "STATUS_NORMALIZING",
    "STATUS_NOT",
    "SweepCacheMismatch",
    "SweepProgress",
    "TransSemigroup",
    "Transformation",
    "canonical_label",
    "catalog",
    "catalog_degrees",
    "catalog_hash",
    "catalog_labels",
    "check_pair",
    "classify",
    "conjugacy_orbit_reps",
    "exists_section_mapper",
    "group_from_generator_text",
    "in_r_class",
    "is_a_normalizing",
    "is_class_normalizing",
    "is_k_normalizing",
    "is_normalizing",
    "m12_witness_check",
    "r_class_certificate",
    "structural_filters",
    "__version__",
]
