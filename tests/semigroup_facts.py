"""Brute-force semigroup facts over a closed TransSemigroup, for the tests.

Composition is left to right, so the row of x*y is y[x] and x*y*x = x
reads x[y[x]] == x.
"""

import numpy as np

from normgroups.semigroups import TransSemigroup, decode_encodings
from normgroups.transform import Transformation


def element_rows(s):
    return decode_encodings(s.close().encodings(), s.degree).astype(np.intp)


def idempotents(s):
    rows = element_rows(s)
    idem = (np.take_along_axis(rows, rows, axis=1) == rows).all(axis=1)
    return [Transformation(r.tolist()) for r in rows[idem]]


def is_regular(s):
    rows = element_rows(s)
    return all((x[rows[:, x]] == x).all(axis=1).any() for x in rows)


def is_idempotent_generated(s):
    # every finite semigroup has an idempotent, so the generator list is never empty
    return len(TransSemigroup(idempotents(s)).close()) == len(s.close())
