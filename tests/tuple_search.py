"""The tuple-search membership oracle, for the tests.

kernel_members decides membership in a semigroup generated by maps of
one rank r for maps of the anchor's kernel and rank r, with no cap, by
a breadth-first search over the injective r-tuples such a map takes on
a transversal of the kernel.  The checker decides the same question
from the R-class certificate of all of a^G; the tests compare the two.
"""

import numpy as np

from normgroups.semigroups import (
    _CANDIDATE_ROW_BUDGET,
    _MAX_VECTOR_DEGREE,
    _mask,
    _popcounts,
    encode_rows,
    isin_sorted,
)
from normgroups.transform import Transformation


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
    Returns one boolean per row.  Refuses a degree above 15, where the
    int16 point-set masks of the rank test no longer fit.
    """
    n = gens.shape[1]
    if n > _MAX_VECTOR_DEGREE:
        raise ValueError(f"degree {n}: kernel searches stop at degree {_MAX_VECTOR_DEGREE}")
    a = np.array(anchor.images, dtype=np.int64)
    T = np.unique(a, return_index=True)[1]
    r = T.shape[0]
    popcounts = _popcounts(n)
    if np.any(popcounts[_mask(gens)] != r):
        raise ValueError(f"every generator must have rank {r}")
    wanted = encode_rows(rows[:, T], n)
    # c has kernel K iff it agrees with c[T] read through the class of each point
    cls = np.searchsorted(np.unique(a), a)
    on_T = gens[:, T]
    frontier = on_T[np.all(on_T[:, cls] == gens, axis=1)]
    if frontier.shape[0] == 0:
        return np.zeros(rows.shape[0], dtype=bool)
    seen, first = np.unique(encode_rows(frontier, n), return_index=True)
    frontier = frontier[first]
    missing = wanted[~isin_sorted(wanted, seen)]
    while missing.shape[0] and frontier.shape[0]:
        f = frontier.shape[0]
        step = max(1, _CANDIDATE_ROW_BUDGET // (f * r))
        cols = frontier.astype(np.int64)
        fresh_rows: list[np.ndarray] = []
        for k0 in range(0, gens.shape[0], step):
            cand = gens[k0 : k0 + step][:, cols].reshape(-1, r)
            cand = cand[popcounts[_mask(cand)] == r]
            # the chunk's distinct tuples first, so the lookup runs on those
            uniq, once = np.unique(encode_rows(cand, n), return_index=True)
            new = ~isin_sorted(uniq, seen)
            if not new.any():
                continue
            uniq = uniq[new]
            fresh_rows.append(cand[once[new]])
            seen = np.insert(seen, np.searchsorted(seen, uniq), uniq)
            missing = missing[~isin_sorted(missing, uniq)]
            if not missing.shape[0]:
                break
        frontier = np.concatenate(fresh_rows) if fresh_rows else on_T[:0]
    return isin_sorted(wanted, seen)
