"""A group-theoretic criterion for a-normalizing, for the tests.

Plain Python over 0-based image tuples, with maps acting on the right:
a*g sends x to g[a[x]].  Let I = image(a), K = ker(a), r = rank(a),
S = <a^G>, and T the elements t with I*t a section of K.

- T not empty: with beta_t = (t*a)|_I in Sym(I), Q = <(beta_t, t) : t
  in T> is a group in Sym(I) x G, and a*g lies in S exactly when (1, g)
  lies in Q.  So G is a-normalizing exactly when {1} x G <= Q, that is
  when |Q| = |Q restricted to Sym(I)| * |G|.
- T empty: a*g lies in S exactly when it is a conjugate a^h.  That puts
  h^-1 = k in G_K, the stabilizer of the partition K, and a*g =
  a*delta_k*k^-1, where k*a = a*delta_k.  So a*g lies in S exactly when
  g = s*k^-1 for a compatible pair: s in G_I, the setwise stabilizer of
  I, and k in G_K with s|_I = delta_k.  The compatible pairs P form a
  group, and (s, k) -> s*k^-1 is |D|-to-one, D the pairs with s = k, so
  G is a-normalizing exactly when |P| = |D| * |G|.

The checker decides the same question from R-class certificates; the
tests compare the two.
"""


def _compose(p, q):
    """p, then q."""
    return tuple(q[x] for x in p)


def _inverse(p):
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def group_of(gens, identity):
    """The group the permutation tuples gens generate, as a set.

    A generator already in the group is skipped; any other is kept, and
    the group re-closed: every old element times the new generator, then
    every new element times every kept generator, until none is new.
    """
    elems, kept = {identity}, []
    for x in gens:
        if x in elems:
            continue
        kept.append(x)
        frontier = list({_compose(q, x) for q in elems} - elems)
        elems.update(frontier)
        while frontier:
            fresh = []
            for q in frontier:
                for y in kept:
                    p = _compose(q, y)
                    if p not in elems:
                        elems.add(p)
                        fresh.append(p)
            frontier = fresh
    return elems


def first_escape(elements, a):
    """The index of the first element g with a*g outside <a^G>, or None.

    elements lists G, as image tuples, in the order the witness is sought
    in; a is a singular map.  The count of the module docstring decides
    whether there is a witness, and membership of each g finds it; the
    two must agree.
    """
    n = len(a)
    image = sorted(set(a))
    r = len(image)
    at = {p: i for i, p in enumerate(image)}
    T = [t for t in elements if len({a[t[i]] for i in image}) == r]
    if T:
        # (pi, y) as one permutation of r + n points: pi, then y shifted by r
        def pair(pi, y):
            return tuple(pi) + tuple(r + v for v in y)

        Q = group_of([pair([at[a[t[i]]] for i in image], t) for t in T], pair(range(r), range(n)))
        normalizing = len(Q) == len({q[:r] for q in Q}) * len(elements)
        inside = [pair(range(r), g) in Q for g in elements]
    else:
        preimage = {y: x for x, y in enumerate(a)}
        restrictions = {}
        for s in elements:
            if {s[i] for i in image} == set(image):
                restrictions.setdefault(tuple(s[i] for i in image), []).append(s)
        pairs = [
            (s, k)
            for k in elements
            if all(a[k[x]] == a[k[preimage[a[x]]]] for x in range(n))
            for s in restrictions.get(tuple(a[k[preimage[i]]] for i in image), [])
        ]
        normalizing = len(pairs) == sum(s == k for s, k in pairs) * len(elements)
        members = {_compose(s, _inverse(k)) for s, k in pairs}
        inside = [g in members for g in elements]
    witness = None if all(inside) else inside.index(False)
    assert normalizing == (witness is None), (elements, a)
    return witness
