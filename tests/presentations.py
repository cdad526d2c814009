"""A test-side Apery-set presentation that keeps every (B) candidate.

`semigroup.reduced_basis` reads the reduced basis of I(C) off the Apery set
with no Buchberger run.  The binomials here generate I(C) by another
argument (below), on exponent tuples, so a Buchberger run on them is an
independent route to the same basis.
"""

from mcurve.grobner import buchberger
from mcurve.poly import Binomial, TermOrder, _Packing
from mcurve.semigroup import _cover, apery, reduced_basis


def full_presentation(seq):
    """The (B) and (C) binomials of the Apery-set presentation on exponent
    tuples, divided by their gcds, without duplicates or zeros, each side
    and the list in ascending order (the later exponents weigh most).

    mu(w) here is one factorization of the Apery element w, over the first
    j < n with w - a_j in Ap.  (B): for w in Ap and j < n,
    x_j mu(w) - mu(w') x_n^c x_{n+1}^c', w + a_j = w' + c a_n + c' a_{n+1}
    from `_cover`.  (C): mu(w1) x_n^(u2 - u1) - mu(w2) x_{n+1}^(v1 - v2) for
    neighbouring generators y^u1 z^v1, y^u2 z^v2 of one class.  The (B)
    moves rewrite any monomial to mu(w) x_n^c x_{n+1}^c' and the (C) moves
    join two such forms of one element, so they generate I(C)."""
    m = seq.with_gcd_one().m
    n, mn = len(m), m[-1]
    degree, classes = apery(m)

    def mono(base, j=None, y=0, z=0):
        e = list(base)
        if j is not None:
            e[j] += 1
        e[n - 1] += y
        e[n] += z
        return tuple(e)

    mu = {0: (0,) * (n + 1)}
    for x, d in degree.items():
        if d:
            j = next(j for j in range(n - 1) if degree.get(x - m[j]) == d - 1)
            mu[x] = mono(mu[x - m[j]], j)
    found = set()

    def add(a, b):
        g = tuple(map(min, a, b))
        a, b = tuple(x - y for x, y in zip(a, g)), tuple(x - y for x, y in zip(b, g))
        if a != b:
            found.add((a, b) if a[::-1] > b[::-1] else (b, a))

    for x, d in degree.items():
        for j in range(n - 1):
            y = x + m[j]
            w = _cover(degree, classes, mn, d + 1, y)
            c = (y - w) // mn
            add(mono(mu[x], j), mono(mu[w], y=c, z=d + 1 - degree[w] - c))
    for gens in classes.values():
        for w1, w2 in zip(gens, gens[1:]):
            u1, u2 = w1 // mn, w2 // mn
            add(mono(mu[w1], y=u2 - u1), mono(mu[w2], z=degree[w1] - u1 - degree[w2] + u2))
    return [Binomial(a, b) for a, b in sorted(found, key=lambda p: (sum(p[0]), p[0][::-1],
                                                                     p[1][::-1]))]


def binomials(b):
    """The pairs of the Apery basis `b`, unpacked into binomials."""
    unpack = b.packing.unpack
    return [Binomial(unpack(lead), unpack(trail)) for lead, trail in b.pairs]


def presented_basis(seq):
    """`reduced_basis(seq)` with its pairs and packing replaced by those of a
    Buchberger run on `full_presentation(seq)`: the Apery route's basis by
    the independent route, its numerator kept."""
    nv = seq.n + 1
    gb = buchberger(full_presentation(seq), TermOrder(nv))
    packing = _Packing(nv, max(g.degree for g in gb.elements))
    pack = packing.pack
    return reduced_basis(seq)._replace(
        packing=packing, pairs=[(pack(g.lead), pack(g.trail)) for g in gb.elements])
