"""Test-side Apery-set presentations that keep every (B) candidate.

`semigroup.presentation` skips the (B) candidates that lower degrees imply.
These keep them all, on exponent tuples, so that the tests can check the
pruned presentation against the whole one: a subset of it, with the same
reduced basis and the same answers.
"""

from mcurve.poly import Binomial
from mcurve.semigroup import _cover, apery, presentation


def full_presentation(seq):
    """The (B) and (C) binomials on exponent tuples, every (B) candidate
    included, divided by their gcds, without duplicates or zeros, each side
    and the list in the order of `presentation` (the later exponents
    weigh most)."""
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


def binomials(p):
    """The pairs of the presentation `p`, unpacked into binomials."""
    unpack = p.packing.unpack
    return [Binomial(unpack(a), unpack(b)) for a, b in p.pairs]


def every_candidate(seq):
    """`presentation(seq)` with the pairs of `full_presentation(seq)`, packed
    in the same packing."""
    p = presentation(seq)
    pack = p.packing.pack
    return p._replace(pairs=[(pack(g.lead), pack(g.trail)) for g in full_presentation(seq)])
