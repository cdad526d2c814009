"""The semigroup of a monomial curve, read with no Groebner basis.

The monomial x^u of K[x_1, ..., x_{n+1}] maps to the element
(deg u, m_1 u_1 + ... + m_n u_n) of the semigroup S generated by
a_i = (1, m_i), i <= n, and a_{n+1} = (1, 0).  The Apery set of S with
respect to x_n = a_n and x_{n+1} = a_{n+1} is
Ap = {s in S : s - a_n and s - a_{n+1} are not in S}.  The elements of one
class r = x mod m_n, written (0, r) + u a_n + v a_{n+1}, form a monomial
ideal I_r of K[y, z] (y = x_n, z = x_{n+1}), minimally generated by the
y^u z^v of the Apery elements of the class; so every element of S is
w + c a_n + c' a_{n+1} for some w in Ap, and (d, x) is in S iff some
generator of its class divides y^u z^v.

A summand of an Apery element is an Apery element.  So the degree-d
elements of Ap are among the w + a_j, w of degree d - 1 in Ap and j < n,
and such an element of S is in Ap iff no generator of its class found at a
lower degree divides it: `apery` walks the degrees that way, and once a
degree adds no element, no later degree does, so it stops at the first
empty layer and needs no Frobenius bound.  Its cost is a bisection per
candidate, about (n - 1) |Ap| of them, and |Ap| >= m_n: no table over the
degree-d parts of S, whose sizes grow with d m_n.

`reduced_basis` reads the reduced degrevlex basis of the toric ideal I(C)
off the Apery set, with no Buchberger run (for the Apery-set presentation
it refines, Rosales and Garcia-Sanchez, Finitely Generated Commutative
Monoids, 1999).  Under degrevlex with x_n, x_{n+1} last, the normal form of a
monomial is the least monomial of its element s, the one with the most
x_{n+1}, then the most x_n, and so on back to x_1.  Write
s = w + c a_n + c' a_{n+1} with c' as large as possible, then c (`_cover`):
w is in Ap, and the normal form is mu(w) x_n^c x_{n+1}^c', mu(w) the least
factorization of w.  Every factorization of an Apery element uses only
x_1 .. x_{n-1}; the least one holds x_j for the largest j with w - a_j in
Ap (none holds a later variable), and dividing a least monomial by a
variable leaves a least one, so mu(0) = 1 and mu(w) = x_j mu(w - a_j) for
that j.

The standard monomials are these normal forms: mu(w) x_n^c x_{n+1}^c' with
c below the gap u2 - u1 from the generator y^u1 z^v1 of w to the next one
y^u2 z^v2 of its I_r (any c when w is the last), and any c'.  So no lead
holds x_{n+1}, and a lead is either
- x_j mu(w), a product that is not the mu of its element, or
- mu(w1) x_n^(u2 - u1), w1 and w2 neighbouring generators of one I_r
  (divided by x_n it is standard, so it is mu(w1) x_n^c with c - 1 below
  the gap and c not), whose trail is mu(w2) x_{n+1}^(v1 - v2).
A non-standard monomial is a lead iff dividing it by each variable of its
support leaves a standard monomial, and a divisor of mu(w) by x_k is
mu(w - a_k): the test is local, one lookup per variable.  A lead
x_j mu(w) is counted once, at the largest j of its support, the j >= the
last variable of mu(w).  Each trail is the normal form of the lead's
element, from `_cover`.

The same walk gives the Hilbert series of K[C] = K[S], N(t) / (1 - t)^2
(`AperyBasis.numerator`).  The degree-d elements of S are the disjoint
union over r of those of (0, r) + I_r, and K[y, z] / I_r has the K-polynomial
1 - sum t^deg g + sum t^deg lcm over the generators g of I_r and the lcms of
neighbouring ones; so, counting I_r itself, N(t) = sum_r (sum t^deg g - sum
t^deg lcm).  `grobner.toric_ideal` reads it as a certificate: leads of
elements of I(C) whose ideal has this Hilbert series generate in(I(C)).

Stdlib only, and it imports neither `grobner` nor `monideal`, so it can
check them independently.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import NamedTuple

from .poly import _Packing
from .seq import CurveSequence


def _cover(degree: dict[int, int], classes: dict[int, list[int]], mn: int,
           d: int, x: int) -> int | None:
    """For (d, x) = (0, r) + u a_n + v a_{n+1}, the Apery element (d', x') of
    `degree` and `classes` whose generator y^u' z^v' of I_r has the largest
    u' <= u, as x', if it divides y^u z^v (v' <= v), so that
    (d, x) = (d', x') + (u - u') a_n + (v - v') a_{n+1}; None if none
    divides y^u z^v.  Of the generators with u' <= u it has the least v', so
    it divides y^u z^v if any of them does; in one class, u' <= u iff
    x' <= x."""
    gens = classes.get(x % mn, ())
    i = bisect_right(gens, x) - 1
    if i >= 0:
        w = gens[i]
        if degree[w] - w // mn <= d - x // mn:
            return w
    return None


def apery(m: tuple[int, ...]) -> tuple[dict[int, int], dict[int, list[int]]]:
    """The Apery set of the semigroup of the gcd-1 sequence `m`, as (degree,
    classes).  An Apery element (d, x) is fixed by x, since two of one class
    with one u are a multiple of a_{n+1} apart: `degree` maps x to d, in
    ascending d and then x, and `classes[r]` lists the x of class r in
    ascending order, that is in ascending u (so descending v: they are the
    minimal generators of I_r).

    It walks the degrees up to the first empty layer.  A candidate that no
    generator of a lower degree covers is a new generator; one of its own
    degree never covers it (u' < u and u' + v' = u + v give v' > v)."""
    mn, steps = m[-1], m[:-1]
    degree, classes = {0: 0}, {0: [0]}
    layer, d = [0], 0
    while layer:
        d += 1
        new = []
        for x in sorted({x + v for x in layer for v in steps}):
            if _cover(degree, classes, mn, d, x) is None:
                degree[x] = d
                insort(classes.setdefault(x % mn, []), x)
                new.append(x)
        layer = new
    return degree, classes


class AperyBasis(NamedTuple):
    """The reduced degrevlex basis of I(C), as packed (lead, trail) pairs of
    `packing` in no set order, and the Hilbert-series numerator of K[C]
    over (1 - t)^2, read off one Apery walk."""

    packing: _Packing
    pairs: list[tuple[int, int]]
    numerator: tuple[int, ...]


def _numerator(mn: int, degree: dict[int, int], classes: dict[int, list[int]]) -> tuple[int, ...]:
    """N(t) = sum_r (sum t^deg g - sum t^deg lcm) over the generators
    y^u z^v of each I_r, of degree d = u + v, and the lcms y^u2 z^v1 of
    neighbouring ones, as coefficients with no trailing zero."""
    coeffs = [0] * (2 * max(degree.values()) + 1)
    for d in degree.values():
        coeffs[d] += 1
    for gens in classes.values():
        for w1, w2 in zip(gens, gens[1:]):
            coeffs[w2 // mn + degree[w1] - w1 // mn] -= 1
    while coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def reduced_basis(seq: CurveSequence) -> AperyBasis:
    """The reduced degrevlex basis of I(C) and the numerator N(t) of
    `_numerator`, from one `apery` walk (the module docstring has the
    argument).  A common factor of `seq` defines the same curve, so the
    Apery set is that of the sequence divided by it.

    The pairs are ints of a `poly._Packing` under plain degrevlex, of top
    2 D, D the degree of the last nonempty layer: a lead x_j mu(w) has
    degree at most D + 1, and a lead mu(w1) x_n^(u2 - u1) the degree
    u2 + v1 <= 2 D of an lcm of two generators."""
    m = seq.with_gcd_one().m
    n, mn = len(m), m[-1]
    degree, classes = apery(m)
    packing = _Packing(n + 1, 2 * max(degree.values()))
    unit = [1 << s for s in packing.shifts]
    y_unit, z_unit = unit[n - 1], unit[n]
    get = degree.get
    mu, support = {0: 0}, {0: ()}  # support[x]: the variables of mu(x), the last first
    for x, d in degree.items():  # by degree: the mu of degree d - 1 come first
        if d:
            for j in range(n - 2, -1, -1):
                if get(x - m[j]) == d - 1:
                    break
            v = x - m[j]
            mu[x], ks = mu[v] + unit[j], support[v]
            support[x] = ks if ks and ks[0] == j else (j,) + ks
    mu_get = mu.get
    gap = {}  # gap[x]: u2 - u1 from x to the next generator of its I_r; none for the last
    for gens in classes.values():
        for w1, w2 in zip(gens, gens[1:]):
            gap[w1] = w2 // mn - w1 // mn

    pairs = []
    for x, d in degree.items():  # leads x_j mu(w), j >= the last variable of mu(w)
        mu_x, ks = mu[x], support[x]
        for j in range(ks[0] if ks else 0, n - 1):
            lead, y = mu_x + unit[j], x + m[j]
            if mu_get(y) == lead:  # standard
                continue
            for k in ks:  # lead / x_k = x_j mu(w - a_k) must be standard
                if k != j and mu_get(y - m[k]) != mu[x - m[k]] + unit[j]:
                    break
            else:
                w = _cover(degree, classes, mn, d + 1, y)  # w + a_j is in S
                c = (y - w) // mn
                pairs.append((lead, mu[w] + c * y_unit + (d + 1 - degree[w] - c) * z_unit))
    for gens in classes.values():  # leads mu(w1) x_n^c, c the gap of w1
        for w1, w2 in zip(gens, gens[1:]):
            c = gap[w1]
            for k in support[w1]:  # mu(w1 - a_k) x_n^c must be standard
                if gap.get(w1 - m[k], c + 1) <= c:
                    break
            else:
                pairs.append((mu[w1] + c * y_unit,
                              mu[w2] + (degree[w1] - degree[w2] + c) * z_unit))
    return AperyBasis(packing, pairs, _numerator(mn, degree, classes))
