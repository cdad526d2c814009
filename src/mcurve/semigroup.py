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

`presentation` reads binomials off the Apery set that generate the toric
ideal I(C) (the Apery-set presentation of a simplicial affine semigroup;
Rosales and Garcia-Sanchez, Finitely Generated Commutative Monoids, 1999).
Every factorization of an Apery element w uses only x_1 .. x_{n-1}; fix one,
mu(w): mu(0) = 1, and mu(w) = x_j mu(w - a_j) for the first j < n with
w - a_j in Ap.
- (B) For w in Ap and j < n, w + a_j = w' + c a_n + c' a_{n+1} for some w'
  in Ap (w' = w + a_j and c = c' = 0 when that is in Ap); the binomial is
  x_j mu(w) - mu(w') x_n^c x_{n+1}^c'.
- (C) For neighbouring generators y^u1 z^v1 and y^u2 z^v2 (u1 < u2,
  v1 > v2) of one I_r, of the Apery elements w1 and w2, the binomial is
  mu(w1) x_n^(u2 - u1) - mu(w2) x_{n+1}^(v1 - v2).
Each is a difference of two factorizations of one element, so it lies in
I(C).  They generate it: the (B) moves rewrite any monomial, one x_j at a
time, to a normal form mu(w) x_n^c x_{n+1}^c', and two normal forms of one
element lie in one class r, where a chain of (C) moves between neighbouring
generators of I_r joins them.  Most (B) candidates follow from those of
lower degree: `presentation` skips (w, j) when neither w + a_j nor
v + a_j is in Ap, v = w - a_j' for the first variable x_j' of mu(w) (its
docstring has the proof), which drops a fifth to a third of the
generators.  It packs the binomials in the
packing `grobner.toric_ideal` runs them in, so they reach the kernel with
no tuple in between.

The same walk gives the Hilbert series of K[C] = K[S], N(t) / (1 - t)^2
(`Presentation.numerator`).  The degree-d elements of S are the disjoint
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


class Presentation(NamedTuple):
    """The Apery-set presentation of I(C), as packed (a, b) pairs of
    `packing`, and the Hilbert-series numerator of K[C] over (1 - t)^2, read
    off one Apery walk."""

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


def presentation(seq: CurveSequence) -> Presentation:
    """The (B) and (C) binomials of `seq` that lower degrees do not already
    imply, each divided by the gcd of its two monomials, without duplicates
    or zeros, in ascending degree, and the numerator N(t) of `_numerator`,
    from one `apery` walk.

    I(C) is prime and holds no monomial, so x^g (x^a - x^b) in I(C) puts
    x^a - x^b in I(C): the coprime parts generate it as the binomials do.
    A common factor of `seq` defines the same curve, so the Apery set is
    that of the sequence divided by it.  For (B), w' is the Apery element of
    the generator that covers w + a_j (w + a_j itself when that is in Ap).

    A (B) candidate (w, j), w != 0, is skipped in three cases; let
    j' = first[w], the first variable of mu(w) = x_j' mu(v), v = w - a_j'.
    1. w + a_j in Ap and mu(w + a_j) starts with x_j: the binomial is 0.
    2. w + a_j in Ap and mu(w + a_j) starts with x_j': then v + a_j, a
       summand of w + a_j, is in Ap too, and mu(w + a_j) = x_j' mu(v + a_j).
    3. w + a_j and v + a_j both not in Ap.
    The kept ones still generate I(C).  Call mu(w') x_n^c x_{n+1}^c', w' in
    Ap, a normal form of w' + c a_n + c' a_{n+1}, and J the ideal of the kept
    binomials before division.  Two normal forms of one element are
    congruent mod J: they lie in one class r, where a chain of (C) moves
    between neighbouring generators of I_r, all kept, joins them.  Claim:
    for w in Ap and j < n, x_j mu(w) is congruent to a normal form of
    w + a_j.  A kept candidate's binomial says so, and so does case 1.  In
    cases 2 and 3, by induction on deg w: x_j mu(w) = x_j' x_j mu(v), and
    deg v < deg w, so x_j mu(v) is congruent to a normal form
    mu(w'') x_n^c x_{n+1}^c' of v + a_j.  In case 2, c = c' = 0 and
    x_j' mu(w'') = mu(w + a_j).  In case 3, c + c' >= 1, as v + a_j is not in
    Ap, so deg w'' < deg w: x_j' mu(w'') is congruent to a normal form of
    w'' + a_j', and x_j mu(w) to that normal form times x_n^c x_{n+1}^c', a
    normal form of w + a_j.  Rewriting one variable at a time, every monomial
    is congruent to a normal form of its element, so any two monomials of
    one element are congruent: J = I(C), and the coprime parts, which lie in
    I(C), generate it too.  Skipping (w, j) also when first[w] < j keeps the
    bases but loses `grobner.toric_ideal`'s certified stop far more often
    (on 24 of the 9,127 small curves of its docstring, not 5).

    The pairs are ints of one `poly._Packing` under plain degrevlex, of top
    (n + 1)(D + 1), D the degree of the last nonempty layer: the packing
    `grobner.toric_ideal` starts its run in, with no re-pack (the kernel
    repacks them itself if an S-pair outgrows it).  An Apery element
    has degree at most D, so every exponent met is at most 2 D (a (C)
    binomial has the degree u2 + v1 of an lcm), within that top, and the
    gcd takes, in each field, the side whose guard does not survive the
    other's subtraction.  A (B) binomial has degree at most D + 1, so the
    top is n + 1 times the largest generator degree whenever a (B) binomial
    of the last layer survives, the top the kernel would pick itself."""
    m = seq.with_gcd_one().m
    n, mn = len(m), m[-1]
    degree, classes = apery(m)
    packing = _Packing(n + 1, (n + 1) * (max(degree.values()) + 1))
    G, field, guard_shift = packing.guards, packing.field, packing.guard_shift
    unit = [1 << s for s in packing.shifts]
    y_unit, z_unit = unit[n - 1], unit[n]
    get = degree.get
    mu, first = {0: 0}, {0: -1}  # first[x]: the j of mu(x) = x_j mu(x - a_j)
    for x, d in degree.items():  # by degree: the mu of degree d - 1 come first
        if d:
            for j in range(n - 1):
                if get(x - m[j]) == d - 1:
                    break
            first[x], mu[x] = j, mu[x - m[j]] + unit[j]

    found = set()

    def add(a: int, b: int) -> None:
        if a != b:
            ge = (((a + G - b) & G) >> guard_shift) * field  # the fields where a >= b
            g = (b & ge) | (a & ~ge)
            found.add((a - g, b - g) if a > b else (b - g, a - g))

    for x, d in degree.items():  # (B)
        d1, fx, mu_x = d + 1, first[x], mu[x]
        v = x - m[fx]  # mu(x) = x_fx mu(v); unused at x = 0
        for j in range(n - 1):
            y = x + m[j]
            if get(y) == d1:  # w + a_j in Ap: w' = w + a_j, c = c' = 0
                if first[y] != fx and first[y] != j:  # else 0 or a duplicate
                    add(mu_x + unit[j], mu[y])
            elif not x or get(v + m[j]) == d:  # else implied by lower degrees
                w = _cover(degree, classes, mn, d1, y)  # w + a_j is in S
                c = (y - w) // mn
                add(mu_x + unit[j], mu[w] + c * y_unit + (d1 - degree[w] - c) * z_unit)
    for gens in classes.values():  # (C)
        for w1, w2 in zip(gens, gens[1:]):
            u1, u2 = w1 // mn, w2 // mn
            add(mu[w1] + (u2 - u1) * y_unit,
                mu[w2] + (degree[w1] - u1 - degree[w2] + u2) * z_unit)
    degree_of = packing.degree
    return Presentation(packing, sorted(found, key=lambda p: (degree_of(p[0]), p)),
                        _numerator(mn, degree, classes))
