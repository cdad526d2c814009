"""Reference monomial-ideal combinatorics on exponent tuples.

The package (`mcurve.monideal`) runs minimalization, the K-polynomial and the
irreducible decomposition on ints of `poly._Packing`.  These are the same
algorithms on plain tuples, with `all(x <= y ...)` as the divisibility test,
and the same one-generator-at-a-time decomposition.  The K-polynomial here
takes the package's pivot but recurses down to pairwise coprime generators,
where the package stops at a node with few mixed generators and sums over
their subsets, so it checks that leaf too.  `cm_type` counts the maximal
bidegrees as pairs, where the package keys each bidegree by one int.  The
tests compare the two, so they must stay references only.
"""

import itertools

from mcurve.monideal import IrreducibleComponent, IrreducibleDecomposition, _polyadd, _polymul
from mcurve.poly import bidegree, mono_divides


def minimalize(gens):
    """Inclusion-minimal subset generating the same ideal, sorted."""
    out = []
    for g in sorted(set(gens), key=lambda m: (sum(m), m)):
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(sorted(out))


def k_polynomial(gens, nvars):
    """K-polynomial of R/<gens> by Bigatti's pivot recursion
    K(I) = K(I + <p>) + t^deg(p) K(I : p), with p = x_i^e for the variable in
    the most mixed generators and e the median of its exponents there."""
    if not gens:
        return [1]
    if any(not any(g) for g in gens):
        return []  # unit ideal
    occurs = [sum(1 for g in gens if g[i]) for i in range(nvars)]
    if max(occurs) <= 1:  # pairwise coprime: a complete intersection
        out = [1]
        for g in gens:
            out = _polymul(out, [1] + [0] * (sum(g) - 1) + [-1])
        return out
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    i = max(range(nvars), key=lambda j: (sum(1 for g in mixed if g[j]), occurs[j]))
    exps = sorted(g[i] for g in mixed if g[i])
    e = exps[len(exps) // 2]
    pivot = tuple(e if j == i else 0 for j in range(nvars))
    plus = tuple(g for g in gens if g[i] < e) + (pivot,)
    colon = minimalize(g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens)
    return _polyadd(k_polynomial(plus, nvars), [0] * e + k_polynomial(colon, nvars))


def contains(component, m):
    """m lies in the component: m_i >= e for some power x_i^e of it."""
    return any(m[i] >= e for i, e in component.powers)


def contains_component(component, other):
    """component >= other as ideals: every pure-power generator of other lies
    in component, which has a smaller-or-equal power of that variable."""
    mine = dict(component.powers)
    return all(j in mine and mine[j] <= f for j, f in other.powers)


def irreducible_decomposition(ideal):
    """The decomposition adding one generator at a time: each component that
    does not contain g splits into itself plus <x_i^{g_i}> for each i in the
    support of g, and new components containing another one are dropped."""
    comps = [IrreducibleComponent(())]  # the zero ideal: no powers
    for g in ideal.gens:
        kept = [c for c in comps if contains(c, g)]
        split = {IrreducibleComponent.from_map({**dict(c.powers), i: e})
                 for c in comps if not contains(c, g) for i, e in enumerate(g) if e}
        comps = kept + [c for c in split if not any(
            o is not c and contains_component(c, o) for o in itertools.chain(kept, split))]
    return IrreducibleDecomposition.from_components(comps)


def cm_type(seq, ideal):
    """Cohen-Macaulay type of a CM curve: the bidegrees b of the standard
    monomials modulo ideal + <x_n, x_{n+1}> (the package's walk) with no
    b + a_i among them, a_i = (m_i, m_n - m_i) for i <= n-1."""
    bidegs = {bidegree(seq, u + (0, 0)) for u in ideal.artinian_standard}
    steps = [(m, seq.mn - m) for m in seq.m[:-1]]
    return sum(1 for s, t in bidegs if all((s + a, t + c) not in bidegs for a, c in steps))
