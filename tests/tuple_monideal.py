"""Reference monomial-ideal combinatorics on exponent tuples.

The package (`mcurve.monideal`) runs minimalization, the K-polynomial and the
irreducible decomposition on ints of `poly._Packing`.  These are the same
algorithms on plain tuples, with `all(x <= y ...)` as the divisibility test,
and the same one-generator-at-a-time decomposition.  The K-polynomial here
takes the package's pivot but recurses down to pairwise coprime generators,
where the package stops at a node with few mixed generators and sums over
their subsets, so it checks that leaf too.

The package lists no standard monomial: it counts them by degree from
K-polynomials.  Here they are listed, by a scan of the grid that the pure
powers bound (`standard_monomials`), and counted one by one.  `cm_type`
counts the maximal bidegrees of every standard monomial as pairs, where the
package reduces only the staircase's corners times each variable modulo the
toric basis; `hs_general_split` counts the standard monomials and searches
for the jump term, and `last_step_by_scan` tests each standard monomial
against the x_n = x_{n+1} = 1 ideal, where the package subtracts series.
The tests compare the two, so they must stay references only.
"""

import itertools
from collections import Counter

from mcurve.errors import InvariantViolation, NonTerminating
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


def standard_monomials(gens, nvars):
    """The points of the grid that the least pure powers x_i^{b_i} bound, in
    itertools.product order, that no generator divides; none for the unit
    ideal, and the package's NonTerminating when some variable has no pure
    power."""
    if any(not any(g) for g in gens):
        return []
    bounds = [min((g[i] for g in gens if g[i] == sum(g) > 0), default=None)
              for i in range(nvars)]
    if None in bounds:
        raise NonTerminating("quotient is not artinian: some variable has no pure power")
    return [m for m in itertools.product(*(range(b) for b in bounds))
            if not any(mono_divides(g, m) for g in gens)]


def degree_counts(monos):
    """Coefficients of the sum of t^deg(m) over the given monomials."""
    counts = Counter(sum(m) for m in monos)
    return tuple(counts[d] for d in range(max(counts, default=-1) + 1))


def artinian_standard(ideal):
    """Standard monomials modulo ideal + <x_n, x_{n+1}> (the last two
    variables) on x_1..x_{n-1}."""
    n = ideal.nvars - 2
    return standard_monomials([g[:n] for g in ideal.gens if g[n] == 0 and g[n + 1] == 0], n)


def jump_term_by_search(ideal):
    """The jump term of hs_general_split: a search from each x^g / x_n (g a
    generator with g_n >= 1) up through the monomials on x_1..x_n outside
    the ideal.  Raising x_n lands on a multiple of g, so the search is finite
    when the ideal holds a pure power of each of x_1..x_{n-1}."""
    n = ideal.nvars - 1
    qualifying = set()
    seen = set()
    for g in ideal.gens:
        if g[n - 1] == 0:
            continue
        stack = [tuple(e - 1 if i == n - 1 else e for i, e in enumerate(g))]
        while stack:
            m = stack.pop()
            if m in seen:
                continue
            seen.add(m)
            if ideal.contains(m):
                continue
            qualifying.add(m)
            for i in range(n):  # never extend x_{n+1}
                stack.append(tuple(e + 1 if j == i else e for j, e in enumerate(m)))
    return degree_counts(qualifying)


def hs_general_split(ideal):
    """(main, corr) of the package's hs_general_split: main counts the grid's
    standard monomials of in(I(C)) + <x_n, x_{n+1}>, corr is the search's
    jump term; the package's exceptions, in its order."""
    if any(g[-1] for g in ideal.gens):
        raise InvariantViolation("x_{n+1} in a minimal generator")
    return degree_counts(artinian_standard(ideal)), jump_term_by_search(ideal)


def last_step_by_scan(ideal):
    """The largest degree of the F-set of the package's last_step_check: of
    a standard monomial modulo the x_n = x_{n+1} = 0 ideal that a generator
    of the x_n = x_{n+1} = 1 ideal divides (-1 if none does)."""
    ones = [g[:-2] for g in ideal.gens]
    return max((sum(m) for m in artinian_standard(ideal)
                if any(mono_divides(g, m) for g in ones)), default=-1)


def cm_type(seq, ideal):
    """Cohen-Macaulay type of a CM curve: the bidegrees b of the standard
    monomials modulo ideal + <x_n, x_{n+1}> with no b + a_i among them,
    a_i = (m_i, m_n - m_i) for i <= n-1."""
    bidegs = {bidegree(seq, u + (0, 0)) for u in artinian_standard(ideal)}
    steps = [(m, seq.mn - m) for m in seq.m[:-1]]
    return sum(1 for s, t in bidegs if all((s + a, t + c) not in bidegs for a, c in steps))
