"""Reference Buchberger kernel on exponent tuples.

The package's kernel (`mcurve.grobner.buchberger`, `reduce_basis`) packs each
monomial into one int.  This is the same algorithm on plain tuples, with the
order read from `TermOrder.key`: the same lead of each normal form, the same
criterion M, coprime test and retirement from pairing and the same pair
selection in the same sequence.  Tuples have no width, so it takes no
degree bound and never reruns.  The tests compare the two, and `toric_ideal`
with the tuple saturation loop built on this one (`_toric_ideal_by_tuples`
in test_grobner.py), so it must stay a reference only.  It needs no
homogeneous input.
"""

import heapq

from mcurve.errors import InvariantViolation
from mcurve.grobner import GroebnerBasis
from mcurve.poly import Binomial, mono_divides


def reduce_monomial(m, leads, trails):
    """Full reduction of the monomial m by the oriented reducers lead -> trail:
    replace the first dividing lead by its trail until no lead divides."""
    while True:
        for i, lt in enumerate(leads):
            if mono_divides(lt, m):
                m = tuple(x - y + z for x, y, z in zip(m, lt, trails[i]))
                break
        else:
            return m


def normal_form(a, b, leads, trails, key):
    """Reduce the pure difference a - b by the oriented reducers
    lead -> trail until its lead is irreducible: None when it reaches zero,
    else the irreducible lead under `key` and the other side as it stands.

    The larger side is reduced one step at a time, and the sides swap when it
    drops below the other; a step changes only the larger side, so only its
    key is computed again.  Once the larger side is irreducible, the other
    only decreases, so it never meets it again: the difference is nonzero,
    and its full reduction is the lead and `reduce_monomial` of the other
    side."""
    if a == b:
        return None
    ka, kb = key(a), key(b)
    while True:
        if ka < kb:
            a, b, ka, kb = b, a, kb, ka
        for i, lt in enumerate(leads):
            if mono_divides(lt, a):
                a = tuple(x - y + z for x, y, z in zip(a, lt, trails[i]))
                break
        else:
            return a, b
        if a == b:
            return None
        ka = key(a)


def reduce_basis(gens, order):
    """Minimal leads and fully reduced trails of an oriented basis, in
    ascending order of the leads; a misoriented element raises."""
    key = order.key
    keyed = []
    for g in gens:
        lead_key = key(g.lead)
        if lead_key <= key(g.trail):
            raise InvariantViolation(f"misoriented {g} under {order.name}")
        keyed.append((lead_key, g))
    keyed.sort(key=lambda kg: kg[0])
    leads, trails = [], []
    for _, g in keyed:
        if not any(mono_divides(lt, g.lead) for lt in leads):
            leads.append(g.lead)
            trails.append(g.trail)
    return tuple(Binomial(lt, reduce_monomial(tt, leads, trails)) for lt, tt in zip(leads, trails))


def buchberger(gens, order):
    """Reduced Groebner basis under `order`, as the package's
    `buchberger` computes it (see its docstring for the criteria)."""
    key = order.key
    leads, trails = [], []
    paired = []  # the elements that new elements still pair with
    heap = []

    def add(a, b):
        nf = normal_form(a, b, leads, trails, key)
        if nf is None:
            return
        lead, trail = nf
        h = len(leads)
        lcms = [tuple(map(max, leads[i], lead)) for i in paired]  # criterion M
        by_lcm = {}
        for i, lcm in zip(paired, lcms):
            by_lcm.setdefault(lcm, []).append(i)
        minimal = []  # a strict divisor has lower degree: it comes first
        for lcm in sorted(by_lcm, key=sum):
            if any(mono_divides(m, lcm) for m in minimal):
                continue
            minimal.append(lcm)
            same = by_lcm[lcm]
            if not all(any(map(min, leads[i], lead)) for i in same):
                if len(same) > 1:  # the package's kernel tests only the class's first pair
                    raise InvariantViolation(f"coprime leads in a class of {len(same)} pairs")
                continue  # coprime leads: this S-polynomial drops, and with it the class
            heapq.heappush(heap, (sum(lcm), key(lcm), same[0], h, lcm))
        # lcm == lead i when h divides it: i stops pairing
        paired[:] = [i for i, lcm in zip(paired, lcms) if lcm != leads[i]] + [h]
        leads.append(lead)
        trails.append(trail)

    for g in gens:
        add(g.lead, g.trail)

    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        add(tuple(l - x + t for l, x, t in zip(lcm, leads[i], trails[i])),
            tuple(l - x + t for l, x, t in zip(lcm, leads[j], trails[j])))

    basis = [Binomial(a, b) for a, b in zip(leads, trails)]
    return GroebnerBasis(order, reduce_basis(basis, order))
