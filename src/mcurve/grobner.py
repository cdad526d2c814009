"""The independent oracle: Buchberger's algorithm on pure-difference binomials.

The toric ideal of a curve is built from scratch: integer kernel of the 2 x
(n+1) bidegree matrix (unimodular column reduction, so the lattice is
saturated), a short basis from integral LLL (integer Gram determinants, no
rationals, updated in place on a swap), the lattice-basis binomial ideal, and
successive saturation with respect to x_2, ..., x_{n+1}, each under plain
degrevlex with that variable moved last.  Everything stays a pure difference
throughout; coefficients never leave {+1, -1}.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .errors import DegreeCapExceeded, InvariantViolation
from .monideal import MonomialIdeal
from .poly import (
    Binomial,
    Monomial,
    TermOrder,
    format_binomial,
    is_member_binomial,
    mono_divides,
)
from .seq import CurveSequence


@dataclass(frozen=True)
class GroebnerBasis:
    """Canonically sorted reduced Groebner basis of a binomial ideal.

    `cap` is the Buchberger degree cap the basis was computed under; every run
    made from this basis (quadric tests, other orders) runs under the same cap.
    """

    order: TermOrder
    elements: tuple[Binomial, ...]
    cap: int

    @property
    def nvars(self) -> int:
        return self.order.nvars

    def element_set(self) -> frozenset[Binomial]:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _reduce(m: Monomial, leads: list[Monomial], trails: list[Monomial]) -> Monomial:
    """Full reduction of the monomial m by the oriented reducers lead -> trail:
    replace the first dividing lead by its trail until no lead divides."""
    while True:
        for i, lt in enumerate(leads):
            if mono_divides(lt, m):
                m = tuple(x - y + z for x, y, z in zip(m, lt, trails[i]))
                break
        else:
            return m


def _normal_form(a: Monomial, b: Monomial, leads: list[Monomial],
                 trails: list[Monomial], key) -> tuple[Monomial, Monomial] | None:
    """Fully reduce the pure difference a - b by the oriented reducers
    lead -> trail: None when it reduces to zero, else the two reduced
    monomials, the one that leads under `key` first.

    The larger side is reduced one step at a time, and the sides swap when it
    drops below the other; a step changes only the larger side, so only its
    key is computed again.  Once the larger side is irreducible, the other
    only decreases, so it never meets it again: `_reduce` finishes it."""
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
            return a, _reduce(b, leads, trails)
        if a == b:
            return None
        ka = key(a)


def buchberger(gens: Iterable[Binomial], order: TermOrder, cap: int) -> GroebnerBasis:
    """Reduced Groebner basis of the binomial ideal generated by `gens`.

    Generators and S-pairs enter the basis through one step: their normal
    form, which puts the side that leads under `order` first and drops a zero
    difference (so the generators may come in either orientation), the cap
    check, and the Gebauer-Moeller update of the pairs (Becker-Weispfenning,
    Groebner Bases, 5.5).  With a new lead h, a new pair (i, h) is dropped
    when another new pair's lcm strictly divides its lcm; of the new pairs
    with one lcm only one is kept, and none when one of them has coprime
    leads (criterion M).  A queued pair (i, j) is dropped when h divides its
    lcm and that lcm differs from lcm(i, h) and lcm(j, h) (criterion B).
    Elements whose lead h divides get no further pairs but stay reducers.
    Pair selection is the normal strategy (lowest lcm degree first, ties by
    the order on the lcm), which together with the final `reduce_basis`
    makes the output independent of the generator ordering.  A basis element
    or a selected S-pair of degree above `cap` raises DegreeCapExceeded; a
    pair the criteria drop is never checked against the cap, so an input
    whose only pairs above the cap are dropped ones returns its basis.  The
    result records the cap it ran under.
    """
    key = order.key
    leads: list[Monomial] = []
    trails: list[Monomial] = []
    paired: list[int] = []  # the elements that new elements still pair with
    live: dict[tuple[int, int], Monomial] = {}  # queued pairs -> lcm
    heap: list[tuple[int, tuple, int, int]] = []  # dropped pairs stay until popped

    def add(a: Monomial, b: Monomial) -> None:
        nf = _normal_form(a, b, leads, trails, key)
        if nf is None:
            return
        lead, trail = nf
        if sum(lead) > cap:
            raise DegreeCapExceeded(f"basis element of degree {sum(lead)} exceeds cap {cap}")
        h = len(leads)
        for (i, j), lcm in list(live.items()):  # criterion B
            if (mono_divides(lead, lcm) and lcm != tuple(map(max, leads[i], lead))
                    and lcm != tuple(map(max, leads[j], lead))):
                del live[i, j]
        lcms = [tuple(map(max, leads[i], lead)) for i in paired]  # criterion M
        by_lcm: dict[Monomial, list[int]] = {}
        for i, lcm in zip(paired, lcms):
            by_lcm.setdefault(lcm, []).append(i)
        minimal: list[Monomial] = []  # a strict divisor has lower degree: it comes first
        for lcm in sorted(by_lcm, key=sum):
            if any(mono_divides(m, lcm) for m in minimal):
                continue
            minimal.append(lcm)
            same = by_lcm[lcm]
            if not all(any(map(min, leads[i], lead)) for i in same):
                continue  # coprime leads: this S-polynomial drops, and with it the class
            live[same[0], h] = lcm
            heapq.heappush(heap, (sum(lcm), key(lcm), same[0], h))
        # lcm == lead i when h divides it: i stops pairing
        paired[:] = [i for i, lcm in zip(paired, lcms) if lcm != leads[i]] + [h]
        leads.append(lead)
        trails.append(trail)

    for g in gens:
        add(g.lead, g.trail)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        lcm = live.pop((i, j), None)
        if lcm is None:
            continue
        if sum(lcm) > cap:
            raise DegreeCapExceeded(f"S-pair degree {sum(lcm)} exceeds cap {cap}")
        add(tuple(l - x + t for l, x, t in zip(lcm, leads[i], trails[i])),
            tuple(l - x + t for l, x, t in zip(lcm, leads[j], trails[j])))

    basis = [Binomial(a, b) for a, b in zip(leads, trails)]
    return GroebnerBasis(order, reduce_basis(basis, order), cap)


def reduce_basis(gens: Iterable[Binomial], order: TermOrder) -> tuple[Binomial, ...]:
    """Self-reduce an oriented Groebner basis (a Buchberger run or a checked
    closed form): minimal leads and fully reduced trails, in ascending order
    of the leads, which are distinct.  An element whose lead does not lead
    under `order` raises InvariantViolation: its reduction need not end."""
    key = order.key
    keyed: list[tuple[tuple, Binomial]] = []
    for g in gens:
        lead_key = key(g.lead)
        if lead_key <= key(g.trail):
            raise InvariantViolation(f"misoriented {g} under {order.name}")
        keyed.append((lead_key, g))
    keyed.sort(key=lambda kg: kg[0])
    leads: list[Monomial] = []
    trails: list[Monomial] = []
    for _, g in keyed:
        if not any(mono_divides(lt, g.lead) for lt in leads):
            leads.append(g.lead)
            trails.append(g.trail)
    return tuple(Binomial(lt, _reduce(tt, leads, trails)) for lt, tt in zip(leads, trails))


# -- integer kernel of the bidegree matrix ---------------------------------------

def _integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the saturated kernel {v : rows . v = 0} via unimodular column ops."""
    ncols = len(rows[0])
    A = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_addmul(dst: int, src: int, q: int) -> None:
        for r in A:
            r[dst] -= q * r[src]
        for r in U:
            r[dst] -= q * r[src]

    def col_swap(i: int, j: int) -> None:
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in U:
            r[i], r[j] = r[j], r[i]

    rank = 0
    for row in range(len(A)):
        # euclidean elimination across columns rank..ncols-1 on this row
        while True:
            nz = [j for j in range(rank, ncols) if A[row][j] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda j: abs(A[row][j]))
            col_swap(rank, piv)
            done = True
            for j in range(rank + 1, ncols):
                if A[row][j] != 0:
                    q = A[row][j] // A[row][rank]
                    col_addmul(j, rank, q)
                    if A[row][j] != 0:
                        done = False
            if done:
                rank += 1
                break
    kernel = [[U[i][j] for i in range(ncols)] for j in range(rank, ncols)]
    for v in kernel:
        if any(sum(r[i] * v[i] for i in range(ncols)) != 0 for r in rows):
            raise InvariantViolation(f"kernel vector {v} not in the kernel")
    return kernel


def _lll(basis: list[list[int]]) -> list[list[int]]:
    """LLL with delta = 99/100 in integers (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.7): the Gram determinants d[i] of
    b_0..b_{i-1} and lam[i][j] = d[j+1] mu_ij, every division exact.  A swap
    at k updates d[k] and rows k-1, k and the columns k-1, k below in place.
    The decisions are those of textbook LLL over the rationals: b_k is size
    reduced against every j = k-1 .. 0 before the Lovasz test
    100 (d[k+1] d[k-1] + lam^2) >= 99 d[k]^2, and mu is rounded half away
    from zero.  Dependent input (a d[i] <= 0) raises InvariantViolation."""
    b = [list(v) for v in basis]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
        if u <= 0:
            raise InvariantViolation(f"dependent lattice basis {basis}")
        d[k + 1] = u
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q, dj = lam[k][j], d[j + 1]
            r = (2 * q + dj) // (2 * dj) if q >= 0 else -((dj - 2 * q) // (2 * dj))
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for t in range(j):
                    lam[k][t] -= r * lam[j][t]
                lam[k][j] -= r * dj
        q = lam[k][k - 1]
        if 100 * (d[k + 1] * d[k - 1] + q * q) >= 99 * d[k] * d[k]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
        dk = (d[k - 1] * d[k + 1] + q * q) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - q * t) // d[k]
            lam[i][k - 1] = (dk * t + q * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b


def lattice_basis(seq: CurveSequence) -> list[tuple[int, ...]]:
    """Short basis of ker{v in Z^{n+1} : sum v_i a_i = (0, 0)} for the
    bidegree columns a_i; rank is n - 1 and the lattice is saturated."""
    n = seq.n
    rows = [
        [seq.m[i] for i in range(n)] + [0],
        [seq.mn - seq.m[i] for i in range(n)] + [seq.mn],
    ]
    kernel = _integer_kernel(rows)
    if len(kernel) != n - 1:
        raise InvariantViolation(f"kernel rank {len(kernel)} != n-1 for ({seq})")
    return [tuple(v) for v in _lll(kernel)]


def toric_ideal(seq: CurveSequence, cap: int | None = None) -> GroebnerBasis:
    """Reduced degrevlex Groebner basis of the vanishing ideal I(C) = I_L, L the
    kernel lattice of `lattice_basis`.

    Saturation, one pass for each of x_2, ..., x_{n+1}: move x_i to the last
    coordinate (the others keep their order), compute a degrevlex Groebner
    basis, divide each element by the largest power of its last variable and
    move x_i back.  Degrevlex with x_i last is the order of Sturmfels' Lemma
    12.1 (Groebner Bases and Convex Polytopes): the divided basis is a
    Groebner basis of the saturation by x_i in that order.  The x_{n+1} pass
    needs no move, so interreducing its output gives the reduced basis.

    x_1 needs no pass.  Let x^u - x^v have u - v in L and invert every
    variable but x_1.  A path of +-(lattice basis) steps from v to u can take
    its x_1-increasing steps first, so its x_1 exponent never drops below
    min(u_1, v_1) >= 0: each step is a Laurent-monomial multiple of a
    generator.  Hence I_B : (x_2 ... x_{n+1})^inf = I_L for the lattice-basis
    ideal I_B.  `cap` bounds the Buchberger degrees (None: the default
    4 (m_n + n)); the basis carries it.
    """
    n = seq.n
    nv = n + 1
    if cap is None:
        cap = 4 * (seq.mn + n)
    plain = TermOrder(nv)
    # v = v+ - v-; the first pass orients each
    current = [Binomial(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
               for v in lattice_basis(seq)]

    for i in range(1, nv):
        # x_i last, the others in order: the identity for i = n (x_{n+1})
        gb = buchberger([Binomial(g.lead[:i] + g.lead[i + 1:] + g.lead[i:i + 1],
                                  g.trail[:i] + g.trail[i + 1:] + g.trail[i:i + 1])
                         for g in current], plain, cap)
        current = []
        for g in gb.elements:
            k = min(g.lead[-1], g.trail[-1])
            current.append(Binomial(g.lead[:i] + (g.lead[-1] - k,) + g.lead[i:-1],
                                    g.trail[:i] + (g.trail[-1] - k,) + g.trail[i:-1]))

    final = GroebnerBasis(plain, reduce_basis(current, plain), cap)
    for g in final.elements:
        if not is_member_binomial(seq, g):
            raise InvariantViolation(f"non-member {g} in toric basis for ({seq})")
    return final


def initial_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """Monomial ideal of lead terms (minimal generators for a reduced basis)."""
    return MonomialIdeal.from_gens(gb.nvars, (g.lead for g in gb.elements))


def is_generated_by_quadrics(gb: GroebnerBasis) -> bool:
    """True iff the degree-2 members of the ideal generate it, for its reduced
    degrevlex basis `gb` (from `toric_ideal`).  I(C) has no linear forms, so
    dividing a quadric by `gb` uses only its quadrics G_2, and <I_2> = <G_2>;
    their basis is computed under the cap of `gb`."""
    if gb.order != TermOrder(gb.nvars):
        raise InvariantViolation(f"quadric generation needs degrevlex, not {gb.order.name}")
    quadrics = [g for g in gb.elements if g.degree == 2]
    return buchberger(quadrics, gb.order, gb.cap).element_set() == gb.element_set()


def has_quadratic_gb(gb: GroebnerBasis, order: TermOrder) -> bool:
    """True iff the reduced Groebner basis under `order` of the ideal with basis
    `gb` is all quadrics; a basis in another order is computed under the cap
    of `gb`."""
    if order != gb.order:
        gb = buchberger(gb.elements, order, gb.cap)
    return all(g.degree == 2 for g in gb.elements)


# -- serialization -----------------------------------------------------------------

def render_gb(order: TermOrder, elements: Iterable[Binomial], seq: CurveSequence) -> str:
    lines = [f"# order={order.name} vars={order.nvars} seq={seq}"]
    lines.extend(format_binomial(g) for g in elements)
    return "\n".join(lines) + "\n"

