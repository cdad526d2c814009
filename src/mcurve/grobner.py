"""The independent oracle: Buchberger's algorithm on pure-difference binomials.

The toric ideal of a curve is built from scratch: integer kernel of the 2 x
(n+1) bidegree matrix (unimodular column reduction, so the lattice is
saturated), a short basis from integral LLL (integer Gram determinants, no
rationals, updated in place on a swap), the lattice-basis binomial ideal, and
successive saturation with respect to x_2, ..., x_{n+1}, each under plain
degrevlex with that variable moved last.  Everything stays a pure difference
throughout; coefficients never leave {+1, -1}.

The Buchberger kernel holds each monomial as one int (`_Packing`).  The
public `buchberger` and `reduce_basis` pack their tuples on entry and unpack
the basis they return; `toric_ideal` packs the lattice basis once and runs
every saturation pass in that one packing, moving the next variable last by
swapping two fields, and unpacks only the final basis.
"""

from __future__ import annotations

import heapq
from operator import mul
from typing import Iterable, NamedTuple

from .errors import DegreeCapExceeded, InvariantViolation
from .monideal import MonomialIdeal
from .poly import (
    Binomial,
    Monomial,
    TermOrder,
    format_binomial,
    is_member_binomial,
)
from .seq import CurveSequence


class GroebnerBasis(NamedTuple):
    """Canonically sorted reduced Groebner basis of a binomial ideal.

    `cap` is the Buchberger degree cap the basis was computed under; every run
    made from this basis (quadric tests, other orders) runs under the same cap.
    The basis has len(elements) elements: len() of the record counts its three
    fields.
    """

    order: TermOrder
    elements: tuple[Binomial, ...]
    cap: int

    @property
    def nvars(self) -> int:
        return self.order.nvars

    def element_set(self) -> frozenset[Binomial]:
        return frozenset(self.elements)


class _Packing:
    """Monomials of `nvars` variables with every exponent at most `top`, each
    held as one int: x_i's exponent in a field of w = (nvars top).bit_length()
    + 1 bits starting at bit w i, whose top bit is a guard and stays 0.

    A sum of exponents, at most nvars top < 2^(w-1), never carries out of a
    field, so: lead divides m iff every guard survives the subtraction,
    (m + G - lead) & G == G for the guard mask G; the lcm takes each field
    from the larger side, the side whose guard survives a - b; and the
    degree is the top field of m * ONES (ONES = 1 in every field).  `key` is
    the int whose order is that of `TermOrder.key` on these monomials (lcms
    included, whose degree may reach nvars top): the weight rows, the degree
    and the exponents negated from the last variable to the first become the
    digits of one number, each wider than its spread; the last ones are the
    fields of -m itself.  It is linear in m, so a reduction step lead ->
    trail moves a key by the constant key(trail) - key(lead).  `degree_key`
    gives the degree and the key together, the degree computed once.
    `swap(p, i)` exchanges the exponents of field i and the last field, and
    `last` is the shift of the last field: p >> last is its exponent."""

    __slots__ = ("guards", "field", "guard_shift", "last", "pack", "unpack", "degree", "lcm",
                 "key", "degree_key", "swap")

    def __init__(self, nvars: int, top: int, weights: tuple[tuple[int, ...], ...]) -> None:
        w = (nvars * top).bit_length() + 1
        field = self.field = (1 << w) - 1
        self.guard_shift = w - 1
        fields = range(0, w * nvars, w)
        units = [1 << s for s in fields]  # x_i packed
        ones = sum(units)
        guards = self.guards = ones << (w - 1)
        degree_shift = last = self.last = w * (nvars - 1)
        key_shift = w * nvars  # the degree digit; the weight rows above it
        shift = key_shift + w
        row_keys = [0] * nvars  # x_i's coefficient in the weight-row digits
        for row in reversed(weights):
            for i, c in enumerate(row):
                row_keys[i] += c << shift
            shift += (top * sum(map(abs, row))).bit_length() + 1
        rows = [(s, r) for s, r in zip(fields, row_keys) if r]

        # closures over the constants: the kernel calls them in its inner loops
        def pack(m: Monomial) -> int:
            return sum(map(mul, m, units))

        def unpack(p: int) -> Monomial:
            return tuple([(p >> s) & field for s in fields])

        def degree(p: int) -> int:
            return (p * ones >> degree_shift) & field

        def lcm(a: int, b: int) -> int:
            take = (((a + guards - b) & guards) >> (w - 1)) * field  # the fields where a >= b
            return b ^ ((a ^ b) & take)

        def degree_key(p: int) -> tuple[int, int]:
            d = (p * ones >> degree_shift) & field
            k = (d << key_shift) - p
            for s, r in rows:
                k += ((p >> s) & field) * r
            return d, k

        def key(p: int) -> int:
            return degree_key(p)[1]

        def swap(p: int, i: int) -> int:
            s = w * i
            d = ((p >> s) ^ (p >> last)) & field
            return p ^ (d << s) ^ (d << last)

        self.pack, self.unpack, self.degree = pack, unpack, degree
        self.lcm, self.key, self.degree_key, self.swap = lcm, key, degree_key, swap


def _check_homogeneous(gens: list[Binomial]) -> None:
    for g in gens:
        if sum(g.lead) != sum(g.trail):
            raise InvariantViolation(f"non-homogeneous {g}: the packed kernel needs equal degrees")


def _interreduce(packing: _Packing, keyed: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """The reduced basis of the packed oriented basis `keyed`, a list of
    (key of lead, lead, trail), as packed (lead, trail) pairs in ascending
    order of the leads."""
    guards = packing.guards
    keyed.sort(key=lambda e: e[0])
    reducers: list[tuple[int, int]] = []  # (G - lead, trail - lead)
    for _, lead, trail in keyed:
        for neg, _ in reducers:
            if (lead + neg) & guards == guards:
                break
        else:
            reducers.append((guards - lead, trail - lead))
    out = []
    for neg, step in reducers:
        lead = guards - neg
        m = lead + step
        while True:
            for n, s in reducers:
                if (m + n) & guards == guards:
                    m += s
                    break
            else:
                break
        out.append((lead, m))
    return out


def _unpack(packing: _Packing, pairs: list[tuple[int, int]]) -> tuple[Binomial, ...]:
    unpack = packing.unpack
    return tuple([Binomial(unpack(lead), unpack(trail)) for lead, trail in pairs])


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
    the order on the lcm), which together with the final interreduction
    makes the output independent of the generator ordering.  A basis element
    or a selected S-pair of degree above `cap` raises DegreeCapExceeded; a
    pair the criteria drop is never checked against the cap, so an input
    whose only pairs above the cap are dropped ones returns its basis.  The
    result records the cap it ran under.

    Criterion M is one pass over the new pairs sorted by (lcm, i): each class
    of one lcm is a run headed by its first pair, and only the head is tested
    against the kept lcms and for coprime leads.  That suffices.  No lead of
    the basis divides h (h is fully reduced), and a lead that h divides
    stops pairing, so no pairing lead divides another.  If lead i is coprime
    to h, a pair (j, h) of the same lcm has lead j equal to lead i on the
    support of lead i (h is 0 there), so lead i divides lead j and j = i: a
    class with coprime leads has one pair, and no pushed pair has to be
    taken back.

    Every generator must be homogeneous (both sides of one degree; toric
    bases, closed forms and quadrics are): InvariantViolation otherwise.
    Reduction then keeps degrees, and every exponent met is at most
    top = max(cap, generator degrees).  So each monomial is one int of
    `_Packing(nvars, top)`: a field per variable with a guard bit on top.
    lead divides m iff (m + G - lead) & G == G for the guard mask G; a
    reduction step is m += trail - lead, packed once per element, and moves
    the order key, itself one int, by a constant stored with it; lcm and
    degree are a few int operations, and two leads are coprime iff their lcm
    is their product, which packed is their sum: so the pair criteria run on
    ints too.
    Monomials are tuples only at entry and in the returned basis: the
    packed core `_buchberger` runs on ints of a `_Packing` its caller builds,
    so `toric_ideal` keeps one packing over all its saturation passes.
    """
    gens = list(gens)
    _check_homogeneous(gens)
    packing = _Packing(order.nvars, max([cap, 0] + [sum(g.lead) for g in gens]), order.weights)
    pack = packing.pack
    pairs = _buchberger(packing, [(pack(g.lead), pack(g.trail)) for g in gens], cap)
    return GroebnerBasis(order, _unpack(packing, pairs), cap)


def _buchberger(packing: _Packing, gens: list[tuple[int, int]], cap: int) -> list[tuple[int, int]]:
    """`buchberger` on packed generators (lead, trail), in either
    orientation, under the order of `packing`: the reduced basis as packed
    (lead, trail) pairs in ascending order of the leads.  The generators must
    be homogeneous of degree at most the packing's top, and the cap at most
    that top, so that every exponent met fits a field."""
    G = packing.guards
    degree, key, degree_key, lcm_of = packing.degree, packing.key, packing.degree_key, packing.lcm
    field, guard_shift = packing.field, packing.guard_shift
    leads: list[int] = []
    reducers: list[tuple[int, int, int]] = []  # (G - lead, trail - lead, key step)
    paired: list[int] = []  # the elements that new elements still pair with
    live: dict[tuple[int, int], int] = {}  # queued pairs -> lcm
    heap: list[tuple[int, int, int, int]] = []  # dropped pairs stay until popped

    def add(a: int, ka: int, b: int, kb: int) -> None:
        # the normal form of a - b: the larger side is reduced one step at a
        # time, and the sides swap when it drops below the other; once it is
        # irreducible the other only decreases and is reduced to the end
        if a == b:
            return
        while True:
            if ka < kb:
                a, b, ka, kb = b, a, kb, ka
            for neg, step, kstep in reducers:
                if (a + neg) & G == G:
                    a += step
                    ka += kstep
                    break
            else:
                break
            if a == b:
                return
        while True:
            for neg, step, kstep in reducers:
                if (b + neg) & G == G:
                    b += step
                    kb += kstep
                    break
            else:
                break
        d = degree(a)
        if d > cap:
            raise DegreeCapExceeded(f"basis element of degree {d} exceeds cap {cap}")
        h = len(leads)
        neg_h = G - a
        for (i, j), lcm in [e for e in live.items() if (e[1] + neg_h) & G == G]:  # criterion B
            if lcm != lcm_of(leads[i], a) and lcm != lcm_of(leads[j], a):
                del live[i, j]
        # criterion M; lcm(l, a) takes l in the fields where l - a keeps its guard
        lcms = [a ^ ((l ^ a) & ((((l + neg_h) & G) >> guard_shift) * field))
                for l in map(leads.__getitem__, paired)]
        minimal: list[int] = []  # G - lcm of the classes kept so far
        head = -1  # the lcm of the class whose first pair was last seen
        for lcm, i in sorted(zip(lcms, paired)):  # a strict divisor is a smaller int: it comes first
            if lcm == head:
                continue
            head = lcm
            for neg in minimal:
                if (lcm + neg) & G == G:
                    break
            else:
                minimal.append(G - lcm)
                # coprime leads (lcm == lead i + h): that S-pair drops, and the class with it
                if lcm != leads[i] + a:
                    live[i, h] = lcm
                    heapq.heappush(heap, (*degree_key(lcm), i, h))
        # lcm == lead i when h divides it: i stops pairing
        paired[:] = [i for i, lcm in zip(paired, lcms) if lcm != leads[i]] + [h]
        leads.append(a)
        reducers.append((neg_h, b - a, kb - ka))

    for a, b in gens:
        add(a, key(a), b, key(b))

    while heap:
        d, k, i, j = heapq.heappop(heap)
        lcm = live.pop((i, j), None)
        if lcm is None:
            continue
        if d > cap:
            raise DegreeCapExceeded(f"S-pair degree {d} exceeds cap {cap}")
        _, step_i, kstep_i = reducers[i]
        _, step_j, kstep_j = reducers[j]
        add(lcm + step_i, k + kstep_i, lcm + step_j, k + kstep_j)

    keyed = [(key(lead), lead, lead + step) for lead, (_, step, _) in zip(leads, reducers)]
    return _interreduce(packing, keyed)


def _keyed(packing: _Packing, pairs: list[tuple[int, int]],
           order: TermOrder) -> list[tuple[int, int, int]]:
    """(key of lead, lead, trail) for the packed pairs (lead, trail) under
    `order`, whose packing this is.  An element whose lead does not lead
    raises InvariantViolation: its reduction need not end."""
    key = packing.key
    keyed = []
    for lead, trail in pairs:
        lead_key = key(lead)
        if lead_key <= key(trail):
            g = Binomial(packing.unpack(lead), packing.unpack(trail))
            raise InvariantViolation(f"misoriented {g} under {order.name}")
        keyed.append((lead_key, lead, trail))
    return keyed


def reduce_basis(gens: Iterable[Binomial], order: TermOrder) -> tuple[Binomial, ...]:
    """Self-reduce an oriented Groebner basis (a Buchberger run or a checked
    closed form): minimal leads and fully reduced trails, in ascending order
    of the leads, which are distinct.  An element whose lead does not lead
    under `order` raises InvariantViolation: its reduction need not end.  As
    in `buchberger`, every element must be homogeneous and monomials are
    packed ints, here with top the largest degree."""
    gens = list(gens)
    _check_homogeneous(gens)
    packing = _Packing(order.nvars, max([0] + [sum(g.lead) for g in gens]), order.weights)
    pairs = [(packing.pack(g.lead), packing.pack(g.trail)) for g in gens]
    return _unpack(packing, _interreduce(packing, _keyed(packing, pairs, order)))


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

    Saturation, one pass for each of x_2, ..., x_{n+1}: with x_i the last
    variable (the others keep their order), compute a degrevlex Groebner
    basis and divide each element by the largest power of its last variable.
    Degrevlex with x_i last is the order of Sturmfels' Lemma 12.1 (Groebner
    Bases and Convex Polytopes): the divided basis is a Groebner basis of the
    saturation by x_i in that order.  The x_{n+1} pass has x_{n+1} last, the
    order of the result, so interreducing its output gives the reduced basis.

    x_1 needs no pass.  Let x^u - x^v have u - v in L and invert every
    variable but x_1.  A path of +-(lattice basis) steps from v to u can take
    its x_1-increasing steps first, so its x_1 exponent never drops below
    min(u_1, v_1) >= 0: each step is a Laurent-monomial multiple of a
    generator.  Hence I_B : (x_2 ... x_{n+1})^inf = I_L for the lattice-basis
    ideal I_B.  `cap` bounds the Buchberger degrees (None: the default
    4 (m_n + n)); the basis carries it.

    Every pass runs the packed kernel `_buchberger` on ints of one
    `_Packing`, and monomials are tuples only in the lattice basis and the
    result.  The lattice binomials are homogeneous: row 2 of the bidegree
    matrix is m_n (1, ..., 1) minus row 1, so every v in L has sum 0; this
    is checked once, here.  The packing's top is max(cap, generator degrees),
    the width every pass would get on its own: the x_2 pass raises
    DegreeCapExceeded on any lattice binomial above the cap (they are
    independent, so none reduces to zero), and the basis it passes on has
    degrees at most the cap.  Layout i, the fields of the x_i pass, holds the
    variables in order with x_i moved last; counting fields from 1 like the
    variables, field i holds x_{i+1}.  The lattice basis is packed once in
    layout 2.  After the x_i pass the division takes
    min(lead >> last, trail >> last) << last from both sides, and swapping
    field i with the last field puts x_i back in field i and x_{i+1} last:
    layout i + 1.  Layout n + 1, where field n + 1 is the last, is the
    identity.
    """
    n = seq.n
    nv = n + 1
    if cap is None:
        cap = 4 * (seq.mn + n)
    plain = TermOrder(nv)
    # v = v+ - v-; the first pass orients each
    gens = [Binomial(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
            for v in lattice_basis(seq)]
    _check_homogeneous(gens)
    packing = _Packing(nv, max([cap, 0] + [g.degree for g in gens]), plain.weights)
    pack, swap, last = packing.pack, packing.swap, packing.last
    pairs = [(pack(g.lead[:1] + g.lead[2:] + g.lead[1:2]),  # layout 2: x_2 last
              pack(g.trail[:1] + g.trail[2:] + g.trail[1:2])) for g in gens]
    for i in range(1, nv):  # saturate x_{i+1}, held last; field i (from 0) holds x_{i+2}
        pairs = _buchberger(packing, pairs, cap)
        divided = []
        for a, b in pairs:
            k = min(a >> last, b >> last) << last
            divided.append((swap(a - k, i), swap(b - k, i)))  # i = n: field i is the last
        pairs = divided

    final = GroebnerBasis(plain, _unpack(packing, _interreduce(
        packing, _keyed(packing, pairs, plain))), cap)
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

