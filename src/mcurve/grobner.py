"""The independent oracle: Buchberger's algorithm on pure-difference binomials.

The toric ideal of a curve is built from scratch by one of two routes, which
give the same reduced basis (`toric_ideal` picks by n and m_n).  For n >= 5
and m_n up to a bound that grows with n (APERY_MAX_MN), one Buchberger run
under plain degrevlex on binomials read off the Apery set of the curve's
semigroup (`semigroup.presentation`), which generate the ideal.  The same
Apery walk gives the Hilbert series of K[C], and the run stops once the
leads of its reduced generators have it (Traverso, Hilbert functions and
the Buchberger algorithm, JSC 1996): then they already generate in(I(C)),
and no S-pair is made.  Otherwise, where that run loses to few saturation
passes or the Apery set (at least m_n elements) outgrows them: a basis of
the kernel lattice from one extended-Euclid chain over m_1, ..., m_n (so the
lattice is saturated), a short basis from integral LLL (integer Gram
determinants, no rationals, updated in place on a swap), then a pairwise L1
size reduction of that basis (`_degree_reduced`: LLL shortens the Euclidean
norm, Buchberger pays for the binomial degree, half the L1 norm), the
lattice-basis binomial ideal, and successive saturation with respect to x_2,
..., x_{n+1}, each under plain degrevlex with that variable moved last.
Everything stays a pure difference throughout; coefficients never leave
{+1, -1}.

The Buchberger kernel holds each monomial as one int (`poly._Packing`).  The
public `buchberger` and `reduce_basis` pack their tuples on entry and unpack
the basis they return; the saturation route packs the lattice basis once and
runs every pass in that one packing (a wider one from a pass that reruns
on), moving the next variable last by swapping two fields, and unpacks only
the final basis; the Apery route runs in the packing
`semigroup.presentation` builds its binomials in, and unpacks only the
basis too.  The kernel alone decides the field width: a run whose S-pair
outgrows its packing repacks its own generators wider, runs again, and
returns the packing its basis is in.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InvariantViolation
from .monideal import MonomialIdeal, _times_one_minus_t
from .poly import (
    Binomial,
    TermOrder,
    _Packing,
    format_binomial,
    is_member_binomial,
)
from .semigroup import presentation
from .seq import CurveSequence


class GroebnerBasis(NamedTuple("GroebnerBasis", [("order", TermOrder),
                                                  ("elements", tuple[Binomial, ...])])):
    """Canonically sorted reduced Groebner basis of a binomial ideal.

    The basis has len(elements) elements: len() of the record counts its two
    fields.  No __slots__, as in `MonomialIdeal`: the cached initial ideal
    lives in the instance __dict__, outside the tuple, so equality, hash and
    repr read the two fields only.
    """

    @property
    def nvars(self) -> int:
        return self.order.nvars

    def element_set(self) -> frozenset[Binomial]:
        return frozenset(self.elements)

    @cached_property
    def initial(self) -> MonomialIdeal:
        """The ideal of the leads, built once; a certified Apery run of
        `toric_ideal` fills it with the ideal whose K-polynomial it checked."""
        return MonomialIdeal.from_gens(self.nvars, (g.lead for g in self.elements))


def _non_homogeneous(g: Binomial) -> InvariantViolation:
    return InvariantViolation(f"non-homogeneous {g}: the packed kernel needs equal degrees")


def _degree(gens: list[Binomial]) -> int:
    """The largest degree of `gens`; InvariantViolation unless each is homogeneous."""
    for g in gens:
        if sum(g.lead) != sum(g.trail):
            raise _non_homogeneous(g)
    return max([0] + [g.degree for g in gens])


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


def buchberger(gens: Iterable[Binomial], order: TermOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the binomial ideal generated by `gens`.

    Generators and S-pairs enter the basis through one step: the lead of
    their normal form; then the new pairs, which for the generators wait
    until every generator is in (below).  The lead is the larger side once
    it is irreducible (so the generators may come in either orientation),
    and a difference that reaches zero on the way drops; the other side is
    the trail as it stands, since the pair criteria read only leads and the
    final interreduction reduces every trail.  With a new lead h, a new pair
    (i, h) is dropped when another new pair's lcm strictly divides its lcm;
    of the new pairs with one lcm only one is kept, and none when one of
    them has coprime leads (criterion M of Gebauer-Moeller;
    Becker-Weispfenning, Groebner Bases, 5.5).  Every pair queued is
    reduced.  Elements whose lead h divides get no further pairs but stay
    reducers.  Pair selection is the normal strategy (lowest lcm degree
    first, ties by the order on the lcm), which together with the final
    interreduction makes the output independent of the generator ordering.

    Criterion M is one pass over the new pairs sorted by (lcm, i): each class
    of one lcm is a run headed by its first pair, and only the head is tested
    against the kept lcms and for coprime leads.  That suffices.  No lead of
    the basis divides h (h is irreducible), and a lead that h divides
    stops pairing, so no pairing lead divides another.  If lead i is coprime
    to h, a pair (j, h) of the same lcm has lead j equal to lead i on the
    support of lead i (h is 0 there), so lead i divides lead j and j = i: a
    class with coprime leads has one pair, and no pushed pair has to be
    taken back.

    Every generator must be homogeneous (both sides of one degree; toric
    bases, closed forms and quadrics are): InvariantViolation otherwise.
    Reduction then keeps degrees: a run whose selected S-pairs have degree
    at most top meets no exponent above top, and each monomial is one int of
    `_Packing(nvars, top)`, a field per variable with a guard bit on top.
    top is nvars times the largest generator degree, and an S-pair above it
    reruns the same algorithm in wider fields (`_buchberger`): the same basis.
    lead divides m iff (m + G - lead) & G == G for the guard mask G; a
    reduction step is m += trail - lead, packed once per element, and moves
    the order key, itself one int, by a constant stored with it; lcm and
    degree are a few int operations, and two leads are coprime iff their lcm
    is their product, which packed is their sum: so criterion M runs on ints
    too.
    Monomials are tuples only at entry and in the returned basis: the
    packed core `_buchberger` runs on ints of a `_Packing` its caller builds
    and returns the packing its basis is in, so `toric_ideal` carries one
    packing from each saturation pass to the next.

    Every generator is reduced before the first pair is made; the pairs are
    then made lead by lead, in the order the leads were found, which gives
    the pairs of making them as each lead is found.  `toric_ideal`'s Apery
    route checks the leads at that point and may stop with no pair at all
    (`_buchberger`); this function always makes the pairs.
    """
    gens = list(gens)
    packing = _Packing(order.nvars, order.nvars * _degree(gens), order.weights)
    pack = packing.pack
    return _run(packing, [(pack(g.lead), pack(g.trail)) for g in gens], order)


def _run(packing: _Packing, gens: list[tuple[int, int]], order: TermOrder,
         target: tuple[int, ...] | None = None) -> GroebnerBasis:
    """`_buchberger` on the packed `gens` in `packing`, whose order is
    `order`, unpacked into a basis; one that `target` certifies keeps the
    certified ideal as its initial ideal."""
    packing, pairs, ideal = _buchberger(packing, gens, target)
    gb = GroebnerBasis(order, _unpack(packing, pairs))
    if ideal is not None:
        gb.__dict__["initial"] = ideal  # fills the cached property
    return gb


def _buchberger(packing: _Packing, gens: list[tuple[int, int]],
                target: tuple[int, ...] | None = None,
                ) -> tuple[_Packing, list[tuple[int, int]], MonomialIdeal | None]:
    """`buchberger` on packed generators (lead, trail), in either
    orientation, under the order of `packing`: (packing, pairs, ideal),
    the reduced basis as packed (lead, trail) pairs of the returned packing
    in ascending order of the leads, and the ideal of its leads when
    `target` certified it (None otherwise).  The generators must be
    homogeneous of degree at most the packing's top.

    A selected S-pair of degree d above the top is never reduced: the run
    repacks its own `gens` into `_Packing(nvars, nvars d)`, same order and
    same fields, and returns the run on them there.  That is the same
    deterministic algorithm on wider ints, so the basis is the one a wide
    enough first packing gives, and every monomial met fits a field.  The
    rerun takes no `target`: the leads of the generators, the same in any
    packing, already failed it.

    Every generator is reduced before any pair is made.  If `target` is the
    K-polynomial of R/in(I) for the ideal I that the generators are known
    to lie in, and the leads so far have it, the run stops there: no pair,
    no criterion M.  The leads lie in in(I), and the ideal L they generate
    has the Hilbert function of R/in(I) in every degree, so L = in(I); the
    elements are then a Groebner basis of I, and the ideal they generate is
    I, so every S-pair reduces to zero and `_interreduce` gives the reduced
    basis of I.  That holds whatever the generators are, and a set that
    generates a smaller ideal has too few leads to pass.  Otherwise the
    pairs of the leads are made in order and the loop runs.  Pair creation
    reads only the sequence of leads, and no S-pair is reduced before every
    generator is, so the pairs, the S-pairs reduced and the basis are those
    of making each lead's pairs as it is found."""
    G, top = packing.guards, packing.top
    key, degree_key = packing.key, packing.degree_key
    field, guard_shift = packing.field, packing.guard_shift
    leads: list[int] = []
    reducers: list[tuple[int, int, int]] = []  # (G - lead, trail - lead, key step)
    paired: list[int] = []  # the elements that new elements still pair with
    heap: list[tuple[int, int, int, int, int]] = []  # (degree, key, i, j, lcm) of pair (i, j)

    def add(a: int, ka: int, b: int, kb: int) -> bool:
        # the lead of the normal form of a - b: the larger side is reduced one
        # step at a time, and the sides swap when it drops below the other;
        # once it is irreducible it leads, and the other side, the trail, is
        # left as it is: the pair criteria read only leads, and
        # `_interreduce` reduces every trail at the end.  True iff it adds
        # a lead.
        if a == b:
            return False
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
                return False
        leads.append(a)
        reducers.append((G - a, b - a, kb - ka))
        return True

    def pair(h: int) -> None:
        # the pairs (i, h) of lead h = a with the paired leads i < h
        a = leads[h]
        neg_h = G - a
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
                    heapq.heappush(heap, (*degree_key(lcm), i, h, lcm))
        # lcm == lead i when h divides it: i stops pairing
        paired[:] = [i for i, lcm in zip(paired, lcms) if lcm != leads[i]] + [h]

    def basis() -> list[tuple[int, int]]:
        return _interreduce(packing, [(key(lead), lead, lead + step)
                                      for lead, (_, step, _) in zip(leads, reducers)])

    for a, b in gens:
        add(a, key(a), b, key(b))
    if target is not None:
        ideal = MonomialIdeal.from_gens(len(packing.shifts), map(packing.unpack, leads))
        if ideal.k_polynomial == target:
            return packing, basis(), ideal

    for h in range(len(leads)):
        pair(h)
    while heap:
        d, k, i, j, lcm = heapq.heappop(heap)
        if d > top:  # rerun wider; the leads of `gens` already failed `target`
            nvars, _, weights = packing.args
            wider, unpack = _Packing(nvars, nvars * d, weights), packing.unpack
            pack = wider.pack
            return _buchberger(wider, [(pack(unpack(a)), pack(unpack(b))) for a, b in gens])
        _, step_i, kstep_i = reducers[i]
        _, step_j, kstep_j = reducers[j]
        if add(lcm + step_i, k + kstep_i, lcm + step_j, k + kstep_j):
            pair(len(leads) - 1)
    return packing, basis(), None


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
    packing = _Packing(order.nvars, _degree(gens), order.weights)
    pairs = [(packing.pack(g.lead), packing.pack(g.trail)) for g in gens]
    return _unpack(packing, _interreduce(packing, _keyed(packing, pairs, order)))


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
    """Short basis of the kernel lattice L = {v in Z^{n+1} : sum v_i a_i =
    (0, 0)} of the bidegree columns a_i = (m_i, m_n - m_i), a_{n+1} =
    (0, m_n): `_lll` of the classical basis of one integer row.

    v is in L iff sum_{i <= n} v_i m_i = 0 and v_{n+1} = -(v_1 + ... + v_n),
    so a basis of the kernel of the row (m_1, ..., m_n), each vector with
    that last entry appended, is one of L.  The chain: g = m_1 and c = e_1,
    with c . m = g; for k = 2..n, h = gcd(g, m_k) gives the kernel vector
    (m_k / h) c - (g / h) e_k, then c = s c + t e_k and g = h for
    s g + t m_k = h.  A kernel vector on x_1..x_k has its k-th entry
    divisible by g / h, so a multiple of the k-th vector takes it onto
    x_1..x_{k-1}: the n - 1 vectors span the kernel, and L is saturated.
    Once the running gcd is 1, s = 1 and t = 0, so the entries stay small."""
    m = seq.m
    g, c = m[0], [1] + [0] * (seq.n - 1)
    kernel = []
    for k in range(1, seq.n):
        h = math.gcd(g, m[k])
        v = [m[k] // h * x for x in c]
        v[k] = -(g // h)
        kernel.append(v + [-sum(v)])
        s = pow(g // h, -1, m[k] // h)
        c = [s * x for x in c]
        c[k] = (h - s * g) // m[k]
        g = h
    basis = [tuple(v) for v in _lll(kernel)]
    for v in basis:
        if sum([x * y for x, y in zip(v, m)]) or sum(v):
            raise InvariantViolation(f"lattice vector {v} not in the kernel for ({seq})")
    return basis


def _best_multiple(u: list[int], v: list[int]) -> int:
    """An integer k minimising |u - k v|_1, and 0 when no k != 0 makes it
    strictly shorter than |u|_1.

    |u - k v|_1 = sum_t |v_t| |u_t / v_t - k| is convex in k, so 0 is a
    minimum unless k = 1 or k = -1 is shorter.  Otherwise a real minimum is
    the weighted median of the breakpoints u_t / v_t, with weights |v_t|: the
    first breakpoint, in ascending order, at which the running weight reaches
    half the total.  Its floor is the same weighted median taken over the
    floors u_t // v_t (the floors keep the order, and tied floors change
    only the order inside one tie), and the integer minimum is that floor or
    the next integer; integers only, no rationals."""
    def norm(k: int) -> int:
        return sum([abs(x - k * y) for x, y in zip(u, v)])

    here = sum(map(abs, u))
    if (sum([abs(x - y) for x, y in zip(u, v)]) >= here
            and sum([abs(x + y) for x, y in zip(u, v)]) >= here):
        return 0
    floors = sorted((x // y, abs(y)) for x, y in zip(u, v) if y)
    total = sum(w for _, w in floors)
    running = 0
    for c, w in floors:
        running += 2 * w
        if running >= total:
            break
    return c if norm(c) <= norm(c + 1) else c + 1


def _degree_reduced(basis: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The basis with every vector shortened in the L1 norm by the others:
    while some u can be replaced by a strictly shorter u - k v, v another
    vector and k from `_best_multiple`, replace it.

    Each step is unimodular, so the result spans the same lattice.  Every
    vector of the kernel lattice sums to 0, so |u|_1 is twice the degree of
    the binomial of u: LLL shortens the Euclidean norm, and this shortens
    what Buchberger pays for (1,500,1000: LLL keeps x1^500 x3^83 -
    x2^167 x4^416, of degree 583, and this gives x1^500 - x2 x4^499).  The
    sum of the norms falls at every step, so the loop ends.  A v with
    |v|_1 >= 2 |u|_1 is skipped: then |u - k v|_1 >= |k| |v|_1 - |u|_1 >=
    |u|_1 for every k != 0."""
    b = [list(v) for v in basis]
    norms = [sum(map(abs, v)) for v in b]
    shortened = True
    while shortened:
        shortened = False
        for i in range(len(b)):
            for j in range(len(b)):
                if i == j or norms[j] >= 2 * norms[i]:
                    continue
                k = _best_multiple(b[i], b[j])
                if k:
                    b[i] = [x - k * y for x, y in zip(b[i], b[j])]
                    norms[i] = sum(map(abs, b[i]))
                    shortened = True
    return [tuple(v) for v in b]


# The largest m_n that takes the Apery route of `toric_ideal`, by n: n above
# the last key takes its bound, and n below the first key takes the other route.
APERY_MAX_MN = {5: 128, 6: 360, 7: 1600}


def _apery_route(seq: CurveSequence) -> bool:
    """True iff `toric_ideal` builds the basis of `seq` from its Apery set."""
    return seq.mn <= APERY_MAX_MN.get(min(seq.n, max(APERY_MAX_MN)), 0)


def toric_ideal(seq: CurveSequence) -> GroebnerBasis:
    """Reduced degrevlex Groebner basis of the vanishing ideal I(C), by one
    of two routes that give the same basis; n and m_n of `seq` pick it.

    For n >= 5 and m_n at most APERY_MAX_MN's bound for n (`_apery_route`),
    one Buchberger run on the Apery-set presentation of
    `semigroup.presentation`: binomials read off the Apery set of the
    semigroup with respect to x_n and x_{n+1}, which generate I(C), so
    their reduced basis is that of I(C).  They come packed, in the packing
    the run starts in, and are checked homogeneous there.  The run reduces
    every generator first and compares the K-polynomial of their leads with
    N(t) (1 - t)^(n - 1), N(t) the Hilbert numerator of K[C] read off the
    same Apery walk; if they agree it stops there, with no S-pair, and the
    basis keeps that ideal of leads, K-polynomial computed, as its initial
    ideal (`GroebnerBasis.initial`).  That holds on most curves: all but 5
    of the 9,127 gcd-1 curves with n = 5, m_5 <= 17 and n = 6, m_6 <= 14,
    and 567 of 600 seeded n = 5..9 curves with 10 <= m_n <= 128
    (`random.Random(11)`; 3,22,57,65,94 and 10,13,18,20,35,47 make their
    pairs too).  With every (B) candidate kept, 570 of the 600 stop: the
    three more, such as 1,17,37,49,51,56,60, now make pairs, and the
    presentation's fewer generators still win on the whole set.  The basis
    is the same either way.

    Otherwise the saturation route of `_saturated`, from a lattice basis.
    The Apery route needs no lattice basis and no saturation passes, whose
    count grows with n; its own time and memory grow with the Apery set,
    which has at least m_n elements.  At n = 3, with two passes, it loses on
    most curves (1,2000,4000 has 4000 Apery elements, and its passes take
    about 0.3 ms), so the cut is at n >= 5; n = 4 stays on saturation for now
    (ROADMAP, item 3).  At n >= 5 it loses where m_n is large and the
    saturation passes stay cheap: 1,100,200,300,100000 takes 1.4 s against
    6 ms, and 1,2,3,4,1000000 10 s and 380 MB against 0.9 s and 13 MB.
    Hence APERY_MAX_MN, from the crossovers per n (best of two to five
    calls per route on a shared 2-core box).  n = 5 takes 128: on 531 n = 5
    curves with m_n from 80 to 128 the Apery route lost at most 1.4 times
    and 1.2 ms, and 1,2,3,4,m_n loses from m_n = 160 on.  n = 6 takes 360:
    1,2,3,4,5,m_n loses from about 380, and 300 seeded n = 6 curves with
    m_n from 300 to 360 all won (2.3 s against 14.0 s);
    1,2,4,8,16,m_n loses 1.8 times (0.8 ms) at 360.  n >= 7 takes 1600:
    there 1, ..., n - 1, m_n did not lose up to m_n = 6,400 (n = 7, 8),
    20 seeded n = 7 curves with m_n from 1,200 to 1,600 all won (1.2 s
    against 18.3 s), and seeded n = 7, 8 and 10 curves up to 3,200 won 10
    to 50 times; 1,2,4,...,2^(n-2),m_n loses up to 2.8 times (7 ms) at
    1,600, and a seeded n = 13 curve with m_13 = 1,600 peaks at 20 MB.
    Every curve the benchmark times (m_n <= 101 at n >= 5) is within the
    bounds.

    The two routes give the same bases on every curve checked (the tests
    compare them on random n = 5..8 curves).  Every element of the result
    is checked to lie in I(C).
    """
    if _apery_route(seq):
        p, nv = presentation(seq), seq.n + 1
        degree, unpack = p.packing.degree, p.packing.unpack
        for a, b in p.pairs:
            if degree(a) != degree(b):
                raise _non_homogeneous(Binomial(unpack(a), unpack(b)))
        k_poly = _times_one_minus_t(p.numerator, nv - 2, "a curve has at least three variables")
        final = _run(p.packing, p.pairs, TermOrder(nv), k_poly)
    else:
        final = _saturated(seq)
    for g in final.elements:
        if not is_member_binomial(seq, g):
            raise InvariantViolation(f"non-member {g} in toric basis for ({seq})")
    return final


def _saturated(seq: CurveSequence) -> GroebnerBasis:
    """The reduced degrevlex basis of `toric_ideal` off the Apery route: the
    ideal I(C) = I_L, L the kernel lattice of `lattice_basis`, saturated from the
    binomials of `_degree_reduced(lattice_basis(seq))`: the same lattice, in
    vectors of lower binomial degree.

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
    ideal I_B, for any basis B of L: the argument reads only that B spans L,
    so it holds for the degree-reduced basis as for the LLL one.  The result
    does not depend on the basis of L that the passes start from.

    Every pass runs the packed kernel `_buchberger` on ints of one
    `_Packing` (a wider one after a rerun, below), and monomials are tuples
    only in the lattice basis and the result.  The lattice binomials are
    homogeneous: every v in L has sum 0 (`lattice_basis` checks it of each
    vector), and `_degree` checks it once more of the binomials.  A pass
    outputs nothing of higher degree than its generators and S-pairs, so
    each pass's generators fit the packing the previous pass returned.  An
    S-pair above its top reruns that pass alone, in a wider packing that
    `_buchberger` returns, with the fields in the same order, so the
    layouts below hold in every packing.
    Layout i, the fields of the x_i pass, holds the variables in order with
    x_i moved last; counting fields from 1 like the variables, field i holds
    x_{i+1}.  The lattice basis is packed once in layout 2.  After the x_i
    pass the division takes min(lead >> last, trail >> last) << last from
    both sides, and swapping field i with the last field puts x_i back in
    field i and x_{i+1} last: layout i + 1.  Layout n + 1, where field n + 1
    is the last, is the identity.
    """
    nv = seq.n + 1
    plain = TermOrder(nv)
    # v = v+ - v-; the first pass orients each
    gens = [Binomial(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
            for v in _degree_reduced(lattice_basis(seq))]
    packing = _Packing(nv, nv * _degree(gens), plain.weights)
    pack = packing.pack
    pairs = [(pack(g.lead[:1] + g.lead[2:] + g.lead[1:2]),  # layout 2: x_2 last
              pack(g.trail[:1] + g.trail[2:] + g.trail[1:2])) for g in gens]
    for i in range(1, nv):  # saturate x_{i+1}, held last; field i (from 0) holds x_{i+2}
        packing, pairs, _ = _buchberger(packing, pairs)
        swap, last = packing.swap, packing.last
        divided = []
        for a, b in pairs:
            k = min(a >> last, b >> last) << last
            divided.append((swap(a - k, i), swap(b - k, i)))  # i = n: field i is the last
        pairs = divided
    return GroebnerBasis(plain, _unpack(packing, _interreduce(
        packing, _keyed(packing, pairs, plain))))


def is_generated_by_quadrics(gb: GroebnerBasis) -> bool:
    """True iff the degree-2 members of the ideal generate it, for its reduced
    degrevlex basis `gb` (from `toric_ideal`).  I(C) has no linear forms, so
    dividing a quadric by `gb` uses only its quadrics G_2, and <I_2> = <G_2>."""
    if gb.order != TermOrder(gb.nvars):
        raise InvariantViolation(f"quadric generation needs degrevlex, not {gb.order.name}")
    quadrics = [g for g in gb.elements if g.degree == 2]
    return buchberger(quadrics, gb.order).element_set() == gb.element_set()


def has_quadratic_gb(gb: GroebnerBasis, order: TermOrder) -> bool:
    """True iff the reduced Groebner basis under `order` of the ideal with basis
    `gb` is all quadrics; a basis in another order is computed from `gb`."""
    if order != gb.order:
        gb = buchberger(gb.elements, order)
    return all(g.degree == 2 for g in gb.elements)


# -- serialization -----------------------------------------------------------------

def render_gb(order: TermOrder, elements: Iterable[Binomial], seq: CurveSequence) -> str:
    lines = [f"# order={order.name} vars={order.nvars} seq={seq}"]
    lines.extend(format_binomial(g) for g in elements)
    return "\n".join(lines) + "\n"

