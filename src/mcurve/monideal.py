"""Monomial-ideal combinatorics.

Irreducible decomposition by adding one generator at a time, nested-type
regularity, the K-polynomial (Hilbert function and series of the quotient:
Bigatti's pivot recursion, closed by Taylor's inclusion-exclusion once at
most four generators are mixed), Cohen-Macaulay detection on initial
ideals, the Cohen-Macaulay type from the corners of the staircase (one
normal form modulo the toric basis per corner and variable), and the
last-step F-set regularity check.

Minimalization, the K-polynomial and the decomposition run on the Buchberger
kernel's packed ints (`poly._Packing`, one field per variable with a guard
bit), so a divisibility test is one addition and one mask.  An ideal's
generators are packed once (`MonomialIdeal._packed`, filled by `from_gens`),
with top above every generator's degree and at least their number; an
irreducible component is one int of that packing, with an absent variable
at top, above every exponent.  Only the results are unpacked, so `gens`, the
components' `powers` and the K-polynomial are tuples.

Every Hilbert series here comes from a K-polynomial, and no monomial set is
listed.  The two checks that count finite sets of standard monomials by
degree, the Hilbert-series split and the last-step check, divide
K-polynomials of artinian ideals by (1-t)^nvars (`_artinian_series`); the
jump term of the split and the F-set of the last step lie between two nested
staircases, so each is the difference of two such series.  The CM type reads
only the corners of the staircase of in(I(C)) + <x_n, x_{n+1}>, from the
decomposition.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import InvariantViolation, NonTerminating, NotCohenMacaulay, NotNestedType
from .poly import Monomial, _Packing, mono_divides
from .seq import CurveSequence

if TYPE_CHECKING:  # an annotation only: grobner imports this module
    from .grobner import GroebnerBasis

def _pack(nvars: int, gens: tuple[Monomial, ...]) -> tuple[_Packing, list[int]]:
    """The generators as ints of a packing whose top is above every degree,
    so above every exponent (room for the decomposition's mark of an absent
    variable), and at least the number of generators, so that a field can
    count generators."""
    packing = _Packing(nvars, max(max(map(sum, gens), default=0) + 1, len(gens)))
    return packing, list(map(packing.pack, gens))


def _minimalize(gens: Iterable[int], guards: int) -> list[int]:
    """The packed generators that no other one divides, in ascending int
    order: every generator comes after its divisors."""
    out: list[int] = []
    negs: list[int] = []  # G - h for each kept h
    for g in sorted(set(gens)):
        for n in negs:
            if (g + n) & guards == guards:
                break
        else:
            out.append(g)
            negs.append(guards - g)
    return out


class MonomialIdeal(NamedTuple("MonomialIdeal",
                               [("nvars", int), ("gens", tuple[Monomial, ...])])):
    """Monomial ideal given by its inclusion-minimal generators.  No __slots__:
    the cached properties below keep their values in the instance __dict__,
    outside the tuple, so equality, hash and repr read nvars and gens only."""

    @staticmethod
    def from_gens(nvars: int, gens: Iterable[Monomial]) -> "MonomialIdeal":
        gens = tuple(gens)
        if any(len(g) != nvars for g in gens):
            raise InvariantViolation(f"generator length differs from nvars = {nvars}")
        packing, packed = _pack(nvars, gens)
        kept = _minimalize(packed, packing.guards)
        ideal = MonomialIdeal(nvars, tuple(sorted(map(dict(zip(packed, gens)).__getitem__, kept))))
        ideal.__dict__["_packed"] = packing, kept  # fills the cached property below
        return ideal

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, m: Monomial) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    @cached_property
    def _packed(self) -> tuple[_Packing, list[int]]:
        """The generators packed (`_pack`) once for the K-polynomial and the
        decomposition."""
        return _pack(self.nvars, self.gens)

    @cached_property
    def k_polynomial(self) -> tuple[int, ...]:
        """Numerator of the Hilbert series of R/I over (1-t)^nvars."""
        return _k_polynomial(*self._packed)

    @cached_property
    def decomposition(self) -> "IrreducibleDecomposition":
        """Irredundant irreducible decomposition, computed once per ideal."""
        return irreducible_decomposition(self)

    def restrict(self, start: int) -> "MonomialIdeal":
        """Intersection with the subring on variables x_{start+1}, ...: the
        minimal generators free of x_1..x_start, still minimal and sorted."""
        return MonomialIdeal(self.nvars - start, tuple(
            g[start:] for g in self.gens if not any(g[:start])))

    def __str__(self) -> str:
        from .poly import format_monomial
        return "<" + ", ".join(format_monomial(g) for g in self.gens) + ">"


# -- irreducible decomposition -------------------------------------------------

class IrreducibleComponent(NamedTuple):
    """Ideal generated by pure variable powers <x_i^{e_i} : i in support>."""

    powers: tuple[tuple[int, int], ...]  # sorted (var index, exponent), exponent >= 1

    @staticmethod
    def from_map(powers: dict[int, int]) -> "IrreducibleComponent":
        if not powers or any(e < 1 for e in powers.values()):
            raise InvariantViolation(f"component powers {powers} are not all positive")
        return IrreducibleComponent(tuple(sorted(powers.items())))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.powers)

    def contains(self, m: Monomial) -> bool:
        return any(m[i] >= e for i, e in self.powers)

    def regularity(self) -> int:
        """reg of R modulo the component: sum of generator degrees minus count."""
        return sum(e for _, e in self.powers) - len(self.powers)


class IrreducibleDecomposition(NamedTuple):
    components: tuple[IrreducibleComponent, ...]

    @staticmethod
    def from_components(comps: Iterable[IrreducibleComponent]) -> "IrreducibleDecomposition":
        return IrreducibleDecomposition(tuple(sorted(set(comps), key=lambda c: c.powers)))

    def contains(self, m: Monomial) -> bool:
        return all(c.contains(m) for c in self.components)


def irreducible_decomposition(ideal: MonomialIdeal) -> IrreducibleDecomposition:
    """Irredundant irreducible decomposition, adding one generator at a time.

    The loop starts from the zero ideal, one component with no powers.  Monomial
    ideals form a distributive lattice, so adding a generator g to Q_1 /\\ ... /\\ Q_r
    gives the intersection of the Q_k + <g>.  That is Q_k when Q_k contains g, and
    otherwise the intersection of Q_k + <x_i^{g_i}> over i in the support of g (a
    monomial outside Q_k lies in all of these only if g divides it).

    An irreducible monomial ideal Q that contains A /\\ B contains A or B: were
    a in A and b in B outside Q, lcm(a, b) would lie in A /\\ B and outside Q.  So
    a decomposition in which no component contains another is irredundant, and
    the irredundant one is unique (Miller-Sturmfels, Combinatorial Commutative
    Algebra, ch. 5).  Each step keeps that property: a kept component never
    contains a new one, since it would then contain the Q_k that was split.  So
    only new components that contain another component, duplicates included, go.

    The generators and the components are ints of one packing (`poly._Packing`)
    whose top is above every exponent: a component <x_i^{E_i}> is the packed
    E, with an absent variable at that top.  So Q contains g iff
    g_i >= E_i for some i, iff some guard survives g - E; Q contains Q' iff
    E_i <= E'_i for every i, iff every guard survives E' - E; and Q + <x_i^{g_i}>,
    for g outside Q, takes field i from g.  Only the result is unpacked.
    """
    if ideal.is_zero:
        raise InvariantViolation("decomposition of the zero ideal is undefined")
    packing, gens = ideal._packed
    G, field, absent = packing.guards, packing.field, packing.top
    fields = [field << s for s in packing.shifts]
    comps = [absent * (G >> packing.guard_shift)]  # the zero ideal: every variable absent
    for g in gens:
        kept, split, new = [], set(), []
        support = [f for f in fields if g & f]
        for c in comps:
            if (g + G - c) & G:  # c contains g
                kept.append(c)
            else:
                split.update([c ^ ((c ^ g) & f) for f in support])
        for c in split:
            neg = G - c
            for o in itertools.chain(kept, split):
                if (o + neg) & G == G and o != c:  # c contains o
                    break
            else:
                new.append(c)
        comps = kept + new
    unpack = packing.unpack
    return IrreducibleDecomposition.from_components(
        IrreducibleComponent(tuple([(i, e) for i, e in enumerate(unpack(c)) if e != absent]))
        for c in comps)


def is_nested_type(ideal: MonomialIdeal) -> bool:
    """True iff every irreducible component is supported on a prefix x_1..x_i."""
    if ideal.is_zero:
        return True
    return all(c.support == tuple(range(len(c.support))) for c in ideal.decomposition.components)


def reg_nested_type(ideal: MonomialIdeal) -> int:
    """Regularity of R/I for a nested-type monomial ideal: max over components."""
    if ideal.is_zero:
        return 0
    if not is_nested_type(ideal):
        raise NotNestedType(f"{ideal} has a non-prefix associated prime")
    if not ideal.decomposition.components:
        raise InvariantViolation(f"{ideal} is the unit ideal: R/I = 0 has no regularity")
    return max(c.regularity() for c in ideal.decomposition.components)


# -- Hilbert series via the K-polynomial ----------------------------------------

def _polyadd(a: list[int], b: list[int]) -> list[int]:
    return [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]


def _polymul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _k_polynomial(packing: _Packing, gens: list[int]) -> tuple[int, ...]:
    """Coefficients of the K-polynomial of R/<gens>, for N minimal generators
    packed in `packing`.  Taylor's resolution writes it as the sum over the
    subsets S of the generators of (-1)^|S| t^deg lcm(S), so no coefficient
    reaches 2^N in size.  `_k_value` gives its value at t = 2^b, the
    multiple b of 8 at or above N + 2, and the coefficients are the signed
    base-2^b digits of that int.  Adding 2^(b-1) to every digit makes each
    one nonnegative and below 2^b, so the digits are the b/8-byte slices of
    the biased int's bytes, read in one pass: peeling them off one at a time
    would shift the whole int once per digit."""
    b = 8 * -(-(len(gens) + 2) // 8)
    value = _k_value(packing, gens, b)
    width, half = b // 8, 1 << (b - 1)
    count = value.bit_length() // b + 1  # no nonzero digit at this index or above
    biased = value + int.from_bytes(half.to_bytes(width, "little") * count, "little")
    raw = biased.to_bytes(width * count, "little")
    return _trim([int.from_bytes(raw[i:i + width], "little") - half
                  for i in range(0, len(raw), width)])


# A node with at most this many mixed generators is a leaf of `_k_value`.  On
# the initial ideals of a seed-23 `report` pass, leaves at 1, 2, 3 and 4 took
# about 24%, 36%, 42% and 45% off the K-polynomial, and 5 was slower than 4.
# 4 beat 3 by 3-6% on the report, n4 and random corpus buckets, and tied on
# the scale bucket, whose ideals are larger.
_LEAF_MIXED = 4


def _k_value(packing: _Packing, gens: list[int], b: int) -> int:
    """K(2^b) for the K-polynomial K of R/<gens>, minimal generators packed in
    `packing`, by Bigatti's pivot recursion K(I) = K(I + <p>) + t^deg(p) K(I : p),
    with p = x_i^e for the variable in the most mixed generators (then in the
    most generators, then the first) and e the median of its exponents there.
    No generator divides p (a pure power of x_i exceeds every mixed exponent),
    so I + <p> has fewer mixed generators and I : p strictly contains I.
    At t = 2^b a sum of K-polynomials is a sum of ints and a factor t^d a
    shift by b d bits.  No node has more generators than the first (p
    replaces a mixed generator, and I : p is minimalized), and the packing's
    top is at least that many: a field counts them.

    The recursion ends at a node with at most `_LEAF_MIXED` mixed generators
    h_1..h_k beside pure powers x_i^{p_i}, which generate P.  Unrolling
    K(J + <h>) = K(J) - t^deg(h) K(J : h) over the h_j, the colons compose
    to P : lcm(h_S), and

        K(R/I) = sum over S of {h_1..h_k} of (-1)^|S| t^deg(lcm h_S) K(R/(P : lcm h_S))

    (Taylor's inclusion-exclusion over the mixed generators; Miller-Sturmfels,
    Combinatorial Commutative Algebra, 6.2).  With the pure powers on
    distinct variables, P : m is generated by the x_i^{p_i - m_i}, a complete
    intersection whose K-polynomial is the product of the 1 - t^{p_i - m_i};
    a variable with no pure power adds no factor.  The generators of every
    node are minimal: I + <p> drops every generator with x_i exponent at
    least e, the pure power of x_i among them, before it adds x_i^e, and
    I : p is minimalized.  So the pure powers are on distinct variables, and
    each h_j has x_i exponent below p_i: every p_i - m_i is at least 1, no
    term vanishes, and the unit ideal is never a node unless it is the input.
    A product is a shift and a subtraction per factor."""
    if 0 in gens:
        return 0  # unit ideal
    G, field, guard_shift = packing.guards, packing.field, packing.guard_shift
    low = G - (G >> guard_shift)  # 2^(w-1) - 1 in every field
    marks = [((g + low) & G) >> guard_shift for g in gens]  # 1 in each field of the support
    mixed = [g for g, z in zip(gens, marks) if z & (z - 1)]
    if len(mixed) <= _LEAF_MIXED:
        pure = [(s, g >> s) for g, z in zip(gens, marks) if not z & (z - 1)
                for s in [z.bit_length() - 1]]  # (shift, p_i) of each x_i^{p_i}
        terms = [(1, 0)]  # (sign, lcm) for each subset of the mixed generators
        for h in mixed:  # lcm(m, h) takes m in the fields where m - h keeps its guard
            neg = G - h
            terms += [(-sign, h ^ ((m ^ h) & ((((m + neg) & G) >> guard_shift) * field)))
                      for sign, m in terms]
        total = 0
        for sign, m in terms:
            value = sign << b * packing.degree(m)
            for s, p in pure:
                value -= value << b * (p - ((m >> s) & field))
            total += value
        return total
    occurs = packing.unpack(sum(marks))  # per variable, the number of generators holding it
    in_mixed = packing.unpack(sum([z for z in marks if z & (z - 1)]))
    keys = [m * (len(gens) + 1) + o for m, o in zip(in_mixed, occurs)]  # (m, o) in order
    s = packing.shifts[keys.index(max(keys))]
    exps = sorted(f for f in ((g >> s) & field for g in mixed) if f)
    e = exps[len(exps) // 2]
    plus = [g for g in gens if (g >> s) & field < e] + [e << s]
    colon = _minimalize([g - (min((g >> s) & field, e) << s) for g in gens], G)
    return _k_value(packing, plus, b) + (_k_value(packing, colon, b) << b * e)


def hf_quotient(ideal: MonomialIdeal, top: int) -> list[int]:
    """Hilbert function of R/I at the degrees 0..top-1: the first `top`
    coefficients of K(t) / (1 - t)^n for the K-polynomial K of R/I in n
    variables, n prefix sums of K padded to `top`."""
    values = (list(ideal.k_polynomial) + [0] * top)[:top]
    for _ in range(ideal.nvars):
        values = list(itertools.accumulate(values))
    return values


def fitted_polynomial(ideal: MonomialIdeal, reg: int) -> tuple[int, int]:
    """(slope, constant) of the line through the Hilbert function of R/I at
    reg + 2 and reg + 3, beyond the regularity `reg`."""
    a, b = hf_quotient(ideal, reg + 4)[-2:]
    return b - a, b - (b - a) * (reg + 3)


def _divided(num: Iterable[int], k: int, message: str) -> tuple[int, ...]:
    """num(t) / (1-t)^k, trimmed, for an integer polynomial num with no
    trailing zero; NonTerminating(message) when the division is not exact.
    Dividing by 1 - t takes prefix sums, exact iff the coefficients sum to
    zero, and the last prefix sum is then that zero."""
    num = list(num)
    for _ in range(k):
        if sum(num) != 0:
            raise NonTerminating(message)
        num = list(itertools.accumulate(num))[:-1]
    return _trim(num)


def hs_numerator(ideal: MonomialIdeal) -> tuple[int, ...]:
    """Numerator of the Hilbert series of R/I over (1-t)^2: K(t) / (1-t)^(n-2).

    K(t) = (1-t)^(n - dim) Q(t) with Q(1) > 0, so the division is exact iff
    dim R/I <= 2; otherwise NonTerminating."""
    num = list(_divided(ideal.k_polynomial, ideal.nvars - 2,
                        "K-polynomial not divisible by (1-t)^(n-2): quotient dimension > 2"))
    for _ in range(2 - ideal.nvars):
        num = _polymul(num, [1, -1])
    return _trim(num)


def _artinian_series(nvars: int, gens: Iterable[Monomial]) -> tuple[int, ...]:
    """The number of standard monomials of <gens> in each degree, in nvars
    variables: the Hilbert series K(t) / (1-t)^nvars of the quotient, K its
    K-polynomial (Bigatti, J. Pure Appl. Algebra 1997; Miller-Sturmfels,
    Combinatorial Commutative Algebra, ch. 2).  It is a polynomial, and the
    division exact, iff the quotient is artinian (dim 0), that is iff each
    variable has a pure power among the generators; otherwise
    NonTerminating.  The unit ideal has no standard monomial: series ()."""
    return _divided(MonomialIdeal.from_gens(nvars, gens).k_polynomial, nvars,
                    "quotient is not artinian: some variable has no pure power")


def hs_general_split(ideal: MonomialIdeal) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two finite sums whose combination main(t) - t*corr(t) is the
    Hilbert-series numerator of R/in(I(C)) over (1-t)^2.

    main: degrees of standard monomials modulo in(I(C)) + <x_n, x_{n+1}>.
    corr: degrees of monomials x^g with g_{n+1} = 0, x^g outside in(I(C))
    but x_n * x^g inside it (the non-Cohen-Macaulay jump term).

    Both count finite monomial sets by degree, so both are read off
    K-polynomials (`_artinian_series`).  The standard monomials of main are
    those on x_1..x_{n-1} of the ideal J0 of the generators free of x_n and
    x_{n+1}: main is the series of J0, NonTerminating when J0 is not
    artinian.

    No generator holds x_{n+1}, so corr lives on x_1..x_n, modulo the ideal J
    of the generators there.  Let b be the largest x_n exponent among them.
    If x^g is in corr, some generator f divides x_n * x^g but not x^g, so
    f_n = g_n + 1 <= b.  Hence corr is the set of standard monomials of
    J + <x_n^b> that lie in J : x_n, that is, those of J + <x_n^b> minus those
    of (J : x_n) + <x_n^b>; J : x_n is generated by f / x_n for each generator
    f with f_n >= 1 and by f for the others.  The second ideal contains the
    first, so its standard monomials are a subset of the first's, and corr is
    the difference of the two series.  J holds the pure powers of
    x_1..x_{n-1} that J0 holds, so both ideals are artinian when J0 is.

    When b = 0 (the Cohen-Macaulay case) corr is empty and J0 has all the
    generators of in(I(C)).  A K-polynomial depends only on the generators,
    so main is the K-polynomial of in(I(C)), cached on the ideal, over
    (1-t)^(n-1).
    """
    n = ideal.nvars - 1
    if any(g[n] for g in ideal.gens):
        raise InvariantViolation("x_{n+1} in a minimal generator")
    b = max((g[n - 1] for g in ideal.gens), default=0)
    if not b:
        return _divided(ideal.k_polynomial, n - 1,
                        "quotient is not artinian: some variable has no pure power"), ()
    main = _artinian_series(n - 1, [g[:n - 1] for g in ideal.gens if not g[n - 1]])
    xn_b = (0,) * (n - 1) + (b,)
    jump = _artinian_series(n, [g[:n] for g in ideal.gens] + [xn_b])
    colon = _artinian_series(n, [g[:n - 1] + (max(g[n - 1] - 1, 0),) for g in ideal.gens] + [xn_b])
    return main, _trim(_polyadd(list(jump), [-c for c in colon]))


# -- Cohen-Macaulay detection and type ------------------------------------------

def cm_via_initial(ideal: MonomialIdeal) -> bool:
    """Cohen-Macaulay criterion on in(I(C)) under degrevlex: the last two
    variables appear in no minimal generator."""
    return all(g[-2] == 0 and g[-1] == 0 for g in ideal.gens)


def cm_type_oracle(seq: CurveSequence, gb: GroebnerBasis) -> int:
    """Cohen-Macaulay type of the curve, from its reduced degrevlex basis
    `gb` of I(C) (`grobner.toric_ideal`): the number of corners u of the
    staircase of in(I(C)) = `gb.initial` such that, for every i <= n-1, the
    normal form of u x_i modulo `gb` involves x_n or x_{n+1}.

    Why.  Let C be Cohen-Macaulay: no minimal generator of in(I(C)) holds x_n
    or x_{n+1}, so it is generated by an ideal J on x_1..x_{n-1}, and x_n,
    x_{n+1} are a regular sequence on K[C].  A = K[C]/(x_n, x_{n+1}) has the
    basis t^s, s in the Apery set Ap of the curve's semigroup with respect to
    (m_n, 0) and (0, m_n); x_i sends t^s to t^(s + a_i), a_i = (m_i, m_n - m_i),
    when s + a_i is in Ap and to 0 otherwise.  So the socle of A is spanned by
    the t^s with s maximal in Ap (no s + a_i in Ap), and their number is the
    type (Cavaliere-Niesi, Manuscripta Math. 1983).  The standard monomials
    on x_1..x_{n-1} are those of J; each is the one standard monomial of its
    fibre (the monomials of its bidegree), and x_n or x_{n+1} times a
    standard monomial is standard, so they map one to one onto Ap: their
    image is the set E of the bidegrees b(u).  If u x_i is standard,
    b(u) + a_i = b(u x_i) lies in E; so a maximal u has every u x_i in J: it
    is a corner, u = x^(e - 1) for a component <x_1^e_1, ..., x_{n-1}^e_{n-1}>
    of J, one corner per irreducible component (Miller-Sturmfels,
    Combinatorial Commutative Algebra, ch. 5).  A corner u is maximal iff no
    b(u) + a_i lies in E, iff the normal form of u x_i, the standard monomial
    of its fibre, lies off x_1..x_{n-1} for every i.  The leads are free of
    x_n and x_{n+1}, so a reduction step never lowers their exponents: the
    normal form involves them iff some step reaches them, and the reduction
    stops there.

    The components are the cached decomposition (`MonomialIdeal.decomposition`,
    which `reg_nested_type` reads too).  J is artinian iff every component
    holds a power of each of x_1..x_{n-1}; a component that misses one (or
    the zero ideal) raises `_artinian_series`'s NonTerminating, and is
    never read as a corner.  The basis is packed once into the reducers of
    `grobner._interreduce`, (G - lead, trail - lead), in the ideal's own
    packing (`MonomialIdeal._packed`): its top is above the largest degree D
    of the leads, so above every exponent of a component, and every
    monomial met has degree deg u + 1 <= (n - 1)(D - 1) + 1, within the
    nvars top that a field holds without carrying.  That is at most n - 1
    normal forms per component.
    """
    ideal = gb.initial
    if not cm_via_initial(ideal):
        raise NotCohenMacaulay(f"({seq}) initial ideal has a generator in x_n or x_{{n+1}}")
    k = ideal.nvars - 2
    if ideal.is_zero or any(len(c.powers) != k for c in ideal.decomposition.components):
        raise NonTerminating("quotient is not artinian: some variable has no pure power")
    corners = [[e - 1 for _, e in c.powers] + [0, 0] for c in ideal.decomposition.components]
    packing = ideal._packed[0]
    pack, guards, field = packing.pack, packing.guards, packing.field
    off = (field << packing.shifts[k]) | (field << packing.last)  # the fields of x_n, x_{n+1}
    reducers = [(guards - lead, pack(g.trail) - lead)
                for g in gb.elements for lead in [pack(g.lead)]]
    count = 0
    for u in map(pack, corners):
        for s in packing.shifts[:k]:
            m = u + (1 << s)
            while not m & off:
                for neg, step in reducers:
                    if (m + neg) & guards == guards:
                        m += step
                        break
                else:
                    break  # a normal form on x_1..x_{n-1}: u is not maximal
            if not m & off:
                break
        else:
            count += 1
    return count


# -- last-step regularity witness ------------------------------------------------

def last_step_check(ideal: MonomialIdeal, reg: int) -> bool:
    """Check that reg equals the maximal degree in the F-set

    F = {g on x_1..x_{n-1} : x^g in I|_{x_n=x_{n+1}=1} and
                             x^g not in I|_{x_n=x_{n+1}=0}},

    which certifies that the regularity is attained at the last step of the
    minimal graded free resolution (-1 when F is empty).  The x_n = x_{n+1} = 1
    ideal contains the x_n = x_{n+1} = 0 one, so F is the set of standard
    monomials of the second less those of the first, and the series of the
    second less that of the first counts F by degree: the largest degree in F
    is the index of its last nonzero coefficient.  The second must be
    artinian (NonTerminating otherwise); the first, larger, then is too, or
    is the unit ideal, with series ().
    """
    n = ideal.nvars - 1
    zeros = _artinian_series(n - 1, [g[:n - 1] for g in ideal.gens if not g[n - 1] and not g[n]])
    ones = _artinian_series(n - 1, [g[:n - 1] for g in ideal.gens])
    return len(_trim(_polyadd(list(zeros), [-c for c in ones]))) - 1 == reg
