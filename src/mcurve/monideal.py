"""Monomial-ideal combinatorics.

Irreducible decomposition by adding one generator at a time, nested-type
regularity, the K-polynomial (Hilbert function and series of the quotient:
Bigatti's pivot recursion, closed by Taylor's inclusion-exclusion once at
most four generators are mixed), Cohen-Macaulay detection on initial
ideals, the Cohen-Macaulay type as the count of maximal bidegrees (each
bidegree one int key), and the last-step F-set regularity check.

Minimalization, the K-polynomial and the decomposition run on the Buchberger
kernel's packed ints (`poly._Packing`, one field per variable with a guard
bit), so a divisibility test is one addition and one mask.  An ideal's
generators are packed once (`MonomialIdeal._packed`, filled by `from_gens`),
with top above every generator's degree and at least their number; an
irreducible component is one int of that packing, with an absent variable
at top, above every exponent.  Only the results are unpacked, so `gens`, the
components' `powers` and the K-polynomial are tuples.

The last three checks read the standard monomials of the artinian reduction
in(I(C)) + <x_n, x_{n+1}>, found by one staircase walk per ideal and cached
on it.  The walk stays on tuples: its output is in grid order.  Every finite
monomial set here comes from that walk: the last-step F-set and the
Hilbert-series jump term are each the difference of two walks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property
from operator import mul
from typing import Iterable, NamedTuple

from .errors import InvariantViolation, NonTerminating, NotCohenMacaulay, NotNestedType
from .poly import Monomial, _Packing, mono_divides
from .seq import CurveSequence

_GRID_CAP = 5_000_000  # hard cap on the grid of every checked staircase walk


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

    @cached_property
    def artinian_standard(self) -> tuple[Monomial, ...]:
        """Standard monomials modulo self + <x_n, x_{n+1}> (the last two
        variables) on x_1..x_{n-1}, walked once per ideal."""
        n = self.nvars - 2  # generators free of x_n, x_{n+1} stay minimal on x_1..x_{n-1}
        return tuple(_standard_monomials(
            tuple(g[:n] for g in self.gens if g[n] == 0 and g[n + 1] == 0), n))

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
    reaches 2^N in size.  `_k_value` gives its value at t = 2^b, b = N + 2,
    and the coefficients are the signed base-2^b digits of that int."""
    b = len(gens) + 2
    value = _k_value(packing, gens, b)
    half, digit = 1 << (b - 1), (1 << b) - 1
    coeffs = []
    while value:
        c = value & digit
        if c >= half:
            c -= digit + 1
        coeffs.append(c)
        value = (value - c) >> b
    return tuple(coeffs)


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


def hf_quotient(ideal: MonomialIdeal, s: int) -> int:
    """Hilbert function of R/I at degree s: sum_k K_k C(s - k + n - 1, n - 1)
    for the K-polynomial K of R/I in n variables."""
    if s < 0:
        return 0
    k, n = ideal.k_polynomial, ideal.nvars
    if n == 0:
        return k[s] if s < len(k) else 0
    return sum(c * math.comb(s - j + n - 1, n - 1) for j, c in enumerate(k[:s + 1]))


def fitted_polynomial(ideal: MonomialIdeal, reg: int) -> tuple[int, int]:
    """(slope, constant) of the line through the Hilbert function of R/I at
    reg + 2 and reg + 3, beyond the regularity `reg`."""
    a, b = hf_quotient(ideal, reg + 2), hf_quotient(ideal, reg + 3)
    return b - a, b - (b - a) * (reg + 3)


def hs_numerator(ideal: MonomialIdeal) -> tuple[int, ...]:
    """Numerator of the Hilbert series of R/I over (1-t)^2: K(t) / (1-t)^(n-2).

    K(t) = (1-t)^(n - dim) Q(t) with Q(1) > 0, so the division is exact iff
    dim R/I <= 2; otherwise NonTerminating.  Dividing by 1 - t takes prefix
    sums, exact iff the coefficients sum to zero."""
    num = list(ideal.k_polynomial)
    for _ in range(ideal.nvars - 2):
        if sum(num) != 0:
            raise NonTerminating("K-polynomial not divisible by (1-t)^(n-2): quotient dimension > 2")
        num = list(itertools.accumulate(num))[:-1]
    for _ in range(2 - ideal.nvars):
        num = _polymul(num, [1, -1])
    return _trim(num)


def _standard_monomials(gens: tuple[Monomial, ...], nvars: int) -> list[Monomial]:
    """All standard monomials of an artinian monomial ideal, in the order of
    the grid itertools.product(range(b_1), ..., range(b_nvars)) that the
    variables' least pure powers x_i^{b_i} bound.  The unit ideal (a zero
    generator) has none: R/<1> = 0."""
    if not all(map(any, gens)):
        return []
    bounds = [min((g[i] for g in gens if g[i] == sum(g) > 0), default=None)
              for i in range(nvars)]
    if None in bounds:
        raise NonTerminating("quotient is not artinian: some variable has no pure power")
    if math.prod(bounds) > _GRID_CAP:
        raise NonTerminating(f"standard-monomial grid exceeds {_GRID_CAP}")
    return _staircase(gens, nvars)


def _staircase(gens: Iterable[Monomial], nvars: int) -> list[Monomial]:
    """The standard monomials of <gens> with x_1 exponent e are x_1^e times
    those of the generators with g_1 <= e, restricted to x_2..x_nvars.  That
    set of generators grows only at the g_1 values, so each distinct set is
    walked once.  A pure power of x_1 among them ends the walk, and one is
    reached: the ideal must be artinian (or the unit ideal)."""
    if not nvars:
        return [] if gens else [()]
    out: list[Monomial] = []
    kept: list[Monomial] = []
    todo = sorted(gens)  # by g_1 first
    e = i = 0
    while True:
        while i < len(todo) and todo[i][0] <= e:
            rest = todo[i][1:]
            if not any(rest):
                return out
            kept.append(rest)
            i += 1
        tails = _staircase(kept, nvars - 1)
        for e in range(e, todo[i][0]):
            out += [(e,) + t for t in tails]
        e += 1


def _degree_counts(monos: Iterable[Monomial]) -> tuple[int, ...]:
    """Coefficients of the sum of t^deg(m) over the given monomials."""
    counts = Counter(sum(m) for m in monos)
    return tuple(counts[d] for d in range(max(counts, default=-1) + 1))


def hs_general_split(ideal: MonomialIdeal) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two finite sums whose combination main(t) - t*corr(t) is the
    Hilbert-series numerator of R/in(I(C)) over (1-t)^2.

    main: degrees of standard monomials modulo in(I(C)) + <x_n, x_{n+1}>.
    corr: degrees of monomials x^g with g_{n+1} = 0, x^g outside in(I(C))
    but x_n * x^g inside it (the non-Cohen-Macaulay jump term).

    No generator holds x_{n+1}, so corr lives on x_1..x_n, modulo the ideal J
    of the generators there.  Let b be the largest x_n exponent among them.
    If x^g is in corr, some generator f divides x_n * x^g but not x^g, so
    f_n = g_n + 1 <= b.  Hence corr is the set of standard monomials of
    J + <x_n^b> that lie in J : x_n, that is, those of J + <x_n^b> minus those
    of (J : x_n) + <x_n^b>; J : x_n is generated by f / x_n for each generator
    f with f_n >= 1 and by f for the others.  It is empty when b = 0 (the
    Cohen-Macaulay case).  J holds the pure powers of x_1..x_{n-1} that the
    artinian reduction needs, so both ideals are artinian, and the second,
    being larger, walks a subset of the first's grid.
    """
    n = ideal.nvars - 1
    if any(g[n] for g in ideal.gens):
        raise InvariantViolation("x_{n+1} in a minimal generator")

    main = _degree_counts(ideal.artinian_standard)
    b = max((g[n - 1] for g in ideal.gens), default=0)
    if not b:
        return main, ()
    xn_b = (0,) * (n - 1) + (b,)
    jump = _standard_monomials(tuple(g[:n] for g in ideal.gens) + (xn_b,), n)
    colon = _staircase([g[:n - 1] + (max(g[n - 1] - 1, 0),) for g in ideal.gens] + [xn_b], n)
    return main, _degree_counts(set(jump).difference(colon))


# -- Cohen-Macaulay detection and type ------------------------------------------

def cm_via_initial(ideal: MonomialIdeal) -> bool:
    """Cohen-Macaulay criterion on in(I(C)) under degrevlex: the last two
    variables appear in no minimal generator."""
    return all(g[-2] == 0 and g[-1] == 0 for g in ideal.gens)


def cm_type_oracle(seq: CurveSequence, ideal: MonomialIdeal) -> int:
    """Cohen-Macaulay type as the count of maximal bidegrees.

    E is the set of bidegrees of standard monomials modulo
    in(I(C)) + <x_n, x_{n+1}>; the type is #{e in E : e + a_i not in E for
    all i <= n-1}, where a_i = (m_i, m_n - m_i).

    Such a monomial u, on x_1..x_{n-1}, has bidegree (s, m_n deg u - s) with
    s = sum m_i u_i, so (s, deg u) determines it.  The count keys u by the
    int s + B deg u = sum (m_i + B) u_i, where B = m_n (D + 2) + 1 and D is
    the largest degree of such a u.  Every s met, those of e + a_i included,
    is below m_n (D + 1) < B, so two keys are equal iff the bidegrees are,
    and a step a_i adds m_i + B to the key.
    """
    if not cm_via_initial(ideal):
        raise NotCohenMacaulay(f"({seq}) initial ideal has a generator in x_n or x_{{n+1}}")
    standard = ideal.artinian_standard
    base = seq.mn * (max(map(sum, standard), default=0) + 2) + 1
    steps = [m + base for m in seq.m[:-1]]
    keys = {sum(map(mul, steps, u)) for u in standard}
    return sum(1 for key in keys if all(key + a not in keys for a in steps))


# -- last-step regularity witness ------------------------------------------------

def last_step_check(ideal: MonomialIdeal, reg: int) -> bool:
    """Check that reg equals the maximal degree in the F-set

    F = {g on x_1..x_{n-1} : x^g in I|_{x_n=x_{n+1}=1} and
                             x^g not in I|_{x_n=x_{n+1}=0}},

    which certifies that the regularity is attained at the last step of the
    minimal graded free resolution.  The x_n = x_{n+1} = 1 ideal contains the
    x_n = x_{n+1} = 0 one, so F is the difference of their standard monomials.
    """
    n = ideal.nvars - 1
    ones = MonomialIdeal.from_gens(n - 1, [g[:n - 1] for g in ideal.gens])  # x_n = x_{n+1} = 1
    # the walk's checks passed on the smaller ideal; `ones` may be the unit ideal
    f_set = set(ideal.artinian_standard).difference(_staircase(ones.gens, n - 1))
    return max(map(sum, f_set), default=-1) == reg
