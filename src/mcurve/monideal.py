"""Monomial-ideal combinatorics.

Irreducible decomposition by adding one generator at a time, nested-type
regularity, the K-polynomial (Hilbert function and series of the quotient),
Cohen-Macaulay detection on initial ideals, the bidegree-based
Cohen-Macaulay type oracle, and the last-step F-set regularity check.  The
last three read the standard monomials of the artinian reduction
in(I(C)) + <x_n, x_{n+1}>, found by one staircase walk per ideal and cached
on it.  Every finite monomial set here comes from that walk: the last-step
F-set and the Hilbert-series jump term are each the difference of two walks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InvariantViolation, NonTerminating, NotCohenMacaulay, NotNestedType
from .poly import Monomial, bidegree, mono_divides
from .seq import CurveSequence

_GRID_CAP = 5_000_000  # hard cap on the grid of every checked staircase walk


def _minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Inclusion-minimal subset generating the same ideal."""
    out: list[Monomial] = []
    for g in sorted(set(gens), key=lambda m: (sum(m), m)):
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(sorted(out))


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
        return MonomialIdeal(nvars, _minimalize(gens))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, m: Monomial) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    @cached_property
    def k_polynomial(self) -> tuple[int, ...]:
        """Numerator of the Hilbert series of R/I over (1-t)^nvars."""
        return _trim(_k_polynomial(self.gens, self.nvars))

    @cached_property
    def decomposition(self) -> "IrreducibleDecomposition":
        """Irredundant irreducible decomposition, computed once per ideal."""
        return irreducible_decomposition(self)

    @cached_property
    def artinian_standard(self) -> tuple[Monomial, ...]:
        """Standard monomials modulo self + <x_n, x_{n+1}> (the last two
        variables) on x_1..x_{n-1}, walked once per ideal."""
        n = self.nvars - 2
        return tuple(_standard_monomials(
            _minimalize(g[:n] for g in self.gens if g[n] == 0 and g[n + 1] == 0), n))

    def restrict(self, start: int) -> "MonomialIdeal":
        """Intersection with the subring on variables x_{start+1}, ..."""
        kept = [g[start:] for g in self.gens if all(e == 0 for e in g[:start])]
        return MonomialIdeal.from_gens(self.nvars - start, kept)

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

    def contains_component(self, other: "IrreducibleComponent") -> bool:
        """self >= other as ideals: every pure-power generator of other must
        lie in self, i.e. self has a smaller-or-equal power of that variable."""
        mine = iter(self.powers)  # both sorted by variable: one merge
        for j, f in other.powers:
            for i, e in mine:
                if i >= j:
                    break
            else:
                return False
            if i != j or e > f:
                return False
        return True

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
    """
    if ideal.is_zero:
        raise InvariantViolation("decomposition of the zero ideal is undefined")
    comps = [IrreducibleComponent(())]  # the zero ideal: no powers
    for g in ideal.gens:
        kept = [c for c in comps if c.contains(g)]
        split = {IrreducibleComponent.from_map({**dict(c.powers), i: e})
                 for c in comps if not c.contains(g) for i, e in enumerate(g) if e}
        comps = kept + [c for c in split if not any(
            o is not c and c.contains_component(o) for o in itertools.chain(kept, split))]
    return IrreducibleDecomposition.from_components(comps)


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


def _k_polynomial(gens: tuple[Monomial, ...], nvars: int) -> list[int]:
    """K-polynomial of R/<gens> by Bigatti's pivot recursion
    K(I) = K(I + <p>) + t^deg(p) K(I : p), with p = x_i^e for the variable in
    the most mixed generators and e the median of its exponents there.  No
    generator divides p (a pure power of x_i exceeds every mixed exponent), so
    I + <p> has fewer mixed generators and I : p strictly contains I."""
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
    colon = _minimalize(g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens)
    return _polyadd(_k_polynomial(plus, nvars), [0] * e + _k_polynomial(colon, nvars))


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

    B is the set of bidegrees of standard monomials modulo
    in(I(C)) + <x_n, x_{n+1}>; the type is #{b in B : b + a_i not in B for
    all i <= n-1}, where a_i = (m_i, m_n - m_i).
    """
    n = seq.n
    if not cm_via_initial(ideal):
        raise NotCohenMacaulay(f"({seq}) initial ideal has a generator in x_n or x_{{n+1}}")
    bidegs = set()
    for m in ideal.artinian_standard:
        bidegs.add(bidegree(seq, m + (0, 0)))
    steps = [(seq.m[i], seq.mn - seq.m[i]) for i in range(n - 1)]
    count = 0
    for b in bidegs:
        if all((b[0] + a, b[1] + t) not in bidegs for a, t in steps):
            count += 1
    return count


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
    ones = _minimalize(g[:n - 1] for g in ideal.gens)  # x_n = x_{n+1} = 1
    # the walk's checks passed on the smaller ideal; `ones` may be the unit ideal
    f_set = set(ideal.artinian_standard).difference(_staircase(ones, n - 1))
    return max(map(sum, f_set), default=-1) == reg
