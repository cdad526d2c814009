"""Closed forms for arithmetic sequences m_i = m_1 + (i-1)d, gcd(m_1, d) = 1.

Covers the minimal Groebner basis, the irreducible decomposition of the
initial ideal, regularity, Hilbert series / function / polynomial, the
Cohen-Macaulay type, Gorensteinness, and the first Betti number.  Each form
takes the sequence's ArithmeticProfile.  Every constructed binomial is
membership-checked against the bidegree kernel test.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvariantViolation
from .monideal import IrreducibleComponent, IrreducibleDecomposition, _trim
from .poly import Binomial, TermOrder, is_member_binomial
from .seq import ArithmeticProfile, CurveSequence


def _require_oriented_members(seq: CurveSequence, basis: list[Binomial], order: TermOrder) -> None:
    """Raise InvariantViolation unless every lead leads under `order` and every
    element lies in I(C)."""
    for b in basis:
        if order.key(b.lead) <= order.key(b.trail):
            raise InvariantViolation(f"misoriented {b} for ({seq})")
        if not is_member_binomial(seq, b):
            raise InvariantViolation(f"non-member {b} for ({seq})")


def _mono(nv: int, *pairs: tuple[int, int]) -> tuple[int, ...]:
    """Exponent vector in nv variables from (variable index, power) pairs."""
    out = [0] * nv
    for idx, power in pairs:
        out[idx] += power
    return tuple(out)


def gb_arithmetic(prof: ArithmeticProfile) -> list[Binomial]:
    """Minimal degrevlex Groebner basis of I(C).

    Two families: the staircase quadrics x_i x_j - x_{i-1} x_{j+1} for
    2 <= i <= j <= n-1, and x_1^alpha x_i - x_{n-k+i} x_n^q x_{n+1}^d for
    1 <= i <= k, whose trail index realizes the defining identity
    alpha m_1 + m_i = m_{n-k+i} + q m_n.
    """
    n = prof.seq.n
    nv = n + 1
    order = TermOrder(nv)

    basis: list[Binomial] = []
    for i in range(2, n):
        for j in range(i, n):
            lead = _mono(nv, (i - 1, 1), (j - 1, 1))
            trail = _mono(nv, (i - 2, 1), (j, 1))
            basis.append(Binomial(lead, trail))
    for i in range(1, prof.k + 1):
        lead = _mono(nv, (0, prof.alpha), (i - 1, 1))
        trail = _mono(nv, (n - prof.k + i - 1, 1), (n - 1, prof.q), (n, prof.d))
        basis.append(Binomial(lead, trail))

    _require_oriented_members(prof.seq, basis, order)
    return basis


def betti1_arithmetic(prof: ArithmeticProfile) -> int:
    """First Betti number: C(n-1, 2) + k (the basis is a minimal generating set)."""
    return math.comb(prof.seq.n - 1, 2) + prof.k


def irred_dec_arithmetic(prof: ArithmeticProfile) -> IrreducibleDecomposition:
    """Irredundant irreducible decomposition of in(I(C)) in n+1 variables.

    Components <x_1^{alpha + delta_i}, x_2, ..., x_{i-1}, x_i^2, x_{i+1},
    ..., x_{n-1}> for i = 2..n-1 with delta_i = 0 for i <= k and 1 beyond;
    when k = n-1 all delta_i vanish and <x_1^{alpha+1}, x_2, ..., x_{n-1}>
    is appended.
    """
    n, alpha, k = prof.seq.n, prof.alpha, prof.k
    comps = []
    for i in range(2, n):
        bump = 0 if (k == n - 1 or i <= k) else 1
        powers = {0: alpha + bump}
        for j in range(2, n):
            powers[j - 1] = 2 if j == i else 1
        comps.append(IrreducibleComponent.from_map(powers))
    if k == n - 1:
        powers = {0: alpha + 1}
        for j in range(2, n):
            powers[j - 1] = 1
        comps.append(IrreducibleComponent.from_map(powers))
    return IrreducibleDecomposition.from_components(comps)


def reg_arithmetic(prof: ArithmeticProfile) -> int:
    """Castelnuovo-Mumford regularity: ceil((m_n - 1)/(n - 1))."""
    seq = prof.seq
    reg = -((1 - seq.mn) // (seq.n - 1))
    if reg != (prof.alpha if prof.k == seq.n - 1 else prof.alpha + 1):
        raise InvariantViolation(f"regularity {reg} disagrees with the profile of ({seq})")
    return reg


class ArithHilbert(NamedTuple):
    """Hilbert data of the coordinate ring of an arithmetic-sequence curve.

    hs_numerator is the numerator over (1-t)^2; the Hilbert polynomial is
    hp_slope * s + hp_constant, valid for s >= alpha; hf_reg is the
    regularity of the Hilbert function.
    """

    n: int
    alpha: int
    hs_numerator: tuple[int, ...]
    hp_slope: int
    hp_constant: int
    hf_reg: int

    def hf_at(self, s: int) -> int:
        if s < 0:
            return 0
        if s < self.alpha:
            return math.comb(s + 2, 2) + (self.n - 2) * math.comb(s + 1, 2)
        return self.hp_slope * s + self.hp_constant


def hilbert_arithmetic(prof: ArithmeticProfile) -> ArithHilbert:
    n, alpha, k = prof.seq.n, prof.alpha, prof.k
    numerator = [1] + [n - 1] * alpha + [n - 1 - k]
    constant = (alpha * (2 - n + k) - math.comb(alpha + 1, 2)
                - (n - 2) * math.comb(alpha, 2) + 1)
    hf_reg = alpha if k < n - 1 else alpha - 1
    return ArithHilbert(
        n=n, alpha=alpha,
        hs_numerator=_trim(numerator),
        hp_slope=prof.seq.mn, hp_constant=constant, hf_reg=hf_reg,
    )


def cm_type_arithmetic(prof: ArithmeticProfile) -> int:
    """Cohen-Macaulay type: tau with m_1 - 1 = c(n-1) + tau, 1 <= tau <= n-1."""
    n = prof.seq.n
    if prof.tau != (n - 1 if prof.k == n - 1 else n - 1 - prof.k):
        raise InvariantViolation(f"type {prof.tau} disagrees with the profile of ({prof.seq})")
    return prof.tau


def is_gorenstein(prof: ArithmeticProfile) -> bool:
    """Gorenstein iff m_1 = 2 (mod n-1), i.e. the type is 1."""
    seq = prof.seq
    return seq.m1 % (seq.n - 1) == 2 % (seq.n - 1)
