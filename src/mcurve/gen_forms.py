"""Closed forms for generalized arithmetic sequences m_i = h m_1 + (i-1)d.

The non-Cohen-Macaulay witness search works on arbitrary sequences and the CM
and complete-intersection criteria on generalized arithmetic ones; the rest
take the profile of a sequence with h >= 2, h | d, gcd(m_1, d) = 1, n >= 3.
The tail curve C' of (m_2, ..., m_n) is that of (m_2/h, ..., m_n/h), whose
profile gives C' its basis, decomposition and Hilbert data by the arithmetic forms.

Hilbert data of the quotient: HF(s) = sum_{i<h} HF_{C'}(s-i) + Delta_{s+1}
with Delta_s the staircase count below the beta profile, and the Hilbert
polynomial is m_n s - m_n (h-1)/2 + h gamma + h sum_{i=1}^{delta/h-1} beta_i.
Both are pinned against the oracle's K-polynomial across the test sweeps.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .arith_forms import (ArithHilbert, _mono, _require_oriented_members, gb_arithmetic,
                          hilbert_arithmetic, irred_dec_arithmetic)
from .errors import CaseNotApplicable, InvariantViolation, NotGeneralizedArithmetic
from .monideal import (IrreducibleComponent, IrreducibleDecomposition, _polyadd, _polymul,
                       _polysub, _trim)
from .poly import Binomial, TermOrder
from .seq import CurveSequence, GeneralizedProfile, generalized_class, hd_fit


class NotCmWitness(NamedTuple):
    """Subsequence m_{i_1} < ... < m_{i_l} = m_n with m_{i_j} = h m_{i_1} + (j-1)d,
    h > 1 and h m_{i_1} outside the sequence: forces a generator of the initial
    ideal involving x_n, hence a non-Cohen-Macaulay coordinate ring."""

    indices: tuple[int, ...]  # 1-based, last one is n
    h: int
    d: int
    missing: int  # h * m_{i_1}


def not_cm_witness(seq: CurveSequence) -> NotCmWitness | None:
    """First witness by increasing subsequence length, then lexicographic start."""
    m = seq.m
    n = seq.n
    values = set(m)
    for l in range(3, n + 1):
        for head in itertools.combinations(range(n - 1), l - 1):
            idx = head + (n - 1,)
            sub = [m[i] for i in idx]
            fit = hd_fit(sub)
            if fit is None or fit[0] == 1 or fit[0] * sub[0] in values:
                continue
            h, d = fit
            return NotCmWitness(tuple(i + 1 for i in idx), h, d, h * sub[0])
    return None


def is_cm_generalized(seq: CurveSequence) -> bool:
    """Cohen-Macaulay iff the sequence is arithmetic (h = 1); needs n >= 3."""
    if seq.n < 3:
        raise NotGeneralizedArithmetic("criterion needs n >= 3 (n = 2 is always arithmetic)")
    return generalized_class(seq).h == 1


def is_complete_intersection(seq: CurveSequence) -> bool:
    """I(C) is a complete intersection iff n = 2, or n = 3 with h = 1 and m_1 even."""
    h = generalized_class(seq).h
    if seq.n == 2:
        return True
    return seq.n == 3 and h == 1 and seq.m1 % 2 == 0


def gb_generalized(prof: GeneralizedProfile) -> list[Binomial]:
    """Minimal degrevlex Groebner basis of I(C) for h >= 2, h | d.

    Union of: the arithmetic basis of the tail curve shifted into the
    variables x_2..x_{n+1}; the h-family x_1^h x_i - x_2 x_{i-1} x_{n+1}^{h-1}
    for 3 <= i <= n; and x_1^{jh} x_2^{beta_j} - x_{sigma_j} x_n^{lambda_j}
    x_{n+1}^{j(h-1) + d/h} for 1 <= j <= delta/h.
    """
    n, h = prof.seq.n, prof.h
    nv = n + 1
    order = TermOrder(nv)

    basis = [Binomial((0,) + b.lead, (0,) + b.trail) for b in gb_arithmetic(prof.tail)]
    for i in range(3, n + 1):
        basis.append(Binomial(
            _mono(nv, (0, h), (i - 1, 1)),
            _mono(nv, (1, 1), (i - 2, 1), (n, h - 1)),
        ))
    for j in range(1, prof.delta_prime + 1):
        basis.append(Binomial(
            _mono(nv, (0, j * h), (1, prof.beta[j])),
            _mono(nv, (prof.sigma[j] - 1, 1), (n - 1, prof.lam[j]),
                  (n, j * (h - 1) + prof.d // h)),
        ))

    _require_oriented_members(prof.seq, basis, order)
    return basis


def irred_dec_generalized(prof: GeneralizedProfile) -> IrreducibleDecomposition:
    """Irredundant irreducible decomposition of in(I(C)) for h >= 2, h | d:
    <x_1^h> + (components of in(I(C'))) together with
    <x_1^{jh}, x_2^{beta_{j-1}}, x_3, ..., x_n> for j = 2..delta/h."""
    n, h = prof.seq.n, prof.h
    tail_dec = irred_dec_arithmetic(prof.tail)
    comps = []
    for c in tail_dec.components:
        powers = {0: h}
        for i, e in c.powers:
            powers[i + 1] = e
        comps.append(IrreducibleComponent.from_map(powers))
    for j in range(2, prof.delta_prime + 1):
        powers = {0: j * h, 1: prof.beta[j - 1]}
        for i in range(2, n):
            powers[i] = 1
        comps.append(IrreducibleComponent.from_map(powers))
    return IrreducibleDecomposition.from_components(comps)


def reg_generalized(prof: GeneralizedProfile) -> int:
    """Regularity: delta - 1 when n-1 does not divide m_1, else delta."""
    return prof.delta if prof.seq.m1 % (prof.seq.n - 1) == 0 else prof.delta - 1


class GenHilbert(NamedTuple):
    """Hilbert data for the generalized case (h >= 2, h | d).

    hs_numerator is over (1-t)^2; gamma is the Hilbert-polynomial constant of
    the tail curve C'; delta_at counts the staircase lattice points
    {(a, b) : a + b < s, b < beta_{floor(a/h)}, floor(a/h) >= 1}.
    """

    hs_numerator: tuple[int, ...]
    hp_slope: int
    hp_constant: int
    gamma: int
    h: int
    delta: int
    beta: tuple[int, ...]
    tail: ArithHilbert

    def delta_at(self, s: int) -> int:
        h = self.h
        total = 0
        for j in range(1, self.delta // h):
            for a in range(j * h, j * h + h):
                total += max(0, min(self.beta[j], s - a))
        return total

    def hf_at(self, s: int) -> int:
        head = sum(self.tail.hf_at(s - i) for i in range(self.h))
        return head + self.delta_at(s + 1)


def hilbert_generalized(prof: GeneralizedProfile) -> GenHilbert:
    seq = prof.seq
    h, delta, dp = prof.h, prof.delta, prof.delta_prime
    tail = hilbert_arithmetic(prof.tail)

    corr = [0] * (delta + h)
    for i in range(1, dp):
        corr[i * h + prof.beta[i]] += 1
    num = _polyadd(_polymul([1] * h, list(tail.hs_numerator)), [0] * h + [1] * (delta - h))
    num = _polysub(num, _polymul([1] * h, corr))

    gamma = tail.hp_constant
    if seq.mn * (h - 1) % 2:
        raise InvariantViolation(f"m_n (h - 1) is odd for ({seq})")
    constant = (-seq.mn * (h - 1) // 2 + h * gamma
                + h * sum(prof.beta[1:dp]))
    return GenHilbert(
        hs_numerator=num,
        hp_slope=seq.mn,
        hp_constant=constant,
        gamma=gamma,
        h=h,
        delta=delta,
        beta=prof.beta,
        tail=tail,
    )


def hs_n3(prof: GeneralizedProfile) -> tuple[int, ...]:
    """Hilbert-series numerator for n = 3, by the five-case closed form.

    Selection: delta = 2h splits on the parity of m_1; otherwise h = 2 is its
    own case (3 t^j plateau through j = delta - 2) and h >= 3 splits on
    parity again.  Verification path only; hilbert_generalized is the
    production route and the two must agree.
    """
    seq = prof.seq
    if seq.n != 3:
        raise CaseNotApplicable(f"n = {seq.n}, need n = 3")
    h, delta, beta = prof.h, prof.delta, prof.beta
    m3 = seq.mn
    out = [0] * (delta + 2)

    if delta == 2 * h:
        if seq.m1 % 2 == 1:
            out[0] += 1
            out[1] += 2
            for j in range(2, h + 1):
                out[j] += 3
            out[h + 1] += 1
            out[2 * h] -= 1
        else:
            out[0] += 1
            out[1] += 2
            out[2] += 3
            for j in range(3, h + 1):
                out[j] += 4
            out[h + 1] += 3
            out[h + 2] += 1
            out[2 * h] -= 1
            out[2 * h + 1] -= 1
    elif h == 2:
        out[0] += 1
        out[1] += 2
        for j in range(2, delta - 1):
            out[j] += 3
        out[delta - 1] -= (delta - 6) // 2
        out[delta] -= (delta - 2) // 2
    else:
        for j in range(h):
            out[j] += j + 1
        for j in range(h, m3 // h):
            out[j] += h + 1
        for j in range(h - 2):
            out[m3 // h + j] += h - j
        out[m3 // h + h - 2] += 1
        top = delta // h - 1 if seq.m1 % 2 == 1 else delta // h
        for j in range(2, top + 1):
            out[j * h + beta[j]] -= 1
            out[j * h + beta[j] + 1] -= 1
        if seq.m1 % 2 == 1:
            out[delta] -= 1
    return _trim(out)
