"""Koszul classification.

Sufficient witnesses: the generalized-arithmetic characterization
(consecutive integers with n > m_1), the explicit n = 3 and n = 4 lists, the
geometric family m_i = 2^{i-1} d, and a quadratic Groebner basis under
degrevlex or a y-dominant order.  Necessary failures: the degree-2 relation
conditions 2 m_i = m_j + mu m_l, or I(C) not being generated by quadrics.
Outside all of these the honest verdict is "unknown".
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import GcdViolation, WrongN
from .grobner import GroebnerBasis, has_quadratic_gb, is_generated_by_quadrics, toric_ideal
from .poly import TermOrder, yweighted
from .seq import CurveSequence, classify, generalized_class

N3_KOSZUL = frozenset({(1, 2, 3), (1, 2, 4), (2, 3, 4)})

N4_KOSZUL = frozenset({
    (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 4, 6), (1, 2, 4, 8),
    (2, 3, 4, 5), (2, 3, 4, 6), (2, 3, 4, 8), (2, 4, 5, 6), (2, 4, 5, 8),
    (3, 4, 5, 6), (3, 4, 6, 8), (4, 5, 6, 8), (4, 6, 7, 8),
})

KOSZUL_LISTS = {3: N3_KOSZUL, 4: N4_KOSZUL}


class KoszulStatus(NamedTuple):
    verdict: str  # "koszul" | "not_koszul" | "unknown"
    reason: str


def koszul_generalized(seq: CurveSequence) -> bool:
    """Generalized arithmetic with gcd(m_1, d) = 1: Koszul iff the terms are
    consecutive integers (h = d = 1) and n > m_1."""
    cls = generalized_class(seq)
    return cls.h == 1 and cls.d == 1 and seq.n > seq.m1


def koszul_listed(seq: CurveSequence) -> bool:
    """The explicit lists: a gcd-1 sequence with n = 3 or 4 is Koszul iff listed."""
    if seq.n not in KOSZUL_LISTS:
        raise WrongN(f"need n in {sorted(KOSZUL_LISTS)}, got {seq.n}")
    if seq.with_gcd_one() != seq:
        raise GcdViolation(f"gcd of ({seq}) is not 1")
    return seq.m in KOSZUL_LISTS[seq.n]


def necessary_quadric_conditions(seq: CurveSequence) -> bool:
    """Quadric generation forces, for every i < n, a relation
    2 m_i = m_j + mu m_l with j, l != i and mu in {0, 1}."""
    m = seq.m
    n = seq.n
    for i in range(n - 1):
        target = 2 * m[i]
        others = [m[j] for j in range(n) if j != i]
        if target in others:
            continue
        if any(a + b == target for a in others for b in others):
            continue
        return False
    return True


def is_geometric(seq: CurveSequence) -> bool:
    """m_i = 2^{i-1} d for all i (with d = m_1)."""
    d = seq.m1
    return all(v == (1 << i) * d for i, v in enumerate(seq.m))


def koszul_status(seq: CurveSequence, gb: GroebnerBasis | None = None) -> KoszulStatus:
    """Decision cascade: classified families first, then necessary-condition
    failures, then quadratic-Groebner-basis witnesses, else unknown.

    The input is first divided by the gcd of its terms (same curve), which
    also makes gcd(m_1, d) = 1 whenever a (h, d) fit exists.  `gb` is the
    curve's toric basis when the caller has it (the gcd-reduced sequence has
    the same lattice, hence the same basis); the oracle stage computes it only
    when it is None, and runs every witness from it.
    """
    base = seq.with_gcd_one()
    cls = classify(base)

    if cls.is_generalized_arithmetic:
        ok = koszul_generalized(base)
        return KoszulStatus("koszul" if ok else "not_koszul", "classified_generalized")
    if base.n in KOSZUL_LISTS:
        return KoszulStatus("koszul" if koszul_listed(base) else "not_koszul", f"listed_n{base.n}")
    if is_geometric(base):
        return KoszulStatus("koszul", "geometric")

    if not necessary_quadric_conditions(base):
        return KoszulStatus("not_koszul", "fails_necessary_quadric")
    if gb is None:
        gb = toric_ideal(base)
    if not is_generated_by_quadrics(gb):
        return KoszulStatus("not_koszul", "fails_quadric_generation")
    witness = quadratic_gb_witness(gb)
    if witness is not None:
        return KoszulStatus("koszul", f"quadratic_gb:{witness}")
    return KoszulStatus("unknown", "inconclusive")


def quadratic_gb_witness(gb: GroebnerBasis) -> str | None:
    """Name of an order under which the toric ideal with degrevlex basis `gb`
    has a quadratic reduced basis: degrevlex first, then each y-dominant order
    on a sequence variable (each basis computed from `gb`)."""
    nv = gb.nvars
    if has_quadratic_gb(gb, TermOrder(nv)):
        return "degrevlex"
    for idx in range(nv - 2):
        order = yweighted(nv, idx)
        if has_quadratic_gb(gb, order):
            return order.name
    return None
