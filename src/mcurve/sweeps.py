"""Family sweeps: per-instance verification of every closed form against the
Buchberger oracle.

Each checker returns a dict of named boolean results (one per verified
claim); an instance passes when all are true.  The same checkers back the
acceptance suite and the ``mcurve sweep`` command, which reads its families
from FAMILIES: per family, a config whose fields are exactly what a caller may
set (every family bounds m_n by max_mn), its instances and its checker.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, Callable, Iterator, NamedTuple

from .arith_forms import (
    betti1_arithmetic,
    cm_type_arithmetic,
    gb_arithmetic,
    hilbert_arithmetic,
    irred_dec_arithmetic,
    is_gorenstein,
    reg_arithmetic,
)
from .gen_forms import (
    gb_generalized,
    hilbert_generalized,
    hs_n3,
    irred_dec_generalized,
    is_cm_generalized,
    not_cm_witness,
    reg_generalized,
)
from .grobner import (
    buchberger,
    initial_ideal,
    is_generated_by_quadrics,
    reduce_basis,
    toric_ideal,
)
from .koszul import N3_KOSZUL, N4_KOSZUL, quadratic_gb_witness
from .monideal import (
    _polyadd,
    _trim,
    cm_type_oracle,
    cm_via_initial,
    fitted_polynomial,
    hf_quotient,
    hs_general_split,
    hs_numerator,
    is_nested_type,
    last_step_check,
    reg_nested_type,
)
from .poly import TermOrder, is_member_binomial
from .seq import CurveSequence, arithmetic_profile, generalized_profile, min_multiple


class ArithmeticSweep(NamedTuple):
    max_mn: int = 30


class _GeneralizedSweep(NamedTuple):
    h_values: tuple[int, ...] = (2, 3)
    max_mn: int = 60


class GeneralizedSweep(_GeneralizedSweep):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GeneralizedSweep":
        self = super().__new__(cls, *args, **kwargs)
        # the family needs h >= 2; h <= 0 would also stall generalized_instances
        if any(h < 2 for h in self.h_values):
            raise ValueError(f"the generalized family needs h >= 2, got h = {self.h_values}")
        # a repeated h would run and count each of its instances again
        if len(set(self.h_values)) < len(self.h_values):
            raise ValueError(
                f"the generalized family needs distinct h values, got h = {self.h_values}")
        return self


class KoszulN3Sweep(NamedTuple):
    max_mn: int = 12


class KoszulN4Sweep(NamedTuple):
    max_mn: int = 10


class _RandomSweep(NamedTuple):
    count: int = 50
    max_mn: int = 25
    seed: int = 0


class RandomSweep(_RandomSweep):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RandomSweep":
        self = super().__new__(cls, *args, **kwargs)
        if self.count < 1:
            raise ValueError(f"the random family needs --count >= 1, got {self.count}")
        if self.max_mn < 2:
            raise ValueError(f"the random family needs --max-mn >= 2, got {self.max_mn}")
        return self


def arithmetic_instances(cfg: ArithmeticSweep) -> Iterator[CurveSequence]:
    """m_i = m_1 + (i - 1) d with gcd(m_1, d) = 1, for n <= 6 and d <= 5."""
    for n in range(2, 7):
        for d in range(1, 6):
            m1 = 1
            while m1 + (n - 1) * d <= cfg.max_mn:
                if math.gcd(m1, d) == 1:
                    yield CurveSequence(tuple(m1 + i * d for i in range(n)))
                m1 += 1


def generalized_instances(cfg: GeneralizedSweep) -> Iterator[CurveSequence]:
    """m_1 and m_i = h m_1 + (i - 1) d for i >= 2, with d = h e, gcd(m_1, d) = 1,
    3 <= n <= 6 and e <= 3."""
    for n in range(3, 7):
        for h in cfg.h_values:
            for e in range(1, 4):
                d = h * e
                m1 = 1
                while h * m1 + (n - 1) * d <= cfg.max_mn:
                    if math.gcd(m1, d) == 1:
                        yield CurveSequence(
                            (m1,) + tuple(h * m1 + i * d for i in range(1, n)))
                    m1 += 1


def koszul_instances(n: int, max_mn: int) -> Iterator[CurveSequence]:
    """Every sequence of n terms up to max_mn with gcd 1 (the n = 3, 4 lists)."""
    for m in itertools.combinations(range(1, max_mn + 1), n):
        if math.gcd(*m) == 1:
            yield CurveSequence(m)


def random_instances(cfg: RandomSweep) -> Iterator[CurveSequence]:
    """`count` seeded draws of n <= 5 distinct terms up to max_mn."""
    rng = random.Random(cfg.seed)
    for _ in range(cfg.count):
        n = rng.randint(2, min(5, cfg.max_mn))
        values = rng.sample(range(1, cfg.max_mn + 1), n)
        yield CurveSequence(tuple(sorted(values)))


def check_arithmetic_instance(seq: CurveSequence, cap: int | None = None) -> dict[str, bool]:
    """Every closed form of the arithmetic family against the oracle."""
    prof = arithmetic_profile(seq)
    n = seq.n
    gb = toric_ideal(seq, cap)
    ini = initial_ideal(gb)
    closed = reduce_basis(gb_arithmetic(prof), TermOrder(n + 1))
    hil = hilbert_arithmetic(prof)
    reg = reg_arithmetic(prof)
    cm_type = cm_type_arithmetic(prof)

    checks = {
        "gb_equals_oracle": set(closed) == gb.element_set(),
        "cm_via_initial": cm_via_initial(ini),
        "nested_type": is_nested_type(ini),
        "reg_formula": reg == reg_nested_type(ini),
        "reg_h_degree": reg == len(hil.hs_numerator) - 1,
        "hf_counts": all(hil.hf_at(s) == hf_quotient(ini, s) for s in range(reg + 4)),
        "hs_numerator": hil.hs_numerator == hs_numerator(ini),
        "cm_type": cm_type == cm_type_oracle(seq, ini),
        "gorenstein": is_gorenstein(prof) == (cm_type == 1),
        "betti1": betti1_arithmetic(prof) == len(gb.elements),
        "decomposition": irred_dec_arithmetic(prof) == ini.decomposition,
        "min_multiple": min_multiple(seq) == prof.alpha + 1,
        "split_correction_zero": hs_general_split(ini)[1] == (),
    }
    return checks


def check_generalized_instance(seq: CurveSequence, cap: int | None = None) -> dict[str, bool]:
    """Every closed form of the h >= 2, h | d family against the oracle."""
    prof = generalized_profile(seq)
    n = seq.n
    gb = toric_ideal(seq, cap)
    ini = initial_ideal(gb)
    closed = reduce_basis(gb_generalized(prof), TermOrder(n + 1))
    hil = hilbert_generalized(prof)
    reg = reg_generalized(prof)

    tail = CurveSequence(seq.m[1:])
    tail_gb = toric_ideal(tail, cap)
    tail_ini = initial_ideal(tail_gb)

    hf = [hf_quotient(ini, s) for s in range(reg + 4)]

    checks = {
        "gb_equals_oracle": set(closed) == gb.element_set(),
        "not_cm": not cm_via_initial(ini),
        "not_cm_matches_criterion": is_cm_generalized(seq) == cm_via_initial(ini),
        "not_cm_witness_found": not_cm_witness(seq) is not None,
        "elimination_equality": ini.restrict(1) == tail_ini,
        "nested_type": is_nested_type(ini),
        "reg_formula": reg == reg_nested_type(ini),
        "reg_last_component": reg == prof.delta + prof.beta[prof.delta_prime - 1] - 2,
        "last_step": last_step_check(ini, reg),
        "hf_counts": all(hil.hf_at(s) == hf[s] for s in range(reg + 4)),
        "hs_numerator": hil.hs_numerator == hs_numerator(ini),
        "hp_fitted": fitted_polynomial(ini, reg) == (hil.hp_slope, hil.hp_constant),
        "decomposition": irred_dec_generalized(prof) == ini.decomposition,
        "min_multiple": min_multiple(seq) == prof.delta,
    }
    if n == 3:
        checks["hs_n3_cross"] = hs_n3(prof) == hil.hs_numerator
    return checks


def _check_koszul_list(seq: CurveSequence, koszul: frozenset, cap: int | None) -> dict[str, bool]:
    """A Koszul list against the oracle: quadric generation iff listed, and a
    quadratic Groebner basis for every listed sequence."""
    gb = toric_ideal(seq, cap)
    listed = seq.m in koszul
    checks = {"quadric_iff_listed": is_generated_by_quadrics(gb) == listed}
    if listed:
        checks["quadratic_gb_witness"] = quadratic_gb_witness(gb) is not None
    return checks


def check_koszul_n3_instance(seq: CurveSequence, cap: int | None = None) -> dict[str, bool]:
    return _check_koszul_list(seq, N3_KOSZUL, cap)


def check_koszul_n4_instance(seq: CurveSequence, cap: int | None = None) -> dict[str, bool]:
    return _check_koszul_list(seq, N4_KOSZUL, cap)


def check_random_instance(seq: CurveSequence, cap: int | None = None) -> dict[str, bool]:
    """Structural invariants that hold for arbitrary sequences."""
    gb = toric_ideal(seq, cap)
    ini = initial_ideal(gb)
    rng = random.Random(hash(seq.m) & 0xFFFF)
    dec = ini.decomposition if not ini.is_zero else None
    reg = reg_nested_type(ini)
    num = hs_numerator(ini)
    main, corr = hs_general_split(ini)

    def convolved(s: int) -> int:
        return sum(c * (s - j + 1) for j, c in enumerate(num) if j <= s)

    member_ok = all(is_member_binomial(seq, g) for g in gb.elements)
    no_monomial = all(g.lead != g.trail for g in gb.elements)
    perm = list(gb.elements)
    rng.shuffle(perm)
    deterministic = buchberger(perm, TermOrder(seq.n + 1), gb.cap).elements == gb.elements

    dec_ok = True
    if dec is not None:
        for _ in range(50):
            m = tuple(rng.randrange(0, reg + 3) for _ in range(seq.n + 1))
            dec_ok &= ini.contains(m) == dec.contains(m)

    witness = not_cm_witness(seq)
    cm = cm_via_initial(ini)

    return {
        "members": member_ok,
        "no_monomial": no_monomial,
        "deterministic": deterministic,
        "nested_type": is_nested_type(ini),
        "decomposition_membership": dec_ok,
        "hf_convolution": all(hf_quotient(ini, s) == convolved(s) for s in range(reg + 4)),
        "split_combination": _trim(_polyadd(list(main), [0] + [-c for c in corr])) == num,
        "witness_implies_not_cm": (witness is None) or (not cm),
        "cm_implies_zero_correction": (not cm) or corr == (),
    }


class Family(NamedTuple):
    """A sweep family: its config type, the instances of a config, and the
    per-instance checker."""

    config: type
    instances: Callable[[Any], Iterator[CurveSequence]]
    check: Callable[[CurveSequence, int | None], dict[str, bool]]


FAMILIES = {
    "arithmetic": Family(ArithmeticSweep, arithmetic_instances, check_arithmetic_instance),
    "generalized": Family(GeneralizedSweep, generalized_instances, check_generalized_instance),
    "n3": Family(KoszulN3Sweep, lambda cfg: koszul_instances(3, cfg.max_mn),
                 check_koszul_n3_instance),
    "n4": Family(KoszulN4Sweep, lambda cfg: koszul_instances(4, cfg.max_mn),
                 check_koszul_n4_instance),
    "random": Family(RandomSweep, random_instances, check_random_instance),
}
