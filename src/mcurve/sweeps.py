"""The paper's claims about K[C] in one table, and the family sweeps that check them.

CLAIMS is keyed by the type of seq.closed_profile's profile (ArithmeticProfile,
GeneralizedProfile, or NoneType when no closed form applies).  A claim names
the InvariantReport field it settles and has a closed side (a Curve's profile
and closed forms -> value) and an oracle side (its toric basis and initial
ideal -> value).  A side is None where the family has none; a side that
returns None has no value for that curve.  cli.build_report settles every
claim of a curve's family, and gb and hilbert read a Curve's closed data.

A checker returns a dict of named boolean results; an instance passes when all
are true.  The arithmetic and generalized checkers are every claim of their
family with both sides (closed == oracle), the closed basis, the counted
Hilbert function and the family's structural checks.  They back the
acceptance suite and ``mcurve sweep``, which reads FAMILIES: per family, a
config whose fields are exactly what a caller may set (every family bounds m_n
by max_mn), its instances and its checker.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cached_property
from typing import Any, Callable, Iterator, NamedTuple

from .arith_forms import (
    ArithHilbert,
    betti1_arithmetic,
    cm_type_arithmetic,
    gb_arithmetic,
    hilbert_arithmetic,
    irred_dec_arithmetic,
    is_gorenstein,
    reg_arithmetic,
)
from .gen_forms import (
    GenHilbert,
    gb_generalized,
    hilbert_generalized,
    hs_n3,
    irred_dec_generalized,
    is_cm_generalized,
    is_complete_intersection,
    not_cm_witness,
    reg_generalized,
)
from .grobner import (
    GroebnerBasis,
    buchberger,
    initial_ideal,
    is_generated_by_quadrics,
    reduce_basis,
    toric_ideal,
)
from .koszul import N3_KOSZUL, N4_KOSZUL, quadratic_gb_witness
from .monideal import (
    MonomialIdeal,
    _polyadd,
    _trim,
    cm_type_oracle,
    cm_via_initial,
    fitted_polynomial,
    hs_general_split,
    hs_numerator,
    is_nested_type,
    last_step_check,
    reg_nested_type,
)
from .poly import Binomial, TermOrder, is_member_binomial
from .seq import (ArithmeticProfile, CurveSequence, GeneralizedProfile, arithmetic_profile,
                  generalized_profile, min_multiple)


class Curve:
    """One curve as the claims read it: its sequence and the profile of its
    family (None: no closed form applies).  Every value below is computed once,
    on first use, by a function looked up on this module when it runs, so a
    function replaced here (a test double, or a tracing wrapper) is what runs."""

    def __init__(self, seq: CurveSequence,
                 profile: ArithmeticProfile | GeneralizedProfile | None = None):
        self.seq, self.profile = seq, profile

    @cached_property
    def closed_gb(self) -> list[Binomial] | None:
        """The closed-form basis, minimal but not reduced."""
        form = gb_arithmetic if isinstance(self.profile, ArithmeticProfile) else gb_generalized
        return self.profile and form(self.profile)

    @cached_property
    def hilbert(self) -> ArithHilbert | GenHilbert | None:
        """The closed-form Hilbert data."""
        arithmetic = isinstance(self.profile, ArithmeticProfile)
        form = hilbert_arithmetic if arithmetic else hilbert_generalized
        return self.profile and form(self.profile)

    @cached_property
    def gb(self) -> GroebnerBasis:
        """The oracle: the reduced degrevlex basis of I(C)."""
        return toric_ideal(self.seq)

    @cached_property
    def ini(self) -> MonomialIdeal:
        return initial_ideal(self.gb)

    @cached_property
    def cm_type(self) -> int:
        """The CM type, counted (NotCohenMacaulay when the curve is not CM)."""
        return cm_type_oracle(self.seq, self.ini)

    @cached_property
    def reg(self) -> int:
        """The regularity of in(I(C)), from its irreducible decomposition."""
        return reg_nested_type(self.ini)

    @cached_property
    def hs(self) -> tuple[int, ...]:
        """The Hilbert-series numerator of in(I(C))."""
        return hs_numerator(self.ini)

    def hf(self, top: int) -> list[int]:
        """The Hilbert function of R/in(I(C)) at the degrees 0..top-1, counted:
        the first `top` coefficients of K(t) / (1 - t)^n for the K-polynomial
        K in n variables, n prefix sums of K padded to `top` (the values of
        monideal.hf_quotient, in one pass)."""
        values = (list(self.ini.k_polynomial) + [0] * top)[:top]
        for _ in range(self.ini.nvars):
            values = list(itertools.accumulate(values))
        return values


class Claim(NamedTuple):
    """A claim of the paper: the InvariantReport field it settles, and its
    closed and oracle sides (Curve -> value, or None)."""

    name: str
    closed: Callable[[Curve], Any] | None
    oracle: Callable[[Curve], Any] | None


def _cm(c: Curve) -> bool:
    return cm_via_initial(c.ini)


# the Hilbert-series claims of every family; a closed side is None without a closed form
_HILBERT_CLAIMS = (
    Claim("hs_numerator", lambda c: c.hilbert.hs_numerator if c.hilbert else None,
          lambda c: c.hs),
    Claim("hilbert_polynomial",
          lambda c: (c.hilbert.hp_slope, c.hilbert.hp_constant) if c.hilbert else None,
          lambda c: fitted_polynomial(c.ini, c.reg)),
)

# each family's claims, in the order they are settled
CLAIMS: dict[type, tuple[Claim, ...]] = {
    ArithmeticProfile: (
        Claim("cm", lambda c: True, _cm),
        Claim("cm_type", lambda c: cm_type_arithmetic(c.profile), lambda c: c.cm_type),
        Claim("gorenstein", lambda c: is_gorenstein(c.profile), lambda c: c.cm_type == 1),
        Claim("complete_intersection", lambda c: is_complete_intersection(c.seq),
              lambda c: len(c.gb.elements) == c.seq.n - 1),
        Claim("hf_regularity", lambda c: c.hilbert.hf_reg, None),
        Claim("betti1", lambda c: betti1_arithmetic(c.profile), lambda c: len(c.gb.elements)),
        Claim("regularity", lambda c: reg_arithmetic(c.profile), lambda c: c.reg),
        *_HILBERT_CLAIMS,
    ),
    GeneralizedProfile: (
        Claim("cm", lambda c: is_cm_generalized(c.seq), _cm),
        # h >= 2: not Cohen-Macaulay, so not Gorenstein
        Claim("gorenstein", lambda c: False, lambda c: _cm(c) and c.cm_type == 1),
        Claim("complete_intersection", lambda c: is_complete_intersection(c.seq), None),
        Claim("betti1", lambda c: len(c.closed_gb), lambda c: len(c.gb.elements)),
        Claim("regularity", lambda c: reg_generalized(c.profile), lambda c: c.reg),
        *_HILBERT_CLAIMS,
    ),
    type(None): (
        Claim("cm", None, _cm),
        Claim("cm_type", None, lambda c: c.cm_type if _cm(c) else None),
        Claim("gorenstein", None, lambda c: c.cm_type == 1 if _cm(c) else None),
        Claim("regularity", None, lambda c: c.reg),
        *_HILBERT_CLAIMS,
    ),
}


def _closed_checks(c: Curve, reg: int) -> dict[str, bool]:
    """The closed basis and Hilbert function (at 0..reg+3, beyond the
    regularity `reg`) against the oracle's, and every claim of the curve's
    family with both sides, as closed == oracle."""
    return {
        "gb_equals_oracle": set(reduce_basis(c.closed_gb, c.gb.order)) == c.gb.element_set(),
        "hf_counts": all(c.hilbert.hf_at(s) == v for s, v in enumerate(c.hf(reg + 4))),
        **{claim.name: claim.closed(c) == claim.oracle(c)
           for claim in CLAIMS[type(c.profile)] if claim.closed and claim.oracle},
    }


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


def check_arithmetic_instance(seq: CurveSequence) -> dict[str, bool]:
    """Every claim of the arithmetic family against the oracle."""
    prof = arithmetic_profile(seq)
    c = Curve(seq, prof)
    reg = reg_arithmetic(prof)
    return {
        **_closed_checks(c, reg),
        "nested_type": is_nested_type(c.ini),
        "reg_h_degree": reg == len(c.hilbert.hs_numerator) - 1,
        "decomposition": irred_dec_arithmetic(prof) == c.ini.decomposition,
        "min_multiple": min_multiple(seq) == prof.alpha + 1,
        "split_correction_zero": hs_general_split(c.ini)[1] == (),
    }


def check_generalized_instance(seq: CurveSequence) -> dict[str, bool]:
    """Every claim of the h >= 2, h | d family against the oracle."""
    prof = generalized_profile(seq)
    c = Curve(seq, prof)
    reg = reg_generalized(prof)
    tail_ini = initial_ideal(toric_ideal(CurveSequence(seq.m[1:])))
    checks = {
        **_closed_checks(c, reg),
        "not_cm_witness_found": not_cm_witness(seq) is not None,
        "elimination_equality": c.ini.restrict(1) == tail_ini,
        "nested_type": is_nested_type(c.ini),
        "reg_last_component": reg == prof.delta + prof.beta[prof.delta_prime - 1] - 2,
        "last_step": last_step_check(c.ini, reg),
        "decomposition": irred_dec_generalized(prof) == c.ini.decomposition,
        "min_multiple": min_multiple(seq) == prof.delta,
    }
    if seq.n == 3:
        checks["hs_n3_cross"] = hs_n3(prof) == c.hilbert.hs_numerator
    return checks


def _check_koszul_list(seq: CurveSequence, koszul: frozenset) -> dict[str, bool]:
    """A Koszul list against the oracle: quadric generation iff listed, and a
    quadratic Groebner basis for every listed sequence."""
    gb = toric_ideal(seq)
    listed = seq.m in koszul
    checks = {"quadric_iff_listed": is_generated_by_quadrics(gb) == listed}
    if listed:
        checks["quadratic_gb_witness"] = quadratic_gb_witness(gb) is not None
    return checks


def check_koszul_n3_instance(seq: CurveSequence) -> dict[str, bool]:
    return _check_koszul_list(seq, N3_KOSZUL)


def check_koszul_n4_instance(seq: CurveSequence) -> dict[str, bool]:
    return _check_koszul_list(seq, N4_KOSZUL)


def check_random_instance(seq: CurveSequence) -> dict[str, bool]:
    """Structural invariants that hold for arbitrary sequences."""
    curve = Curve(seq)
    gb, ini, reg, num = curve.gb, curve.ini, curve.reg, curve.hs
    rng = random.Random(hash(seq.m) & 0xFFFF)
    dec = ini.decomposition if not ini.is_zero else None
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
        "hf_convolution": all(v == convolved(s) for s, v in enumerate(curve.hf(reg + 4))),
        "split_combination": _trim(_polyadd(list(main), [0] + [-c for c in corr])) == num,
        "witness_implies_not_cm": (witness is None) or (not cm),
        "cm_implies_zero_correction": (not cm) or corr == (),
    }


class Family(NamedTuple):
    """A sweep family: its config type, the instances of a config, and the
    per-instance checker."""

    config: type
    instances: Callable[[Any], Iterator[CurveSequence]]
    check: Callable[[CurveSequence], dict[str, bool]]


FAMILIES = {
    "arithmetic": Family(ArithmeticSweep, arithmetic_instances, check_arithmetic_instance),
    "generalized": Family(GeneralizedSweep, generalized_instances, check_generalized_instance),
    "n3": Family(KoszulN3Sweep, lambda cfg: koszul_instances(3, cfg.max_mn),
                 check_koszul_n3_instance),
    "n4": Family(KoszulN4Sweep, lambda cfg: koszul_instances(4, cfg.max_mn),
                 check_koszul_n4_instance),
    "random": Family(RandomSweep, random_instances, check_random_instance),
}
