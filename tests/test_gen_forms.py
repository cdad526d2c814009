"""Closed forms for generalized arithmetic sequences (h >= 2, h | d)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcurve.errors import GcdViolation, NotGeneralizedArithmetic
from mcurve.gen_forms import (
    gb_generalized,
    hilbert_generalized,
    hs_n3,
    irred_dec_generalized,
    is_cm_generalized,
    is_complete_intersection,
    not_cm_witness,
    reg_generalized,
)
from mcurve.grobner import initial_ideal, reduce_basis, toric_ideal
from mcurve.monideal import (
    cm_via_initial,
    hf_quotient,
    hs_numerator,
    irreducible_decomposition,
    last_step_check,
    reg_nested_type,
)
from mcurve.poly import TermOrder, is_member_binomial
from mcurve.seq import CurveSequence, generalized_profile, parse_sequence
from textforms import parse_binomial

GOLDEN = parse_sequence("7,30,39,48,57,66")
GOLDEN_PROF = generalized_profile(GOLDEN)


def _witness_by_search(m):
    """Reference for `not_cm_witness` on the increasing tuple m: the first
    (indices, h, d, missing) by subsequence length, then start, each
    subsequence fitted inline."""
    n = len(m)
    for l in range(3, n + 1):
        for head in itertools.combinations(range(n - 1), l - 1):
            idx = head + (n - 1,)
            sub = [m[i] for i in idx]
            d = sub[2] - sub[1]
            rem = sub[1] - d
            if rem <= 0 or rem % sub[0] != 0:
                continue
            h = rem // sub[0]
            if h <= 1 or any(sub[t] != h * sub[0] + t * d for t in range(1, l)):
                continue
            if h * sub[0] not in m:
                return tuple(i + 1 for i in idx), h, d, h * sub[0]
    return None


class TestNotCmWitness:
    def test_golden_full_sequence(self):
        w = not_cm_witness(GOLDEN)
        assert w is not None
        assert (w.h, w.d) == (3, 9) and w.missing == 21
        assert w.indices == (1, 2, 3, 4, 5, 6)

    def test_arithmetic_has_none(self):
        assert not_cm_witness(parse_sequence("10,13,16,19,22")) is None

    def test_counterexample_sequence(self):
        w = not_cm_witness(parse_sequence("2,35,46,57,68"))
        assert w is not None and w.h > 1
        assert w.missing == w.h * 2 and w.missing not in (2, 35, 46, 57, 68)
        # the witness certifies the oracle verdict
        ini = initial_ideal(toric_ideal(parse_sequence("2,35,46,57,68")))
        assert not cm_via_initial(ini)

    @given(data=st.data())
    @settings(max_examples=400)
    def test_same_witness_as_the_inline_fit_search(self, data):
        # the reference fits each subsequence inline, apart from
        # seq.hd_fit; half the draws hold a planted generalized progression
        values = set(data.draw(st.lists(st.integers(1, 80), min_size=1, max_size=6)))
        if data.draw(st.booleans()):
            m1, h, d = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4)), data.draw(
                st.integers(1, 10))
            values |= {m1} | {h * m1 + t * d for t in range(data.draw(st.integers(1, 4)))}
        m = tuple(sorted(values))
        if len(m) < 2:
            return
        w = not_cm_witness(CurveSequence(m))
        assert (None if w is None else tuple(w)) == _witness_by_search(m)

    def test_witness_implies_oracle_non_cm(self):
        for m in [(7, 30, 39, 48, 57, 66), (2, 9, 12, 15), (3, 10, 14), (1, 5, 7, 9)]:
            s = CurveSequence(m)
            w = not_cm_witness(s)
            if w is not None:
                assert not cm_via_initial(initial_ideal(toric_ideal(s)))


class TestCmAndCi:
    def test_cm_iff_arithmetic(self):
        assert not is_cm_generalized(GOLDEN)
        assert is_cm_generalized(parse_sequence("10,13,16,19,22"))
        assert is_cm_generalized(CurveSequence((3, 5, 7)))

    def test_ci_examples(self):
        assert is_complete_intersection(CurveSequence((1, 2)))
        assert is_complete_intersection(CurveSequence((4, 7, 10)))
        assert not is_complete_intersection(CurveSequence((3, 5, 7)))
        assert not is_complete_intersection(GOLDEN)

    def test_ci_matches_oracle_generator_count(self):
        assert len(toric_ideal(CurveSequence((4, 7, 10))).elements) == 2
        assert len(toric_ideal(CurveSequence((3, 5, 7))).elements) == 3

    def test_rejects_general(self):
        with pytest.raises(NotGeneralizedArithmetic):
            is_cm_generalized(CurveSequence((1, 2, 5)))


class TestGroebnerClosedForm:
    def test_golden_contains_expected_elements(self):
        basis = gb_generalized(GOLDEN_PROF)
        assert len(basis) == 18
        assert parse_binomial("x1^3*x6 - x2*x5*x7^2", 7) in basis
        assert parse_binomial("x1^3*x2^5 - x3*x6^2*x7^5", 7) in basis
        # j = delta/h element: x1^15 - x3 x6 x7^13 (sigma = s+1 = 3, lambda = p = 1)
        assert parse_binomial("x1^15 - x3*x6*x7^13", 7) in basis

    def test_cardinality_formula(self):
        # C(n-2, 2) + k' + (n-2) + delta/h with k' from the tail curve
        prof = GOLDEN_PROF
        assert prof.tail.seq == CurveSequence(tuple(v // prof.h for v in GOLDEN.m[1:]))
        n = GOLDEN.n
        expected = math.comb(n - 2, 2) + prof.tail.k + (n - 2) + prof.delta_prime
        assert len(gb_generalized(prof)) == expected == 18

    def test_membership(self):
        for b in gb_generalized(GOLDEN_PROF):
            assert is_member_binomial(GOLDEN, b)

    def test_oracle_equality(self):
        for m in [(7, 30, 39, 48, 57, 66), (3, 10, 14), (2, 9, 12, 15), (5, 24, 28, 32, 36)]:
            s = CurveSequence(m)
            closed = reduce_basis(gb_generalized(generalized_profile(s)), TermOrder(s.n + 1))
            assert set(closed) == toric_ideal(s).element_set()


class TestDecomposition:
    def test_golden(self):
        dec = irred_dec_generalized(GOLDEN_PROF)
        oracle = irreducible_decomposition(initial_ideal(toric_ideal(GOLDEN)))
        assert dec == oracle

    def test_last_component_regularity(self):
        dec = irred_dec_generalized(GOLDEN_PROF)
        assert max(c.regularity() for c in dec.components) == 14

    def test_irredundancy_witness_monomials(self):
        # x1^{jh-1} x2^{beta_{j-1}-1} lies outside the initial ideal
        prof = GOLDEN_PROF
        ini = initial_ideal(toric_ideal(GOLDEN))
        for j in range(2, prof.delta_prime + 1):
            m = [0] * 7
            m[0] = j * prof.h - 1
            m[1] = prof.beta[j - 1] - 1
            assert not ini.contains(tuple(m))


class TestRegularity:
    def test_goldens(self):
        assert reg_generalized(GOLDEN_PROF) == 14
        assert reg_generalized(generalized_profile(CurveSequence((5, 24, 28, 32, 36)))) == 11

    def test_oracle_agreement(self):
        for m in [(7, 30, 39, 48, 57, 66), (3, 10, 14), (5, 14, 18), (2, 9, 12, 15)]:
            s = CurveSequence(m)
            ini = initial_ideal(toric_ideal(s))
            reg = reg_generalized(generalized_profile(s))
            assert reg == reg_nested_type(ini)
            assert last_step_check(ini, reg)

    def test_divisibility_case(self):
        s = CurveSequence((3, 10, 14))  # n-1 = 2 does not divide m_1 = 3
        prof = generalized_profile(s)
        assert reg_generalized(prof) == prof.delta - 1
        s2 = CurveSequence((2, 9, 12))  # n-1 = 2 divides m_1 = 2 -> delta
        prof2 = generalized_profile(s2)
        assert reg_generalized(prof2) == prof2.delta
        assert reg_generalized(prof2) == reg_nested_type(initial_ideal(toric_ideal(s2)))

    def test_gcd_precondition_rejected(self):
        # (4,18,24,30) has gcd(m_1, d) = 2; the equivalent reduced curve
        # (2,9,12,15) is the object the closed form speaks about
        with pytest.raises(GcdViolation):
            generalized_profile(CurveSequence((4, 18, 24, 30)))
        assert reg_nested_type(initial_ideal(toric_ideal(CurveSequence((4, 18, 24, 30))))) == 5
        assert reg_generalized(generalized_profile(CurveSequence((2, 9, 12, 15)))) == 5


class TestHilbert:
    def test_golden_numerator(self):
        hil = hilbert_generalized(GOLDEN_PROF)
        assert hil.hs_numerator == (1, 5, 9, 13, 13, 13, 10, 6, 1, -1, -1, -1, 0, -1, 0, -1)

    def test_golden_polynomial(self):
        hil = hilbert_generalized(GOLDEN_PROF)
        assert (hil.hp_slope, hil.hp_constant) == (66, -165)
        assert hil.gamma == -44

    def test_hf_matches_counting(self):
        for m in [(7, 30, 39, 48, 57, 66), (3, 10, 14), (5, 14, 18), (2, 9, 12, 15)]:
            s = CurveSequence(m)
            ini = initial_ideal(toric_ideal(s))
            prof = generalized_profile(s)
            hil = hilbert_generalized(prof)
            reg = reg_generalized(prof)
            for t, value in enumerate(hf_quotient(ini, reg + 4)):
                assert hil.hf_at(t) == value, (m, t)

    def test_polynomial_matches_fitted_line(self):
        for m in [(7, 30, 39, 48, 57, 66), (3, 10, 14), (2, 9, 12, 15)]:
            s = CurveSequence(m)
            ini = initial_ideal(toric_ideal(s))
            prof = generalized_profile(s)
            hil = hilbert_generalized(prof)
            reg = reg_generalized(prof)
            a, b = hf_quotient(ini, reg + 4)[reg + 2:]
            slope = b - a
            assert (slope, b - slope * (reg + 3)) == (hil.hp_slope, hil.hp_constant)

    def test_numerator_matches_oracle(self):
        for m in [(7, 30, 39, 48, 57, 66), (3, 10, 14), (5, 24, 28, 32, 36)]:
            s = CurveSequence(m)
            assert hilbert_generalized(generalized_profile(s)).hs_numerator == hs_numerator(
                initial_ideal(toric_ideal(s)))

    def test_delta_stabilizes(self):
        prof = GOLDEN_PROF
        hil = hilbert_generalized(prof)
        tail_total = prof.h * sum(prof.beta[1:prof.delta_prime])
        assert hil.delta_at(100) == hil.delta_at(200) == tail_total == 33


class TestHsN3:
    CASES = {
        (1, 4, 6): "delta=2h, m1 odd",
        (2, 9, 12): "delta=2h, m1 even",
        (3, 10, 14): "h=2",
        (5, 14, 18): "h=2",
        (5, 18, 21): "h>=3, m1 odd",
        (4, 15, 18): "h>=3, m1 even",
    }

    def test_cross_formula_equality(self):
        for m in self.CASES:
            prof = generalized_profile(CurveSequence(m))
            assert hs_n3(prof) == hilbert_generalized(prof).hs_numerator, m

    def test_rejects_wrong_n(self):
        from mcurve.errors import CaseNotApplicable
        with pytest.raises(CaseNotApplicable):
            hs_n3(GOLDEN_PROF)
        with pytest.raises(NotGeneralizedArithmetic):  # no profile, hence no hs_n3 call
            generalized_profile(CurveSequence((1, 2, 5)))

    @given(m1=st.integers(1, 20), h=st.integers(2, 5), e=st.integers(1, 4))
    @settings(max_examples=250)
    def test_cross_formula_on_sweep(self, m1, h, e):
        d = h * e
        if math.gcd(m1, d) != 1:
            return
        prof = generalized_profile(CurveSequence((m1, h * m1 + d, h * m1 + 2 * d)))
        assert hs_n3(prof) == hilbert_generalized(prof).hs_numerator
