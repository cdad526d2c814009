"""Closed forms for arithmetic sequences, pinned against oracle values."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcurve.arith_forms import (
    _require_oriented_members,
    betti1_arithmetic,
    cm_type_arithmetic,
    gb_arithmetic,
    hilbert_arithmetic,
    irred_dec_arithmetic,
    is_gorenstein,
    reg_arithmetic,
)
from mcurve.errors import InvariantViolation
from mcurve.grobner import reduce_basis, toric_ideal
from mcurve.monideal import (
    cm_type_oracle,
    hf_quotient,
    irreducible_decomposition,
    reg_nested_type,
)
from mcurve.poly import Binomial, TermOrder, is_member_binomial
from mcurve.seq import CurveSequence, arithmetic_profile, parse_sequence
from textforms import parse_binomial

GOLDEN = parse_sequence("10,13,16,19,22")


class TestGroebnerClosedForm:
    def test_pair(self):
        got = gb_arithmetic(arithmetic_profile(CurveSequence((1, 2))))
        assert got == [parse_binomial("x1^2 - x2*x3", 3)]

    def test_twisted_cubic(self):
        got = set(gb_arithmetic(arithmetic_profile(CurveSequence((1, 2, 3)))))
        expected = {parse_binomial(t, 4) for t in
                    ["x2^2 - x1*x3", "x1^2 - x2*x4", "x1*x2 - x3*x4"]}
        assert got == expected

    def test_golden_alpha_family(self):
        basis = gb_arithmetic(arithmetic_profile(GOLDEN))
        assert len(basis) == 9
        assert parse_binomial("x1^6 - x3*x5^2*x6^3", 6) in basis

    def test_membership_of_every_element(self):
        for m in [(1, 2), (3, 5, 7), (5, 7, 9, 11), (10, 13, 16, 19, 22)]:
            s = CurveSequence(m)
            for b in gb_arithmetic(arithmetic_profile(s)):
                assert is_member_binomial(s, b)

    def test_oracle_equality_after_self_reduction(self):
        for m in [(1, 2), (1, 2, 3), (3, 5, 7), (10, 13, 16, 19, 22), (4, 5, 6, 7, 8)]:
            s = CurveSequence(m)
            closed = reduce_basis(gb_arithmetic(arithmetic_profile(s)), TermOrder(s.n + 1))
            assert set(closed) == toric_ideal(s).element_set()

    def test_misoriented_element_raises(self):
        # reduce_basis takes the closed form as oriented: the check must hold
        basis = gb_arithmetic(arithmetic_profile(GOLDEN))
        swapped = [Binomial(g.trail, g.lead) if i == 3 else g for i, g in enumerate(basis)]
        with pytest.raises(InvariantViolation, match="misoriented"):
            _require_oriented_members(GOLDEN, swapped, TermOrder(6))


class TestDecomposition:
    def test_golden_exponents(self):
        prof = arithmetic_profile(GOLDEN)
        dec = irred_dec_arithmetic(prof)
        x1_exps = sorted(dict(c.powers)[0] for c in dec.components)
        assert x1_exps == [5, 5, 6]
        assert dec == irreducible_decomposition(toric_ideal(GOLDEN).initial)

    def test_k_equals_one(self):
        # k = 1: every component of in(I(C)) = <x1^2, x_i x_j : 2<=i<=j<=4>
        # carries the bumped exponent alpha + 1 = 2
        s = parse_sequence("4,5,6,7,8")
        dec = irred_dec_arithmetic(arithmetic_profile(s))
        x1_exps = sorted(dict(c.powers)[0] for c in dec.components)
        assert x1_exps == [2, 2, 2]
        assert dec == irreducible_decomposition(toric_ideal(s).initial)

    def test_k_equals_n_minus_one_appends_component(self):
        s = CurveSequence((3, 5, 7))  # n=3, k=2=n-1
        prof = arithmetic_profile(s)
        dec = irred_dec_arithmetic(prof)
        assert len(dec.components) == 2
        powers = sorted(tuple(dict(c.powers).items()) for c in dec.components)
        assert powers == [((0, prof.alpha), (1, 2)), ((0, prof.alpha + 1), (1, 1))]
        assert dec == irreducible_decomposition(toric_ideal(s).initial)


class TestRegularity:
    def test_goldens(self):
        assert reg_arithmetic(arithmetic_profile(GOLDEN)) == 6
        assert reg_arithmetic(arithmetic_profile(parse_sequence("4,5,6,7,8"))) == 2
        assert reg_arithmetic(arithmetic_profile(CurveSequence((3, 5, 7)))) == 3

    def test_matches_oracle(self):
        for m in [(1, 2), (1, 2, 3), (3, 5, 7), (5, 8, 11, 14)]:
            s = CurveSequence(m)
            assert reg_arithmetic(arithmetic_profile(s)) == reg_nested_type(
                toric_ideal(s).initial)


class TestHilbert:
    def test_golden_numerator_and_polynomial(self):
        hil = hilbert_arithmetic(arithmetic_profile(GOLDEN))
        assert hil.hs_numerator == (1, 4, 4, 4, 4, 4, 1)
        assert (hil.hp_slope, hil.hp_constant) == (22, -44)
        assert hil.hf_reg == 5
        for s in range(5, 10):
            assert hil.hf_at(s) == 22 * s - 44

    def test_4_8_numerator_and_polynomial(self):
        hil = hilbert_arithmetic(arithmetic_profile(parse_sequence("4,5,6,7,8")))
        assert hil.hs_numerator == (1, 4, 3)
        assert hil.hf_at(0) == 1
        for s in range(1, 6):
            assert hil.hf_at(s) == 8 * s - 2
        assert hil.hf_reg == 1

    def test_hf_matches_counting(self):
        for m in [(1, 2), (3, 5, 7), (10, 13, 16, 19, 22)]:
            s = CurveSequence(m)
            ini = toric_ideal(s).initial
            prof = arithmetic_profile(s)
            hil = hilbert_arithmetic(prof)
            reg = reg_arithmetic(prof)
            for t, value in enumerate(hf_quotient(ini, reg + 4)):
                assert hil.hf_at(t) == value

    def test_numerator_degree_is_regularity(self):
        # Cohen-Macaulay: regularity equals the h-polynomial degree
        for m in [(1, 2), (3, 5, 7), (10, 13, 16, 19, 22), (4, 5, 6, 7, 8)]:
            prof = arithmetic_profile(CurveSequence(m))
            assert len(hilbert_arithmetic(prof).hs_numerator) - 1 == reg_arithmetic(prof)


class TestTypeAndGorenstein:
    def test_goldens(self):
        assert cm_type_arithmetic(arithmetic_profile(GOLDEN)) == 1
        assert cm_type_arithmetic(arithmetic_profile(parse_sequence("4,5,6,7,8"))) == 3
        assert cm_type_arithmetic(arithmetic_profile(CurveSequence((3, 5, 7)))) == 2

    def test_oracle_agreement(self):
        for m in [(1, 2), (1, 2, 3), (3, 5, 7), (5, 7, 9, 11), (4, 5, 6, 7, 8)]:
            s = CurveSequence(m)
            assert cm_type_arithmetic(arithmetic_profile(s)) == cm_type_oracle(
                s, toric_ideal(s))

    def test_gorenstein(self):
        assert is_gorenstein(arithmetic_profile(GOLDEN))            # 10 = 2 mod 4
        assert not is_gorenstein(arithmetic_profile(parse_sequence("4,5,6,7,8")))
        assert is_gorenstein(arithmetic_profile(CurveSequence((1, 2))))  # n = 2: mod 1 always

    def test_gorenstein_iff_type_one(self):
        for m in [(1, 2), (1, 2, 3), (3, 5, 7), (10, 13, 16, 19, 22), (4, 5, 6, 7, 8)]:
            prof = arithmetic_profile(CurveSequence(m))
            assert is_gorenstein(prof) == (cm_type_arithmetic(prof) == 1)


class TestBetti:
    def test_examples(self):
        assert betti1_arithmetic(arithmetic_profile(GOLDEN)) == 9
        assert betti1_arithmetic(arithmetic_profile(CurveSequence((1, 2)))) == 1
        assert betti1_arithmetic(arithmetic_profile(CurveSequence((3, 5, 7)))) == 3

    def test_equals_oracle_cardinality(self):
        for m in [(1, 2), (3, 5, 7), (10, 13, 16, 19, 22), (4, 5, 6, 7, 8)]:
            s = CurveSequence(m)
            assert betti1_arithmetic(arithmetic_profile(s)) == len(toric_ideal(s).elements)

    @given(m1=st.integers(1, 15), d=st.integers(1, 5), n=st.integers(2, 5))
    @settings(max_examples=200)
    def test_complete_intersection_criterion(self, m1, d, n):
        if math.gcd(m1, d) != 1:
            return
        s = CurveSequence(tuple(m1 + i * d for i in range(n)))
        b1 = betti1_arithmetic(arithmetic_profile(s))
        assert (b1 == n - 1) == (n == 2 or (n == 3 and m1 % 2 == 0))
