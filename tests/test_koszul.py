"""Koszul classification: lists, necessary conditions, decision cascade."""

import pytest

from mcurve.errors import DegreeCapExceeded, GcdViolation, NotGeneralizedArithmetic, WrongN
from mcurve.grobner import toric_ideal
from mcurve.koszul import (
    N3_KOSZUL,
    N4_KOSZUL,
    KoszulStatus,
    is_geometric,
    koszul_generalized,
    koszul_listed,
    koszul_status,
    necessary_quadric_conditions,
    quadratic_gb_witness,
)
from mcurve.seq import CurveSequence, parse_sequence

# the reasons (before any ":" detail) that may back each verdict of koszul_status
SUFFICIENT = ("classified_generalized", "listed_n3", "listed_n4", "geometric", "quadratic_gb")
NECESSARY = ("classified_generalized", "listed_n3", "listed_n4",
             "fails_necessary_quadric", "fails_quadric_generation")


class TestGeneralizedCriterion:
    def test_consecutive(self):
        assert koszul_generalized(CurveSequence((1, 2, 3)))
        assert koszul_generalized(CurveSequence((4, 5, 6, 7, 8)))

    def test_non_consecutive(self):
        assert not koszul_generalized(parse_sequence("10,13,16,19,22"))

    def test_consecutive_but_short(self):
        # n <= m_1 fails the criterion even for consecutive terms
        assert not koszul_generalized(CurveSequence((4, 5, 6)))

    def test_rejects(self):
        with pytest.raises(NotGeneralizedArithmetic):
            koszul_generalized(CurveSequence((1, 2, 5)))
        with pytest.raises(GcdViolation):
            koszul_generalized(CurveSequence((2, 6, 10)))  # gcd(m1, d) = 2


class TestLists:
    def test_n3(self):
        assert koszul_listed(CurveSequence((1, 2, 4)))
        assert koszul_listed(CurveSequence((2, 3, 4)))
        assert not koszul_listed(CurveSequence((3, 5, 7)))
        with pytest.raises(GcdViolation):
            koszul_listed(CurveSequence((2, 4, 6)))

    def test_n4(self):
        assert koszul_listed(CurveSequence((4, 6, 7, 8)))
        assert koszul_listed(CurveSequence((1, 2, 3, 4)))
        assert not koszul_listed(CurveSequence((1, 2, 3, 7)))

    def test_unlisted_n(self):
        for m in ((1, 2), (1, 2, 3, 4, 5)):
            with pytest.raises(WrongN):
                koszul_listed(CurveSequence(m))

    def test_list_sizes(self):
        assert len(N3_KOSZUL) == 3 and len(N4_KOSZUL) == 14


class TestNecessaryConditions:
    def test_examples(self):
        assert not necessary_quadric_conditions(CurveSequence((1, 2, 3, 7)))  # i = 3 fails
        assert necessary_quadric_conditions(CurveSequence((1, 2, 4, 8)))
        assert not necessary_quadric_conditions(CurveSequence((3, 5, 7)))  # i = 1 fails

    def test_listed_sequences_all_pass(self):
        for m in N3_KOSZUL | N4_KOSZUL:
            assert necessary_quadric_conditions(CurveSequence(m)), m


class TestGeometric:
    def test_detection(self):
        assert is_geometric(CurveSequence((1, 2, 4, 8, 16)))
        assert is_geometric(CurveSequence((3, 6, 12)))
        assert not is_geometric(CurveSequence((1, 2, 3)))


class TestCascade:
    def test_geometric_family(self):
        st = koszul_status(CurveSequence((1, 2, 4, 8, 16)))
        assert st == KoszulStatus("koszul", "geometric")

    def test_listed_n4(self):
        st = koszul_status(CurveSequence((1, 2, 4, 8)))
        assert st == KoszulStatus("koszul", "listed_n4")

    def test_generalized_negative(self):
        st = koszul_status(parse_sequence("10,13,16,19,22"))
        assert st == KoszulStatus("not_koszul", "classified_generalized")

    def test_n3_via_gcd_normalization(self):
        # (2,4,6) is the curve of (1,2,3)
        st = koszul_status(CurveSequence((2, 4, 6)))
        assert st.verdict == "koszul"

    def test_cascade_oracle_region(self):
        # n = 5, non-generalized, non-geometric: oracle path decides
        st = koszul_status(CurveSequence((1, 2, 3, 4, 6)))
        assert st.verdict in ("koszul", "not_koszul", "unknown")
        if st.verdict == "koszul":
            assert st.reason.startswith("quadratic_gb") or st.reason in (
                "classified_generalized", "geometric")

    def test_oracle_stage_uses_the_given_basis(self):
        # a curve and its gcd-reduced sequence share the toric basis
        for m in [(1, 2, 3, 4, 6), (2, 4, 6, 8, 12), (2, 3, 4, 5, 6, 8)]:
            s = CurveSequence(m)
            assert koszul_status(s, toric_ideal(s)) == koszul_status(s), m
        s = CurveSequence((1, 2, 3, 4, 6))
        with pytest.raises(DegreeCapExceeded):
            koszul_status(s, toric_ideal(s)._replace(cap=2))

    def test_fall_through_is_legal(self):
        st = koszul_status(CurveSequence((1, 2, 5)))
        assert st.verdict in ("koszul", "not_koszul", "unknown")

    def test_audited_reasons(self):
        # koszul verdicts must carry a sufficient reason, not_koszul a necessary one
        for m in [(1, 2, 3), (1, 2, 4), (3, 5, 7), (1, 2, 5), (10, 13, 16, 19, 22),
                  (1, 2, 4, 8, 16), (1, 2, 3, 4, 6), (2, 3, 5, 7, 11)]:
            st = koszul_status(CurveSequence(m))
            base = st.reason.split(":")[0]
            if st.verdict == "koszul":
                assert base in SUFFICIENT, (m, st)
            elif st.verdict == "not_koszul":
                assert base in NECESSARY, (m, st)


class TestWitness:
    def test_all_14_have_quadratic_witness(self):
        for m in sorted(N4_KOSZUL):
            assert quadratic_gb_witness(toric_ideal(CurveSequence(m))) is not None, m

    def test_yweighted_only_case(self):
        # (1,2,4,6) with the weight-1 coordinate dominant has a quadratic basis
        from mcurve.grobner import has_quadratic_gb
        from mcurve.poly import yweighted
        assert has_quadratic_gb(toric_ideal(CurveSequence((1, 2, 4, 6))), yweighted(5, 0))
