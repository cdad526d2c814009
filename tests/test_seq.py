"""Sequence parsing, classification, and derived profiles."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcurve.errors import (
    GcdViolation,
    HNotDividingD,
    NonIncreasing,
    NonPositive,
    NotArithmetic,
    NotGeneralizedArithmetic,
    Overflow,
    TooShort,
)
from mcurve.seq import (
    CurveSequence,
    arithmetic_profile,
    classify,
    generalized_profile,
    min_multiple,
    parse_sequence,
)


class TestParse:
    def test_golden_example(self):
        s = parse_sequence("10,13,16,19,22")
        assert s.m == (10, 13, 16, 19, 22) and s.n == 5

    def test_minimal(self):
        assert parse_sequence("1,2").m == (1, 2)

    def test_rejects_unsorted(self):
        with pytest.raises(NonIncreasing):
            parse_sequence("5,3")

    def test_rejects_repeats(self):
        with pytest.raises(NonIncreasing):
            parse_sequence("3,3,5")

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositive):
            parse_sequence("0,2")
        with pytest.raises(NonPositive):
            parse_sequence("-3,2")

    def test_rejects_short_and_empty(self):
        with pytest.raises(TooShort):
            parse_sequence("7")
        with pytest.raises(TooShort):
            parse_sequence("  ")

    def test_rejects_huge(self):
        with pytest.raises(Overflow):
            parse_sequence("1,10000000000")
        # accepted before, then the closed-form Hilbert data exhausted memory
        with pytest.raises(Overflow, match="^entry 1000000000 exceeds limit 10000000$"):
            parse_sequence("1,1000000000")
        assert parse_sequence("1,10000000").mn == 10**7

    def test_huge_entry_is_an_input_error(self, run_python):
        # under an address-space cap, so that a regression fails instead of
        # exhausting the machine's memory
        proc = run_python("-c", "import resource, sys\n"
                          "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                          "from mcurve.cli import main\n"
                          "sys.exit(main(['invariants', '-m', '1,1000000000']))")
        assert proc.returncode == 2
        assert proc.stderr == "input error: entry 1000000000 exceeds limit 10000000\n"

    def test_rejects_garbage(self):
        with pytest.raises(NonPositive):
            parse_sequence("1,two")

    def test_with_gcd_one_divides_by_the_gcd(self):
        assert CurveSequence((4, 6)).with_gcd_one().m == (2, 3)
        s = CurveSequence((3, 5, 7))
        assert s.with_gcd_one() is s


class TestClassify:
    def test_arithmetic(self):
        cls = classify(parse_sequence("10,13,16,19,22"))
        assert cls.kind == "arithmetic" and (cls.h, cls.d) == (1, 3)
        assert cls.gcd_m1_d == 1

    def test_generalized(self):
        cls = classify(parse_sequence("7,30,39,48,57,66"))
        assert cls.kind == "generalized" and (cls.h, cls.d) == (3, 9)

    def test_general_fallback(self):
        # 2 = h + d and 5 = h + 2d force d = 3, h = -1: infeasible
        cls = classify(CurveSequence((1, 2, 5)))
        assert cls.kind == "general" and cls.h is None

    def test_pair_is_arithmetic(self):
        cls = classify(CurveSequence((3, 8)))
        assert cls.kind == "arithmetic" and cls.d == 5

    def test_gcd_fields(self):
        cls = classify(CurveSequence((2, 35, 46, 57, 68)))
        assert cls.kind == "generalized" and (cls.h, cls.d) == (12, 11)
        assert cls.gcd_m1_d == 1

    @given(
        m1=st.integers(1, 40),
        h=st.integers(1, 5),
        d=st.integers(1, 12),
        n=st.integers(3, 7),
    )
    @settings(max_examples=300)
    def test_classify_inverts_construction(self, m1, h, d, n):
        m = (m1,) + tuple(h * m1 + i * d for i in range(1, n))
        if h * m1 + d <= m1:
            return
        cls = classify(CurveSequence(m))
        expected_h = 1 if (h * m1 + d) - m1 == d else h
        # h is forced by the gap structure except when h*m1 = m1 + (h-1)*m1 fits h = 1
        if expected_h == 1:
            assert cls.kind == "arithmetic"
        else:
            assert (cls.h, cls.d) == (h, d) and cls.kind == "generalized"


class TestArithmeticProfile:
    def test_golden_10_22(self):
        p = arithmetic_profile(parse_sequence("10,13,16,19,22"))
        assert (p.q, p.r, p.alpha, p.k) == (2, 2, 5, 3)
        assert (p.c, p.tau) == (2, 1)

    def test_golden_4_8(self):
        p = arithmetic_profile(parse_sequence("4,5,6,7,8"))
        assert (p.q, p.r, p.alpha, p.k) == (0, 4, 1, 1)
        assert p.tau == 3

    def test_3_5_7_identity(self):
        s = parse_sequence("3,5,7")
        p = arithmetic_profile(s)
        assert (p.q, p.r, p.alpha, p.k, p.tau) == (1, 1, 3, 2, 2)
        for i in range(1, p.k + 1):
            assert p.alpha * s.m1 + s.m[i - 1] == s.m[s.n - p.k + i - 1] + p.q * s.mn

    def test_residue_boundaries(self):
        # r = n-1 (m_1 divisible position) and r = 1
        p = arithmetic_profile(CurveSequence((4, 5, 6, 7, 8)))
        assert p.r == 4 == 5 - 1
        p = arithmetic_profile(CurveSequence((5, 6, 7, 8, 9)))
        assert p.r == 1 and p.k == 4

    def test_m1_equal_one(self):
        p = arithmetic_profile(CurveSequence((1, 2, 3)))
        assert (p.q, p.r, p.alpha, p.k) == (0, 1, 1, 2)
        assert p.tau == 2 and p.c == -1

    def test_rejects_non_arithmetic(self):
        with pytest.raises(NotArithmetic):
            arithmetic_profile(CurveSequence((7, 30, 39, 48, 57, 66)))
        with pytest.raises(NotArithmetic):
            arithmetic_profile(CurveSequence((1, 2, 5)))  # no (h, d) fit at all

    def test_rejects_gcd(self):
        with pytest.raises(GcdViolation):
            arithmetic_profile(CurveSequence((2, 4, 6)))


class TestGeneralizedProfile:
    def test_golden_example(self):
        p = generalized_profile(parse_sequence("7,30,39,48,57,66"))
        assert p.delta == 15 and p.delta_prime == 5
        assert p.beta == (6, 5, 3, 2, 1, 0)
        assert p.sigma == (4, 3, 6, 5, 4, 3)
        assert p.lam == (2, 2, 1, 1, 1, 1)

    def test_beta0_closed_form(self):
        s = parse_sequence("7,30,39,48,57,66")
        p = generalized_profile(s)
        assert p.beta[0] == (66 - 3) // (18 - 6) + 1 == 6

    def test_defining_identity(self):
        s = parse_sequence("7,30,39,48,57,66")
        p = generalized_profile(s)
        for j in range(p.delta_prime + 1):
            assert (j * p.h * s.m1 + p.beta[j] * s.m[1]
                    == s.m[p.sigma[j] - 1] + p.lam[j] * s.mn)

    def test_rejects_h_one(self):
        with pytest.raises(NotGeneralizedArithmetic):
            generalized_profile(CurveSequence((10, 13, 16, 19, 22)))

    def test_rejects_h_not_dividing(self):
        with pytest.raises(HNotDividingD):
            generalized_profile(CurveSequence((2, 35, 46, 57, 68)))  # h=12, d=11

    def test_rejects_gcd(self):
        # h = 3, d = 6, gcd(m_1, d) = 2
        with pytest.raises(GcdViolation):
            generalized_profile(CurveSequence((4, 18, 24, 30)))

    @given(
        m1=st.integers(1, 25),
        h=st.integers(2, 4),
        e=st.integers(1, 4),
        n=st.integers(3, 7),
    )
    @settings(max_examples=300)
    def test_recursion_matches_closed_form_on_sweep(self, m1, h, e, n):
        # constructing the profile asserts recursion == closed form internally
        d = h * e
        if math.gcd(m1, d) != 1:
            return
        m = (m1,) + tuple(h * m1 + i * d for i in range(1, n))
        if m[1] <= m[0]:
            return
        p = generalized_profile(CurveSequence(m))
        assert p.beta[p.delta_prime] == 0
        assert p.sigma[p.delta_prime] == p.s + 1
        assert p.lam[p.delta_prime] == p.p
        assert all(b1 > b2 for b1, b2 in zip(p.beta, p.beta[1:]))


def _min_multiple_brute(m: tuple[int, ...]) -> int:
    """Independent oracle: bounded exhaustive search over coefficient tuples."""
    import itertools
    for b in range(1, 200):
        target = b * m[0]
        bounds = [target // v for v in m[1:]]
        for combo in itertools.product(*(range(x + 1) for x in bounds)):
            if sum(c * v for c, v in zip(combo, m[1:])) == target:
                return b
    raise AssertionError("no multiple found")


def _min_multiple_by_bytearray(m: tuple[int, ...]) -> int:
    """Reference: the DP over one byte per value up to m_1 m_2, each
    generator's multiples added by a scan over every value."""
    limit = m[0] * m[1]
    reach = bytearray(limit + 1)
    reach[0] = 1
    for v in m[1:]:
        for x in range(v, limit + 1):
            if reach[x - v]:
                reach[x] = 1
    return next(b for b in range(1, m[1] + 1) if reach[b * m[0]])


class TestMinMultiple:
    @given(m=st.lists(st.integers(1, 90), min_size=2, max_size=6, unique=True).map(sorted))
    @example(m=[1, 2])
    @example(m=[2, 3])
    @example(m=[89, 90])
    @example(m=[5, 26, 32, 38])
    @settings(max_examples=300)
    def test_same_as_the_bytearray_dp(self, m):
        assert min_multiple(CurveSequence(tuple(m))) == _min_multiple_by_bytearray(tuple(m))

    def test_golden_arithmetic(self):
        assert min_multiple(parse_sequence("10,13,16,19,22")) == 6
        assert _min_multiple_brute((10, 13, 16, 19, 22)) == 6

    def test_golden_generalized(self):
        assert min_multiple(parse_sequence("7,30,39,48,57,66")) == 15

    def test_trivial_pair(self):
        assert min_multiple(CurveSequence((1, 2))) == 2

    def test_matches_brute_force(self):
        for m in [(3, 5, 7), (4, 5, 6, 7, 8), (2, 9, 12), (5, 26, 32, 38), (1, 2, 5)]:
            assert min_multiple(CurveSequence(m)) == _min_multiple_brute(m)
            assert min_multiple(CurveSequence(m)) <= m[1]

    @given(
        m1=st.integers(1, 20),
        d=st.integers(1, 6),
        n=st.integers(2, 6),
    )
    @settings(max_examples=250)
    def test_equals_alpha_plus_one_on_arithmetic(self, m1, d, n):
        if math.gcd(m1, d) != 1:
            return
        s = CurveSequence(tuple(m1 + i * d for i in range(n)))
        assert min_multiple(s) == arithmetic_profile(s).alpha + 1

    @given(
        m1=st.integers(1, 15),
        h=st.integers(2, 3),
        e=st.integers(1, 3),
        n=st.integers(3, 6),
    )
    @settings(max_examples=250)
    def test_equals_delta_on_generalized(self, m1, h, e, n):
        d = h * e
        if math.gcd(m1, d) != 1:
            return
        s = CurveSequence((m1,) + tuple(h * m1 + i * d for i in range(1, n)))
        assert min_multiple(s) == generalized_profile(s).delta
