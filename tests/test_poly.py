"""Term orders, bidegrees, membership, text forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcurve.errors import DimensionMismatch
from mcurve.poly import (
    Binomial,
    TermOrder,
    bidegree,
    format_binomial,
    format_monomial,
    is_member_binomial,
    parse_order,
    yweighted,
)
from mcurve.seq import CurveSequence, arithmetic_profile
from orders import degrevlex_cheapest
from textforms import parse_binomial, parse_monomial


def _cmp(order, a, b):
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


class TestCompare:
    def test_degrevlex_prefers_early_support(self):
        o = TermOrder(4)
        assert _cmp(o, (1, 1, 0, 0), (0, 0, 1, 1)) == 1

    def test_degrevlex_alpha_family_orientation(self):
        # lead x_1^alpha x_i beats x_{n-k+i} x_n^q x_{n+1}^d at equal degree
        s = CurveSequence((10, 13, 16, 19, 22))
        p = arithmetic_profile(s)
        o = TermOrder(6)
        lead = (p.alpha, 1, 0, 0, 0, 0)
        trail = (0, 0, 1, 0, p.q, p.d)
        assert sum(lead) == sum(trail)
        assert _cmp(o, lead, trail) == 1

    def test_yweighted_dominates(self):
        o = yweighted(4, 2)  # y = x3
        assert _cmp(o, (0, 0, 2, 0), (1, 1, 0, 0)) == 1
        assert _cmp(o, (5, 5, 0, 0), (0, 0, 1, 0)) == -1

    def test_equal(self):
        assert _cmp(TermOrder(3), (1, 2, 0), (1, 2, 0)) == 0


def _orders(nvars):
    return [
        TermOrder(nvars),
        degrevlex_cheapest(nvars, 0),
        yweighted(nvars, nvars - 1),
        TermOrder(nvars, ((1, 1) + (0,) * (nvars - 2),)),  # block order on x1, x2
    ]


def _permuted_key(nvars, cheap):
    """Reference for degrevlex_cheapest: degrevlex after permuting the
    variables so that x_cheap comes last."""
    perm = [i for i in range(nvars) if i != cheap] + [cheap]

    def key(m):
        p = [m[i] for i in perm]
        return (sum(p), tuple(-e for e in reversed(p)))
    return key


monos = st.tuples(*([st.integers(0, 6)] * 5))


class TestOrderAxioms:
    @given(a=monos, b=monos, idx=st.integers(0, 3))
    @settings(max_examples=400)
    def test_antisymmetry_and_totality(self, a, b, idx):
        o = _orders(5)[idx]
        assert _cmp(o, a, b) == -_cmp(o, b, a)
        assert (_cmp(o, a, b) == 0) == (a == b)

    @given(a=monos, b=monos, c=monos, idx=st.integers(0, 3))
    @settings(max_examples=400)
    def test_transitivity(self, a, b, c, idx):
        o = _orders(5)[idx]
        if _cmp(o, a, b) >= 0 and _cmp(o, b, c) >= 0:
            assert _cmp(o, a, c) >= 0

    @given(a=monos, b=monos, c=monos, idx=st.integers(0, 3))
    @settings(max_examples=400)
    def test_multiplicativity(self, a, b, c, idx):
        o = _orders(5)[idx]
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert _cmp(o, a, b) == _cmp(o, ac, bc)

    @given(a=monos, idx=st.integers(0, 3))
    @settings(max_examples=200)
    def test_one_is_smallest(self, a, idx):
        o = _orders(5)[idx]
        assert _cmp(o, a, (0, 0, 0, 0, 0)) >= 0

    @given(a=monos, b=monos, cheap=st.integers(0, 4))
    @settings(max_examples=400)
    def test_cheapest_matches_permuted_degrevlex(self, a, b, cheap):
        ref = _permuted_key(5, cheap)
        assert _cmp(degrevlex_cheapest(5, cheap), a, b) == (ref(a) > ref(b)) - (ref(a) < ref(b))


class TestBidegree:
    def test_direct_substitution(self):
        s = CurveSequence((1, 2, 3))
        assert bidegree(s, (2, 0, 0, 0)) == (2, 4)

    def test_kernel_pair(self):
        s = CurveSequence((1, 2, 3))
        assert bidegree(s, (2, 0, 0, 0)) == bidegree(s, (0, 1, 0, 1))

    def test_alpha_identity_instance(self):
        # alpha*m_1 + m_1 = m_3 + 2 m_5 = 60 for (10,...,22)
        s = CurveSequence((10, 13, 16, 19, 22))
        assert bidegree(s, (6, 0, 0, 0, 0, 0)) == (60, 72)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bidegree(CurveSequence((1, 2, 3)), (1, 0, 0))

    @given(
        a=st.tuples(*([st.integers(0, 4)] * 4)),
        b=st.tuples(*([st.integers(0, 4)] * 4)),
    )
    @settings(max_examples=300)
    def test_additivity_and_homogeneity(self, a, b):
        s = CurveSequence((3, 5, 7))
        ab = tuple(x + y for x, y in zip(a, b))
        left = bidegree(s, ab)
        right = (bidegree(s, a)[0] + bidegree(s, b)[0],
                 bidegree(s, a)[1] + bidegree(s, b)[1])
        assert left == right
        assert left[0] + left[1] == sum(ab) * s.mn


class TestMembership:
    def test_twisted_cubic_quadric(self):
        s = CurveSequence((1, 2, 3))
        assert is_member_binomial(s, Binomial((0, 2, 0, 0), (1, 0, 1, 0)))

    def test_quartic_member(self):
        s = CurveSequence((3, 5, 7))
        assert is_member_binomial(s, Binomial((3, 1, 0, 0), (0, 0, 2, 2)))

    def test_non_member(self):
        s = CurveSequence((1, 2, 3))
        assert not is_member_binomial(s, Binomial((1, 1, 0, 0), (0, 1, 0, 1)))


class TestTextForms:
    def test_monomial_round_trip(self):
        m = (3, 1, 0, 0, 0, 0, 2)
        assert format_monomial(m) == "x1^3*x2*x7^2"
        assert parse_monomial("x1^3*x2*x7^2", 7) == m

    def test_unit(self):
        assert format_monomial((0, 0)) == "1"
        assert parse_monomial("1", 2) == (0, 0)

    def test_binomial_round_trip(self):
        b = Binomial((3, 5, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 2, 5))
        text = format_binomial(b)
        assert text == "x1^3*x2^5 - x3*x6^2*x7^5"
        assert parse_binomial(text, 7) == b

    @given(m=st.tuples(*([st.integers(0, 9)] * 6)))
    @settings(max_examples=200)
    def test_round_trip_property(self, m):
        assert parse_monomial(format_monomial(m), 6) == m

    def test_parse_order(self):
        assert parse_order("degrevlex", 5) == TermOrder(5)
        assert parse_order("yweighted:x3", 5) == yweighted(5, 2)
        for text in ("lex", "yweighted:x", "yweighted:xabc", "yweighted:x+1", "yweighted:x 1"):
            with pytest.raises(ValueError) as exc:
                parse_order(text, 5)
            assert str(exc.value) == f"unknown order {text!r}"
        # every order name that gb headers and Koszul reasons print parses back
        for nv in range(2, 8):
            for o in [TermOrder(nv)] + [yweighted(nv, y) for y in range(nv)]:
                assert parse_order(o.name, nv) == o
