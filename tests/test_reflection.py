"""Reflection s <-> t as an outside check on the oracle.

Swapping s and t sends the curve of m to that of m* = (the sorted m_n - m_i
for i < n, then m_n), by a permutation of the coordinates that exchanges
x_n and x_{n+1}.  So K[C] and K[C*] are isomorphic graded rings, and every
graded invariant agrees.  The degrevlex bases differ, since the variable
order does, so each curve makes its own Buchberger run and its own
monomial-ideal computations: agreement checks both from outside.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mcurve.grobner import initial_ideal, toric_ideal
from mcurve.monideal import cm_type_oracle, cm_via_initial, hs_numerator, reg_nested_type
from mcurve.seq import CurveSequence


def reflect(m):
    """m* = (the sorted m_n - m_i for i < n, then m_n)."""
    return tuple(sorted(m[-1] - x for x in m[:-1])) + (m[-1],)


@st.composite
def gcd_one_curves(draw):
    """Sequences of n = 3..6 distinct terms with m_n <= 30 and gcd 1."""
    n = draw(st.integers(3, 6))
    mn = draw(st.integers(n, 30))
    rest = draw(st.lists(st.integers(1, mn - 1), min_size=n - 1, max_size=n - 1, unique=True))
    m = tuple(sorted(rest)) + (mn,)
    assume(math.gcd(*m) == 1)
    return m


def graded_invariants(m):
    """(cm, cm type or None, regularity, Hilbert-series numerator), read off
    the initial ideal of the curve's toric basis."""
    seq = CurveSequence(m)
    gb = toric_ideal(seq)
    ini = initial_ideal(gb)
    cm = cm_via_initial(ini)
    return cm, cm_type_oracle(seq, gb) if cm else None, reg_nested_type(ini), hs_numerator(ini)


class TestReflection:
    @given(m=gcd_one_curves())
    @settings(max_examples=100)
    def test_involution_that_keeps_the_gcd(self, m):
        assert reflect(reflect(m)) == m
        assert math.gcd(*reflect(m)) == math.gcd(*m) == 1

    @given(m=gcd_one_curves())
    @example(m=(5, 12, 14, 16))  # not CM, and its reflection's basis is larger
    @example(m=(10, 13, 16, 19, 22))  # CM of type 1
    @example(m=(4, 5, 6, 7, 8))  # CM of type 3
    @settings(max_examples=250)
    def test_graded_invariants_agree(self, m):
        assert graded_invariants(m) == graded_invariants(reflect(m))

    def test_reflected_basis_has_another_size(self):
        assert reflect((5, 12, 14, 16)) == (2, 4, 11, 16)
        assert len(toric_ideal(CurveSequence((5, 12, 14, 16))).elements) == 7
        assert len(toric_ideal(CurveSequence((2, 4, 11, 16))).elements) == 8
