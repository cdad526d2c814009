"""The semigroup layers, the Apery set and the Apery-set presentation."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcurve import grobner
from mcurve.errors import DegreeCapExceeded
from mcurve.grobner import buchberger, initial_ideal, toric_ideal
from mcurve.monideal import hs_numerator
from mcurve.poly import TermOrder, bidegree
from mcurve.semigroup import apery, presentation
from mcurve.seq import CurveSequence, parse_sequence

GOLDENS = ["10,13,16,19,22", "4,5,6,7,8", "7,30,39,48,57,66", "5,26,32,38", "2,35,46,57,68"]


def _brute_layer(m, d):
    """S_d, the x of the degree-d elements (d, x) of the semigroup, from
    every exponent vector of degree d over x_1 .. x_{n+1} (x_{n+1} adds 0)."""
    return {sum(map(int.__mul__, m, u))
            for u in itertools.product(range(d + 1), repeat=len(m)) if sum(u) <= d}


SMALL = [m for top in range(2, 9) for n in (2, 3, 4, 5)
         for m in (c + (top,) for c in itertools.combinations(range(1, top), n - 1))
         if math.gcd(*m) == 1]


def _generators(m):
    """The classes of `apery(m)` as {r: [(u, v), ...]}, the generators
    y^u z^v of each I_r in the order given."""
    degree, classes = apery(m)
    mn = m[-1]
    return {r: [(x // mn, degree[x] - x // mn) for x in xs] for r, xs in classes.items()}


class TestApery:
    def test_layers_and_stopping_rule_match_brute_force(self):
        # the Apery elements by their definition from S_d, two degrees past
        # the first empty layer, in ascending degree and then x
        for m in SMALL:
            degree, _ = apery(m)
            top = max(degree.values())
            brute = [_brute_layer(m, d) for d in range(top + 3)]
            defined = [brute[0]] + [{x for x in s if x not in p and x - m[-1] not in p}
                                    for p, s in zip(brute, brute[1:])]
            assert list(degree.items()) == [(x, d) for d in range(top + 1)
                                            for x in sorted(defined[d])], m
            assert all(defined[:top + 1]) and not any(defined[top + 1:]), m

    def test_classes_generate_the_semigroup(self):
        # (d, x) is in S iff a generator (u', v') of the class of x divides
        # y^u z^v, for (d, x) = (0, r) + u a_n + v a_{n+1}; the generators
        # are the Apery elements, minimal and in ascending u
        for m in SMALL:
            degree, classes = apery(m)
            mn = m[-1]
            assert sorted(classes) == list(range(mn)), m
            assert sorted(x for xs in classes.values() for x in xs) == sorted(degree), m
            generators = _generators(m)
            for gens in generators.values():
                assert all(u1 < u2 and v1 > v2
                           for (u1, v1), (u2, v2) in zip(gens, gens[1:])), m
            for d in range(max(degree.values()) + 3):
                covered = {x for x in range(d * mn + 1)
                           if any(u <= x // mn and v <= d - x // mn
                                  for u, v in generators[x % mn])}
                assert covered == _brute_layer(m, d), (m, d)


class TestPresentation:
    def test_coprime_parts_deduplicated(self):
        gens = presentation(CurveSequence((25, 54, 58)))
        assert len(gens) == 17
        assert buchberger(gens, TermOrder(4), 4 * 61) == toric_ideal(CurveSequence((25, 54, 58)))

    @pytest.mark.parametrize("text", GOLDENS)
    def test_coprime_members(self, text):
        seq = parse_sequence(text)
        gens = presentation(seq)
        assert len(set(gens)) == len(gens)
        for g in gens:
            assert bidegree(seq, g.lead) == bidegree(seq, g.trail)
            assert g.lead != g.trail and not any(map(min, g.lead, g.trail))

    def test_common_factor_gives_the_same_presentation(self):
        assert presentation(CurveSequence((20, 26, 32, 38, 44))) == presentation(
            CurveSequence((10, 13, 16, 19, 22)))

    @pytest.mark.parametrize("text", GOLDENS)
    def test_hilbert_numerator_from_the_classes(self, text):
        # HS(K[C]) = sum_r (sum t^deg g - sum t^deg lcm) / (1 - t)^2 over the
        # generators g of each I_r and the lcms of neighbouring ones
        num = {}
        for gens in _generators(parse_sequence(text).with_gcd_one().m).values():
            for u, v in gens:
                num[u + v] = num.get(u + v, 0) + 1
            for (_, v1), (u2, _) in zip(gens, gens[1:]):
                num[u2 + v1] = num.get(u2 + v1, 0) - 1
        series = [num.get(d, 0) for d in range(max(num) + 1)]
        while series[-1] == 0:
            series.pop()
        assert tuple(series) == hs_numerator(initial_ideal(toric_ideal(parse_sequence(text))))


@st.composite
def long_curves(draw):
    """n = 5..8 and m_n <= 30, with a common factor g > 1 in about half the
    draws, and an explicit cap from 1 to m_n + 4."""
    g = draw(st.sampled_from([1, 1, 2, 3]))
    n = draw(st.integers(5, 8))
    m = draw(st.lists(st.integers(1, 30 // g), min_size=n, max_size=n, unique=True))
    return CurveSequence(tuple(sorted(g * x for x in m))), draw(st.integers(1, max(m) * g + 4))


class TestAperyRoute:
    """`toric_ideal` for n >= 5 and m_n <= APERY_MAX_MN against the saturation
    route."""

    @given(curve=long_curves())
    @settings(max_examples=200)
    @example(curve=(CurveSequence((4, 6, 7, 8, 13)), 5))  # saturation raises at this cap
    @example(curve=(CurveSequence((10, 13, 16, 19, 22)), 4))
    @example(curve=(CurveSequence((7, 30, 39, 48, 57, 66)), 20))
    def test_same_basis_as_saturation(self, curve):
        seq, cap = curve
        default = 4 * (seq.mn + seq.n)
        gb = toric_ideal(seq)
        assert gb == grobner._saturated(seq, default)
        try:
            capped = toric_ideal(seq, cap)
        except DegreeCapExceeded:
            return
        assert capped == gb._replace(cap=cap)
