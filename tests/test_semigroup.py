"""The semigroup layers, the Apery set and the Apery-set presentation."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcurve import grobner
from mcurve.errors import DegreeCapExceeded
from mcurve.grobner import buchberger, initial_ideal, toric_ideal
from mcurve.monideal import MonomialIdeal, hs_numerator
from mcurve.poly import Binomial, TermOrder, bidegree
from mcurve.semigroup import _cover, apery, presentation
from mcurve.seq import CurveSequence, parse_sequence

GOLDENS = ["10,13,16,19,22", "4,5,6,7,8", "7,30,39,48,57,66", "5,26,32,38", "2,35,46,57,68"]
# n >= 5 curves whose presentation leads fall short of in(I(C)): the run makes pairs
FALLBACKS = ["3,22,57,65,94", "10,13,18,20,35,47"]


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


def _full_presentation(seq):
    """The (B) and (C) binomials on exponent tuples, every (B) candidate
    included, divided by their gcds, without duplicates or zeros, each side
    and the list in the order of `presentation` (the later exponents
    weigh most)."""
    m = seq.with_gcd_one().m
    n, mn = len(m), m[-1]
    degree, classes = apery(m)

    def mono(base, j=None, y=0, z=0):
        e = list(base)
        if j is not None:
            e[j] += 1
        e[n - 1] += y
        e[n] += z
        return tuple(e)

    mu = {0: (0,) * (n + 1)}
    for x, d in degree.items():
        if d:
            j = next(j for j in range(n - 1) if degree.get(x - m[j]) == d - 1)
            mu[x] = mono(mu[x - m[j]], j)
    found = set()

    def add(a, b):
        g = tuple(map(min, a, b))
        a, b = tuple(x - y for x, y in zip(a, g)), tuple(x - y for x, y in zip(b, g))
        if a != b:
            found.add((a, b) if a[::-1] > b[::-1] else (b, a))

    for x, d in degree.items():
        for j in range(n - 1):
            y = x + m[j]
            w = _cover(degree, classes, mn, d + 1, y)
            c = (y - w) // mn
            add(mono(mu[x], j), mono(mu[w], y=c, z=d + 1 - degree[w] - c))
    for gens in classes.values():
        for w1, w2 in zip(gens, gens[1:]):
            u1, u2 = w1 // mn, w2 // mn
            add(mono(mu[w1], y=u2 - u1), mono(mu[w2], z=degree[w1] - u1 - degree[w2] + u2))
    return [Binomial(a, b) for a, b in sorted(found, key=lambda p: (sum(p[0]), p[0][::-1],
                                                                     p[1][::-1]))]


def _layer_sizes(m, top):
    """|S_d| for d = 0..top: S_d = S_{d-1} + {0, m_1, ..., m_n}, since
    x_{n+1} adds (1, 0)."""
    layer, sizes = {0}, []
    for _ in range(top + 1):
        sizes.append(len(layer))
        layer = {x + v for x in layer for v in (0,) + m}
    return sizes


class TestPresentation:
    def test_coprime_parts_deduplicated(self):
        gens = presentation(CurveSequence((25, 54, 58))).binomials
        assert len(gens) == 17
        assert buchberger(gens, TermOrder(4), 4 * 61) == toric_ideal(CurveSequence((25, 54, 58)))

    @pytest.mark.parametrize("text", GOLDENS)
    def test_coprime_members(self, text):
        seq = parse_sequence(text)
        gens = presentation(seq).binomials
        assert len(set(gens)) == len(gens)
        for g in gens:
            assert bidegree(seq, g.lead) == bidegree(seq, g.trail)
            assert g.lead != g.trail and not any(map(min, g.lead, g.trail))

    def test_common_factor_gives_the_same_presentation(self):
        assert presentation(CurveSequence((20, 26, 32, 38, 44))) == presentation(
            CurveSequence((10, 13, 16, 19, 22)))

    def test_skipped_candidates_are_duplicates(self):
        # the (B) candidates that `presentation` skips change nothing: every
        # gcd-1 curve with n = 5, m_5 <= 12 and n = 6, m_6 <= 11
        for n, top in [(5, 12), (6, 11)]:
            for c in itertools.combinations(range(1, top), n - 1):
                for mn in range(c[-1] + 1, top + 1):
                    seq = CurveSequence(c + (mn,))
                    if math.gcd(*seq.m) == 1:
                        assert presentation(seq).binomials == _full_presentation(seq), seq

    @pytest.mark.parametrize("text", GOLDENS + ["5,26,32,38,101"])
    def test_hilbert_numerator_from_the_classes(self, text):
        # HS(K[C]) = N(t) / (1 - t)^2: against the initial ideal of the
        # saturation route's basis, and against |S_d| counted to past the
        # degree of N
        seq = parse_sequence(text)
        num = presentation(seq).numerator
        ini = initial_ideal(grobner._saturated(seq, 4 * (seq.mn + seq.n)))
        assert num == hs_numerator(ini)
        series = list(num) + [0] * 3
        for _ in range(2):
            series = list(itertools.accumulate(series))
        assert series == _layer_sizes(seq.with_gcd_one().m, len(series) - 1)


@st.composite
def long_curves(draw):
    """n = 5..8 and m_n <= 30, with a common factor g > 1 in about half the
    draws, and an explicit cap from 1 to m_n + 4."""
    g = draw(st.sampled_from([1, 1, 2, 3]))
    n = draw(st.integers(5, 8))
    m = draw(st.lists(st.integers(1, 30 // g), min_size=n, max_size=n, unique=True))
    return CurveSequence(tuple(sorted(g * x for x in m))), draw(st.integers(1, max(m) * g + 4))


def _stopped(gb):
    """True iff the run stopped after its generators: a certified run keeps
    the ideal it checked as its initial ideal."""
    return "initial" in vars(gb)


def _certified_run(seq, gens, cap):
    """The Apery route's run on `gens`, certified against the curve's
    Hilbert series."""
    return grobner._run(gens, TermOrder(seq.n + 1), cap,
                        grobner._curve_k_polynomial(presentation(seq).numerator, seq.n + 1))


class TestAperyRoute:
    """`toric_ideal` for n >= 5 and m_n <= APERY_MAX_MN against the saturation
    route."""

    @given(curve=long_curves())
    @settings(max_examples=200)
    @example(curve=(CurveSequence((4, 6, 7, 8, 13)), 5))  # saturation raises at this cap
    @example(curve=(CurveSequence((10, 13, 16, 19, 22)), 4))
    @example(curve=(CurveSequence((7, 30, 39, 48, 57, 66)), 20))
    @example(curve=(CurveSequence((3, 22, 57, 65, 94)), 30))
    def test_same_basis_as_saturation(self, curve):
        # the stopped run, the full run on the same generators and the
        # saturation route give one basis
        seq, cap = curve
        default = 4 * (seq.mn + seq.n)
        gb = toric_ideal(seq)
        full = buchberger(presentation(seq).binomials, TermOrder(seq.n + 1), default)
        assert gb == full == grobner._saturated(seq, default)
        assert initial_ideal(gb) == MonomialIdeal.from_gens(seq.n + 1, (g.lead for g in gb.elements))
        try:
            capped = _certified_run(seq, presentation(seq).binomials, cap)
        except DegreeCapExceeded:
            return
        assert capped == gb._replace(cap=cap)

    @pytest.mark.parametrize("text", ["7,30,39,48,57,66", "1,2,3,4,128", "5,26,32,38,101",
                                      "13,29,31,47,59,71,80"])
    def test_stops_with_its_initial_ideal(self, text):
        # the certified ideal is the curve's initial ideal, its K-polynomial
        # already computed
        gb = toric_ideal(parse_sequence(text))
        assert _stopped(gb)
        ini = initial_ideal(gb)
        assert ini is gb.initial and "k_polynomial" in vars(ini)
        assert ini == MonomialIdeal.from_gens(gb.nvars, (g.lead for g in gb.elements))

    @pytest.mark.parametrize("text", FALLBACKS)
    def test_fallback_makes_the_pairs(self, text):
        seq = parse_sequence(text)
        gb = toric_ideal(seq)
        assert not _stopped(gb)
        assert gb == grobner._saturated(seq, 4 * (seq.mn + seq.n))

    @given(curve=long_curves())
    @settings(max_examples=30, deadline=None)
    @example(curve=(CurveSequence((10, 13, 16, 19, 22)), 1))
    @example(curve=(CurveSequence((3, 22, 57, 65, 94)), 1))
    def test_no_stop_on_a_smaller_ideal(self, curve):
        # with one presentation binomial left out, the run either makes its
        # pairs or still gives the basis of I(C): the check never accepts
        # leads of a proper subideal
        seq = curve[0]
        cap = 4 * (seq.mn + seq.n)
        truth = grobner._saturated(seq, cap)
        gens = presentation(seq).binomials
        for i in range(len(gens)):
            gb = _certified_run(seq, gens[:i] + gens[i + 1:], cap)
            assert not _stopped(gb) or gb == truth, (seq, gens[i])

    def test_a_missing_generator_fails_the_check(self):
        # the degree-2 binomials of 10,13,16,19,22 are minimal generators of
        # I(C): without one of them the leads fall short
        seq = parse_sequence("10,13,16,19,22")
        gens = presentation(seq).binomials
        quadrics = [i for i, g in enumerate(gens) if g.degree == 2]
        assert quadrics
        for i in quadrics:
            assert not _stopped(_certified_run(seq, gens[:i] + gens[i + 1:], 108))
