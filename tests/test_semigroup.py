"""The semigroup layers, the Apery set and the Apery-set presentation."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcurve import grobner
from mcurve.grobner import buchberger, initial_ideal, toric_ideal
from mcurve.monideal import MonomialIdeal, hs_numerator
from mcurve.poly import Binomial, TermOrder, bidegree
from mcurve.semigroup import apery, presentation
from mcurve.seq import CurveSequence, parse_sequence
from presentations import binomials, full_presentation

GOLDENS = ["10,13,16,19,22", "4,5,6,7,8", "7,30,39,48,57,66", "5,26,32,38", "2,35,46,57,68"]
# n >= 5 curves whose presentation leads fall short of in(I(C)): the run makes pairs
FALLBACKS = ["3,22,57,65,94", "10,13,18,20,35,47"]
# the n = 4 curves of the benchmark's `report` workload: 5,26,32,38 and its
# same-m_n variants
REPORT_N4 = ["5,26,32,38", "14,31,36,38", "15,25,34,38", "2,16,29,38", "6,14,31,38",
             "8,9,22,38", "7,16,17,38", "11,25,33,38", "3,6,31,38", "9,21,33,38",
             "10,15,34,38", "13,33,35,38", "9,11,18,38"]


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
        gens = binomials(presentation(CurveSequence((25, 54, 58))))
        assert len(gens) == 17
        assert buchberger(gens, TermOrder(4)) == toric_ideal(CurveSequence((25, 54, 58)))

    @pytest.mark.parametrize("text", GOLDENS)
    def test_coprime_members(self, text):
        seq = parse_sequence(text)
        gens = binomials(presentation(seq))
        assert len(set(gens)) == len(gens)
        for g in gens:
            assert bidegree(seq, g.lead) == bidegree(seq, g.trail)
            assert g.lead != g.trail and not any(map(min, g.lead, g.trail))

    def test_common_factor_gives_the_same_presentation(self):
        p, q = presentation(CurveSequence((20, 26, 32, 38, 44))), presentation(
            CurveSequence((10, 13, 16, 19, 22)))
        assert (p.packing.args, p.pairs, p.numerator) == (q.packing.args, q.pairs, q.numerator)

    def test_pruned_presentation_is_a_subset_with_the_same_basis(self):
        # the (B) candidates that `presentation` skips are implied by lower
        # degrees: what it keeps is part of the whole presentation, and
        # both give one reduced basis; every gcd-1 curve with n = 5,
        # m_5 <= 12 and n = 6, m_6 <= 11
        for n, top in [(5, 12), (6, 11)]:
            for c in itertools.combinations(range(1, top), n - 1):
                for mn in range(c[-1] + 1, top + 1):
                    seq = CurveSequence(c + (mn,))
                    if math.gcd(*seq.m) == 1:
                        kept, full = binomials(presentation(seq)), full_presentation(seq)
                        assert set(kept) <= set(full), seq
                        order = TermOrder(n + 1)
                        assert buchberger(kept, order) == buchberger(full, order), seq

    @pytest.mark.parametrize("text", GOLDENS + ["5,26,32,38,101"])
    def test_hilbert_numerator_from_the_classes(self, text):
        # HS(K[C]) = N(t) / (1 - t)^2: against the initial ideal of the
        # saturation route's basis, and against |S_d| counted to past the
        # degree of N
        seq = parse_sequence(text)
        num = presentation(seq).numerator
        ini = initial_ideal(grobner._saturated(seq))
        assert num == hs_numerator(ini)
        series = list(num) + [0] * 3
        for _ in range(2):
            series = list(itertools.accumulate(series))
        assert series == _layer_sizes(seq.with_gcd_one().m, len(series) - 1)


@st.composite
def long_curves(draw):
    """n = 5..8 and m_n <= 30, with a common factor g > 1 in about half the
    draws."""
    g = draw(st.sampled_from([1, 1, 2, 3]))
    n = draw(st.integers(5, 8))
    m = draw(st.lists(st.integers(1, 30 // g), min_size=n, max_size=n, unique=True))
    return CurveSequence(tuple(sorted(g * x for x in m)))


def _stopped(gb):
    """True iff the run stopped after its generators: a certified run keeps
    the ideal it checked as its initial ideal."""
    return "initial" in vars(gb)


def _certified_run(seq, gens, top=None):
    """The Apery route's run on `gens`, certified against the curve's
    Hilbert series, from a packing of top `top` (by default n + 1 times the
    largest degree of `gens`, as `buchberger` picks)."""
    nv = seq.n + 1
    packing = grobner._Packing(nv, top or nv * grobner._degree(gens))
    pack = packing.pack
    return grobner._run(packing, [(pack(g.lead), pack(g.trail)) for g in gens], TermOrder(nv),
                        grobner._curve_k_polynomial(presentation(seq).numerator, nv))


class TestAperyRoute:
    """`toric_ideal` for n >= 5 and m_n within APERY_MAX_MN's bound for n
    against the saturation route."""

    @given(seq=long_curves())
    @settings(max_examples=200)
    @example(seq=CurveSequence((4, 6, 7, 8, 13)))
    @example(seq=CurveSequence((10, 13, 16, 19, 22)))
    @example(seq=CurveSequence((7, 30, 39, 48, 57, 66)))
    @example(seq=CurveSequence((3, 22, 57, 65, 94)))
    def test_same_basis_as_saturation(self, seq):
        # the stopped run, the full run on the same generators and the
        # saturation route give one basis
        gb = toric_ideal(seq)
        full = buchberger(binomials(presentation(seq)), TermOrder(seq.n + 1))
        assert gb == full == grobner._saturated(seq)
        assert initial_ideal(gb) == MonomialIdeal.from_gens(seq.n + 1, (g.lead for g in gb.elements))

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
        assert gb == grobner._saturated(seq)

    @pytest.mark.parametrize("text", FALLBACKS)
    def test_fallback_rerun_keeps_the_basis(self, text, monkeypatch):
        # a first packing of top the largest generator degree holds the
        # presentation but not its S-pairs: the run reruns wider on its own
        # generators, with no certificate, and gives the route's basis
        seq = parse_sequence(text)
        gens = binomials(presentation(seq))
        tops, run = [], grobner._buchberger

        def recording(packing, gens, target=None):
            tops.append(packing.top)
            return run(packing, gens, target)

        monkeypatch.setattr(grobner, "_buchberger", recording)
        gb = _certified_run(seq, gens, grobner._degree(gens))
        assert len(tops) >= 2 and tops[0] == grobner._degree(gens)
        assert not _stopped(gb)
        assert gb == toric_ideal(seq)

    @given(seq=long_curves())
    @settings(max_examples=30, deadline=None)
    @example(seq=CurveSequence((10, 13, 16, 19, 22)))
    @example(seq=CurveSequence((3, 22, 57, 65, 94)))
    def test_no_stop_on_a_smaller_ideal(self, seq):
        # with one presentation binomial left out, the run either makes its
        # pairs or still gives the basis of I(C): the check never accepts
        # leads of a proper subideal
        truth = grobner._saturated(seq)
        gens = binomials(presentation(seq))
        for i in range(len(gens)):
            gb = _certified_run(seq, gens[:i] + gens[i + 1:])
            assert not _stopped(gb) or gb == truth, (seq, gens[i])

    def test_a_missing_generator_fails_the_check(self):
        # the degree-2 binomials of 10,13,16,19,22 are minimal generators of
        # I(C): without one of them the leads fall short
        seq = parse_sequence("10,13,16,19,22")
        gens = binomials(presentation(seq))
        quadrics = [i for i, g in enumerate(gens) if g.degree == 2]
        assert quadrics
        for i in quadrics:
            assert not _stopped(_certified_run(seq, gens[:i] + gens[i + 1:]))


class TestSaturationCertificate:
    """The Apery numerator certifies the saturation route's basis as it
    certifies the Apery route's run; checked here only, at no cost to the
    route."""

    @pytest.mark.parametrize("text", REPORT_N4 + FALLBACKS)
    def test_leads_have_the_curve_k_polynomial(self, text):
        # in(I(C)) from `_saturated` has K-polynomial N(t) (1 - t)^(n - 1),
        # and without any one lead of the reduced basis it has another
        seq = parse_sequence(text)
        target = grobner._curve_k_polynomial(presentation(seq).numerator, seq.n + 1)
        leads = [g.lead for g in grobner._saturated(seq).elements]
        assert MonomialIdeal.from_gens(seq.n + 1, leads).k_polynomial == target
        for i in range(len(leads)):
            dropped = MonomialIdeal.from_gens(seq.n + 1, leads[:i] + leads[i + 1:])
            assert dropped.k_polynomial != target, (seq, leads[i])

