"""Monomial-ideal combinatorics: decomposition, regularity, Hilbert data."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mcurve import monideal, sweeps
from mcurve.errors import InvariantViolation, NonTerminating, NotCohenMacaulay, NotNestedType
from mcurve.grobner import GroebnerBasis, initial_ideal, toric_ideal
from mcurve.monideal import (
    IrreducibleComponent,
    IrreducibleDecomposition,
    MonomialIdeal,
    cm_type_oracle,
    cm_via_initial,
    hf_quotient,
    hs_general_split,
    hs_numerator,
    irreducible_decomposition,
    is_nested_type,
    last_step_check,
    reg_nested_type,
)
from mcurve.poly import Binomial, TermOrder, mono_divides
from mcurve.seq import CurveSequence, parse_sequence
from mcurve.sweeps import GeneralizedSweep, generalized_instances
import tuple_monideal
from textforms import parse_monomial


def _count_standard_brute(gens, nvars, s):
    """Reference for hf_quotient: direct enumeration of the degree-s monomials
    no generator divides."""
    def gen(prefix, left, pos):
        if pos == nvars - 1:
            yield tuple(prefix + [left])
            return
        for e in range(left + 1):
            yield from gen(prefix + [e], left - e, pos + 1)

    if s < 0:
        return 0
    if nvars == 0:
        return 1 if s == 0 and not gens else 0
    return sum(1 for m in gen([], s, 0) if not any(mono_divides(g, m) for g in gens))


def _ideal(nvars, *texts):
    return MonomialIdeal.from_gens(nvars, [parse_monomial(t, nvars) for t in texts])


def _comp(**powers):
    # powers given as x1=5, x2=1, ...
    return IrreducibleComponent.from_map(
        {int(k[1:]) - 1: v for k, v in powers.items()})


GOLDEN = parse_sequence("10,13,16,19,22")
GOLDEN_GEN = parse_sequence("7,30,39,48,57,66")


class TestDecomposition:
    def test_golden_arithmetic(self):
        ini = initial_ideal(toric_ideal(GOLDEN))
        dec = irreducible_decomposition(ini)
        expected = {
            _comp(x1=5, x2=2, x3=1, x4=1),
            _comp(x1=5, x2=1, x3=2, x4=1),
            _comp(x1=6, x2=1, x3=1, x4=2),
        }
        assert set(dec.components) == expected

    def test_pure_power_is_its_own_decomposition(self):
        dec = irreducible_decomposition(_ideal(3, "x1^2"))
        assert set(dec.components) == {_comp(x1=2)}

    def test_zero_ideal_is_rejected(self):
        with pytest.raises(InvariantViolation):
            irreducible_decomposition(MonomialIdeal.from_gens(3, []))

    def test_unit_ideal_has_no_components(self):
        dec = irreducible_decomposition(MonomialIdeal.from_gens(3, [(0, 0, 0)]))
        assert dec.components == ()
        assert all(dec.contains(m) for m in _degree_monomials(3, 3))

    def test_property_matches_function(self):
        ini = initial_ideal(toric_ideal(GOLDEN))
        assert ini.decomposition == irreducible_decomposition(ini)
        assert ini.decomposition is ini.decomposition

    @pytest.mark.parametrize("check, m", [
        (sweeps.check_arithmetic_instance, (10, 13, 16, 19, 22)),
        (sweeps.check_generalized_instance, (7, 30, 39, 48, 57, 66)),
        (sweeps.check_random_instance, (3, 5, 7, 11)),
    ])
    def test_sweep_checker_decomposes_each_ideal_once(self, monkeypatch, check, m):
        calls = Counter()

        def counted(ideal):
            calls[ideal.nvars, ideal.gens] += 1
            return irreducible_decomposition(ideal)

        monkeypatch.setattr(monideal, "irreducible_decomposition", counted)
        monkeypatch.setattr(sweeps, "irreducible_decomposition", counted, raising=False)
        assert all(check(CurveSequence(m)).values())
        assert calls and set(calls.values()) == {1}

    def test_golden_generalized(self):
        ini = initial_ideal(toric_ideal(GOLDEN_GEN))
        dec = irreducible_decomposition(ini)
        beta = (6, 5, 3, 2, 1, 0)
        expected = set()
        for tail_comp in [
            _comp(x1=3, x2=5, x3=2, x4=1, x5=1),
            _comp(x1=3, x2=5, x3=1, x4=2, x5=1),
            _comp(x1=3, x2=6, x3=1, x4=1, x5=2),
        ]:
            expected.add(tail_comp)
        for j in range(2, 6):
            expected.add(IrreducibleComponent.from_map(
                {0: 3 * j, 1: beta[j - 1], 2: 1, 3: 1, 4: 1, 5: 1}))
        assert set(dec.components) == expected

    def test_irredundancy_witness(self):
        # dropping any component changes the intersection
        ini = initial_ideal(toric_ideal(GOLDEN))
        dec = irreducible_decomposition(ini)
        for skip in dec.components:
            others = [c for c in dec.components if c != skip]
            # search a monomial in all others but outside skip and outside ideal
            found = False
            for m in _degree_monomials(6, reg_nested_type(ini) + 2):
                if all(c.contains(m) for c in others) and not skip.contains(m):
                    assert not ini.contains(m)
                    found = True
                    break
            assert found

    @given(data=st.data())
    @settings(max_examples=200)
    def test_membership_equivalence(self, data):
        seqs = [(1, 2, 3), (3, 5, 7), (4, 5, 6, 7, 8), (5, 26, 32, 38),
                (7, 30, 39, 48, 57, 66), (2, 35, 46, 57, 68)]
        m_tuple = data.draw(st.sampled_from(seqs))
        s = CurveSequence(m_tuple)
        ini = initial_ideal(toric_ideal(s))
        dec = irreducible_decomposition(ini)
        mono = data.draw(st.tuples(*([st.integers(0, 6)] * (s.n + 1))))
        assert ini.contains(mono) == dec.contains(mono)


def _decomposition_by_splitting(ideal):
    """Reference: the recursive splitter.  A generator m = x_i^e * v with v
    coprime to x_i and not 1 splits the ideal as (I + <x_i^e>) /\\ (I + <v>);
    the leaves, generated by pure powers, are the components, and those that
    contain another one are pruned at the end."""
    comps = set()
    stack = [ideal.gens]
    while stack:
        gens = stack.pop()
        mixed = max(gens, key=lambda g: sum(map(bool, g)))  # the most mixed support
        if sum(map(bool, mixed)) == 1:
            powers = {}
            for g in gens:
                i = next(j for j, e in enumerate(g) if e)
                powers[i] = min(powers.get(i, g[i]), g[i])
            comps.add(IrreducibleComponent.from_map(powers))
            continue
        i = next(j for j, e in enumerate(mixed) if e)
        u = tuple(e if j == i else 0 for j, e in enumerate(mixed))
        v = tuple(0 if j == i else e for j, e in enumerate(mixed))
        stack.append(tuple_monideal.minimalize(gens + (u,)))
        stack.append(tuple_monideal.minimalize(gens + (v,)))
    return IrreducibleDecomposition.from_components(
        c for c in comps
        if not any(o != c and tuple_monideal.contains_component(c, o) for o in comps))


@st.composite
def _nonzero_monomial_ideals(draw):
    nvars = draw(st.integers(1, 6))
    mono = st.tuples(*[st.integers(0, 6)] * nvars).filter(any)  # the unit ideal has no leaves
    return MonomialIdeal.from_gens(nvars, draw(st.lists(mono, min_size=1, max_size=12)))


class TestDecompositionReference:
    @given(ideal=_nonzero_monomial_ideals())
    @example(ideal=MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]))
    @settings(max_examples=200)
    def test_same_as_recursive_splitting(self, ideal):
        dec = irreducible_decomposition(ideal)
        assert dec == _decomposition_by_splitting(ideal)
        for c, o in itertools.permutations(dec.components, 2):
            assert not tuple_monideal.contains_component(c, o), (c, o)


@st.composite
def _generator_lists(draw):
    """(nvars, gens): up to twelve generators in 0 to 6 variables, exponents
    up to 7, the zero and the unit ideal included."""
    nvars = draw(st.integers(0, 6))
    return nvars, draw(st.lists(st.tuples(*[st.integers(0, 7)] * nvars), max_size=12))


# the packing's top is one above the largest exponent; these put nvars top at
# powers of two, where the field width steps, or use no variable at all
PACKED_EDGES = [
    (0, []), (0, [()]), (3, []),  # nvars = 0 and the zero ideal
    (3, [(0, 0, 0)]), (3, [(0, 0, 0), (1, 2, 0)]),  # the unit ideal
    (3, [(4, 0, 0), (0, 5, 0), (0, 0, 1)]), (2, [(1, 0)]),  # pure powers
    (1, [(7,)]), (2, [(3, 1), (1, 3), (2, 2)]), (4, [(7, 0, 0, 1), (0, 7, 7, 0), (1, 1, 1, 1)]),
]


def _edge_examples(test):
    for nvars, gens in PACKED_EDGES:
        test = example(ideal=(nvars, gens))(test)
    return test


class TestPackedAgainstTuples:
    """Minimalization, the K-polynomial and the decomposition run on packed
    ints; the tuple references of tuple_monideal give the same values."""

    @given(ideal=_generator_lists())
    @_edge_examples
    @settings(max_examples=300)
    def test_minimal_generators(self, ideal):
        nvars, gens = ideal
        assert MonomialIdeal.from_gens(nvars, gens).gens == tuple_monideal.minimalize(gens)

    @given(ideal=_generator_lists())
    @_edge_examples
    @example(ideal=(0, [(), ()]))
    @example(ideal=(2, [(100_001, 0), (1, 1), (0, 2)]))  # degree 100,002: the decode is linear
    @settings(max_examples=300)
    def test_k_polynomial(self, ideal):
        ideal = MonomialIdeal.from_gens(*ideal)
        assert ideal.k_polynomial == monideal._trim(
            tuple_monideal.k_polynomial(ideal.gens, ideal.nvars))

    def test_k_polynomial_of_the_bare_unit_ideal(self):
        assert MonomialIdeal(0, ((),)).k_polynomial == ()
        assert hf_quotient(MonomialIdeal(0, ((),)), 1) == [0]

    @given(ideal=_generator_lists())
    @_edge_examples
    @settings(max_examples=300)
    def test_decomposition(self, ideal):
        ideal = MonomialIdeal.from_gens(*ideal)
        if ideal.is_zero:
            with pytest.raises(InvariantViolation, match="zero ideal"):
                irreducible_decomposition(ideal)
            return
        assert irreducible_decomposition(ideal) == tuple_monideal.irreducible_decomposition(ideal)

    def test_decomposition_on_the_initial_ideals(self):
        for m in [(10, 13, 16, 19, 22), (7, 30, 39, 48, 57, 66), (5, 26, 32, 38), (1, 500, 1000)]:
            ini = initial_ideal(toric_ideal(CurveSequence(m)))
            assert ini.decomposition == tuple_monideal.irreducible_decomposition(ini), m
            assert ini.k_polynomial == monideal._trim(
                tuple_monideal.k_polynomial(ini.gens, ini.nvars)), m


@st.composite
def _pure_powers_and_mixed(draw):
    """(nvars, gens): pure powers x_i^{p_i} of some of 2 to 6 variables and 0
    to 5 mixed generators with every x_i exponent below p_i, so that (up to
    a mixed generator dividing another) `_k_value` closes the ideal at its
    first node when at most four are mixed, and pivots once before."""
    nvars = draw(st.integers(2, 6))
    powers = draw(st.lists(st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
                           min_size=nvars, max_size=nvars))
    pure = [tuple(p if j == i else 0 for j in range(nvars)) for i, p in enumerate(powers) if p]
    below = [st.integers(0, (p or 6) - 1) for p in powers]
    mixed = draw(st.lists(st.tuples(*below), max_size=5))
    return nvars, pure + [g for g in mixed if sum(map(bool, g)) > 1]


FIVE_MIXED = (3, [(3, 0, 0), (0, 3, 0), (0, 0, 4),
                  (2, 1, 0), (1, 0, 3), (0, 1, 2), (1, 1, 1), (0, 2, 1)])


class TestKPolynomialLeaf:
    """`_k_value` sums over the subsets of at most four mixed generators at
    a node; the tuple reference recurses down to coprime generators instead."""

    @given(ideal=_pure_powers_and_mixed())
    # five mixed generators below x^3, y^3, z^4: one pivot, then leaves
    @example(ideal=FIVE_MIXED)
    # x^3 y, whose lcms reach x^2 and would make vanishing terms, is a
    # multiple of x^2: minimalization drops it
    @example(ideal=(2, [(2, 0), (0, 2), (1, 1), (3, 1)]))
    # the unit ideal, every colon of it the unit ideal: K = 0
    @example(ideal=(3, [(0, 0, 0), (1, 1, 0), (2, 0, 0)]))
    # x_2 and x_3 have no pure power: they add no factor
    @example(ideal=(3, [(2, 0, 0), (1, 1, 0), (1, 0, 5), (0, 3, 1)]))
    @settings(max_examples=300)
    def test_same_as_the_tuple_reference(self, ideal):
        ideal = MonomialIdeal.from_gens(*ideal)
        assert ideal.k_polynomial == monideal._trim(
            tuple_monideal.k_polynomial(ideal.gens, ideal.nvars))

    def test_five_mixed_generators_pivot_first(self, monkeypatch):
        calls = []
        k_value = monideal._k_value

        def counting(packing, gens, b):
            calls.append(len(gens))
            return k_value(packing, gens, b)

        monkeypatch.setattr(monideal, "_k_value", counting)
        ideal = MonomialIdeal.from_gens(*FIVE_MIXED)
        assert len(ideal.gens) == 8
        assert ideal.k_polynomial == monideal._trim(
            tuple_monideal.k_polynomial(ideal.gens, ideal.nvars))
        assert calls[0] == 8 and len(calls) == 3  # the ideal, then its two children are leaves


def _degree_monomials(nvars, max_degree):
    import itertools
    for total in range(max_degree + 1):
        for cuts in itertools.combinations(range(total + nvars - 1), nvars - 1):
            exps = []
            prev = -1
            for c in cuts:
                exps.append(c - prev - 1)
                prev = c
            exps.append(total + nvars - 2 - prev)
            yield tuple(exps)


class TestRegularity:
    def test_reg_irreducible_examples(self):
        assert _comp(x1=5, x2=1, x3=2, x4=1).regularity() == 5
        assert _comp(x1=1).regularity() == 0
        assert IrreducibleComponent.from_map(
            {0: 15, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}).regularity() == 14

    def test_nested_type_detection(self):
        assert is_nested_type(initial_ideal(toric_ideal(GOLDEN)))
        assert not is_nested_type(_ideal(3, "x2"))

    def test_reg_nested_type_goldens(self):
        assert reg_nested_type(initial_ideal(toric_ideal(GOLDEN))) == 6
        assert reg_nested_type(initial_ideal(toric_ideal(parse_sequence("4,5,6,7,8")))) == 2
        assert reg_nested_type(initial_ideal(toric_ideal(GOLDEN_GEN))) == 14

    def test_reg_nested_type_rejects(self):
        with pytest.raises(NotNestedType):
            reg_nested_type(_ideal(3, "x2"))

    def test_unit_ideal_raises(self):
        with pytest.raises(InvariantViolation, match="unit ideal"):
            reg_nested_type(MonomialIdeal.from_gens(3, [(0, 0, 0)]))

    def test_zero_ideal(self):
        assert reg_nested_type(MonomialIdeal.from_gens(3, [])) == 0
        assert is_nested_type(MonomialIdeal.from_gens(3, []))


class TestHilbertCounting:
    def test_zero_ideal(self):
        assert hf_quotient(MonomialIdeal.from_gens(3, []), 3) == [1, 3, 6]

    def test_golden_counts(self):
        ini = initial_ideal(toric_ideal(parse_sequence("4,5,6,7,8")))
        assert hf_quotient(ini, 4)[3] == 22
        ini = initial_ideal(toric_ideal(GOLDEN))
        assert hf_quotient(ini, 8)[7] == 110

    def test_brute_force_agreement(self):
        for m in [(1, 2, 3), (3, 5, 7), (4, 5, 6, 7, 8), (7, 30, 39, 48, 57, 66)]:
            ini = initial_ideal(toric_ideal(CurveSequence(m)))
            assert hf_quotient(ini, 8) == [_count_standard_brute(ini.gens, ini.nvars, s)
                                           for s in range(8)]

    def test_hs_numerator_goldens(self):
        assert hs_numerator(initial_ideal(toric_ideal(GOLDEN))) == (1, 4, 4, 4, 4, 4, 1)
        assert hs_numerator(initial_ideal(toric_ideal(parse_sequence("4,5,6,7,8")))) == (1, 4, 3)
        assert hs_numerator(initial_ideal(toric_ideal(GOLDEN_GEN))) == (
            1, 5, 9, 13, 13, 13, 10, 6, 1, -1, -1, -1, 0, -1, 0, -1)

    def test_numerator_reproduces_hf_by_convolution(self):
        for m in [(10, 13, 16, 19, 22), (7, 30, 39, 48, 57, 66), (2, 35, 46, 57, 68)]:
            ini = initial_ideal(toric_ideal(CurveSequence(m)))
            num = hs_numerator(ini)
            reg = reg_nested_type(ini)
            for s, value in enumerate(hf_quotient(ini, reg + 4)):
                conv = sum(c * (s - j + 1) for j, c in enumerate(num) if j <= s)
                assert conv == value

    def test_split_cm_correction_is_zero(self):
        ini = initial_ideal(toric_ideal(GOLDEN))
        main, corr = hs_general_split(ini)
        assert main == (1, 4, 4, 4, 4, 4, 1)
        assert corr == ()

    def test_split_non_cm_combination(self):
        ini = initial_ideal(toric_ideal(GOLDEN_GEN))
        main, corr = hs_general_split(ini)
        assert corr != ()
        combined = list(main) + [0] * (len(corr) + 2)
        for j, c in enumerate(corr):
            combined[j + 1] -= c
        while combined and combined[-1] == 0:
            combined.pop()
        assert tuple(combined) == hs_numerator(ini)


def _krull_dimension(ideal):
    """Largest set of variables containing the support of no generator
    (-1 for the unit ideal, whose quotient is zero)."""
    supports = [{i for i, e in enumerate(g) if e} for g in ideal.gens]
    return max((len(free) for k in range(ideal.nvars + 1)
                for free in map(set, itertools.combinations(range(ideal.nvars), k))
                if not any(sup <= free for sup in supports)), default=-1)


@st.composite
def _monomial_ideals(draw):
    nvars = draw(st.integers(0, 5))
    gens = draw(st.lists(st.tuples(*([st.integers(0, 4)] * nvars)), max_size=6))
    return MonomialIdeal.from_gens(nvars, gens)


class TestKPolynomial:
    @given(ideal=_monomial_ideals())
    @example(ideal=MonomialIdeal.from_gens(0, [()]))
    @example(ideal=MonomialIdeal.from_gens(1, []))
    @example(ideal=MonomialIdeal.from_gens(3, []))
    @example(ideal=MonomialIdeal.from_gens(3, [(0, 0, 0)]))
    @example(ideal=MonomialIdeal.from_gens(4, [(1, 0, 0, 0)]))
    @example(ideal=MonomialIdeal.from_gens(5, [(2, 1, 0, 0, 0), (0, 3, 0, 1, 0)]))
    @example(ideal=MonomialIdeal.from_gens(2, [(4, 0), (2, 2), (0, 4)]))
    @settings(max_examples=150)
    def test_matches_brute_force(self, ideal):
        degrees = range(-1, 9)
        counts = [_count_standard_brute(ideal.gens, ideal.nvars, s) for s in degrees]
        assert hf_quotient(ideal, 9) == counts[1:]
        assert hf_quotient(ideal, 0) == []
        if _krull_dimension(ideal) > 2:
            with pytest.raises(NonTerminating):
                hs_numerator(ideal)
            return
        num = hs_numerator(ideal)
        for s, count in zip(degrees, counts):
            assert sum(c * (s - j + 1) for j, c in enumerate(num) if j <= s) == count

    @pytest.mark.parametrize("text, reg, numerator, hf", [
        ("1,500,1000", 500, (1,) + (2,) * 499 + (1,), (253000, 254000)),
        ("13,29,31,47,59,71,80", 6, (1, 6, 19, 37, 32, -4, -9, -2), (525, 605)),
    ])
    def test_hard_ladder_pins(self, text, reg, numerator, hf):
        # pinned from degree-by-degree standard-monomial counting; brute force
        # cannot reach degrees near 500
        ini = initial_ideal(toric_ideal(parse_sequence(text)))
        assert reg_nested_type(ini) == reg
        assert hs_numerator(ini) == numerator
        assert tuple(hf_quotient(ini, reg + 4)[reg + 2:]) == hf


class TestCohenMacaulay:
    def test_cm_flags(self):
        assert cm_via_initial(initial_ideal(toric_ideal(GOLDEN)))
        assert not cm_via_initial(initial_ideal(toric_ideal(GOLDEN_GEN)))
        assert cm_via_initial(MonomialIdeal.from_gens(4, []))

    def test_cm_type_goldens(self):
        assert cm_type_oracle(GOLDEN, toric_ideal(GOLDEN)) == 1
        s = parse_sequence("4,5,6,7,8")
        assert cm_type_oracle(s, toric_ideal(s)) == 3
        s = parse_sequence("3,5,7")
        assert cm_type_oracle(s, toric_ideal(s)) == 2

    def test_cm_type_rejects_non_cm(self):
        with pytest.raises(NotCohenMacaulay):
            cm_type_oracle(GOLDEN_GEN, toric_ideal(GOLDEN_GEN))

    def test_cm_type_rejects_a_hand_made_non_cm_basis(self):
        # the lead x1*x3 holds x_n = x3 of the curve ring K[x1..x4]
        gb = GroebnerBasis(TermOrder(4), (Binomial((1, 0, 1, 0), (0, 2, 0, 0)),))
        with pytest.raises(NotCohenMacaulay):
            cm_type_oracle(GOLDEN, gb)

    @pytest.mark.parametrize("leads", [
        [],  # the zero ideal: no component at all
        [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0)],  # <x1> /\ <x1^2, x2>: both miss x2 or x3
        # <x1, x2, x3^2> /\ <x2, x3>: the first has a corner, the second misses x1
        [(1, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 0, 2, 0, 0)],
    ])
    def test_cm_type_rejects_a_hand_made_non_artinian_reduction(self, leads):
        # trails on x_n, x_{n+1} only: the normal forms would all leave x_1..x_{n-1}
        nvars = 5
        gb = GroebnerBasis(TermOrder(nvars), tuple(
            Binomial(lead, (0,) * (nvars - 1) + (sum(lead),)) for lead in leads))
        with pytest.raises(NonTerminating,
                           match="^quotient is not artinian: some variable has no pure power$"):
            cm_type_oracle(GOLDEN, gb)


def _random_cm_curves(count, seed=13):
    """`count` distinct seeded gcd-1 curves, n = 3..6 and m_n <= 40, whose
    initial ideal is Cohen-Macaulay, with their toric bases."""
    rng, found = random.Random(seed), {}
    while len(found) < count:
        n, mn = rng.randint(3, 6), rng.randint(7, 40)
        seq = CurveSequence(tuple(sorted(rng.sample(range(1, mn), n - 1))) + (mn,))
        if math.gcd(*seq.m) == 1 and seq not in found:
            gb = toric_ideal(seq)
            if cm_via_initial(gb.initial):
                found[seq] = gb
    return found.items()


@st.composite
def _cm_prone_curves(draw):
    """gcd-1 curves with n = 3..7 and m_n <= 300 whose other terms lie within
    3n of 0 or of m_n, where most curves are Cohen-Macaulay (uniform draws
    with n >= 4 rarely are)."""
    n = draw(st.integers(3, 7))
    mn = draw(st.integers(3 * n + 1, 300))
    low = draw(st.sampled_from([1, mn - 3 * n]))
    rest = draw(st.lists(st.integers(low, low + 3 * n - 1), min_size=n - 1, max_size=n - 1,
                         unique=True))
    m = tuple(sorted(rest)) + (mn,)
    assume(math.gcd(*m) == 1)
    return CurveSequence(m)


class TestCmTypeReference:
    """cm_type_oracle counts the staircase's corners with a normal form
    each; tuple_monideal.cm_type counts the maximal bidegrees of every
    standard monomial, as pairs."""

    def test_every_cm_arithmetic_curve(self):
        count = 0
        for seq in sweeps.arithmetic_instances(sweeps.ArithmeticSweep(max_mn=30)):
            gb = toric_ideal(seq)
            if cm_via_initial(gb.initial):
                assert cm_type_oracle(seq, gb) == tuple_monideal.cm_type(seq, gb.initial), seq
                count += 1
        assert count == 370  # every arithmetic curve of the sweep is CM

    def test_1_500_1000(self):
        seq = parse_sequence("1,500,1000")
        gb = toric_ideal(seq)
        assert cm_type_oracle(seq, gb) == tuple_monideal.cm_type(seq, gb.initial) == 1

    @pytest.mark.parametrize("text, cm_type", [
        ("1,2000,4000", 1),
        ("1,2,3,4,1000", 3),
        ("1,2,3,4,5,512", 1),
        ("1,100,200,300,100000", 3),  # 100,000 standard monomials, 3 corners
    ])
    def test_hard_curves(self, text, cm_type):
        seq = parse_sequence(text)
        gb = toric_ideal(seq)
        assert cm_type_oracle(seq, gb) == tuple_monideal.cm_type(seq, gb.initial) == cm_type

    def test_seeded_random_cm_curves(self):
        for seq, gb in _random_cm_curves(60):
            assert cm_type_oracle(seq, gb) == tuple_monideal.cm_type(seq, gb.initial), seq

    @given(seq=_cm_prone_curves())
    @example(seq=CurveSequence((1, 2, 3, 4, 5, 6, 300)))
    @example(seq=CurveSequence((291, 293, 294, 297, 299, 300)))
    @settings(max_examples=150)
    def test_cm_curves_up_to_300(self, seq):
        gb = toric_ideal(seq)
        assume(cm_via_initial(gb.initial))
        assert cm_type_oracle(seq, gb) == tuple_monideal.cm_type(seq, gb.initial), seq

class TestLastStep:
    def test_golden_generalized(self):
        ini = initial_ideal(toric_ideal(GOLDEN_GEN))
        assert last_step_check(ini, 14)
        assert not last_step_check(ini, 13)

    def test_f_set_shape(self):
        # F = {(g1, g2, 0, ...): jh <= g1 < (j+1)h, g2 < beta_j, 1 <= j < delta/h}
        from mcurve.seq import generalized_profile
        prof = generalized_profile(GOLDEN_GEN)
        ini = initial_ideal(toric_ideal(GOLDEN_GEN))
        n = GOLDEN_GEN.n
        ones = {g[:n - 1] for g in ini.gens}
        expected_max = prof.delta + prof.beta[prof.delta_prime - 1] - 2
        assert expected_max == 14


def _outcome(fn, *args):
    """What fn returns, or the message of its NonTerminating."""
    try:
        return fn(*args)
    except NonTerminating as exc:
        return f"NonTerminating: {exc}"


@st.composite
def _generator_sets(draw, nvars, free=0, artinian=True):
    """(nvars, gens): up to eight random generators, the unit included, and a
    pure power of each variable but the last `free` (of some of them, unless
    `artinian`)."""
    nvars = draw(nvars)
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars), max_size=8))
    for i in range(nvars - free):
        if artinian or draw(st.booleans()):
            gens.append(tuple(draw(st.integers(1, 5)) if j == i else 0 for j in range(nvars)))
    return nvars, tuple(gens)


@st.composite
def _initial_ideal_shapes(draw):
    """Ideals shaped like in(I(C)) on x_1..x_{n+1}: 3 to 6 variables, no
    generator holding x_{n+1}, a pure power of each of x_1..x_{n-1}, and x_n
    free; the unit ideal included."""
    nvars, gens = draw(_generator_sets(st.integers(2, 5), free=1))
    return MonomialIdeal.from_gens(nvars + 1, [g + (0,) for g in gens])


# in(I(C)) of 5,26,32,38: not Cohen-Macaulay, with b = 1
NON_CM_B1 = MonomialIdeal.from_gens(5, [
    (0, 0, 2, 0, 0), (0, 5, 1, 0, 0), (0, 6, 0, 0, 0), (2, 4, 0, 0, 0), (4, 0, 0, 1, 0),
    (4, 0, 1, 0, 0), (6, 3, 0, 0, 0), (10, 1, 0, 0, 0), (14, 0, 0, 0, 0)])


class TestArtinianWalk:
    """The series of an artinian ideal counts the grid's standard monomials,
    last_step_check gives the per-monomial scan's answer, and
    hs_general_split the search's jump term."""

    @given(ideal=_generator_sets(st.integers(1, 5), artinian=False))
    @example(ideal=(0, ()))
    @example(ideal=(0, ((),)))
    @example(ideal=(2, ((0, 0), (3, 0), (0, 2))))
    @example(ideal=(3, ((1, 1, 0), (2, 0, 0))))
    @example(ideal=(2, ((3, 0), (0, 4))))
    @settings(max_examples=200)
    def test_same_nonterminating_as_the_grid(self, ideal):
        nvars, gens = ideal
        grid = _outcome(tuple_monideal.standard_monomials, gens, nvars)
        if not isinstance(grid, str):
            grid = tuple_monideal.degree_counts(grid)
        assert _outcome(monideal._artinian_series, nvars, gens) == grid

    @given(ideal=_generator_sets(st.integers(3, 6), free=2))
    @example(ideal=(3, ((0, 0, 0), (2, 0, 0))))  # the unit ideal: last_step_check(unit, -1)
    @example(ideal=(4, ((2, 0, 0, 0), (0, 3, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0))))
    @settings(max_examples=200)
    def test_last_step_is_the_scan_on_random_ideals(self, ideal):
        ideal = MonomialIdeal.from_gens(*ideal)
        best = _outcome(tuple_monideal.last_step_by_scan, ideal)
        if isinstance(best, str):
            assert _outcome(last_step_check, ideal, 0) == best
            return
        assert [last_step_check(ideal, r) for r in (best - 1, best, best + 1)] == [
            False, True, False]

    def test_last_step_is_the_scan_on_the_generalized_sweep(self):
        seqs = list(generalized_instances(GeneralizedSweep()))
        for seq in seqs:
            ini = initial_ideal(toric_ideal(seq))
            best = tuple_monideal.last_step_by_scan(ini)
            assert [last_step_check(ini, r) for r in (best - 1, best, best + 1)] == [
                False, True, False], seq
            assert best == reg_nested_type(ini), seq
        assert len(seqs) == 216

    @given(ideal=_initial_ideal_shapes())
    @example(ideal=MonomialIdeal.from_gens(4, [(2, 0, 0, 0), (0, 3, 0, 0), (1, 1, 0, 0)]))  # b = 0
    @example(ideal=MonomialIdeal.from_gens(3, [(3, 0, 0), (1, 2, 0), (0, 4, 0)]))  # n = 2
    @example(ideal=NON_CM_B1)
    @example(ideal=MonomialIdeal.from_gens(4, [(0, 0, 0, 0)]))  # the unit ideal: no jump term
    @settings(max_examples=200)
    def test_jump_term_is_the_search(self, ideal):
        assert hs_general_split(ideal)[1] == tuple_monideal.jump_term_by_search(ideal)

    def test_non_cm_b1_is_the_initial_ideal(self):
        assert initial_ideal(toric_ideal(CurveSequence((5, 26, 32, 38)))) == NON_CM_B1

    def test_large_staircase_without_a_toric_run(self):
        # in(I(C)) of 1,2,3,4,1000000, built by hand: m_n = 10^6 standard
        # monomials modulo <x5, x6>, a K-polynomial of degree 250,004
        ini = MonomialIdeal.from_gens(6, [
            (0, 0, 0, 250_000, 0, 0), (0, 0, 2, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 2, 0, 0, 0, 0),
            (1, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)])
        main, corr = hs_general_split(ini)
        assert (main, corr) == (hs_numerator(ini), ())
        assert len(main) == 250_001 and main[:3] == (1, 4, 4) and main[-3:] == (4, 4, 3)
        assert sum(main) == 1_000_000
        assert last_step_check(ini, -1)
