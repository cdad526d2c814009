"""Buchberger oracle: bases, saturation, elimination, quadric tests."""

import heapq
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcurve import grobner, semigroup
from mcurve.errors import InvariantViolation
from mcurve.grobner import (
    buchberger,
    has_quadratic_gb,
    is_generated_by_quadrics,
    lattice_basis,
    reduce_basis,
    render_gb,
    toric_ideal,
)
from mcurve.koszul import quadratic_gb_witness
from mcurve.monideal import MonomialIdeal
from mcurve.poly import Binomial, TermOrder, bidegree, is_member_binomial, yweighted
from mcurve.semigroup import apery, presentation
from mcurve.seq import CurveSequence, parse_sequence
import tuple_kernel
from orders import degrevlex_cheapest
from presentations import binomials
from textforms import parse_binomial, parse_monomial


def _ideal(nvars, *texts):
    return MonomialIdeal.from_gens(nvars, [parse_monomial(t, nvars) for t in texts])


def _binomials(nvars, *texts):
    return [parse_binomial(t, nvars) for t in texts]


TWISTED = _binomials(4, "x2^2 - x1*x3", "x1^2 - x2*x4", "x1*x2 - x3*x4")


class TestBuchberger:
    def test_twisted_cubic_already_groebner(self):
        gb = buchberger(TWISTED, TermOrder(4))
        assert gb.element_set() == set(TWISTED)

    def test_empty_input(self):
        gb = buchberger([], TermOrder(4))
        assert gb.elements == ()

    def test_either_orientation(self):
        swapped = [Binomial(g.trail, g.lead) for g in TWISTED]
        assert buchberger(swapped, TermOrder(4)) == buchberger(TWISTED, TermOrder(4))

    def test_zero_difference_dropped(self):
        zero = Binomial((1, 1, 0, 0), (1, 1, 0, 0))
        assert buchberger([zero], TermOrder(4)).elements == ()
        assert buchberger([zero, *TWISTED], TermOrder(4)) == buchberger(TWISTED, TermOrder(4))

    def test_closed_form_reduces_to_oracle(self):
        from mcurve.arith_forms import gb_arithmetic
        from mcurve.seq import arithmetic_profile
        s = parse_sequence("10,13,16,19,22")
        closed = gb_arithmetic(arithmetic_profile(s))
        oracle = toric_ideal(s)
        gb = buchberger(closed, TermOrder(6))
        assert gb.element_set() == set(reduce_basis(closed, TermOrder(6)))
        assert gb.element_set() == oracle.element_set()

    def test_non_member_raises(self, monkeypatch):
        monkeypatch.setattr(grobner, "is_member_binomial", lambda seq, g: False)
        with pytest.raises(InvariantViolation):
            toric_ideal(parse_sequence("3,5,7"))


class TestReduceBasis:
    # each case once looped forever: run it in a child process with a timeout
    HANGS = {
        "lead equal to trail": "[Binomial((1, 0, 0), (1, 0, 0))]",
        "misoriented pair": "[Binomial((0, 1, 0), (1, 0, 0)), Binomial((1, 0, 0), (0, 1, 0))]",
    }

    @pytest.mark.parametrize("gens", HANGS.values(), ids=HANGS.keys())
    def test_misoriented_input_raises(self, run_python, gens):
        proc = run_python("-c", "from mcurve.grobner import reduce_basis\n"
                          "from mcurve.poly import Binomial, TermOrder\n"
                          f"reduce_basis({gens}, TermOrder(3))")
        assert proc.returncode == 1
        assert "InvariantViolation: misoriented" in proc.stderr


monomials = st.lists(st.integers(0, 3), min_size=4, max_size=4).map(tuple)


class TestReducer:
    @given(nvars=st.integers(2, 4), cheap=st.integers(0, 3),
           pairs=st.lists(st.tuples(monomials, monomials), max_size=5),
           a=monomials, b=monomials)
    @settings(max_examples=300)
    def test_normal_form_leads_with_the_larger_full_reduction(self, nvars, cheap, pairs, a, b):
        # the contract of the kernel: each side reduces on its own chain, and
        # a - b reduces to zero iff both sides reach the same monomial;
        # otherwise the larger full reduction leads, and the trail is left
        # somewhere on the chain of the smaller
        key = degrevlex_cheapest(nvars, min(cheap, nvars - 1)).key
        leads, trails = [], []
        for u, v in pairs:
            u, v = sorted((u[:nvars], v[:nvars]), key=key, reverse=True)
            if u != v:
                leads.append(u)
                trails.append(v)
        a, b = a[:nvars], b[:nvars]
        ra = tuple_kernel.reduce_monomial(a, leads, trails)
        rb = tuple_kernel.reduce_monomial(b, leads, trails)
        nf = tuple_kernel.normal_form(a, b, leads, trails, key)
        if ra == rb:
            assert nf is None
        else:
            lead, trail = nf
            big, small = sorted((ra, rb), key=key, reverse=True)
            assert lead == big
            assert tuple_kernel.reduce_monomial(trail, leads, trails) == small


def _buchberger_coprime_only(gens, order):
    """Reference: Buchberger with the coprime-leads criterion as the only
    pair criterion, every other pair selected."""
    key = order.key
    leads, trails, pairs = [], [], []

    def add(a, b):
        nf = tuple_kernel.normal_form(a, b, leads, trails, key)
        if nf is None:
            return
        lead, trail = nf
        for i, other in enumerate(leads):
            lcm = tuple(max(x, y) for x, y in zip(lead, other))
            if all(l == x + y for l, x, y in zip(lcm, lead, other)):
                continue
            heapq.heappush(pairs, (sum(lcm), key(lcm), i, len(leads)))
        leads.append(lead)
        trails.append(trail)

    for g in gens:
        add(g.lead, g.trail)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        lcm = tuple(max(x, y) for x, y in zip(leads[i], leads[j]))
        add(tuple(l - x + t for l, x, t in zip(lcm, leads[i], trails[i])),
            tuple(l - x + t for l, x, t in zip(lcm, leads[j], trails[j])))
    return tuple_kernel.reduce_basis([Binomial(a, b) for a, b in zip(leads, trails)], order)


def _block(nv, k):
    """The block order that compares the degree in x_1 .. x_k first."""
    return TermOrder(nv, ((1,) * k + (0,) * (nv - k),))


@st.composite
def binomial_ideals(draw):
    """Up to four homogeneous binomials (both sides of one degree, as
    `buchberger` requires) in 2..5 variables and a term order."""
    nv = draw(st.integers(2, 5))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        lead = draw(st.tuples(*[st.integers(0, 3)] * nv))
        spots = draw(st.lists(st.integers(0, nv - 1), min_size=sum(lead), max_size=sum(lead)))
        gens.append(Binomial(lead, tuple(spots.count(i) for i in range(nv))))
    order = draw(st.sampled_from([TermOrder(nv)]
                                 + [degrevlex_cheapest(nv, i) for i in range(nv - 1)]
                                 + [yweighted(nv, i) for i in range(nv)]
                                 + [_block(nv, k) for k in range(1, nv)]))
    return gens, order


# degree-9 generators in three variables whose basis under yweighted:x3
# reaches x3^65: the first packing, top 3 * 9 = 27, overflows, and the run is
# made again in a packing of top 3 d for the S-pair degree d that overflowed
WIDE = [Binomial((0, 1, 8), (2, 4, 3)), Binomial((9, 0, 0), (1, 7, 1))]


def _narrowest(packing_class=grobner._Packing):
    """`grobner._Packing` with top the degree itself, not nvars times it:
    a first packing that holds only the generators, and a rerun at every
    S-pair degree past the top, so most runs rerun, many several times."""
    return mock.patch.object(grobner, "_Packing", lambda nvars, top, weights=():
                             packing_class(nvars, top // nvars, weights))


def _packed_run(packing, gens):
    """`grobner._buchberger` on `gens` packed in `packing`, its basis
    unpacked, and the top of the packing that basis came in."""
    packing, pairs, _ = grobner._buchberger(
        packing, [(packing.pack(g.lead), packing.pack(g.trail)) for g in gens])
    return grobner._unpack(packing, pairs), packing.top


class TestPairCriteria:
    """The Gebauer-Moeller criteria drop only pairs that reduce to zero."""

    @given(ideal=binomial_ideals())
    @settings(max_examples=400)
    @example(ideal=(WIDE, yweighted(3, 2)))  # a rerun in a wider packing
    def test_same_basis_as_coprime_criterion_alone(self, ideal):
        gens, order = ideal
        gb = buchberger(gens, order)
        assert gb.elements == _buchberger_coprime_only(gens, order)
        leads = [g.lead for g in gb.elements]
        trails = [g.trail for g in gb.elements]
        for g, h in itertools.combinations(gb.elements, 2):
            lcm = tuple(max(x, y) for x, y in zip(g.lead, h.lead))
            sides = [tuple(l - x + t for l, x, t in zip(lcm, f.lead, f.trail)) for f in (g, h)]
            assert (tuple_kernel.reduce_monomial(sides[0], leads, trails)
                    == tuple_kernel.reduce_monomial(sides[1], leads, trails)), (g, h)

    def test_every_queued_pair_is_cap_checked(self):
        # the pair of leads x2*x3 and x1^5*x2 has degree 7, and the later lead
        # x1^4 divides its lcm; every queued pair is reduced, so it is
        # selected and meets the one degree check left, the packing's top:
        # in a packing of top 6 it overflows, and the run is made again in a
        # packing of top 3 * 7
        gens = _binomials(3, "x2*x3 - x1^2", "x1^3*x2^3 - x1^3*x2^2*x3", "x1^2 - x3^2")
        order = yweighted(3, 2)
        expected = _buchberger_coprime_only(gens, order)
        assert _packed_run(grobner._Packing(3, 6, order.weights), gens) == (expected, 21)
        assert buchberger(gens, order).elements == expected


@pytest.fixture
def packings(monkeypatch):
    """The tops of the packings `grobner` builds, and the one `semigroup`
    packs the Apery presentation in, in order: one per `buchberger` call or
    chain of saturation passes, and one more per rerun in a wider packing."""
    tops = []
    packing_class = grobner._Packing

    def recording(nvars, top, weights=()):
        tops.append(top)
        return packing_class(nvars, top, weights)

    monkeypatch.setattr(grobner, "_Packing", recording)
    monkeypatch.setattr(semigroup, "_Packing", recording)
    return tops


@pytest.fixture
def runs(monkeypatch):
    """The top of the packing of each `grobner._buchberger` call, in order."""
    tops = []
    run = grobner._buchberger

    def counting(packing, gens, target=None):
        tops.append(packing.top)
        return run(packing, gens, target)

    monkeypatch.setattr(grobner, "_buchberger", counting)
    return tops


def _packing_orders(nv):
    return ([TermOrder(nv)] + [degrevlex_cheapest(nv, i) for i in range(nv - 1)]
            + [yweighted(nv, i) for i in range(nv)] + [_block(nv, k) for k in range(1, nv)]
            + [TermOrder(nv, (tuple(range(7, 7 - 3 * nv, -3)), (0,) * (nv - 1) + (5,)))])


class TestPackedKernel:
    """The packed-int kernel gives what the tuple kernel (tests/tuple_kernel.py)
    gives, reruns in a wider packing included."""

    @given(ideal=binomial_ideals())
    @settings(max_examples=400)
    @example(ideal=(WIDE, yweighted(3, 2)))  # a rerun in a wider packing
    def test_same_basis_as_tuple_kernel(self, ideal):
        gens, order = ideal
        expected = tuple_kernel.buchberger(gens, order).elements
        assert buchberger(gens, order).elements == expected
        with _narrowest():
            assert buchberger(gens, order).elements == expected

    @given(nv=st.integers(1, 5), top=st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 16, 21, 500]),
           data=st.data())
    @settings(max_examples=400)
    def test_packed_operations_match_the_tuples(self, nv, top, data):
        # every exponent up to top, the range of the kernel's lcms; the tops
        # put nv top at and next to powers of two, where the field width steps
        mono = st.tuples(*[st.integers(0, top)] * nv)
        a, b = data.draw(mono), data.draw(mono)
        order = data.draw(st.sampled_from(_packing_orders(nv)))
        packing = grobner._Packing(nv, top, order.weights)
        pa, pb = packing.pack(a), packing.pack(b)
        G = packing.guards
        assert packing.unpack(pa) == a
        assert ((pb + G - pa) & G == G) == all(x <= y for x, y in zip(a, b))
        assert packing.degree(pa) == sum(a)
        assert packing.degree_key(pa) == (sum(a), packing.key(pa))
        ka, kb, ta, tb = packing.key(pa), packing.key(pb), order.key(a), order.key(b)
        assert (ka > kb, ka < kb) == (ta > tb, ta < tb)

    def test_non_homogeneous_input_raises(self):
        gens = _binomials(3, "x1^2 - x2", "x2*x3 - x1^2")
        with pytest.raises(InvariantViolation, match="non-homogeneous x1\\^2 - x2"):
            buchberger(gens, TermOrder(3))
        with pytest.raises(InvariantViolation, match="non-homogeneous x1\\^2 - x2"):
            reduce_basis(gens, TermOrder(3))

    def test_non_homogeneous_packed_generator_raises(self, monkeypatch):
        # the Apery route hands its packed pairs to the kernel as they come:
        # a pair of two degrees raises as a non-homogeneous binomial does
        seq = parse_sequence("10,13,16,19,22")
        p = presentation(seq)
        pack = p.packing.pack
        bad = p._replace(pairs=p.pairs + [(pack((2, 0, 0, 0, 0, 0)), pack((0, 1, 0, 0, 0, 0)))])
        monkeypatch.setattr(grobner, "presentation", lambda seq: bad)
        with pytest.raises(InvariantViolation, match="non-homogeneous x1\\^2 - x2"):
            toric_ideal(seq)

    def test_degree_500_elements(self):
        # 1,500,1000: toric elements of degree 500 (the lattice binomial
        # x1^500 - x2*x4^499 sets top = 4 * 500: fields of 14 bits)
        seq = CurveSequence((1, 500, 1000))
        gb = toric_ideal(seq)
        assert max(g.degree for g in gb.elements) == 500
        assert gb == _toric_ideal_by_tuples(seq)

    @pytest.mark.parametrize("degree", [7, 8, 9, 16])
    def test_generator_of_degree_top(self, degree, packings):
        # generators of one degree d in 4 variables: the first packing's top
        # is 4 d, and nv top = 16 d is a power of two at d = 8 and 16, the
        # edge of the field width
        d = degree
        gens = _binomials(4, f"x1^{d} - x4^{d}", f"x2^3*x3^{d - 3} - x1^{d}",
                          f"x1^2*x4^{d - 2} - x2^{d}")
        for order in [TermOrder(4), yweighted(4, 3), _block(4, 3)]:
            packings.clear()
            assert buchberger(gens, order).elements == tuple_kernel.buchberger(
                gens, order).elements, order
            assert packings[0] == 4 * d, order

    def test_narrow_packing_reruns_at_the_overflowing_degree(self, runs):
        # the S-pairs of TWISTED have degree 3: a packing of top 2 holds the
        # generators but not the pairs, so the packed core reruns itself at
        # the first one, in a packing of top 4 * 3, and returns the tuple
        # kernel's basis from there
        expected = tuple_kernel.buchberger(TWISTED, TermOrder(4)).elements
        assert _packed_run(grobner._Packing(4, 2), TWISTED) == (expected, 12)
        assert runs == [2, 12]

    def test_overflow_reruns_once_in_a_wider_packing(self, packings):
        # WIDE overflows its first packing (top 27) and is run again, from
        # its generators, with top three times the degree that overflowed
        expected = tuple_kernel.buchberger(WIDE, yweighted(3, 2)).elements
        assert max(max(g.lead + g.trail) for g in expected) == 65
        assert buchberger(WIDE, yweighted(3, 2)).elements == expected
        assert len(packings) == 2 and packings[0] == 27 and packings[1] % 3 == 0
        assert packings[1] > 3 * 27

    def test_block_order_with_the_widest_key_digit(self):
        # the row of the block x_1 .. x_5 of six variables spans 5 top: the
        # widest digit of any order the package or the tests use
        gb = toric_ideal(parse_sequence("10,13,16,19,22"))
        for k in range(1, 6):
            assert buchberger(gb.elements, _block(6, k)).elements == tuple_kernel.buchberger(
                gb.elements, _block(6, k)).elements, k

    @given(nv=st.integers(2, 6), top=st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 16, 21, 500]),
           data=st.data())
    @settings(max_examples=400)
    def test_layout_step_matches_the_tuples(self, nv, top, data):
        # toric_ideal's step after the x_{i+1} pass (x_{i+1} last, field i
        # counted from 0): divide by the last variable's power, then one field
        # swap; the tuple loop divided, moved x_{i+1} back and moved x_{i+2} last
        mono = st.tuples(*[st.integers(0, top)] * nv)
        a, b = data.draw(mono), data.draw(mono)
        i = data.draw(st.integers(1, nv - 1))
        packing = grobner._Packing(nv, top, ())
        pa, pb = packing.pack(a), packing.pack(b)
        k = min(pa >> packing.last, pb >> packing.last)
        assert k == min(a[-1], b[-1])
        for m, p in ((a, pa), (b, pb)):
            back = m[:i] + (m[-1] - k,) + m[i:-1]
            moved = back[:i + 1] + back[i + 2:] + back[i + 1:i + 2]  # i = nv - 1: back
            assert packing.unpack(packing.swap(p - (k << packing.last), i)) == moved


LADDER = [(1, 500, 1000), (5, 26, 32, 38, 101), (11, 17, 23, 41, 53, 60),
          (13, 29, 31, 47, 59, 71, 80)]


def _assert_lll_reduced(basis):
    """|mu_ij| <= 1/2 and the Lovasz condition with delta = 99/100."""
    star, norms = [], []
    for i, b in enumerate(basis):
        v = [Fraction(x) for x in b]
        mu = []
        for j in range(i):
            mu.append(sum(x * y for x, y in zip(b, star[j])) / norms[j])
            v = [x - mu[j] * y for x, y in zip(v, star[j])]
        assert all(abs(c) <= Fraction(1, 2) for c in mu), (basis, i)
        star.append(v)
        norms.append(sum(x * x for x in v))
        if i:
            assert norms[i] >= (Fraction(99, 100) - mu[i - 1] ** 2) * norms[i - 1], (basis, i)


def _lll_fraction(basis):
    """Reference: textbook LLL (delta = 0.99) with exact Fraction arithmetic.  A
    size-reduction step b_k -= r b_j leaves the Gram-Schmidt vectors as they
    are and updates mu[k][0..j] in place; only a swap recomputes them."""
    delta = Fraction(99, 100)
    b = [list(v) for v in basis]
    n = len(b)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gso():
        star = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = dot(b[i], star[j]) / dot(star[j], star[j])
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
        return star, mu

    star, mu = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            r = int(q + Fraction(1, 2)) if q >= 0 else -int(-q + Fraction(1, 2))
            if r != 0:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for t in range(j):
                    mu[k][t] -= r * mu[j][t]
                mu[k][j] -= r
        if dot(star[k], star[k]) >= (delta - mu[k][k - 1] ** 2) * dot(star[k - 1], star[k - 1]):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star, mu = gso()
            k = max(k - 1, 1)
    return b


def _gram_determinant(basis):
    """The determinant of the Gram matrix, by elimination without pivoting:
    on a positive semidefinite matrix a zero pivot means a singular one."""
    g = [[Fraction(sum(x * y for x, y in zip(u, v))) for v in basis] for u in basis]
    det = Fraction(1)
    for i in range(len(g)):
        if g[i][i] == 0:
            return 0
        det *= g[i][i]
        for r in range(i + 1, len(g)):
            f = g[r][i] / g[i][i]
            g[r] = [x - f * y for x, y in zip(g[r], g[i])]
    return det


def _independent(basis):
    return _gram_determinant(basis) != 0


@st.composite
def integer_bases(draw):
    size = draw(st.integers(2, 6))
    dim = draw(st.integers(size, size + 2))
    vector = st.lists(st.integers(-60, 60), min_size=dim, max_size=dim)
    return draw(st.lists(vector, min_size=size, max_size=size).filter(_independent))


@st.composite
def curve_sequences(draw):
    """n = 2..6 and m_n <= 40, with a common factor g > 1 in about half the draws."""
    g = draw(st.sampled_from([1, 1, 2, 3]))
    m = draw(st.lists(st.integers(1, 40 // g), min_size=2, max_size=6, unique=True))
    return CurveSequence(tuple(sorted(g * x for x in m)))


class TestLatticeBasis:
    def test_rank_and_kernel(self):
        for m in [(1, 2), (3, 5, 7), (10, 13, 16, 19, 22), (2, 35, 46, 57, 68)] + LADDER:
            s = CurveSequence(m)
            basis = lattice_basis(s)
            assert len(basis) == s.n - 1
            for v in basis:
                plus = tuple(max(x, 0) for x in v)
                minus = tuple(max(-x, 0) for x in v)
                assert bidegree(s, plus) == bidegree(s, minus)
            _assert_lll_reduced(basis)

    def test_ladder_pinned(self):
        expected = [
            [(0, 2, -1, -1), (500, -167, 83, -416)],
            [(0, -1, 2, -1, 0, 0), (1, 1, 1, 1, -1, -3), (-3, 2, 2, 0, -1, 0), (1, 3, -1, -4, 1, 0)],
            [(-1, 0, 1, 1, -1, 0, 0), (-1, 2, -1, 0, 0, 0, 0), (-1, 0, -1, 1, 1, -1, 1),
             (-1, 1, 1, -2, 1, 0, 0), (2, 0, 1, 2, 1, -3, -3)],
            [(-1, 1, 1, -1, 0, 0, 0, 0), (0, 0, 0, -1, 2, -1, 0, 0), (-2, 0, 0, 1, 1, 0, -1, 1),
             (-1, 0, 1, 0, 0, 2, -2, 0), (0, 0, 2, 0, 0, -2, 1, -1), (0, 1, -1, 2, 1, -1, -1, -1)],
        ]
        assert [lattice_basis(CurveSequence(m)) for m in LADDER] == expected

    @given(basis=integer_bases())
    @settings(max_examples=200)
    def test_same_as_fraction_lll(self, basis):
        assert grobner._lll(basis) == _lll_fraction(basis)

    @given(m=st.lists(st.integers(1, 60), min_size=2, max_size=6, unique=True))
    @settings(max_examples=200)
    def test_same_as_fraction_lll_on_kernels(self, m):
        seq = CurveSequence(tuple(sorted(m)))
        with mock.patch.object(grobner, "_lll", wraps=grobner._lll) as lll:
            basis = lattice_basis(seq)
        (chain,), _ = lll.call_args  # the extended-Euclid kernel basis
        assert basis == [tuple(v) for v in _lll_fraction(chain)]

    @given(seq=curve_sequences())
    @settings(max_examples=200)
    @example(seq=CurveSequence((6, 10, 15)))  # gcd 1, no two entries coprime
    @example(seq=CurveSequence((4, 6, 9, 12)))
    def test_covolume_of_the_saturated_kernel(self, seq):
        # Cauchy-Binet: det(A A^T) is the sum of the squared 2 x 2 minors of
        # the bidegree matrix A, and their gcd d is the index of A's row
        # lattice in its saturation, whose covolume the kernel shares
        columns = [(x, seq.mn - x) for x in seq.m] + [(0, seq.mn)]
        minors = [a * d - b * c for (a, b), (c, d) in itertools.combinations(columns, 2)]
        d = math.gcd(*minors)
        assert _gram_determinant(lattice_basis(seq)) == sum(x * x for x in minors) // (d * d)

    @given(seq=curve_sequences())
    @settings(max_examples=100)
    def test_gcd_free(self, seq):
        assert lattice_basis(seq) == lattice_basis(seq.with_gcd_one())

    def test_dependent_basis_raises(self):
        with pytest.raises(InvariantViolation, match="dependent"):
            grobner._lll([[1, 2], [2, 4]])


class TestToricIdeal:
    def test_twisted_cubic(self):
        gb = toric_ideal(CurveSequence((1, 2, 3)))
        assert gb.element_set() == set(TWISTED)

    def test_golden_element_count(self):
        assert len(toric_ideal(parse_sequence("10,13,16,19,22")).elements) == 9

    def test_conic(self):
        gb = toric_ideal(CurveSequence((1, 2)))
        assert gb.element_set() == set(_binomials(3, "x1^2 - x2*x3"))

    def test_restriction_golden(self):
        # tail restriction of in(I(C)) for (5,26,32,38)
        ini = toric_ideal(parse_sequence("5,26,32,38")).initial
        assert ini.restrict(1) == _ideal(4, "x1^6", "x1^5*x2", "x2^2")

    def test_all_members_and_no_monomials(self):
        for m in [(1, 2, 3), (3, 5, 7), (7, 30, 39, 48, 57, 66)]:
            s = CurveSequence(m)
            gb = toric_ideal(s)
            for g in gb.elements:
                assert g.lead != g.trail
                assert is_member_binomial(s, g)

    def test_scaled_sequences_same_ideal(self):
        a = toric_ideal(CurveSequence((26, 32, 38)))
        b = toric_ideal(CurveSequence((13, 16, 19)))
        assert a.element_set() == b.element_set()

    def test_one_buchberger_run_per_variable(self, monkeypatch):
        made, runs = [], []  # (arguments, packing) of each _Packing; the packing of each run
        stopped = []  # per run, whether it stopped after its generators
        packing_class, run = grobner._Packing, grobner._buchberger

        def packing(*args):
            made.append((args, packing_class(*args)))
            return made[-1][1]

        def counting(packing, gens, target=None):
            runs.append(packing)
            packing, pairs, ideal = run(packing, gens, target)
            stopped.append(ideal is not None)
            return packing, pairs, ideal

        monkeypatch.setattr(grobner, "_Packing", packing)
        monkeypatch.setattr(semigroup, "_Packing", packing)
        monkeypatch.setattr(grobner, "_buchberger", counting)
        # n <= 4, and n >= 5 with m_n above APERY_MAX_MN's bound for n (128
        # at n = 5, 360 at n = 6, 1600 from n = 7 on): the saturation route
        for m in [(1, 2, 3), (3, 5, 7), (5, 26, 32, 38), (1, 2, 3, 4), (2, 3, 7, 11),
                  (1, 2, 3, 4, 129), (1, 100, 200, 300, 100000), (1, 2, 3, 4, 5, 361),
                  (1, 2, 3, 4, 5, 6, 1601)]:
            made.clear()
            runs.clear()
            stopped.clear()
            seq = CurveSequence(m)
            toric_ideal(seq)
            assert not any(stopped), m
            # one packing, and one packed run in it per saturated variable x_2 .. x_{n+1};
            # its top is n + 1 times the largest degree of a lattice binomial
            degree = max(sum(map(abs, v)) // 2 for v in grobner._degree_reduced(lattice_basis(seq)))
            assert [args for args, _ in made] == [(len(m) + 1, (len(m) + 1) * degree, ())], m
            assert runs == [made[0][1]] * len(m), m
        for m in [(10, 13, 16, 19, 22), (1, 2, 3, 4, 6), (7, 30, 39, 48, 57, 66),
                  (1, 2, 3, 4, 128), (5, 26, 32, 38, 101), (1, 2, 3, 4, 5, 360),
                  (1, 2, 3, 4, 5, 6, 1600), (11, 12, 15, 79, 113, 130, 159, 277)]:
            seq = CurveSequence(m)
            # n >= 5 and m_n within the bound: one packing, the presentation's,
            # and one run in it; its top is (n + 1)(D + 1), D the degree of
            # the last Apery layer, and here D + 1 is the largest degree of a
            # generator, so the top is the one the kernel would pick
            top = max(apery(seq.m)[0].values()) + 1
            assert max(g.degree for g in binomials(presentation(seq))) == top, m
            made.clear()
            runs.clear()
            stopped.clear()
            toric_ideal(seq)
            assert [args for args, _ in made] == [(len(m) + 1, (len(m) + 1) * top)], m
            assert runs == [made[0][1]], m
            # the leads of the generators have the curve's Hilbert series: no S-pair
            assert stopped == [True], m

    @pytest.mark.parametrize("m", [(5, 26, 27), (4, 23, 24)], ids=lambda m: ",".join(map(str, m)))
    def test_saturation_chain_reruns_once(self, m, packings, monkeypatch):
        # the x_4 pass of the first packing meets an S-pair above its top;
        # that pass alone runs again, on its own generators repacked in a
        # wider packing, the passes before it are not repeated, and the
        # chain gives the basis of the tuple loop
        calls, run = [], grobner._buchberger  # (top, unpacked generators) of each run

        def recording(packing, gens, target=None):
            calls.append((packing.top, [tuple(map(packing.unpack, g)) for g in gens]))
            return run(packing, gens, target)

        monkeypatch.setattr(grobner, "_buchberger", recording)
        seq = CurveSequence(m)
        assert toric_ideal(seq) == _toric_ideal_by_tuples(seq)
        runs = [top for top, _ in calls]
        assert len(packings) == 2 and runs == [packings[0]] * 3 + [packings[1]], runs
        assert calls[2][1] == calls[3][1]

    def test_witness_run_reruns_once(self, packings, runs):
        # 14,29,39 under its first y-dominant order: one rerun, and the
        # basis of the tuple kernel
        gb = toric_ideal(CurveSequence((14, 29, 39)))
        packings.clear()
        runs.clear()
        order = yweighted(4, 0)
        assert buchberger(gb.elements, order).elements == tuple_kernel.buchberger(
            gb.elements, order).elements
        assert len(packings) == 2 and runs == packings, runs


def _toric_ideal_by_tuples(seq):
    """Reference: the saturation passes of `grobner._saturated` on tuples,
    through the tuple kernel, from the same degree-reduced lattice basis.
    Before the x_i pass each element moves x_i to the last coordinate by
    slicing; after it each is divided by the largest power of its last
    variable and x_i moves back."""
    nv = seq.n + 1
    plain = TermOrder(nv)
    current = [Binomial(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
               for v in grobner._degree_reduced(lattice_basis(seq))]
    for i in range(1, nv):
        gb = tuple_kernel.buchberger([Binomial(g.lead[:i] + g.lead[i + 1:] + g.lead[i:i + 1],
                                               g.trail[:i] + g.trail[i + 1:] + g.trail[i:i + 1])
                                      for g in current], plain)
        current = []
        for g in gb.elements:
            k = min(g.lead[-1], g.trail[-1])
            current.append(Binomial(g.lead[:i] + (g.lead[-1] - k,) + g.lead[i:-1],
                                    g.trail[:i] + (g.trail[-1] - k,) + g.trail[i:-1]))
    return grobner.GroebnerBasis(plain, tuple_kernel.reduce_basis(current, plain))


class TestPackedSaturation:
    """The saturation route's passes in one packing give what the tuple loop
    gives."""

    @given(seq=st.lists(st.integers(1, 30), min_size=2, max_size=5, unique=True).map(
        lambda m: CurveSequence(tuple(sorted(m)))))
    @settings(max_examples=300)
    @example(seq=CurveSequence((1, 2, 3)))
    @example(seq=CurveSequence((1, 6, 12)))  # the degree-reduced basis is not LLL's
    @example(seq=CurveSequence((4, 23, 24)))  # a rerun in a wider packing
    def test_same_basis_as_the_tuple_loop(self, seq):
        expected = _toric_ideal_by_tuples(seq)
        assert grobner._saturated(seq) == expected
        with _narrowest():
            assert grobner._saturated(seq) == expected


# the fixed curves of the benchmark's report workload: golden, counterexample,
# ladder and quadric-stage curves
REPORT_CURVES = [(10, 13, 16, 19, 22), (4, 5, 6, 7, 8), (7, 30, 39, 48, 57, 66),
                 (2, 35, 46, 57, 68), (5, 26, 32, 38), (1, 500, 1000), (5, 26, 32, 38, 101),
                 (11, 17, 23, 41, 53, 60), (13, 29, 31, 47, 59, 71, 80), (1, 2, 3, 4, 6),
                 (2, 3, 4, 5, 6, 8)]


class TestHeadroom:
    """`toric_ideal` once bounded every Buchberger degree by a guard of
    4 (m_n + n), and sized its packing from it.  These curves finish in their
    first packing, with no rerun, and its top is at most half that guard: a
    kernel change that sends them into a rerun, or widens their first
    packing past the old one, fails here, not in a user's run."""

    @pytest.mark.parametrize("m", REPORT_CURVES, ids=lambda m: ",".join(map(str, m)))
    def test_half_the_guard_gives_the_same_basis(self, m, packings, runs):
        seq = CurveSequence(m)
        gb = toric_ideal(seq)
        assert len(packings) == 1 and packings[0] <= 2 * (seq.mn + seq.n)
        assert runs == packings * len(runs)
        assert gb == _toric_ideal_by_tuples(seq)

    @pytest.mark.parametrize("text", ["1,2,3,4,6", "2,3,4,5,6,8"])
    def test_half_the_guard_gives_the_same_witness(self, text, packings, runs):
        # the Koszul witness search runs Buchberger from the basis under
        # each y-dominant order until one is quadratic: each of those runs
        # finishes in its first packing too
        seq = parse_sequence(text)
        gb = toric_ideal(seq)
        assert quadratic_gb_witness(gb) is not None
        for idx in range(seq.n - 1):
            packings.clear()
            runs.clear()
            has_quadratic_gb(gb, yweighted(seq.n + 1, idx))
            assert runs == packings and packings[0] <= 2 * (seq.mn + seq.n), idx


def _toric_ideal_every_variable(seq):
    """Reference: saturation by every variable x_1 .. x_{n+1}, each pass under
    the degrevlex order that makes x_i cheapest, dividing by x_i in place."""
    nv = seq.n + 1
    current = [Binomial(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
               for v in lattice_basis(seq)]
    for i in range(nv):
        gb = buchberger(current, degrevlex_cheapest(nv, i))
        current = []
        for g in gb.elements:
            k = min(g.lead[i], g.trail[i])
            current.append(Binomial(
                tuple(e - k if j == i else e for j, e in enumerate(g.lead)),
                tuple(e - k if j == i else e for j, e in enumerate(g.trail))))
    return reduce_basis(current, TermOrder(nv))


class TestSaturation:
    """Saturating x_2 .. x_{n+1} gives the basis of saturating every variable."""

    @given(seq=curve_sequences())
    @settings(max_examples=200)
    @example(seq=CurveSequence((10, 13, 16, 19, 22)))  # the goldens
    @example(seq=CurveSequence((7, 30, 39, 48, 57, 66)))
    @example(seq=CurveSequence((1, 500, 1000)))  # the ladder
    @example(seq=CurveSequence((5, 26, 32, 38, 101)))
    @example(seq=CurveSequence((11, 17, 23, 41, 53, 60)))
    @example(seq=CurveSequence((13, 29, 31, 47, 59, 71, 80)))
    def test_same_basis_as_saturating_every_variable(self, seq):
        assert toric_ideal(seq).elements == _toric_ideal_every_variable(seq)


def _l1(v):
    return sum(map(abs, v))


class TestDegreeReduced:
    """The L1 size reduction that `toric_ideal` applies to the LLL basis."""

    @given(data=st.data(), dim=st.integers(1, 8))
    @settings(max_examples=500)
    def test_best_multiple_is_a_minimum(self, data, dim):
        # every breakpoint |u_t / v_t| is at most 150, so a minimum lies in |k| <= 200
        u = data.draw(st.lists(st.integers(-150, 150), min_size=dim, max_size=dim))
        v = data.draw(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim).filter(any))
        k = grobner._best_multiple(u, v)
        norms = {j: _l1([x - j * y for x, y in zip(u, v)]) for j in range(-200, 201)}
        assert norms[k] == min(norms.values())
        if min(n for j, n in norms.items() if j) >= norms[0]:
            assert k == 0

    @given(seq=curve_sequences())
    @settings(max_examples=200)
    @example(seq=CurveSequence((13, 29, 31, 47, 59, 71, 80)))
    def test_same_lattice_and_no_longer(self, seq):
        lll = lattice_basis(seq)
        reduced = grobner._degree_reduced(lll)
        for v in reduced:
            assert is_member_binomial(seq, Binomial(tuple(max(x, 0) for x in v),
                                                    tuple(max(-x, 0) for x in v)))
        # members of L with L's covolume span L
        assert _gram_determinant(reduced) == _gram_determinant(lll)
        assert sum(map(_l1, reduced)) <= sum(map(_l1, lll))

    def test_pinned(self):
        assert grobner._degree_reduced(lattice_basis(CurveSequence((1, 500, 1000)))) == [
            (0, 2, -1, -1), (500, -1, 0, -499)]
        gb = toric_ideal(CurveSequence((1, 2000, 4000)))
        assert gb.elements == tuple(_binomials(4, "x2^2 - x3*x4", "x1^2000 - x2*x4^1999"))


class TestInitialIdeal:
    def test_twisted_cubic(self):
        ini = toric_ideal(CurveSequence((1, 2, 3))).initial
        assert ini == _ideal(4, "x2^2", "x1^2", "x1*x2")

    def test_golden_staircase(self):
        ini = toric_ideal(parse_sequence("10,13,16,19,22")).initial
        expected = _ideal(
            6,
            "x2^2", "x2*x3", "x2*x4", "x3^2", "x3*x4", "x4^2",
            "x1^6", "x1^5*x2", "x1^5*x3",
        )
        assert ini == expected

    def test_empty_gb(self):
        gb = buchberger([], TermOrder(3))
        assert gb.initial.is_zero


def _eliminate(gb, keep_from):
    """Reduced degrevlex basis of I /\\ K[x_{keep_from+1}, ..., x_{n+1}] for the
    ideal I with basis `gb`, by a block order (degree in the eliminated
    variables first), computed from `gb`; it lives in the ring of the last
    n + 1 - keep_from variables."""
    nv = gb.nvars
    block = TermOrder(nv, ((1,) * keep_from + (0,) * (nv - keep_from),))
    kept = [Binomial(g.lead[keep_from:], g.trail[keep_from:])
            for g in buchberger(gb.elements, block).elements
            if not any(g.lead[:keep_from]) and not any(g.trail[:keep_from])]
    return buchberger(kept, TermOrder(nv - keep_from))


class TestEliminate:
    """I(C) /\\ K[x_2, ..., x_{n+1}] = I(C') as ideals, with C' the tail curve,
    also where the initial ideals differ (the paper's counterexamples)."""

    def test_counterexample_sequences(self):
        # elimination ideal equals the toric ideal of the tail curve
        for m in [(2, 35, 46, 57, 68), (5, 26, 32, 38)]:
            s = CurveSequence(m)
            elim = _eliminate(toric_ideal(s), 1)
            tail = toric_ideal(CurveSequence(m[1:]))
            assert elim.element_set() == tail.element_set()

    def test_h_divides_d_restriction_equality(self):
        s = parse_sequence("7,30,39,48,57,66")
        gb = toric_ideal(s)
        tail_ini = toric_ideal(CurveSequence(s.m[1:])).initial
        assert gb.initial.restrict(1) == tail_ini
        assert _eliminate(gb, 1).initial == tail_ini


def _quadrics(gb):
    """The degree-2 elements of a basis."""
    return {g for g in gb.elements if g.degree == 2}


def _quadric_pairs(seq):
    """Reference spanning set of I(C)_2: every difference of two degree-2
    monomials of equal bidegree."""
    nv = seq.n + 1
    by_bideg = {}
    for i, j in itertools.combinations_with_replacement(range(nv), 2):
        m = tuple((i == t) + (j == t) for t in range(nv))
        by_bideg.setdefault(bidegree(seq, m), []).append(m)
    return [Binomial(a, b) for monos in by_bideg.values()
            for a, b in itertools.combinations(monos, 2)]


QUADRIC_CURVES = [(1, 2, 3), (3, 5, 7), (1, 2, 4, 8), (1, 2, 3, 5), (1, 2, 4, 6),
                  (10, 13, 16, 19, 22)]


class TestQuadrics:
    def test_twisted_cubic_exact(self):
        assert _quadrics(toric_ideal(CurveSequence((1, 2, 3)))) == set(TWISTED)

    def test_3_5_7_unique_relation(self):
        assert _quadrics(toric_ideal(CurveSequence((3, 5, 7)))) == set(
            _binomials(4, "x2^2 - x1*x3"))

    def test_geometric_pattern(self):
        # doubling sequence: 2 m_i = m_{i+1}, so x_i^2 - x_{i+1} x_{n+1} for each i
        assert _quadrics(toric_ideal(CurveSequence((1, 2, 4, 8)))) == set(_binomials(
            5, "x1^2 - x2*x5", "x2^2 - x3*x5", "x3^2 - x4*x5"))

    def test_quadrics_of_the_basis_span_every_quadric_pair(self):
        # I(C) has no linear forms, so the reduced degrevlex bases of I(C)
        # and of <I(C)_2> share their degree-2 elements
        for m in QUADRIC_CURVES:
            s = CurveSequence(m)
            gb = toric_ideal(s)
            pairs = buchberger(_quadric_pairs(s), TermOrder(s.n + 1))
            assert _quadrics(pairs) == _quadrics(gb), m

    def test_generated_by_quadrics(self):
        for m, expected in [((1, 2, 3), True), ((3, 5, 7), False), ((1, 2, 3, 5), True)]:
            assert is_generated_by_quadrics(toric_ideal(CurveSequence(m))) == expected, m

    def test_quadric_generation_needs_a_degrevlex_basis(self):
        gb = toric_ideal(CurveSequence((1, 2, 4, 6)))
        with pytest.raises(InvariantViolation):
            is_generated_by_quadrics(buchberger(gb.elements, yweighted(5, 0)))

    def test_quadratic_gb(self):
        assert has_quadratic_gb(toric_ideal(CurveSequence((1, 2, 3))), TermOrder(4))
        assert not has_quadratic_gb(toric_ideal(parse_sequence("10,13,16,19,22")), TermOrder(6))
        assert has_quadratic_gb(toric_ideal(CurveSequence((1, 2, 4, 8))), TermOrder(5))

    def test_quadratic_gb_yweighted(self):
        # base (2,4,6) with distinguished variable of weight 1
        gb = toric_ideal(CurveSequence((1, 2, 4, 6)))
        assert has_quadratic_gb(gb, yweighted(5, 0))
        assert not has_quadratic_gb(gb, yweighted(5, 2))


class TestSerialization:
    def test_round_trip(self, capsys):
        from mcurve.cli import main
        s = parse_sequence("3,5,7")
        gb = toric_ideal(s)
        text = render_gb(gb.order, gb.elements, s)
        assert text == ("# order=degrevlex vars=4 seq=3,5,7\n"
                        "x2^2 - x1*x3\n"
                        "x1^3*x2 - x3^2*x4^2\n"
                        "x1^4 - x2*x3*x4^2\n")
        assert main(["gb", "-m", "3,5,7"]) == 0
        assert capsys.readouterr().out == text


seq_strategy = st.lists(
    st.integers(1, 14), min_size=2, max_size=4, unique=True
).map(lambda v: CurveSequence(tuple(sorted(v))))


class TestOracleProperties:
    @given(seq=seq_strategy, salt=st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_determinism_under_permutation(self, seq, salt):
        import random
        gb = toric_ideal(seq)
        perm = list(gb.elements)
        random.Random(salt).shuffle(perm)
        again = buchberger(perm, TermOrder(seq.n + 1))
        assert again.elements == gb.elements

    @given(seq=seq_strategy)
    @settings(max_examples=200)
    def test_no_monomial_in_toric_gb(self, seq):
        gb = toric_ideal(seq)
        for g in gb.elements:
            assert g.lead != g.trail
            assert is_member_binomial(seq, g)
