"""Buchberger oracle: bases, saturation, elimination, quadric tests."""

import heapq
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcurve import grobner
from mcurve.errors import DegreeCapExceeded, InvariantViolation
from mcurve.grobner import (
    buchberger,
    has_quadratic_gb,
    initial_ideal,
    is_generated_by_quadrics,
    lattice_basis,
    reduce_basis,
    render_gb,
    toric_ideal,
)
from mcurve.koszul import quadratic_gb_witness
from mcurve.monideal import MonomialIdeal
from mcurve.poly import Binomial, TermOrder, bidegree, is_member_binomial, yweighted
from mcurve.semigroup import presentation
from mcurve.seq import CurveSequence, parse_sequence
import tuple_kernel
from orders import degrevlex_cheapest
from textforms import parse_binomial, parse_monomial


def _ideal(nvars, *texts):
    return MonomialIdeal.from_gens(nvars, [parse_monomial(t, nvars) for t in texts])


def _binomials(nvars, *texts):
    return [parse_binomial(t, nvars) for t in texts]


TWISTED = _binomials(4, "x2^2 - x1*x3", "x1^2 - x2*x4", "x1*x2 - x3*x4")


class TestBuchberger:
    def test_twisted_cubic_already_groebner(self):
        gb = buchberger(TWISTED, TermOrder(4), 8)
        assert gb.element_set() == set(TWISTED)

    def test_empty_input(self):
        gb = buchberger([], TermOrder(4), 2)
        assert gb.elements == ()

    def test_either_orientation(self):
        swapped = [Binomial(g.trail, g.lead) for g in TWISTED]
        assert buchberger(swapped, TermOrder(4), 8) == buchberger(TWISTED, TermOrder(4), 8)

    def test_zero_difference_dropped(self):
        zero = Binomial((1, 1, 0, 0), (1, 1, 0, 0))
        assert buchberger([zero], TermOrder(4), 2).elements == ()
        assert buchberger([zero, *TWISTED], TermOrder(4), 8) == buchberger(TWISTED, TermOrder(4), 8)

    def test_closed_form_reduces_to_oracle(self):
        from mcurve.arith_forms import gb_arithmetic
        from mcurve.seq import arithmetic_profile
        s = parse_sequence("10,13,16,19,22")
        closed = gb_arithmetic(arithmetic_profile(s))
        oracle = toric_ideal(s)
        gb = buchberger(closed, TermOrder(6), oracle.cap)
        assert gb.element_set() == set(reduce_basis(closed, TermOrder(6)))
        assert gb.element_set() == oracle.element_set()

    def test_cap_exceeded(self):
        s = parse_sequence("10,13,16,19,22")
        with pytest.raises(DegreeCapExceeded):
            grobner._saturated(s, 3)

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


def _buchberger_coprime_only(gens, order, cap):
    """Reference: Buchberger with the coprime-leads criterion as the only
    pair criterion, every other pair selected and cap-checked."""
    key = order.key
    leads, trails, pairs = [], [], []

    def add(a, b):
        nf = tuple_kernel.normal_form(a, b, leads, trails, key)
        if nf is None:
            return
        lead, trail = nf
        if sum(lead) > cap:
            raise DegreeCapExceeded(f"basis element of degree {sum(lead)} exceeds cap {cap}")
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
        if sum(lcm) > cap:
            raise DegreeCapExceeded(f"S-pair degree {sum(lcm)} exceeds cap {cap}")
        add(tuple(l - x + t for l, x, t in zip(lcm, leads[i], trails[i])),
            tuple(l - x + t for l, x, t in zip(lcm, leads[j], trails[j])))
    return tuple_kernel.reduce_basis([Binomial(a, b) for a, b in zip(leads, trails)], order)


def _block(nv, k):
    """The block order that compares the degree in x_1 .. x_k first."""
    return TermOrder(nv, ((1,) * k + (0,) * (nv - k),))


@st.composite
def binomial_ideals(draw):
    """Up to four homogeneous binomials (both sides of one degree, as
    `buchberger` requires) in 2..5 variables, a term order and a cap."""
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
    return gens, order, draw(st.integers(4, 10))


class TestPairCriteria:
    """The Gebauer-Moeller criteria drop only pairs that reduce to zero."""

    @given(ideal=binomial_ideals())
    @settings(max_examples=400)
    def test_same_basis_as_coprime_criterion_alone(self, ideal):
        gens, order, cap = ideal
        try:
            gb = buchberger(gens, order, cap)
        except DegreeCapExceeded:
            gb = None
        try:
            expected = _buchberger_coprime_only(gens, order, cap)
        except DegreeCapExceeded:
            pass  # a pair over the cap that the criteria drop: gb may still exist
        else:
            assert gb is not None and gb.elements == expected
        if gb is not None:
            leads = [g.lead for g in gb.elements]
            trails = [g.trail for g in gb.elements]
            for g, h in itertools.combinations(gb.elements, 2):
                lcm = tuple(max(x, y) for x, y in zip(g.lead, h.lead))
                sides = [tuple(l - x + t for l, x, t in zip(lcm, f.lead, f.trail)) for f in (g, h)]
                assert (tuple_kernel.reduce_monomial(sides[0], leads, trails)
                        == tuple_kernel.reduce_monomial(sides[1], leads, trails)), (g, h)

    def test_dropped_pair_is_not_cap_checked(self):
        # the reference selects the pair of x1^2*x2 - x3^3 and the new element
        # x2*x3^2 - x3^3, of degree 5, and raises; buchberger never forms it,
        # since x1 - x3 retired x1^2*x2 - x3^3 from pairing, and the pair of
        # x1 - x3 and x2*x3^2 - x3^3 has coprime leads
        gens = _binomials(3, "x3^3 - x1^2*x2", "x3 - x1")
        with pytest.raises(DegreeCapExceeded):
            _buchberger_coprime_only(gens, yweighted(3, 1), 3)
        assert buchberger(gens, yweighted(3, 1), 3).elements == tuple(
            _binomials(3, "x1 - x3", "x2*x3^2 - x3^3"))

    def test_every_queued_pair_is_cap_checked(self):
        # the pair of leads x2*x3 and x1^5*x2 has degree 7, and the later lead
        # x1^4 divides its lcm; every queued pair is reduced, so it is
        # selected and meets the cap
        gens = _binomials(3, "x2*x3 - x1^2", "x1^3*x2^3 - x1^3*x2^2*x3", "x1^2 - x3^2")
        with pytest.raises(DegreeCapExceeded, match="^S-pair degree 7 exceeds cap 6$"):
            buchberger(gens, yweighted(3, 2), 6)
        assert buchberger(gens, yweighted(3, 2), 7).elements == _buchberger_coprime_only(
            gens, yweighted(3, 2), 7)


def _outcome(run, *args):
    """The basis a kernel or a saturation returns, or the message of its
    DegreeCapExceeded."""
    try:
        return run(*args).elements
    except DegreeCapExceeded as exc:
        return f"DegreeCapExceeded: {exc}"


def _packing_orders(nv):
    return ([TermOrder(nv)] + [degrevlex_cheapest(nv, i) for i in range(nv - 1)]
            + [yweighted(nv, i) for i in range(nv)] + [_block(nv, k) for k in range(1, nv)]
            + [TermOrder(nv, (tuple(range(7, 7 - 3 * nv, -3)), (0,) * (nv - 1) + (5,)))])


class TestPackedKernel:
    """The packed-int kernel gives what the tuple kernel (tests/tuple_kernel.py)
    gives, cap errors included."""

    @given(ideal=binomial_ideals(), slack=st.integers(-1, 4))
    @settings(max_examples=400)
    def test_same_basis_or_same_cap_error_as_tuple_kernel(self, ideal, slack):
        # caps from one below the largest generator degree up: about a
        # quarter of the draws raise, most of them at an S-pair
        gens, order, _ = ideal
        cap = max(g.degree for g in gens) + slack
        assert _outcome(buchberger, gens, order, cap) == _outcome(
            tuple_kernel.buchberger, gens, order, cap)

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
            buchberger(gens, TermOrder(3), 4)
        with pytest.raises(InvariantViolation, match="non-homogeneous x1\\^2 - x2"):
            reduce_basis(gens, TermOrder(3))

    def test_degree_500_elements(self):
        # 1,500,1000: toric elements of degree 500 (the cap 4012 sets top:
        # fields of 15 bits)
        seq = CurveSequence((1, 500, 1000))
        gb = toric_ideal(seq)
        assert max(g.degree for g in gb.elements) == 500
        assert gb == _toric_ideal_by_tuples(seq)

    @pytest.mark.parametrize("cap", [7, 8, 9, 16])
    def test_generator_of_degree_top(self, cap):
        # degree 8 in 4 variables: top = 8 for every cap up to 8, and nv top = 32
        # is a power of two, the edge of the field width
        gens = _binomials(4, "x1^8 - x4^8", "x2^3*x3^5 - x1^8", "x1^2*x4^6 - x2^8")
        for order in [TermOrder(4), yweighted(4, 3), _block(4, 3)]:
            assert _outcome(buchberger, gens, order, cap) == _outcome(
                tuple_kernel.buchberger, gens, order, cap), order
        if cap < 8:
            with pytest.raises(DegreeCapExceeded,
                               match=f"^basis element of degree 8 exceeds cap {cap}$"):
                buchberger(gens, TermOrder(4), cap)

    def test_top_comes_from_the_cap(self, run_python):
        # degree-9 generators in three variables whose basis under yweighted:x3
        # reaches x3^65: fields sized by the generators alone (nv top = 27:
        # five bits and a guard) overflow, and the reduction need not end, so
        # the packed run is a child process under a timeout
        gens = [Binomial((0, 1, 8), (2, 4, 3)), Binomial((9, 0, 0), (1, 7, 1))]
        expected = tuple_kernel.buchberger(gens, yweighted(3, 2), 70).elements
        assert max(max(g.lead + g.trail) for g in expected) == 65
        proc = run_python("-c", "from mcurve.grobner import buchberger\n"
                          "from mcurve.poly import Binomial, yweighted\n"
                          f"print(repr(buchberger({gens!r}, yweighted(3, 2), 70).elements))")
        assert proc.stdout == repr(expected) + "\n", proc.stderr

    def test_block_order_with_the_widest_key_digit(self):
        # the row of the block x_1 .. x_5 of six variables spans 5 top: the
        # widest digit of any order the package or the tests use
        gb = toric_ideal(parse_sequence("10,13,16,19,22"))
        for k in range(1, 6):
            assert _outcome(buchberger, gb.elements, _block(6, k), gb.cap) == _outcome(
                tuple_kernel.buchberger, gb.elements, _block(6, k), gb.cap), k

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

    def test_pair_over_the_cap_raises_as_before(self):
        with pytest.raises(DegreeCapExceeded, match="^S-pair degree 3 exceeds cap 2$"):
            buchberger(TWISTED, TermOrder(4), 2)
        assert _outcome(buchberger, TWISTED, TermOrder(4), 2) == _outcome(
            tuple_kernel.buchberger, TWISTED, TermOrder(4), 2)


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
            [(0, -2, 1, 1), (-500, 167, -83, 416)],
            [(0, 1, -2, 1, 0, 0), (-1, -1, -1, -1, 1, 3), (3, -2, -2, 0, 1, 0), (-1, -3, 1, 4, -1, 0)],
            [(1, 0, -1, -1, 1, 0, 0), (1, -2, 1, 0, 0, 0, 0), (-1, 0, -1, 1, 1, -1, 1),
             (-1, 1, 1, -2, 1, 0, 0), (1, 2, 0, 2, 1, -3, -3)],
            [(1, -1, -1, 1, 0, 0, 0, 0), (0, 0, 0, 1, -2, 1, 0, 0), (2, 0, 0, -1, -1, 0, 1, -1),
             (0, -1, 0, 1, 0, 2, -2, 0), (-1, 1, -1, -1, 0, 2, -1, 1), (1, -2, 0, -1, -1, 1, 1, 1)],
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
        kernel = grobner._integer_kernel([list(seq.m) + [0], [seq.mn - x for x in seq.m] + [seq.mn]])
        assert lattice_basis(seq) == [tuple(v) for v in _lll_fraction(kernel)]

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
        ini = initial_ideal(toric_ideal(parse_sequence("5,26,32,38")))
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

        def counting(packing, gens, cap, target=None):
            runs.append(packing)
            pairs, ideal = run(packing, gens, cap, target)
            stopped.append(ideal is not None)
            return pairs, ideal

        monkeypatch.setattr(grobner, "_Packing", packing)
        monkeypatch.setattr(grobner, "_buchberger", counting)
        # n <= 4, and n >= 5 with m_n > APERY_MAX_MN: the saturation route
        for m in [(1, 2, 3), (3, 5, 7), (5, 26, 32, 38), (1, 2, 3, 4), (2, 3, 7, 11),
                  (1, 2, 3, 4, 129), (1, 100, 200, 300, 100000),
                  (11, 12, 15, 79, 113, 130, 159, 277)]:
            made.clear()
            runs.clear()
            stopped.clear()
            toric_ideal(CurveSequence(m))
            assert not any(stopped), m
            # one packing, and one packed run in it per saturated variable x_2 .. x_{n+1};
            # its top is the default cap 4 (m_n + n), above every lattice binomial's degree
            assert [args for args, _ in made] == [(len(m) + 1, 4 * (m[-1] + len(m)), ())], m
            assert runs == [made[0][1]] * len(m), m
        for m in [(10, 13, 16, 19, 22), (1, 2, 3, 4, 6), (7, 30, 39, 48, 57, 66),
                  (1, 2, 3, 4, 128), (5, 26, 32, 38, 101)]:
            made.clear()
            runs.clear()
            stopped.clear()
            toric_ideal(CurveSequence(m))
            # n >= 5 and m_n <= APERY_MAX_MN: one packing and one run, on the
            # Apery presentation; its top is the default cap, above every
            # generator's degree
            assert [args for args, _ in made] == [(len(m) + 1, 4 * (m[-1] + len(m)), ())], m
            assert runs == [made[0][1]], m
            # the leads of the generators have the curve's Hilbert series: no S-pair
            assert stopped == [True], m

    def test_basis_carries_its_cap(self):
        s = parse_sequence("10,13,16,19,22")
        assert grobner._saturated(s, 40).cap == 40
        assert toric_ideal(s).cap == 4 * (22 + 5)
        assert buchberger(TWISTED, TermOrder(4), 7).cap == 7


def _toric_ideal_by_tuples(seq, cap=None):
    """Reference: the saturation passes of `grobner._saturated` on tuples,
    through the tuple kernel, from the same degree-reduced lattice basis.
    Before the x_i pass each element moves x_i to the last coordinate by
    slicing; after it each is divided by the largest power of its last
    variable and x_i moves back."""
    nv = seq.n + 1
    if cap is None:
        cap = 4 * (seq.mn + seq.n)
    plain = TermOrder(nv)
    current = [Binomial(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
               for v in grobner._degree_reduced(lattice_basis(seq))]
    for i in range(1, nv):
        gb = tuple_kernel.buchberger([Binomial(g.lead[:i] + g.lead[i + 1:] + g.lead[i:i + 1],
                                               g.trail[:i] + g.trail[i + 1:] + g.trail[i:i + 1])
                                      for g in current], plain, cap)
        current = []
        for g in gb.elements:
            k = min(g.lead[-1], g.trail[-1])
            current.append(Binomial(g.lead[:i] + (g.lead[-1] - k,) + g.lead[i:-1],
                                    g.trail[:i] + (g.trail[-1] - k,) + g.trail[i:-1]))
    return grobner.GroebnerBasis(plain, tuple_kernel.reduce_basis(current, plain), cap)


@st.composite
def curves_and_caps(draw):
    """n = 2..5, m_n <= 30 and an explicit cap from 1 to m_n + 4: about half
    the draws raise, at a generator or an S-pair of some pass."""
    m = draw(st.lists(st.integers(1, 30), min_size=2, max_size=5, unique=True))
    return CurveSequence(tuple(sorted(m))), draw(st.integers(1, max(m) + 4))


class TestPackedSaturation:
    """The saturation route's passes in one packing give what the tuple loop
    gives."""

    @given(curve=curves_and_caps())
    @settings(max_examples=300)
    @example(curve=(CurveSequence((1, 2, 3)), 1))  # a lattice binomial over the cap
    @example(curve=(CurveSequence((1, 2, 3)), 3))  # an S-pair over the cap in the x_3 pass
    @example(curve=(CurveSequence((1, 6, 12)), 2))  # the degree-reduced basis moved the edge
    def test_same_basis_or_same_cap_error_as_the_tuple_loop(self, curve):
        seq, cap = curve
        assert _outcome(grobner._saturated, seq, cap) == _outcome(_toric_ideal_by_tuples, seq, cap)

    def test_cap_error_names_the_degree_reduced_basis(self):
        # the LLL basis of 1,6,12 holds a binomial of degree 7; saturation
        # starts from the degree-reduced basis, whose largest degree is 6
        assert lattice_basis(CurveSequence((1, 6, 12)))[1] == (-6, 3, -1, 4)
        with pytest.raises(DegreeCapExceeded, match="^basis element of degree 6 exceeds cap 2$"):
            grobner._saturated(CurveSequence((1, 6, 12)), 2)


# the fixed curves of the benchmark's report workload: golden, counterexample,
# ladder and quadric-stage curves
REPORT_CURVES = [(10, 13, 16, 19, 22), (4, 5, 6, 7, 8), (7, 30, 39, 48, 57, 66),
                 (2, 35, 46, 57, 68), (5, 26, 32, 38), (1, 500, 1000), (5, 26, 32, 38, 101),
                 (11, 17, 23, 41, 53, 60), (13, 29, 31, 47, 59, 71, 80), (1, 2, 3, 4, 6),
                 (2, 3, 4, 5, 6, 8)]


class TestHeadroom:
    """`toric_ideal`'s fixed guard 4 (m_n + n) is at least twice what these
    curves need: a kernel change that pushes their degrees past half of it
    fails here, not in a user's run."""

    @pytest.mark.parametrize("m", REPORT_CURVES, ids=lambda m: ",".join(map(str, m)))
    def test_half_the_guard_gives_the_same_basis(self, m):
        seq = CurveSequence(m)
        half = 2 * (seq.mn + seq.n)
        if seq.n >= 5 and seq.mn <= grobner.APERY_MAX_MN:
            gens, numerator = presentation(seq)
            gb = grobner._run(gens, TermOrder(seq.n + 1), half,
                              grobner._curve_k_polynomial(numerator, seq.n + 1))
        else:
            gb = grobner._saturated(seq, half)
        assert gb.elements == toric_ideal(seq).elements

    @pytest.mark.parametrize("text", ["1,2,3,4,6", "2,3,4,5,6,8"])
    def test_half_the_guard_gives_the_same_witness(self, text):
        # the Koszul witnesses run Buchberger under other orders, under the
        # guard the basis carries
        seq = parse_sequence(text)
        gb = toric_ideal(seq)
        witness = quadratic_gb_witness(gb)
        assert witness is not None
        assert quadratic_gb_witness(gb._replace(cap=2 * (seq.mn + seq.n))) == witness


def _toric_ideal_every_variable(seq):
    """Reference: saturation by every variable x_1 .. x_{n+1}, each pass under
    the degrevlex order that makes x_i cheapest, dividing by x_i in place."""
    nv = seq.n + 1
    cap = 4 * (seq.mn + seq.n)
    current = [Binomial(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
               for v in lattice_basis(seq)]
    for i in range(nv):
        gb = buchberger(current, degrevlex_cheapest(nv, i), cap)
        current = []
        for g in gb.elements:
            k = min(g.lead[i], g.trail[i])
            current.append(Binomial(
                tuple(e - k if j == i else e for j, e in enumerate(g.lead)),
                tuple(e - k if j == i else e for j, e in enumerate(g.trail))))
    return reduce_basis(current, TermOrder(nv))


@st.composite
def curve_sequences(draw):
    """n = 2..6 and m_n <= 40, with a common factor g > 1 in about half the draws."""
    g = draw(st.sampled_from([1, 1, 2, 3]))
    m = draw(st.lists(st.integers(1, 40 // g), min_size=2, max_size=6, unique=True))
    return CurveSequence(tuple(sorted(g * x for x in m)))


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
            (0, -2, 1, 1), (-500, 1, 0, 499)]
        gb = toric_ideal(CurveSequence((1, 2000, 4000)))
        assert gb.elements == tuple(_binomials(4, "x2^2 - x3*x4", "x1^2000 - x2*x4^1999"))


class TestInitialIdeal:
    def test_twisted_cubic(self):
        ini = initial_ideal(toric_ideal(CurveSequence((1, 2, 3))))
        assert ini == _ideal(4, "x2^2", "x1^2", "x1*x2")

    def test_golden_staircase(self):
        ini = initial_ideal(toric_ideal(parse_sequence("10,13,16,19,22")))
        expected = _ideal(
            6,
            "x2^2", "x2*x3", "x2*x4", "x3^2", "x3*x4", "x4^2",
            "x1^6", "x1^5*x2", "x1^5*x3",
        )
        assert ini == expected

    def test_empty_gb(self):
        gb = buchberger([], TermOrder(3), 2)
        assert initial_ideal(gb).is_zero


def _eliminate(gb, keep_from):
    """Reduced degrevlex basis of I /\\ K[x_{keep_from+1}, ..., x_{n+1}] for the
    ideal I with basis `gb`, by a block order (degree in the eliminated
    variables first), under the cap of `gb`; it lives in the ring of the last
    n + 1 - keep_from variables."""
    nv = gb.nvars
    block = TermOrder(nv, ((1,) * keep_from + (0,) * (nv - keep_from),))
    kept = [Binomial(g.lead[keep_from:], g.trail[keep_from:])
            for g in buchberger(gb.elements, block, gb.cap).elements
            if not any(g.lead[:keep_from]) and not any(g.trail[:keep_from])]
    return buchberger(kept, TermOrder(nv - keep_from), gb.cap)


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
        tail_ini = initial_ideal(toric_ideal(CurveSequence(s.m[1:])))
        assert initial_ideal(gb).restrict(1) == tail_ini
        assert initial_ideal(_eliminate(gb, 1)) == tail_ini


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
            pairs = buchberger(_quadric_pairs(s), TermOrder(s.n + 1), gb.cap)
            assert _quadrics(pairs) == _quadrics(gb), m

    def test_generated_by_quadrics(self):
        for m, expected in [((1, 2, 3), True), ((3, 5, 7), False), ((1, 2, 3, 5), True)]:
            assert is_generated_by_quadrics(toric_ideal(CurveSequence(m))) == expected, m

    def test_quadric_generation_needs_a_degrevlex_basis(self):
        gb = toric_ideal(CurveSequence((1, 2, 4, 6)))
        with pytest.raises(InvariantViolation):
            is_generated_by_quadrics(buchberger(gb.elements, yweighted(5, 0), gb.cap))

    def test_quadratic_gb(self):
        assert has_quadratic_gb(toric_ideal(CurveSequence((1, 2, 3))), TermOrder(4))
        assert not has_quadratic_gb(toric_ideal(parse_sequence("10,13,16,19,22")), TermOrder(6))
        assert has_quadratic_gb(toric_ideal(CurveSequence((1, 2, 4, 8))), TermOrder(5))

    def test_quadratic_gb_yweighted(self):
        # base (2,4,6) with distinguished variable of weight 1
        gb = toric_ideal(CurveSequence((1, 2, 4, 6)))
        assert has_quadratic_gb(gb, yweighted(5, 0))
        assert not has_quadratic_gb(gb, yweighted(5, 2))

    def test_quadric_runs_use_the_cap_of_the_basis(self):
        s = CurveSequence((1, 2, 4, 6))
        capped = toric_ideal(s)._replace(cap=2)
        with pytest.raises(DegreeCapExceeded):
            has_quadratic_gb(capped, yweighted(5, 2))
        with pytest.raises(DegreeCapExceeded):
            is_generated_by_quadrics(toric_ideal(s)._replace(cap=1))


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
        again = buchberger(perm, TermOrder(seq.n + 1), gb.cap)
        assert again.elements == gb.elements

    @given(seq=seq_strategy)
    @settings(max_examples=200)
    def test_no_monomial_in_toric_gb(self, seq):
        gb = toric_ideal(seq)
        for g in gb.elements:
            assert g.lead != g.trail
            assert is_member_binomial(seq, g)
