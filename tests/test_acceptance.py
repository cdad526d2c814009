"""Acceptance suite: one test per criterion, exact tolerances, timed goldens.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (failures surface as ordinary pytest failures).
"""

import itertools
import math
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import mcurve.sweeps as sweeps
from mcurve.arith_forms import hilbert_arithmetic, reg_arithmetic, cm_type_arithmetic, is_gorenstein
from mcurve.gen_forms import hilbert_generalized, is_cm_generalized, reg_generalized
from mcurve.grobner import buchberger, toric_ideal
from mcurve.koszul import N3_KOSZUL, N4_KOSZUL, quadratic_gb_witness
from mcurve.monideal import (
    MonomialIdeal,
    cm_type_oracle,
    cm_via_initial,
    hf_quotient,
    hs_numerator,
    irreducible_decomposition,
    last_step_check,
    reg_nested_type,
)
from mcurve.poly import Binomial, TermOrder, bidegree, is_member_binomial, yweighted
from mcurve.seq import (
    CurveSequence,
    arithmetic_profile,
    generalized_profile,
    min_multiple,
    parse_sequence,
)
from orders import degrevlex_cheapest
from textforms import parse_monomial


def _report(name: str, started: float) -> None:
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_golden_arithmetic_10_13_16_19_22():
    started = time.perf_counter()
    s = parse_sequence("10,13,16,19,22")
    prof = arithmetic_profile(s)
    assert (prof.alpha, prof.k) == (5, 3)

    gb = toric_ideal(s)
    ini = gb.initial
    assert reg_arithmetic(prof) == 6 == reg_nested_type(ini)
    assert cm_type_arithmetic(prof) == 1 == cm_type_oracle(s, gb)
    assert is_gorenstein(prof)
    assert hilbert_arithmetic(prof).hs_numerator == (1, 4, 4, 4, 4, 4, 1)
    values = hf_quotient(ini, 10)
    for t in range(5, 10):
        assert values[t] == 22 * t - 44

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _report("golden arithmetic (10,13,16,19,22)", started)


def test_golden_arithmetic_4_5_6_7_8():
    started = time.perf_counter()
    s = parse_sequence("4,5,6,7,8")
    prof = arithmetic_profile(s)
    gb = toric_ideal(s)
    ini = gb.initial
    hil = hilbert_arithmetic(prof)

    assert reg_arithmetic(prof) == 2 == reg_nested_type(ini)
    assert cm_type_arithmetic(prof) == 3 == cm_type_oracle(s, gb)
    assert hil.hs_numerator == (1, 4, 3)
    values = hf_quotient(ini, 6)
    assert values[0] == 1
    for t in range(1, 6):
        assert values[t] == 8 * t - 2 == hil.hf_at(t)
    assert hil.hf_reg == 1

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"took {elapsed:.2f}s, budget 2s"
    _report("golden arithmetic (4,5,6,7,8)", started)


def test_golden_generalized_7_30_39_48_57_66():
    started = time.perf_counter()
    s = parse_sequence("7,30,39,48,57,66")
    prof = generalized_profile(s)
    assert (prof.h, prof.d, prof.delta) == (3, 9, 15)
    assert prof.beta == (6, 5, 3, 2, 1, 0)

    gb = toric_ideal(s)
    ini = gb.initial
    reg = reg_generalized(prof)
    assert reg == 14 == reg_nested_type(ini)
    assert last_step_check(ini, 14)
    assert not is_cm_generalized(s) and not cm_via_initial(ini)
    expected_num = (1, 5, 9, 13, 13, 13, 10, 6, 1, -1, -1, -1, 0, -1, 0, -1)
    assert hilbert_generalized(prof).hs_numerator == expected_num
    assert hs_numerator(ini) == expected_num

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    _report("golden generalized (7,30,39,48,57,66)", started)


def test_elimination_restriction_counterexamples():
    started = time.perf_counter()

    s = parse_sequence("2,35,46,57,68")
    ini = toric_ideal(s).initial
    tail_ini = toric_ideal(CurveSequence(s.m[1:])).initial
    expected_tail = MonomialIdeal.from_gens(
        5, [parse_monomial(t, 5) for t in ["x1^23", "x1^22*x2", "x2^2", "x2*x3", "x3^2"]])
    expected_restr = MonomialIdeal.from_gens(
        5, [parse_monomial(t, 5) for t in ["x1^2", "x2^2", "x2*x3", "x3^2"]])
    assert tail_ini == expected_tail
    assert ini.restrict(1) == expected_restr
    assert ini.restrict(1) != tail_ini

    s = parse_sequence("5,26,32,38")
    ini = toric_ideal(s).initial
    tail_ini = toric_ideal(CurveSequence(s.m[1:])).initial
    expected_tail = MonomialIdeal.from_gens(
        4, [parse_monomial(t, 4) for t in ["x1^10", "x1^9*x2", "x2^2"]])
    expected_restr = MonomialIdeal.from_gens(
        4, [parse_monomial(t, 4) for t in ["x1^6", "x1^5*x2", "x2^2"]])
    assert tail_ini == expected_tail
    assert ini.restrict(1) == expected_restr
    assert ini.restrict(1) != tail_ini

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"
    _report("elimination counterexamples (2,35,46,57,68) and (5,26,32,38)", started)


def test_arithmetic_family_sweep():
    started = time.perf_counter()
    failures = []
    count = 0
    for s in sweeps.arithmetic_instances(sweeps.ArithmeticSweep()):
        count += 1
        checks = sweeps.check_arithmetic_instance(s)
        if not all(checks.values()):
            failures.append((s.m, [k for k, v in checks.items() if not v]))
    assert count == 370
    assert not failures, failures
    _report(f"arithmetic sweep ({count} instances)", started)


def test_generalized_family_sweep():
    started = time.perf_counter()
    failures = []
    count = 0
    for s in sweeps.generalized_instances(sweeps.GeneralizedSweep()):
        count += 1
        checks = sweeps.check_generalized_instance(s)
        if not all(checks.values()):
            failures.append((s.m, [k for k, v in checks.items() if not v]))
    assert count == 216
    assert not failures, failures
    _report(f"generalized sweep ({count} instances)", started)


def test_koszul_exhaustive_lists():
    started = time.perf_counter()
    from mcurve.grobner import is_generated_by_quadrics

    for m in itertools.combinations(range(1, 13), 3):
        if math.gcd(*m) != 1:
            continue
        s = CurveSequence(m)
        assert is_generated_by_quadrics(toric_ideal(s)) == (m in N3_KOSZUL), m

    for m in itertools.combinations(range(1, 11), 4):
        if math.gcd(*m) != 1:
            continue
        s = CurveSequence(m)
        assert is_generated_by_quadrics(toric_ideal(s)) == (m in N4_KOSZUL), m

    for m in sorted(N4_KOSZUL):
        witness = quadratic_gb_witness(toric_ideal(CurveSequence(m)))
        assert witness is not None, m

    _report("koszul n=3 (m3<=12) and n=4 (m4<=10) exhaustive", started)


# -- criterion: property suites (>= 200 cases each) ---------------------------

_monos5 = st.tuples(*([st.integers(0, 6)] * 5))
_seqs = st.lists(st.integers(1, 14), min_size=2, max_size=4, unique=True).map(
    lambda v: CurveSequence(tuple(sorted(v))))


def _orders(nvars):
    return [TermOrder(nvars), degrevlex_cheapest(nvars, 0), yweighted(nvars, nvars - 1),
            TermOrder(nvars, ((1, 1) + (0,) * (nvars - 2),))]  # block order on x1, x2


def _cmp(order, a, b):
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


@given(a=_monos5, b=_monos5, c=_monos5, idx=st.integers(0, 3))
@settings(max_examples=300)
def test_property_term_order_axioms(a, b, c, idx):
    o = _orders(5)[idx]
    assert _cmp(o, a, b) == -_cmp(o, b, a)
    assert (_cmp(o, a, b) == 0) == (a == b)
    if _cmp(o, a, b) >= 0 and _cmp(o, b, c) >= 0:
        assert _cmp(o, a, c) >= 0
    ac = tuple(x + y for x, y in zip(a, c))
    bc = tuple(x + y for x, y in zip(b, c))
    assert _cmp(o, a, b) == _cmp(o, ac, bc)


@given(
    a=st.tuples(*([st.integers(0, 5)] * 5)),
    b=st.tuples(*([st.integers(0, 5)] * 5)),
)
@settings(max_examples=250)
def test_property_bidegree_additive(a, b):
    s = CurveSequence((4, 5, 6, 7))
    ab = tuple(x + y for x, y in zip(a, b))
    assert bidegree(s, ab) == (
        bidegree(s, a)[0] + bidegree(s, b)[0],
        bidegree(s, a)[1] + bidegree(s, b)[1],
    )


@given(seq=_seqs, salt=st.integers(0, 10**6))
@settings(max_examples=200)
def test_property_gb_determinism(seq, salt):
    from mcurve.grobner import lattice_basis

    order = TermOrder(seq.n + 1)
    gb = toric_ideal(seq)
    rng = random.Random(salt)

    perm = list(gb.elements)
    rng.shuffle(perm)
    assert buchberger(perm, order).elements == gb.elements

    # lattice seeds v+ - v-, a random subset with the sides swapped:
    # buchberger orients its own input
    gens = [Binomial(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
            for v in lattice_basis(seq)]
    shuffled = [Binomial(g.trail, g.lead) if rng.random() < 0.5 else g for g in gens]
    rng.shuffle(shuffled)
    assert buchberger(shuffled, order).elements == buchberger(gens, order).elements


@given(seq=_seqs)
@settings(max_examples=200)
def test_property_no_monomial_in_toric(seq):
    gb = toric_ideal(seq)
    for g in gb.elements:
        assert g.lead != g.trail
        assert is_member_binomial(seq, g)
    # complete, not only sound: HF(s) of K[C] is the size of the s-fold
    # sumset of {0, m_1, ..., m_n}, counted without any Groebner basis
    ini = gb.initial
    sums = {0}
    for s, value in enumerate(hf_quotient(ini, 9)):
        assert value == len(sums), (seq, s)
        sums = {x + a for x in sums for a in (0,) + seq.m}


@given(seq=_seqs, data=st.data())
@settings(max_examples=200)
def test_property_decomposition_membership(seq, data):
    ini = toric_ideal(seq).initial
    if ini.is_zero:
        return
    dec = irreducible_decomposition(ini)
    reg = reg_nested_type(ini)
    mono = data.draw(st.tuples(*([st.integers(0, reg + 2)] * (seq.n + 1))))
    assert ini.contains(mono) == dec.contains(mono)


@given(m1=st.integers(1, 18), step=st.integers(1, 5), n=st.integers(2, 6),
       h=st.integers(1, 3))
@settings(max_examples=250)
def test_property_min_multiple_families(m1, step, n, h):
    if h == 1:
        if math.gcd(m1, step) != 1:
            return
        s = CurveSequence(tuple(m1 + i * step for i in range(n)))
        assert min_multiple(s) == arithmetic_profile(s).alpha + 1
    else:
        d = h * step
        if math.gcd(m1, d) != 1 or n < 3:
            return
        s = CurveSequence((m1,) + tuple(h * m1 + i * d for i in range(1, n)))
        assert min_multiple(s) == generalized_profile(s).delta


def test_property_suites_reported():
    # the six hypothesis suites above each run >= 200 cases; reaching this
    # test means they all passed
    print("ACCEPTANCE property suites (term order, bidegree, determinism, "
          "primeness, decomposition, min-multiple): PASS")
