"""The package's records: reprs, equality and hashing.

A change of a record's form that moves a repr shows here by name.
"""

import pickle

import pytest

from mcurve.errors import NonIncreasing
from mcurve.grobner import GroebnerBasis, initial_ideal, toric_ideal
from mcurve.koszul import koszul_status
from mcurve.monideal import MonomialIdeal, irreducible_decomposition
from mcurve.seq import CurveSequence, parse_sequence
from mcurve.sweeps import GeneralizedSweep, RandomSweep

GB_357 = ("GroebnerBasis(order=TermOrder(nvars=4, weights=()), elements=("
          "Binomial(lead=(0, 2, 0, 0), trail=(1, 0, 1, 0)), "
          "Binomial(lead=(3, 1, 0, 0), trail=(0, 0, 2, 2)), "
          "Binomial(lead=(4, 0, 0, 0), trail=(0, 1, 1, 2))), cap=40)")


def test_reprs_the_digests_hash():
    seq = CurveSequence((3, 5, 7))
    gb = toric_ideal(seq)
    ini = initial_ideal(gb)
    assert repr(gb) == GB_357
    assert repr(gb.elements[0]) == "Binomial(lead=(0, 2, 0, 0), trail=(1, 0, 1, 0))"
    assert repr(ini) == "MonomialIdeal(nvars=4, gens=((0, 2, 0, 0), (3, 1, 0, 0), (4, 0, 0, 0)))"
    assert repr(ini.decomposition) == (
        "IrreducibleDecomposition(components=(IrreducibleComponent(powers=((0, 3), (1, 2))), "
        "IrreducibleComponent(powers=((0, 4), (1, 1)))))")
    assert repr(koszul_status(parse_sequence("1,2,3"))) == (
        "KoszulStatus(verdict='koszul', reason='classified_generalized')")
    assert repr(seq) == "CurveSequence(m=(3, 5, 7))"
    assert repr(RandomSweep()) == "RandomSweep(count=50, max_mn=25, seed=0)"


def test_equal_records_hash_as_their_fields():
    # set and frozenset order follow the hash: it is that of the field tuple
    seq = CurveSequence((3, 5, 7))
    gb = toric_ideal(seq)
    b = gb.elements[0]
    assert hash(gb) == hash((gb.order, gb.elements, gb.cap))
    assert hash(gb.order) == hash((4, ()))
    assert hash(b) == hash((b.lead, b.trail))
    assert hash(seq) == hash(((3, 5, 7),))
    assert hash(RandomSweep()) == hash((50, 25, 0))
    assert toric_ideal(CurveSequence((3, 5, 7))) == gb


def test_cached_ideal_values_stay_out_of_equality_and_repr():
    ini = initial_ideal(toric_ideal(CurveSequence((3, 5, 7))))
    fresh = MonomialIdeal(ini.nvars, ini.gens)
    assert ini.decomposition.components and ini.k_polynomial  # fills the cache
    assert ini == fresh and hash(ini) == hash(fresh) and repr(ini) == repr(fresh)


def test_ideal_with_its_caches_pickles():
    # the cache holds the packed generators with their packing, whose
    # closures do not pickle: the packing pickles as its arguments
    ini = initial_ideal(toric_ideal(CurveSequence((3, 5, 7))))
    assert ini.decomposition.components and ini.k_polynomial  # fills the cache
    back = pickle.loads(pickle.dumps(ini))
    assert back == ini and back.__dict__.keys() == ini.__dict__.keys()
    packing, packed = back._packed
    assert tuple(sorted(map(packing.unpack, packed))) == ini.gens
    assert irreducible_decomposition(back) == ini.decomposition


def test_cached_initial_ideal_stays_out_of_the_basis_record():
    # a certified n >= 5 basis comes with its initial ideal cached
    gb = toric_ideal(CurveSequence((10, 13, 16, 19, 22)))
    fresh = GroebnerBasis(*gb)
    assert "initial" in vars(gb) and not vars(fresh)
    assert gb == fresh and hash(gb) == hash(fresh) and repr(gb) == repr(fresh)
    back = pickle.loads(pickle.dumps(gb))
    assert back == gb and back.initial == gb.initial == fresh.initial


@pytest.mark.parametrize("make, error", [
    (lambda: CurveSequence((5, 3)), NonIncreasing),
    (lambda: CurveSequence(m=(5, 3)), NonIncreasing),
    (lambda: GeneralizedSweep(h_values=(2, 2)), ValueError),
    (lambda: GeneralizedSweep((1,)), ValueError),
    (lambda: RandomSweep(count=0), ValueError),
    (lambda: RandomSweep(50, 1), ValueError),
])
def test_validating_records_check_every_construction(make, error):
    with pytest.raises(error):
        make()
