"""scripts/corpus_digest.py: the answers-only corpus gate.

The two smallest buckets are recomputed here against the script's EXPECTED;
a change to an internal step must keep them, a changed answer must not.
"""

import importlib.util
from pathlib import Path

import pytest

from mcurve import grobner, sweeps

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "corpus_digest.py"
_spec = importlib.util.spec_from_file_location("corpus_digest", SCRIPT)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

SMALL = ("report", "n3")


def test_bucket_sizes():
    sizes = {name: len(set(curves)) for name, curves in corpus.BUCKETS.items()}
    assert sizes == {"report": 11, "n3": 196, "n4": 205, "n5": 786, "arithmetic": 370,
                     "generalized": 1620, "random": 300, "scale": 8}
    assert set(corpus.EXPECTED) == set(corpus.BUCKETS)


def test_small_buckets_match_expected():
    for name in SMALL:
        assert corpus.digest(corpus.BUCKETS[name]) == corpus.EXPECTED[name], name


_LATTICE_BASIS = grobner.lattice_basis


def _flipped_lattice_basis(seq):
    return [tuple(-x for x in v) for v in reversed(_LATTICE_BASIS(seq))]


@pytest.mark.parametrize("name, value", [
    ("lattice_basis", _flipped_lattice_basis),  # the same lattice, another basis
    # every bound 0: every curve on the saturation route
    pytest.param("APERY_MAX_MN", {5: 0}, id="APERY_MAX_MN-0"),
])
def test_internal_step_keeps_the_hashes(monkeypatch, name, value):
    monkeypatch.setattr(grobner, name, value)
    for bucket in SMALL:
        assert corpus.digest(corpus.BUCKETS[bucket]) == corpus.EXPECTED[bucket], bucket


def test_changed_answer_moves_the_report_hash(monkeypatch):
    # the arithmetic CM type off by one: the verified reports become Mismatch
    cm_type = sweeps.cm_type_arithmetic
    monkeypatch.setattr(sweeps, "cm_type_arithmetic", lambda prof: cm_type(prof) + 1)
    assert "Mismatch: cm_type" in corpus.line((10, 13, 16, 19, 22))
    assert corpus.digest(corpus.BUCKETS["report"]) != corpus.EXPECTED["report"]
