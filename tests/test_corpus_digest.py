"""scripts/corpus_digest.py: the answers-only corpus gate.

The two smallest buckets are recomputed here against the script's EXPECTED;
a change to an internal step must keep them, a changed answer must not.
"""

import importlib.util
from pathlib import Path

import pytest

from mcurve import grobner, sweeps
from presentations import presented_basis
import tuple_monideal

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "corpus_digest.py"
_spec = importlib.util.spec_from_file_location("corpus_digest", SCRIPT)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

SMALL = ("report", "n3")


def test_bucket_sizes():
    sizes = {name: len(set(curves)) for name, curves in corpus.BUCKETS.items()}
    assert sizes == {"report": 11, "n3": 196, "n4": 205, "n5": 786, "arithmetic": 370,
                     "generalized": 1620, "random": 300, "scale": 8,
                     "hard_cm": 12}
    assert set(corpus.EXPECTED) == set(corpus.BUCKETS)


def test_small_buckets_match_expected():
    for name in SMALL:
        assert corpus.digest(corpus.BUCKETS[name]) == corpus.EXPECTED[name], name


_LATTICE_BASIS = grobner.lattice_basis


def _flipped_lattice_basis(seq):
    return [tuple(-x for x in v) for v in reversed(_LATTICE_BASIS(seq))]


def _staircase_cm_type(seq, gb):
    """The CM type from every standard monomial's bidegree, not the corners."""
    return tuple_monideal.cm_type(seq, gb.initial)


def _scanned_last_step(ideal, reg):
    """last_step_check from a scan of each standard monomial, not series."""
    return tuple_monideal.last_step_by_scan(ideal) == reg


@pytest.mark.parametrize("modules, replacements", [
    # the same lattice, another basis
    pytest.param((grobner,), {"lattice_basis": _flipped_lattice_basis},
                 id="lattice_basis-_flipped_lattice_basis"),
    # the bound 0: every curve on the saturation route
    pytest.param((grobner,), {"APERY_MAX_MN": 0}, id="APERY_MAX_MN-0"),
    # the Apery route's basis from a Buchberger run on the presentation
    # with every (B) candidate kept, not read off the walk
    pytest.param((grobner,), {"reduced_basis": presented_basis}, id="presentation-every-candidate"),
    # the CM type from the whole staircase, in the reports and in the script's own lines
    pytest.param((sweeps, corpus), {"cm_type_oracle": _staircase_cm_type}, id="cm_type-staircase"),
    # the split and the last step from listed standard monomials, not from
    # K-polynomials; an exception hashes by its message, so the messages stay too
    pytest.param((sweeps, corpus), {"hs_general_split": tuple_monideal.hs_general_split,
                                    "last_step_check": _scanned_last_step},
                 id="split-last-step-listed"),
])
def test_internal_step_keeps_the_hashes(monkeypatch, modules, replacements):
    for module in modules:
        for name, value in replacements.items():
            monkeypatch.setattr(module, name, value)
    for bucket in SMALL:
        assert corpus.digest(corpus.BUCKETS[bucket]) == corpus.EXPECTED[bucket], bucket


def test_changed_answer_moves_the_report_hash(monkeypatch):
    # the arithmetic CM type off by one: the verified reports become Mismatch
    cm_type = sweeps.cm_type_arithmetic
    monkeypatch.setattr(sweeps, "cm_type_arithmetic", lambda prof: cm_type(prof) + 1)
    assert "Mismatch: cm_type" in corpus.line((10, 13, 16, 19, 22))
    assert corpus.digest(corpus.BUCKETS["report"]) != corpus.EXPECTED["report"]
