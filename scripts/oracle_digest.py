#!/usr/bin/env python3
"""Print one SHA-256 over the oracle's answers on the benchmark's inputs.

Usage: PYTHONPATH=src python3 scripts/oracle_digest.py

The inputs are the distinct sequences of perfbench/data/*.json, the fixed
report curves of perfbench/workloads.py (REPORT_FIXED) and the exhaustive
gcd-1 lists n = 3 (m_3 <= 12) and n = 4 (m_4 <= 10).  For each one it hashes
`lattice_basis` (the LLL-reduced kernel basis); `toric_ideal`;
`is_generated_by_quadrics` and `quadratic_gb_witness` of that basis; the
irreducible decomposition of its initial ideal, `reg_nested_type` of that
ideal, its K-polynomial and `hs_numerator`; the standard monomials of the
ideal's artinian reduction in(I(C)) + <x_n, x_{n+1}> in their order,
`hs_general_split`, `cm_type_oracle` (on the curves whose initial ideal is
Cohen-Macaulay) and `last_step_check` at `reg_nested_type`; and
`koszul_status`.  An exception
counts by its type and message.  Two source trees that print the same digest
give the same oracle answers on these inputs, so running it on both sides of a
change to the lattice reduction, the Groebner kernel or the monomial-ideal
combinatorics checks that the change kept them.  It reads perfbench/ and
writes nothing.
"""

import hashlib
import pathlib
import sys

sys.dont_write_bytecode = True  # importing perfbench/workloads.py leaves no cache there
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from mcurve.grobner import (initial_ideal, is_generated_by_quadrics, lattice_basis,  # noqa: E402
                            toric_ideal)
from mcurve.koszul import koszul_status, quadratic_gb_witness  # noqa: E402
from mcurve.monideal import (cm_type_oracle, cm_via_initial, hs_general_split,  # noqa: E402
                             hs_numerator, last_step_check, reg_nested_type)
from mcurve.seq import CurveSequence  # noqa: E402


def sequences() -> list[tuple[int, ...]]:
    found = set(workloads.REPORT_FIXED)
    found.update(workloads.gcd_one_combinations(3, workloads.KOSZUL_N3_MAX))
    found.update(workloads.gcd_one_combinations(4, workloads.KOSZUL_N4_MAX))
    for family in workloads.load("sweep_pool.json").values():
        found.update(map(tuple, family))
    for anchor, variants in workloads.load("report_pool.json")["variants"].items():
        found.add(tuple(map(int, anchor.split(","))))
        found.update(map(tuple, variants))
    found.update(tuple(map(int, k.split(","))) for k in workloads.load("report_reference.json"))
    found.update(tuple(e["m"]) for e in workloads.load("koszul_pool.json")["n5"])
    return sorted(found, key=lambda m: (len(m), m))


def answer(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # an exception is an answer to hash, not a failure of the script
        return f"{type(exc).__name__}: {exc}"


def oracle_line(m: tuple[int, ...]) -> str:
    seq = CurveSequence(m)
    parts = [answer(lattice_basis, seq)]
    try:
        gb = toric_ideal(seq)
    except Exception as exc:  # as in answer(); the answers read from the basis then have no input
        parts.append(f"{type(exc).__name__}: {exc}")
    else:
        ini = initial_ideal(gb)
        parts += [repr((gb.elements, gb.cap)), answer(is_generated_by_quadrics, gb),
                  answer(quadratic_gb_witness, gb), answer(lambda: ini.decomposition),
                  answer(reg_nested_type, ini), answer(lambda: ini.k_polynomial),
                  answer(hs_numerator, ini), answer(lambda: ini.artinian_standard),
                  answer(hs_general_split, ini),
                  answer(cm_type_oracle, seq, ini) if cm_via_initial(ini) else "not CM",
                  answer(lambda: last_step_check(ini, reg_nested_type(ini)))]
    parts.append(answer(koszul_status, seq))
    return f"{','.join(map(str, m))} | " + " | ".join(parts) + "\n"


if __name__ == "__main__":
    digest = hashlib.sha256()
    seqs = sequences()
    for m in seqs:
        digest.update(oracle_line(m).encode())
    print(f"{digest.hexdigest()}  {len(seqs)} sequences")
