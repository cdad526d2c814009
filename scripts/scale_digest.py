#!/usr/bin/env python3
"""Time `toric_ideal` on larger curves and print one SHA-256 over its answers.

Usage: PYTHONPATH=src python3 scripts/scale_digest.py

The curves are a fixed seeded draw of eight gcd-1 sequences, n = 7 and n = 8
in turn, each with m_n in 200..300: bases of dozens to over a hundred
elements, where the Buchberger kernel's cost grows and the benchmark's
workloads do not reach.  For each curve it prints the CPU seconds of one
`toric_ideal` call, the minimum over REPEATS calls so that a busy machine
inflates it less, and the size of its basis; the last line is the SHA-256
over every curve's `lattice_basis` and basis (elements and cap), with an
exception counted by its type and message.  Two source trees that print the
same hash give the same bases on these curves, so running it on both sides of
a change to the lattice reduction or the Groebner kernel checks that the
change kept them at scale; the seconds compare their speed.  Stdlib only; it
writes nothing.
"""

import hashlib
import math
import random
import time

from mcurve.grobner import lattice_basis, toric_ideal
from mcurve.seq import CurveSequence

SEED = 16
COUNT = 8
REPEATS = 3


def curves() -> list[tuple[int, ...]]:
    rng = random.Random(SEED)
    found: list[tuple[int, ...]] = []
    while len(found) < COUNT:
        n = 7 + len(found) % 2
        mn = rng.randint(200, 300)
        m = tuple(sorted(rng.sample(range(1, mn), n - 1))) + (mn,)
        if math.gcd(*m) == 1:
            found.append(m)
    return found


if __name__ == "__main__":
    digest = hashlib.sha256()
    total = 0.0
    for m in curves():
        seq = CurveSequence(m)
        seconds = math.inf
        for _ in range(REPEATS):
            start = time.process_time()
            try:
                gb = toric_ideal(seq)
            except Exception as exc:  # an exception is an answer to hash, not a failure of the script
                gb = exc
            seconds = min(seconds, time.process_time() - start)
        if isinstance(gb, Exception):
            answer, size = f"{type(gb).__name__}: {gb}", type(gb).__name__
        else:
            answer, size = repr((gb.elements, gb.cap)), f"{len(gb.elements)} elements"
        total += seconds
        digest.update(f"{','.join(map(str, m))} | {lattice_basis(seq)!r} | {answer}\n".encode())
        print(f"{','.join(map(str, m)):<40} {seconds:7.3f} s  {size}")
    print(f"{'total':<40} {total:7.3f} s")
    print(f"{digest.hexdigest()}  {COUNT} curves")
