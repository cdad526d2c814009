#!/usr/bin/env python3
"""Check the package's public answers on a fixed corpus of curves, bucket by bucket.

Usage: PYTHONPATH=src python3 scripts/corpus_digest.py

The curves are built here, in the named BUCKETS.  `line(m)` is one curve's
public answers: the verified report (`build_report(seq, verify=True)` as
sorted JSON); the elements of `toric_ideal`; `is_generated_by_quadrics` and
`quadratic_gb_witness` of that basis; of its initial ideal the irreducible
decomposition, `reg_nested_type`, `hs_numerator`, `hs_general_split`,
`cm_type_oracle` (Cohen-Macaulay curves only) and `last_step_check` at that
regularity; and `koszul_status`.  An exception is an answer too, by its type
and message.  No internal step (the lattice basis, the route `toric_ideal`
takes, the degree guard) is hashed, so changing one keeps every hash while
the answers stay.

It prints one `sha256  count  bucket` line per bucket, the scale bucket's
line after the CPU seconds of `toric_ideal` on each of its curves (the
minimum of three calls), and exits 1 naming each bucket whose hash differs
from EXPECTED.  A change that moves an answer on purpose updates EXPECTED.
To find the curves that moved, print a bucket's lines on each tree and diff:

    PYTHONPATH=src:scripts python3 -c "import corpus_digest as c; print(*map(c.line, c.BUCKETS['n4']), sep='')"

It takes no option, reads no file or environment variable and writes nothing.
"""

import hashlib
import itertools
import json
import math
import random
import sys
import time

from mcurve.cli import build_report
from mcurve.grobner import initial_ideal, is_generated_by_quadrics, toric_ideal
from mcurve.koszul import koszul_status, quadratic_gb_witness
from mcurve.monideal import (cm_type_oracle, cm_via_initial, hs_general_split, hs_numerator,
                             last_step_check, reg_nested_type)
from mcurve.seq import CurveSequence


def gcd_one(n: int, top: int) -> list[tuple[int, ...]]:
    return [m for m in itertools.combinations(range(1, top + 1), n) if math.gcd(*m) == 1]


def generalized(hs: range, ds: range, ns: range, top: int) -> list[tuple[int, ...]]:
    """m_1, h m_1 + d, ..., h m_1 + (n - 1) d with gcd(m_1, d) = 1 and m_n <= top."""
    return [(m1,) + tuple(h * m1 + i * d for i in range(1, n))
            for n in ns for h in hs for d in ds
            for m1 in range(1, (top - (n - 1) * d) // h + 1) if math.gcd(m1, d) == 1]


def seeded(seed: int, count: int, ns: range, low: int, top: int) -> list[tuple[int, ...]]:
    """`count` distinct gcd-1 draws, n running through `ns` in turn, m_n in low..top."""
    rng = random.Random(seed)
    found: list[tuple[int, ...]] = []
    while len(found) < count:
        n = ns[len(found) % len(ns)]
        mn = rng.randint(low, top)
        m = tuple(sorted(rng.sample(range(1, mn), n - 1))) + (mn,)
        if math.gcd(*m) == 1 and m not in found:
            found.append(m)
    return found


BUCKETS = {
    # the golden, counterexample, ladder and quadric-path report curves
    "report": [(10, 13, 16, 19, 22), (4, 5, 6, 7, 8), (7, 30, 39, 48, 57, 66),
               (2, 35, 46, 57, 68), (5, 26, 32, 38), (1, 500, 1000), (5, 26, 32, 38, 101),
               (11, 17, 23, 41, 53, 60), (13, 29, 31, 47, 59, 71, 80), (1, 2, 3, 4, 6),
               (2, 3, 4, 5, 6, 8)],
    # every gcd-1 sequence with n = 3, 4, 5 up to m_n = 12, 10, 12
    "n3": gcd_one(3, 12),
    "n4": gcd_one(4, 10),
    "n5": gcd_one(5, 12),
    # h = 1 (arithmetic), d <= 5, n <= 6; and h = 2..5, d <= 15 (h need not divide d)
    "arithmetic": generalized(range(1, 2), range(1, 6), range(2, 7), 30),
    "generalized": generalized(range(2, 6), range(1, 16), range(3, 7), 60),
    # seeded gcd-1 draws: n = 3..6 with m_n <= 40, and n = 7, 8 with m_n in 200..300
    "random": seeded(31, 300, range(3, 7), 6, 40),
    "scale": seeded(16, 8, range(7, 9), 200, 300),
}

EXPECTED = {
    "report": "5e45b11bd98ada9f0c46bf37c8bbe28563a996e1f40ef1c17c6f9a1c4522ec11",
    "n3": "0a59211fd61ceb1385fd22f0bd2468ae3ce72bf266b862553efcd149e4952b23",
    "n4": "21501b1f6d5bb495b5bc7847cd92f28c9ad3e7bb1cfea4d7e48ee62837a03e71",
    "n5": "a5a5ffaac9b327bdd2b460eff1727fdb0c81975586ce207bab8d10d8816b6892",
    "arithmetic": "2c199aa0ad3db89184a1bf0b2422b6e60ae0dd679a114df070a937fda7c20452",
    "generalized": "4f0a028be794e15861a0d8c815c66ee970dfd64b3e266eced028976ff264f9f8",
    "random": "3fcbea8935b7897ac29ac05d365a0831a3a4d3148f5fde24bb012c8f514e146f",
    "scale": "cb43252b98bb7901308e8429dc1eb0fb48bb810763c9bd5f3ac3558ff2826258",
}


def answer(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # an exception is an answer to hash, not a failure of the script
        return f"{type(exc).__name__}: {exc}"


def line(m: tuple[int, ...]) -> str:
    seq = CurveSequence(m)
    parts = [answer(lambda: json.dumps(build_report(seq, verify=True).to_dict(), sort_keys=True))]
    try:
        gb = toric_ideal(seq)
    except Exception as exc:  # as in answer(); the answers read from the basis then have no input
        parts.append(f"{type(exc).__name__}: {exc}")
    else:
        ini = initial_ideal(gb)
        parts += [repr(gb.elements), answer(is_generated_by_quadrics, gb),
                  answer(quadratic_gb_witness, gb), answer(lambda: ini.decomposition),
                  answer(reg_nested_type, ini), answer(hs_numerator, ini),
                  answer(hs_general_split, ini),
                  answer(cm_type_oracle, seq, ini) if cm_via_initial(ini) else "not CM",
                  answer(lambda: last_step_check(ini, reg_nested_type(ini)))]
    parts.append(answer(koszul_status, seq))
    return f"{','.join(map(str, m))} | " + " | ".join(parts) + "\n"


def digest(curves: list[tuple[int, ...]]) -> str:
    h = hashlib.sha256()
    for m in curves:
        h.update(line(m).encode())
    return h.hexdigest()


def toric_seconds(m: tuple[int, ...]) -> float:
    times = []
    for _ in range(3):
        start = time.process_time()
        answer(toric_ideal, CurveSequence(m))
        times.append(time.process_time() - start)
    return min(times)


if __name__ == "__main__":
    differ = []
    for name, curves in BUCKETS.items():
        for m in curves if name == "scale" else ():
            print(f"{','.join(map(str, m)):<40} {toric_seconds(m):7.3f} s")
        got = digest(curves)
        print(f"{got}  {len(curves)}  {name}", flush=True)
        if got != EXPECTED.get(name):
            differ.append(name)
    if differ:
        print(f"differs from EXPECTED: {', '.join(differ)}", file=sys.stderr)
        sys.exit(1)
