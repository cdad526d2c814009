"""Rebuild the benchmark's input pools and reference outputs.

    python3 perfbench/make_reference.py

Run it from the repository root, on an idle machine, at the commit whose
outputs become the reference.  It writes four files under perfbench/data/:

- sweep_pool.json: the arithmetic and generalized acceptance families and a
  pool of random sequences, each list sorted by the time one sweep check took
  from an empty cache.
- koszul_pool.json: every gcd-1 sequence with n = 5 and m_5 <= 12, sorted by
  the time koszul_status took, with its verdict and reason.
- report_pool.json: per anchor curve, seeded variants of the same (n, m_n)
  whose cold report took 0.8 to 1.25 times the anchor's time (best of 2 and
  best of 3 runs).  A candidate that mcurve refuses with a McurveError other
  than cli.Mismatch is skipped and named on standard output; any other
  exception, and a Mismatch, stops the build.
- report_reference.json: the verified report of every fixed report curve and
  every variant.

All four are rebuilt together, so that they come from one commit.  Times are
scaled by probes of the machine's speed, as in the benchmark.

The sort order only sets the strata the benchmark samples from (one item per
block of neighbours), so each seed gets a different sample of the same cost
profile.  Outputs are the correctness reference; rebuilding them is a change
to the benchmark and belongs in its own commit.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mcurve import cli, koszul, sweeps  # noqa: E402
from mcurve.errors import McurveError  # noqa: E402
from mcurve.monideal import _count_standard  # noqa: E402
from mcurve.seq import CurveSequence  # noqa: E402

sys.path.insert(0, str(HERE))
import worker  # noqa: E402
import workloads  # noqa: E402

RANDOM_POOL_SEEDS = range(4)
VARIANTS_PER_ANCHOR = 12
VARIANT_TRIES = 80
BAND = (0.8, 1.25)


class _TooSlow(Exception):
    pass


def _on_alarm(signum, frame):
    raise _TooSlow


def _timed(fn, *args):
    """fn(*args) and its time, scaled like the benchmark's item times by
    probes of the machine's speed just before and after it."""
    before, _ = worker.probe()
    started = time.perf_counter()
    out = fn(*args)
    dt = time.perf_counter() - started
    return dt * 2 * worker.REFERENCE_KERNEL_S / (before + worker.probe()[0]), out


def _by_time(timed: list[tuple[float, object]]) -> list:
    return [item for _, item in sorted(timed, key=lambda t: t[0])]


def sweep_pool() -> dict:
    families = {
        "arithmetic": (sweeps.arithmetic_instances(sweeps.ArithmeticSweep()),
                       sweeps.check_arithmetic_instance),
        "generalized": (sweeps.generalized_instances(sweeps.GeneralizedSweep()),
                        sweeps.check_generalized_instance),
    }
    seen: dict[tuple[int, ...], None] = {}
    for s in RANDOM_POOL_SEEDS:
        for seq in sweeps.random_instances(sweeps.RandomSweep(seed=s)):
            seen.setdefault(seq.m)
    families["random"] = ([CurveSequence(m) for m in seen], sweeps.check_random_instance)
    pool = {}
    for family, (seqs, check) in families.items():
        timed = []
        for seq in seqs:
            _count_standard.cache_clear()  # a pass holds one in ten: little to share
            dt, checks = _timed(check, seq)
            if not all(checks.values()):
                raise SystemExit(f"{family} {seq}: failed checks {checks}")
            timed.append((dt, list(seq.m)))
        pool[family] = _by_time(timed)
        print(f"sweep {family}: {len(timed)} items, {sum(t for t, _ in timed):.1f} s", flush=True)
    return pool


def koszul_pool() -> dict:
    timed = []
    for m in workloads.koszul_n5_universe():
        dt, status = _timed(koszul.koszul_status, CurveSequence(m))
        timed.append((dt, {"m": list(m), "verdict": status.verdict, "reason": status.reason}))
    print(f"koszul n5: {len(timed)} items, {sum(t for t, _ in timed):.1f} s", flush=True)
    return {"n5": _by_time(timed)}


def _cold_report(m: tuple[int, ...], limit: float | None = None) -> tuple[float, dict]:
    """Report of m from an empty cache, and its time; _TooSlow past `limit` s."""
    _count_standard.cache_clear()
    if limit is not None:
        signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        dt, report = _timed(cli.build_report, CurveSequence(m), True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, report.to_dict()


def _best_of(m: tuple[int, ...], runs: int, limit: float | None = None) -> tuple[float, dict]:
    times, out = [], None
    for _ in range(runs):
        dt, out = _cold_report(m, limit)
        times.append(dt)
    return min(times), out


def _candidates(rng: random.Random, anchor: tuple[int, ...]):
    """Distinct gcd-1 sequences of the anchor's (n, m_n), in seeded order."""
    n, mn = len(anchor), anchor[-1]
    if math.comb(mn - 1, n - 1) <= 10_000:
        pool = [c + (mn,) for c in itertools.combinations(range(1, mn), n - 1)]
        rng.shuffle(pool)
    else:
        pool = (tuple(sorted(rng.sample(range(1, mn), n - 1))) + (mn,) for _ in itertools.count())
    seen = {anchor}
    for m in pool:
        if m not in seen and math.gcd(*m) == 1:
            seen.add(m)
            yield m


def report_pool() -> tuple[dict, dict]:
    signal.signal(signal.SIGALRM, _on_alarm)
    rng = random.Random(2015)
    reference: dict[str, dict] = {}
    for m in workloads.REPORT_FIXED:
        dt, reference[workloads.key(m)] = _cold_report(m)
        print(f"report {workloads.key(m)}: {dt:.2f} s", flush=True)
    variants: dict[str, list[list[int]]] = {}
    for anchor in workloads.REPORT_ANCHORS:
        base, _ = _best_of(anchor, 3)
        lo, hi = BAND[0] * base, BAND[1] * base
        kept: list[list[int]] = []
        for m in itertools.islice(_candidates(rng, anchor), VARIANT_TRIES):
            try:
                dt, out = _best_of(m, 2, limit=2 * hi)
            except _TooSlow:
                continue
            except cli.Mismatch:
                raise
            except McurveError as exc:  # a documented refusal, not a wrong answer
                print(f"  skip {workloads.key(m)}: {type(exc).__name__}: {exc}", flush=True)
                continue
            if lo <= dt <= hi:
                kept.append(list(m))
                reference[workloads.key(m)] = out
                if len(kept) == VARIANTS_PER_ANCHOR:
                    break
        variants[workloads.key(anchor)] = kept
        print(f"anchor {workloads.key(anchor)} ({base:.2f} s): {len(kept)} variants", flush=True)
        if len(kept) < workloads.REPORT_VARIANTS[anchor]:
            raise SystemExit(f"anchor {workloads.key(anchor)}: a pass takes "
                             f"{workloads.REPORT_VARIANTS[anchor]} variants, only {len(kept)} kept")
    return {"variants": variants}, reference


def _write(name: str, payload) -> None:
    path = HERE / "data" / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def main() -> None:
    koszul_data = koszul_pool()
    report_data, reference = report_pool()
    sweep_data = sweep_pool()
    _write("koszul_pool.json", koszul_data)
    _write("report_pool.json", report_data)
    _write("report_reference.json", reference)
    _write("sweep_pool.json", sweep_data)


if __name__ == "__main__":
    main()
