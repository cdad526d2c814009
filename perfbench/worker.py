"""One measured pass in a fresh interpreter.

    python3 -I perfbench/worker.py WORKLOAD SEED FIRST COUNT TRACE SPAWNED_AT

Runs items FIRST .. FIRST+COUNT-1 of `workloads.items(WORKLOAD, SEED)` in a
closed loop (each item starts when the previous one ends) and prints one JSON
object: set-up time since SPAWNED_AT (a time.perf_counter reading taken by the
parent just before it started this process; the clock is system-wide), peak
memory, and every item's wall time, CPU time and output.  Times are scaled to
the reference machine speed set by REFERENCE_KERNEL_S: wall times by probes
timed on the wall clock, CPU times by the same probes timed on the process
CPU clock, so that waiting for the CPU does not leak into the CPU figures.
"raw_ms" keeps each item's unscaled wall time.  With TRACE=1 the spans of
`tracer.Tracer` are included.  The outputs are judged by run.py, not here.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _runners():
    from mcurve import cli, koszul, sweeps
    from mcurve.seq import CurveSequence

    def sweep_check(check):
        return lambda m: check(CurveSequence(m))

    def status(m):
        s = koszul.koszul_status(CurveSequence(m))
        return {"verdict": s.verdict, "reason": s.reason}

    return {
        "arithmetic": sweep_check(sweeps.check_arithmetic_instance),
        "generalized": sweep_check(sweeps.check_generalized_instance),
        "random": sweep_check(sweeps.check_random_instance),
        "n3": sweep_check(sweeps.check_koszul_n3_instance),
        "n4": sweep_check(sweeps.check_koszul_n4_instance),
        "n5": status,
        "report": lambda m: cli.build_report(CurveSequence(m), verify=True).to_dict(),
    }


# Item and set-up times are scaled to a machine that runs `_kernel` in exactly
# this long.  The shared machine this benchmark was built on ran the same code
# up to 1.8x slower for seconds to minutes at a time; probes of `_kernel`
# between items follow that, so the scaled times stay comparable across runs.
REFERENCE_KERNEL_S = 0.003
PROBE_EVERY_S = 0.25


def _kernel() -> int:
    """Fixed pure-Python work of the kind mcurve does (divisibility tests on
    small tuples, dict updates, sorting); it never changes, so its time
    measures the machine, not the program."""
    monos = [((i * 7) % 11, (i * 5) % 9, (i * 3) % 7, i % 5) for i in range(150)]
    hits = 0
    for a in monos[:25]:
        for b in monos:
            if all(x <= y for x, y in zip(a, b)):
                hits += 1
    table: dict[tuple, int] = {}
    for m in monos * 4:
        key = tuple(sorted(m))
        table[key] = table.get(key, 0) + sum(m)
    return hits + len(sorted(table, key=lambda k: (sum(k), k)))


def probe() -> tuple[float, float]:
    """Best of three timings of `_kernel` on the wall clock and on the process
    CPU clock, with the collector off so that the program's heap does not
    slow it."""
    gc.disable()
    try:
        wall, cpu = [], []
        for _ in range(3):
            started, cpu_started = time.perf_counter(), time.process_time()
            _kernel()
            wall.append(time.perf_counter() - started)
            cpu.append(time.process_time() - cpu_started)
    finally:
        gc.enable()
    return min(wall), min(cpu)


def main(argv: list[str]) -> int:
    workload, seed, first, count, trace, spawned_at = argv
    seed, first, count, spawned_at = int(seed), int(first), int(count), float(spawned_at)

    sys.path[:0] = [str(SRC), str(HERE)]
    import mcurve
    if Path(mcurve.__file__).resolve().parent != SRC / "mcurve":
        print(f"mcurve imported from {mcurve.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer
    import workloads
    from mcurve import monideal

    spans = tracer.Tracer() if trace == "1" else None
    if spans is not None:
        spans.install()  # before _runners binds any mcurve function
    runners = _runners()
    todo = workloads.items(workload, seed)[first:first + count]
    setup_s = time.perf_counter() - spawned_at

    probe()  # the first runs of new code are slower while the interpreter adapts
    probes = [probe()]
    last_probe = time.perf_counter()
    records = []
    for i, (kind, m) in enumerate(todo, start=first):
        if time.perf_counter() - last_probe > PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
        if spans is not None:
            spans.curve = i
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            out, error = runners[kind](m), None
        except Exception:  # any failure counts against the item; the pass goes on
            out, error = None, traceback.format_exc(limit=-3)
        records.append({"i": i, "kind": kind, "m": list(m), "out": out, "error": error,
                        "ms": 1000 * (time.perf_counter() - started),
                        "cpu_ms": 1000 * (time.process_time() - cpu_started),
                        "probe": len(probes) - 1})
    probes.append(probe())
    # each item is scaled by the mean of the probes just before and after it
    for r in records:
        (wall_a, cpu_a), (wall_b, cpu_b) = probes[r["probe"]], probes[r.pop("probe") + 1]
        r["raw_ms"] = r["ms"]
        r["ms"] *= 2 * REFERENCE_KERNEL_S / (wall_a + wall_b)
        r["cpu_ms"] *= 2 * REFERENCE_KERNEL_S / (cpu_a + cpu_b)
    result = {
        "setup_s": setup_s * REFERENCE_KERNEL_S / probes[0][0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": records,
    }
    cache = getattr(monideal, "_count_standard", None)
    if cache is not None:
        info = cache.cache_info()
        result["count_standard"] = {"hits": info.hits, "misses": info.misses,
                                    "currsize": info.currsize}
    if spans is not None:
        result["spans"] = spans.spans
        result["distinct"] = {name: len(keys) for name, keys in spans.keys.items()}
    json.dump(result, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
