"""mcurve benchmark: three closed-loop workloads on the public mcurve API.

    python3 perfbench/run.py --workload {sweep,report,koszul} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src, nothing is
installed.  Every pass runs in a fresh interpreter (perfbench/worker.py), one
process at a time: the `_count_standard` cache lives for a whole process, so a
second pass in the same process would mostly measure the cache.  `sweep`
keeps the cache warm across the instances of a pass, as `mcurve sweep` does;
`report` starts every curve in its own process, as one `mcurve invariants`
call does.  Passes repeat until the next one would end after S seconds, and
at least MIN_PASSES run unless that would take longer than CHILD_TIMEOUT_S;
on `sweep` and `report` three passes take as long as or longer than the S of
BENCHMARK.json, so there the minimum governs.  Without --trace, set-up-only
workers top the run's set-ups up to MIN_SETUPS, and setup_s is their median.

--trace 0 prints the end-to-end metrics: pass times and the typical item
time are taken over each item's median over the passes, the tail pools all item
times of the run, and every time is scaled to a reference machine speed (see
worker.py).  --trace 1 alternates untraced and traced passes, prints the
per-layer metrics from the traced ones and their wall-time ratio to the
untraced ones, and writes every span to perfbench/out/.  The last line of
standard output is one JSON object; lines before it starting with '#'
describe the run.  Any item that raises, differs from the reference in
perfbench/data, or differs between a traced and an untraced pass makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
# Three passes at least, so that each item's median sheds a time slowed by a
# burst of other load, and the tail of `report` is the middle one of three
# runs of its fourth-slowest curve.
MIN_PASSES = 3
# highest whole percentile with at least 10 samples beyond it over MIN_PASSES
# passes (69, 25 and 598 items a pass)
TAIL_PERCENTILE = {"sweep": 95, "report": 86, "koszul": 99}
# set-ups timed per untraced run (passes plus set-up-only workers), so that
# the median setup_s sheds a start slowed by other load
MIN_SETUPS = 21
ONE_PROCESS_PER_ITEM = {"report"}

CLOSED_FORM_PREFIXES = ("arith_forms.", "gen_forms.")
QUADRIC_SPANS = ("grobner.is_generated_by_quadrics", "grobner.has_quadratic_gb")


def spawn(workload: str, seed: int, first: int, count: int, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), workload, str(seed), str(first),
           str(count), "1" if trace else "0"]
    timeout = max(1.0, deadline - time.perf_counter())
    spawned_at = time.perf_counter()
    proc = subprocess.run(cmd + [repr(spawned_at)], capture_output=True, text=True,
                          cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def run_pass(workload: str, seed: int, n_items: int, trace: bool, deadline: float) -> dict:
    """One pass over every item; `report` gets one process per curve, whose
    items, spans and cache counts are joined."""
    if workload not in ONE_PROCESS_PER_ITEM:
        p = spawn(workload, seed, 0, n_items, trace, deadline)
        p["setups"] = [p.pop("setup_s")]
        return p
    total: dict = {"setups": [], "peak_rss_mb": 0.0, "items": [], "spans": [], "distinct": {},
                   "count_standard": {}}
    for i in range(n_items):
        p = spawn(workload, seed, i, 1, trace, deadline)
        total["setups"].append(p["setup_s"])
        total["peak_rss_mb"] = max(total["peak_rss_mb"], p["peak_rss_mb"])
        total["items"] += p["items"]
        offset = len(total["spans"])
        total["spans"] += [s[:3] + [s[3] + offset if s[3] >= 0 else -1] + s[4:]
                           for s in p.get("spans", [])]
        for field in ("distinct", "count_standard"):
            for k, v in p.get(field, {}).items():
                total[field][k] = total[field].get(k, 0) + v
    return total


def item_failures(workload: str, items: list[dict]) -> dict[int, str]:
    """Item index -> reason, for the items that raised or whose output is wrong."""
    if workload == "report":
        expected = workloads.load("report_reference.json")
    elif workload == "koszul":
        expected = {workloads.key(e["m"]): {"verdict": e["verdict"], "reason": e["reason"]}
                    for e in workloads.load("koszul_pool.json")["n5"]}
    bad = {}
    for it in items:
        out, key = it["out"], workloads.key(it["m"])
        if it["error"] is not None:
            bad[it["i"]] = it["error"].strip().splitlines()[-1]
        elif it["kind"] in ("report", "n5"):
            if out != expected.get(key):
                bad[it["i"]] = "output differs from the reference"
        elif not all(out.values()):
            bad[it["i"]] = f"failed checks {sorted(k for k, v in out.items() if not v)}"
    return bad


def percentile(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    xs = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def item_medians(passes: list[dict], field: str = "ms") -> list[float]:
    """Each item's median time over the passes, which sheds a time slowed by a
    burst of other load."""
    by_item = zip(*(p["items"] for p in passes))
    return [statistics.median(it[field] for it in runs) for runs in by_item]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values.  Unlike the median it does not
    jump when a gap in the item times falls at the middle of a pass, as one
    does on `sweep`."""
    xs = sorted(values)
    return statistics.fmean(xs[len(xs) // 4:len(xs) - len(xs) // 4])


def pass_seconds(passes: list[dict], field: str = "ms") -> float:
    """Time of a pass as the sum of the items' median times."""
    return sum(item_medians(passes, field)) / 1000


def end_to_end(workload: str, passes: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    wall_s = pass_seconds(passes)
    item_ms = [it["ms"] for p in passes for it in p["items"]]
    tail, beyond = percentile(item_ms, TAIL_PERCENTILE[workload])
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall_s, "s"),
        "cpu_s": metric(pass_seconds(passes, "cpu_ms"), "s"),
        "items_per_s": metric(len(passes[0]["items"]) / wall_s, "1/s"),
        "item_ms_iqm": metric(interquartile_mean(item_medians(passes)), "ms"),
        "item_ms_tail": metric(tail, "ms"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    raw = [it["raw_ms"] for p in passes for it in p["items"]]
    notes = [f"times are scaled to the reference machine speed; unscaled, the items of a "
             f"pass took {sum(raw) / len(passes) / 1000:.4f} s on average",
             f"item_ms_tail is p{TAIL_PERCENTILE[workload]} of {len(item_ms)} item times, "
             f"{beyond} beyond it",
             f"setup_s is the median of {len(setups)} set-ups"]
    return metrics, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(p: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    s = tracer.summarize(p["spans"])
    get = lambda name, field: s.get(name, {}).get(field, 0)  # noqa: E731
    cache = p.get("count_standard", {})
    toric_calls = get("grobner.toric_ideal", "calls")
    dec_calls = get("monideal.irreducible_decomposition", "calls")
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out = {}
    for name in ("grobner.lattice_basis", "grobner.buchberger", "grobner.toric_ideal",
                 "monideal.hf_quotient", "monideal.irreducible_decomposition",
                 "koszul.koszul_status"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("grobner.lattice_basis", "grobner.buchberger", "grobner.toric_ideal",
                 "monideal.hf_quotient", "monideal.hs_numerator",
                 "monideal.irreducible_decomposition", "monideal.cm_type_oracle",
                 "monideal.hs_general_split", "monideal.last_step_check",
                 "koszul.koszul_status", "koszul.quadratic_gb_witness", "seq.min_multiple",
                 "cli.build_report"):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["grobner.quadrics.self_s"] = sum(get(n, "self_s") for n in QUADRIC_SPANS)
    out["closed_forms.self_s"] = sum(v["self_s"] for n, v in s.items()
                                     if n.startswith(CLOSED_FORM_PREFIXES))
    out["sweeps.check.self_s"] = sum(v["self_s"] for n, v in s.items()
                                     if n.startswith("sweeps.check"))
    out["grobner.toric_ideal.per_curve"] = _ratio(
        toric_calls, p["distinct"].get("grobner.toric_ideal", 0))
    out["grobner.buchberger.per_toric"] = _ratio(
        s.get("grobner.buchberger", {}).get("parents", {}).get("grobner.toric_ideal", 0),
        toric_calls)
    out["monideal.decomposition.per_ideal"] = _ratio(
        dec_calls, p["distinct"].get("monideal.irreducible_decomposition", 0))
    for field in ("hits", "misses", "currsize"):
        out[f"monideal.count_standard.{field}"] = cache.get(field, 0)
    out["monideal.count_standard.hit_ratio"] = _ratio(cache.get("hits", 0), lookups)
    return out


LAYER_UNITS = {"calls": "count", "self_s": "s", "per_curve": "ratio", "per_toric": "ratio",
               "per_ideal": "ratio", "hits": "count", "misses": "count", "currsize": "count",
               "hit_ratio": "ratio"}


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    values = [layer_values(p) for p in traced]
    metrics = {name: metric(statistics.median_low(v[name] for v in values),
                            LAYER_UNITS[name.rsplit(".", 1)[1]])
               for name in values[0]}
    metrics["tracing_overhead"] = metric(pass_seconds(traced) / pass_seconds(plain), "ratio")
    return metrics, ["self times are unscaled span times"]


def write_spans(workload: str, seed: int, traced: list[dict]) -> Path:
    path = HERE / "out" / f"spans-{workload}-seed{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for k, p in enumerate(traced):
            for name, start, end, parent, curve in p["spans"]:
                fh.write(json.dumps({"pass": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "curve": curve}) + "\n")
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    package = ROOT / "src" / "mcurve" / "__init__.py"
    if not package.is_file():
        print(f"cannot run: {package} not found (run from the repository root)", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    started = time.perf_counter()
    deadline = started + CHILD_TIMEOUT_S
    n_items = len(workloads.items(args.workload, args.seed))
    modes = [False, True] if args.trace else [False]
    passes: dict[bool, list[dict]] = {False: [], True: []}
    durations: list[float] = []
    try:
        while True:
            for traced in modes:
                t0 = time.perf_counter()
                p = run_pass(args.workload, args.seed, n_items, traced, deadline)
                passes[traced].append(p)
                durations.append(time.perf_counter() - t0)
            ends_at = time.perf_counter() - started + len(modes) * statistics.mean(durations)
            enough = args.trace or len(passes[False]) >= MIN_PASSES
            if (enough and ends_at > args.seconds) or ends_at > CHILD_TIMEOUT_S:
                break
        setups = [s for p in passes[False] for s in p["setups"]]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(spawn(args.workload, args.seed, 0, 0, False, deadline)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2

    all_passes = passes[False] + passes[True]
    failures: dict[tuple[int, int], str] = {}
    for k, p in enumerate(all_passes):
        for i, reason in item_failures(args.workload, p["items"]).items():
            failures[k, i] = reason
        # every pass runs the same items: traced and untraced outputs must agree
        for a, b in zip(all_passes[0]["items"], p["items"]):
            if a["out"] != b["out"]:
                failures.setdefault((k, b["i"]), "output differs from the first pass")
    attempted = sum(len(p["items"]) for p in all_passes)

    print(f"# env nproc={os.cpu_count()} python={platform.python_version()} "
          f"loadavg_start={load_start[0]:.2f} loadavg_end={os.getloadavg()[0]:.2f} "
          f"processes=1 at a time (no --jobs pool: scaling with --jobs is out of scope "
          f"on a small shared machine)")
    print(f"# workload={args.workload} seed={args.seed} items_per_pass={n_items} "
          f"passes={len(passes[False])} untraced, {len(passes[True])} traced "
          f"elapsed_s={time.perf_counter() - started:.1f}")
    print(f"# attempted={attempted} failed={len(failures)} "
          f"fail_ratio={len(failures) / attempted:.4f}")
    items = all_passes[0]["items"]
    for (k, i), reason in list(failures.items())[:20]:
        print(f"# FAILED pass {k} {items[i]['kind']} {workloads.key(items[i]['m'])}: {reason}")
    if args.trace:
        metrics, notes = per_layer(passes[False], passes[True])
        path = write_spans(args.workload, args.seed, passes[True])
        notes.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(args.workload, passes[False], setups)
    for note in notes:
        print(f"# {note}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
