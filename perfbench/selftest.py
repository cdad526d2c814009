"""Self-test of the benchmark itself (not of mcurve).

    python3 perfbench/selftest.py

Runs a few items of every workload twice, untraced and traced, each in a
fresh worker, and checks that:

- traced and untraced outputs are equal, and every output passes the
  correctness gate of run.py;
- every named span is reached on at least one workload, along with at least
  one closed-form span and one sweep-check span;
- a reference altered by hand is caught by the gate;
- the metric names run.py prints are exactly those BENCHMARK.json declares.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import time

import run
import tracer
import workloads

# item kinds to run per workload: together they reach every named span
KINDS = {"sweep": ("arithmetic", "generalized", "random"), "report": ("report",),
         "koszul": ("n3", "n4", "n5")}
SEED = 0


def main() -> int:
    problems: list[str] = []
    reached: set[str] = set()
    traced_passes: dict[str, dict] = {}
    deadline = time.perf_counter() + run.CHILD_TIMEOUT_S
    for workload, kinds in KINDS.items():
        items = workloads.items(workload, SEED)
        picks = [next(i for i, (kind, _) in enumerate(items) if kind == k) for k in kinds]
        outs = {}
        for trace in (False, True):
            runs = [run.spawn(workload, SEED, i, 1, trace, deadline) for i in picks]
            got = [it for r in runs for it in r["items"]]
            bad = run.item_failures(workload, got)
            problems += [f"{workload} item {i}: {why}" for i, why in bad.items()]
            outs[trace] = [it["out"] for it in got]
            if trace:
                spans = [s for r in runs for s in r["spans"]]
                reached |= set(tracer.summarize(spans))
                traced_passes[workload] = runs[0] | {"spans": spans}
        if outs[False] != outs[True]:
            problems.append(f"{workload}: traced outputs differ from untraced outputs")

    for name in tracer.NAMED:
        if name not in reached:
            problems.append(f"span {name} reached on no workload")
    for prefix in run.CLOSED_FORM_PREFIXES + ("sweeps.check",):
        if not any(n.startswith(prefix) for n in reached):
            problems.append(f"no span starting with {prefix} reached")

    item = traced_passes["report"]["items"][0]
    altered = copy.deepcopy(item)
    altered["out"]["regularity"] += 1
    if not run.item_failures("report", [altered]):
        problems.append("an altered report output passed the correctness gate")

    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    e2e, _ = run.end_to_end("report", [traced_passes["report"]], [0.0])
    layer = set(run.layer_values(traced_passes["sweep"])) | {"tracing_overhead"}
    for kind, names in (("end_to_end", set(e2e)), ("per_layer", layer)):
        want = {m["name"] for m in declared[kind]}
        if names != want:
            problems.append(f"{kind}: run.py prints {sorted(names ^ want)} differently "
                            f"from BENCHMARK.json")
    if {w["name"] for w in declared["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for p in problems:
        print(f"FAIL {p}")
    print(f"selftest: {len(reached)} span names reached, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
