#!/usr/bin/env python3
"""Run every family verification sweep and write JSONL results to out/.

Usage: python scripts/run_sweeps.py [--jobs N] [--out-dir DIR]

Each family runs at its default bound on m_n, the config default in
`mcurve.sweeps`; the random family draws 100 sequences with seed 0.

The Buchberger degree cap comes from the MCURVE_CAP_DEGREE environment
variable (default 4 (m_n + n) per curve).
"""

import argparse
import pathlib
import sys

from mcurve.cli import main

SWEEPS = [
    ("arithmetic", ["--family", "arithmetic"]),
    ("generalized", ["--family", "generalized"]),
    ("n3", ["--family", "n3"]),
    ("n4", ["--family", "n4"]),
    ("random", ["--family", "random", "--count", "100", "--seed", "0"]),
]

if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(exist_ok=True)
    rc = 0
    for name, flags in SWEEPS:
        out = out_dir / f"sweep_{name}.jsonl"
        print(f"== {name} -> {out}")
        rc |= main(["sweep", *flags, "--jobs", str(args.jobs), "--out", str(out)])
    sys.exit(rc)
