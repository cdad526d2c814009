#!/usr/bin/env python3
"""Run every family verification sweep and write JSONL results to out/.

Usage: python scripts/run_sweeps.py [--jobs N] [--out-dir DIR]

Every family of `mcurve.sweeps.FAMILIES` runs at its config default; the
random family draws 100 sequences with seed 0.
"""

import argparse
import pathlib
import sys

from mcurve.cli import main
from mcurve.sweeps import FAMILIES

# flags beyond a family's config default
FLAGS = {"random": ["--count", "100", "--seed", "0"]}

if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(exist_ok=True)
    rc = 0
    for name in FAMILIES:
        out = out_dir / f"sweep_{name}.jsonl"
        print(f"== {name} -> {out}")
        rc |= main(["sweep", "--family", name, *FLAGS.get(name, []),
                    "--jobs", str(args.jobs), "--out", str(out)])
    sys.exit(rc)
