"""Command-line frontend.

Subcommands: ``invariants`` (one-shot report, optionally verifying closed
forms against the oracle), ``gb`` (print / diff Groebner bases), ``hilbert``
(Hilbert-function table, formula vs counting), ``sweep`` (family
verification runs, JSONL output).  Whether and which closed forms apply is
decided in ``sweeps``: the report settles the claims of the curve's family
(``sweeps.CLAIMS``), and gb and hilbert read a ``sweeps.Curve``.  ``sweep``
reads its families from ``sweeps.FAMILIES``; each of --max-mn, --h, --count
and --seed sets one field of the chosen family's config (SWEEP_FLAGS), and a
flag whose field that config lacks is a usage error.

Exit codes: 0 success, 1 verification failure, 2 usage, input or other error
(a DegreeCapExceeded past the fixed degree guard of ``grobner.toric_ideal`` too).

argparse and the process pool load only when a command needs them (a parsed
command line; sweep --jobs N > 1): a one-curve command spends longer starting
than computing.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from typing import TYPE_CHECKING, NamedTuple

from . import sweeps
from .errors import McurveError, SequenceError
from .grobner import buchberger, reduce_basis, render_gb
from .koszul import koszul_status
from .poly import TermOrder, format_binomial, parse_order
from .seq import CurveSequence, classify, closed_profile, parse_sequence

if TYPE_CHECKING:  # argparse loads in build_parser, when a command line is parsed
    import argparse


class InvariantReport(NamedTuple):
    """Aggregated invariants with per-field provenance.

    provenance values: "closed_form", "oracle", or "both-agree"; a field
    computed both ways is reported only when the two values match (a mismatch
    aborts the command with exit code 1).  None: not computed for this class.
    """

    sequence: tuple[int, ...]
    kind: str
    h: int | None
    d: int | None
    cm: bool | None
    cm_type: int | None
    gorenstein: bool | None
    complete_intersection: bool | None
    regularity: int | None
    hf_regularity: int | None
    betti1: int | None
    hs_numerator: tuple[int, ...] | None
    hilbert_polynomial: tuple[int, int] | None
    koszul_verdict: str | None
    koszul_reason: str | None
    provenance: dict[str, str]

    def to_dict(self) -> dict:
        out = self._asdict()
        out["sequence"] = list(self.sequence)
        out["provenance"] = dict(self.provenance)
        if self.hs_numerator is not None:
            out["hs_numerator"] = list(self.hs_numerator)
        if self.hilbert_polynomial is not None:
            out["hilbert_polynomial"] = {
                "slope": self.hilbert_polynomial[0],
                "constant": self.hilbert_polynomial[1],
            }
        return out

    def render_text(self) -> str:
        lines = [f"sequence           {','.join(map(str, self.sequence))}"]
        cls = self.kind
        if self.h is not None:
            cls += f" (h={self.h}, d={self.d})"
        lines.append(f"class              {cls}")
        for label, name in [
            ("cohen-macaulay", "cm"),
            ("cm type", "cm_type"),
            ("gorenstein", "gorenstein"),
            ("complete int.", "complete_intersection"),
            ("regularity", "regularity"),
            ("hf regularity", "hf_regularity"),
            ("betti_1", "betti1"),
        ]:
            value = getattr(self, name)
            if value is not None:
                src = self.provenance.get(name, "")
                lines.append(f"{label:<18} {value} [{src}]" if src else f"{label:<18} {value}")
        if self.hs_numerator is not None:
            src = self.provenance.get("hs_numerator", "")
            lines.append(f"hs numerator       {list(self.hs_numerator)} [{src}]")
        if self.hilbert_polynomial is not None:
            s, c = self.hilbert_polynomial
            src = self.provenance.get("hilbert_polynomial", "")
            lines.append(f"hilbert polynomial {s}*s {'+' if c >= 0 else '-'} {abs(c)} [{src}]")
        if self.koszul_verdict is not None:
            lines.append(f"koszul             {self.koszul_verdict} ({self.koszul_reason})")
        return "\n".join(lines)


class Mismatch(McurveError):
    """Closed form and oracle disagree."""


def build_report(seq: CurveSequence, verify: bool) -> InvariantReport:
    """The invariant report of `seq`: every claim of its family (sweeps.CLAIMS)
    settled.  The oracle sides run, on one toric basis, when verifying or when
    no closed form applies, and the Koszul cascade reuses that basis."""
    cls = classify(seq)
    curve = sweeps.Curve(seq, closed_profile(seq))
    oracle = verify or curve.profile is None
    values = dict.fromkeys(InvariantReport._fields)
    prov: dict[str, str] = {}
    for claim in sweeps.CLAIMS[type(curve.profile)]:
        closed = claim.closed(curve) if claim.closed else None
        found = claim.oracle(curve) if claim.oracle and oracle else None
        if closed is not None and found is not None and closed != found:
            raise Mismatch(f"{claim.name}: closed form {closed} != oracle {found} for ({seq})")
        if closed is not None or found is not None:
            prov[claim.name] = ("closed_form" if found is None else
                                "oracle" if closed is None else "both-agree")
            values[claim.name] = closed if closed is not None else found
    if (verify and curve.profile is not None
            and set(reduce_basis(curve.closed_gb, curve.gb.order)) != curve.gb.element_set()):
        raise Mismatch(f"groebner basis: closed form != oracle for ({seq})")

    status = koszul_status(seq, curve.gb if oracle else None)
    prov["koszul"] = "oracle"
    values.update(sequence=seq.m, kind=cls.kind, h=cls.h, d=cls.d,
                  koszul_verdict=status.verdict, koszul_reason=status.reason, provenance=prov)
    return InvariantReport(**values)


# -- subcommands -----------------------------------------------------------------


def cmd_invariants(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.sequence)
    report = build_report(seq, verify=args.verify)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render_text())
    return 0


def cmd_gb(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.sequence)
    curve = sweeps.Curve(seq, closed_profile(seq))
    order = parse_order(args.order, seq.n + 1)

    if args.diff or args.source == "closed":
        if order != TermOrder(seq.n + 1):
            raise ValueError("--order applies to the oracle basis only, not to --diff "
                             "or --source closed")
        if curve.closed_gb is None:
            print(f"no closed form applies to ({seq})", file=sys.stderr)
            return 2
        closed = reduce_basis(curve.closed_gb, order)

    if args.diff:
        oracle = curve.gb
        only_closed = sorted(set(closed) - oracle.element_set(), key=str)
        only_oracle = sorted(oracle.element_set() - set(closed), key=str)
        for b in only_closed:
            print(f"closed only: {format_binomial(b)}")
        for b in only_oracle:
            print(f"oracle only: {format_binomial(b)}")
        if only_closed or only_oracle:
            return 1
        print(f"# diff empty: {len(oracle.elements)} elements agree")
        return 0

    if args.source == "closed":
        sys.stdout.write(render_gb(order, closed, seq))
        return 0
    gb = curve.gb
    if order != gb.order:
        gb = buchberger(gb.elements, order, gb.cap)
    sys.stdout.write(render_gb(gb.order, gb.elements, seq))
    return 0


def cmd_hilbert(args: argparse.Namespace) -> int:
    if args.max_degree < 0:
        raise ValueError(f"--max-degree must be at least 0, got {args.max_degree}")
    seq = parse_sequence(args.sequence)
    curve = sweeps.Curve(seq, closed_profile(seq))
    rows = [(s, curve.hilbert.hf_at(s) if curve.hilbert else None, counted)
            for s, counted in enumerate(curve.hf(args.max_degree + 1))]
    mismatch = any(f is not None and f != c for _, f, c in rows)
    if args.json:
        payload = {
            "sequence": list(seq.m),
            "rows": [{"s": s, "closed": f, "counted": c} for s, f, c in rows],
            "hs_numerator": list(curve.hs),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{'s':>4} {'closed':>10} {'counted':>10}")
        for s, f, c in rows:
            print(f"{s:>4} {f if f is not None else '-':>10} {c:>10}")
        print(f"hs numerator: {list(curve.hs)}")
    return 1 if mismatch else 0


# the sweep flags that set a config field: field -> flag; a family takes a
# flag when its config has the field
SWEEP_FLAGS = {"max_mn": "--max-mn", "h_values": "--h", "count": "--count", "seed": "--seed"}


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _run_one(payload: tuple[str, tuple[int, ...]]) -> dict:
    family, m = payload
    seq = CurveSequence(m)
    started = time.perf_counter()
    try:
        checks = sweeps.FAMILIES[family].check(seq)
        ok = all(checks.values())
        record = {"seq": list(m), "ok": ok, "checks": checks}
    except (McurveError, MemoryError) as exc:  # one instance's failure ends no sweep
        record = {"seq": list(m), "ok": False, "error": f"{type(exc).__name__}: {exc}"}
    record["elapsed_ms"] = round(1000 * (time.perf_counter() - started), 1)
    return record


def cmd_sweep(args: argparse.Namespace) -> int:
    family = sweeps.FAMILIES[args.family]
    if args.max_mn is not None and args.max_mn < 1:
        raise ValueError(f"--max-mn must be at least 1, got {args.max_mn}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    given = {name: getattr(args, name) for name in SWEEP_FLAGS if getattr(args, name) is not None}
    for name in given:
        if name not in family.config._fields:
            raise ValueError(f"the {args.family} family takes no {SWEEP_FLAGS[name]}")
    cfg = family.config(**given)
    payloads = [(args.family, s.m) for s in family.instances(cfg)]
    # a fork pool starts all its workers at once: no more than there are instances
    workers = min(args.jobs, len(payloads))
    written = failures = 0
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(args.out, "w")) if args.out else sys.stdout
        run = map
        if workers > 1:
            # loaded here, not with the module: multiprocessing is most of a start-up
            from concurrent.futures import ProcessPoolExecutor
            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        # both maps yield in input order as results arrive: records stream out
        for record in run(_run_one, payloads):
            written += 1
            failures += not record["ok"]
            out.write(json.dumps(record, sort_keys=True) + "\n")
            out.flush()
        summary = {
            "summary": {
                "family": args.family,
                "config": cfg._asdict(),
                "instances": written,
                "failures": failures,
            }
        }
        out.write(json.dumps(summary, sort_keys=True) + "\n")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="mcurve",
        description="Exact invariants of projective monomial curves defined by integer sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-m", "--sequence", required=True,
                       help="comma-separated strictly increasing positive integers")

    p = sub.add_parser("invariants", help="compute the invariant report")
    add_common(p)
    p.add_argument("--verify", action="store_true",
                   help="compute closed forms and oracle values and require agreement")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("gb", help="print or diff Groebner bases")
    add_common(p)
    p.add_argument("--source", choices=["closed", "oracle"], default="oracle")
    p.add_argument("--order", default="degrevlex",
                   help='"degrevlex" or "yweighted:xK" (oracle source only)')
    p.add_argument("--diff", action="store_true",
                   help="print the set difference closed vs oracle; exit 1 if nonempty")
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("hilbert", help="Hilbert function table: formula vs counting")
    add_common(p)
    p.add_argument("--max-degree", type=int, default=10,
                   help="last degree of the table (at least 0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("sweep", help="run a family verification sweep (JSONL)")
    p.add_argument("--family", required=True, choices=list(sweeps.FAMILIES))
    p.add_argument("--max-mn", type=int, default=None,
                   help="bound on the largest term m_n (default: the family's config "
                        "default in mcurve.sweeps, shown in the summary line)")
    p.add_argument("--h", dest="h_values", type=_int_list, default=None, metavar="H",
                   help="comma-separated h values, each at least 2 (generalized family)")
    p.add_argument("--seed", type=int, default=None, help="seed of the random family")
    p.add_argument("--count", type=int, default=None, help="instances for the random family")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (at least 1)")
    p.add_argument("--out", default=None, help="JSONL output path (default stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SequenceError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Mismatch as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (McurveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # not exit 1, which says that closed form and oracle disagree
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
