"""Command-line frontend.

Subcommands: ``invariants`` (one-shot report, optionally verifying closed
forms against the oracle), ``gb`` (print / diff Groebner bases), ``hilbert``
(Hilbert-function table, formula vs counting), ``sweep`` (family
verification runs, JSONL output).  ``sweep`` reads its families from
``sweeps.FAMILIES``; each of --max-mn, --h, --count and --seed sets one field
of the chosen family's config (SWEEP_FLAGS), and a flag whose field that config
lacks is a usage error.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
The MCURVE_CAP_DEGREE environment variable overrides the Buchberger degree
cap of the toric basis; --cap-degree wins over the environment, and a cap
below 1 is a usage error.  Every run made from that basis (Koszul witnesses,
gb --order) stays under its cap.

argparse and the process pool load only when a command needs them (a parsed
command line; sweep --jobs N > 1): a one-curve command spends longer starting
than computing.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import sweeps
from .arith_forms import (
    ArithHilbert,
    betti1_arithmetic,
    cm_type_arithmetic,
    gb_arithmetic,
    hilbert_arithmetic,
    is_gorenstein,
    reg_arithmetic,
)
from .errors import McurveError, SequenceError
from .gen_forms import (
    GenHilbert,
    gb_generalized,
    hilbert_generalized,
    is_cm_generalized,
    is_complete_intersection,
    reg_generalized,
)
from .grobner import (
    buchberger,
    initial_ideal,
    reduce_basis,
    render_gb,
    toric_ideal,
)
from .koszul import koszul_status
from .monideal import (
    cm_type_oracle,
    cm_via_initial,
    fitted_polynomial,
    hf_quotient,
    hs_numerator,
    reg_nested_type,
)
from .poly import Binomial, TermOrder, format_binomial, parse_order
from .seq import (ArithmeticProfile, CurveSequence, GeneralizedProfile, classify,
                  closed_profile, parse_sequence)

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


Profile = ArithmeticProfile | GeneralizedProfile


class ClosedForms(NamedTuple):
    """The closed forms of one family, each taking the family's profile."""

    gb: Callable[[Profile], list[Binomial]]
    hilbert: Callable[[Profile], ArithHilbert | GenHilbert]
    regularity: Callable[[Profile], int]


def closed_forms(prof: Profile | None) -> ClosedForms | None:
    """The closed forms of the family of a profile (seq.closed_profile), or None.

    The table is built per call, so a function replaced on this module (a test
    double, or a tracing wrapper) is the one that runs."""
    return {
        ArithmeticProfile: ClosedForms(gb_arithmetic, hilbert_arithmetic, reg_arithmetic),
        GeneralizedProfile: ClosedForms(gb_generalized, hilbert_generalized, reg_generalized),
    }.get(type(prof))


def _cap_from(args: argparse.Namespace) -> int | None:
    """The degree cap of --cap-degree, else of MCURVE_CAP_DEGREE, else None (the
    default); a cap below 1, or a variable that is no integer, is a usage error."""
    cap, source = args.cap_degree, "--cap-degree"
    if cap is None:
        env = os.environ.get("MCURVE_CAP_DEGREE")
        if not env:
            return None
        try:
            cap, source = int(env), "MCURVE_CAP_DEGREE"
        except ValueError:
            raise ValueError(f"MCURVE_CAP_DEGREE must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValueError(f"{source} must be at least 1, got {cap}")
    return cap


def build_report(seq: CurveSequence, verify: bool, cap: int | None = None) -> InvariantReport:
    """The invariant report of `seq`.  The toric basis (under `cap`; None: the
    default) is computed once, when verifying or when no closed form applies,
    and the Koszul cascade reuses it."""
    cls = classify(seq)
    prov: dict[str, str] = {}

    def settle(name: str, closed, oracle) -> object:
        """Record a field computed one or both ways; raise on disagreement."""
        if closed is not None and oracle is not None:
            if closed != oracle:
                raise Mismatch(f"{name}: closed form {closed} != oracle {oracle} for ({seq})")
            prov[name] = "both-agree"
            return closed
        if closed is not None:
            prov[name] = "closed_form"
            return closed
        prov[name] = "oracle"
        return oracle

    prof = closed_profile(seq)
    forms = closed_forms(prof)
    gb = ini = None
    if verify or forms is None:
        gb = toric_ideal(seq, cap)
        ini = initial_ideal(gb)
    oracle = gb is not None
    # built once: a generalized betti_1 counts it, and verifying compares it
    closed_gb = forms.gb(prof) if forms and (verify or isinstance(prof, GeneralizedProfile)) else None

    hil = forms.hilbert(prof) if forms else None
    cm_type = gorenstein = complete_intersection = hf_regularity = betti1 = None
    if isinstance(prof, ArithmeticProfile):
        cm = settle("cm", True, cm_via_initial(ini) if oracle else None)
        cm_type = settle("cm_type", cm_type_arithmetic(prof),
                         cm_type_oracle(seq, ini) if oracle else None)
        gorenstein = settle("gorenstein", is_gorenstein(prof), (cm_type == 1) if oracle else None)
        complete_intersection = settle("complete_intersection", is_complete_intersection(seq),
                                       (len(gb.elements) == seq.n - 1) if oracle else None)
        hf_regularity = settle("hf_regularity", hil.hf_reg, None)
        betti1 = settle("betti1", betti1_arithmetic(prof), len(gb.elements) if oracle else None)
    elif isinstance(prof, GeneralizedProfile):
        cm = settle("cm", is_cm_generalized(seq), cm_via_initial(ini) if oracle else None)
        gorenstein = False if not cm else None
        prov["gorenstein"] = prov["cm"]
        complete_intersection = settle(
            "complete_intersection", is_complete_intersection(seq), None)
        betti1 = settle("betti1", len(closed_gb), len(gb.elements) if oracle else None)
    else:
        cm = settle("cm", None, cm_via_initial(ini))
        if cm:
            cm_type = settle("cm_type", None, cm_type_oracle(seq, ini))
            gorenstein = settle("gorenstein", None, cm_type == 1)
    regularity = settle("regularity", forms.regularity(prof) if forms else None,
                        reg_nested_type(ini) if oracle else None)
    hs_num = settle("hs_numerator", hil.hs_numerator if hil else None,
                    hs_numerator(ini) if oracle else None)
    hilbert_polynomial = settle(
        "hilbert_polynomial", (hil.hp_slope, hil.hp_constant) if hil else None,
        fitted_polynomial(ini, regularity) if oracle else None)
    if verify and forms is not None and set(reduce_basis(closed_gb, gb.order)) != gb.element_set():
        raise Mismatch(f"groebner basis: closed form != oracle for ({seq})")

    status = koszul_status(seq, gb)
    prov["koszul"] = "oracle"
    return InvariantReport(
        sequence=seq.m, kind=cls.kind, h=cls.h, d=cls.d, cm=cm, cm_type=cm_type,
        gorenstein=gorenstein, complete_intersection=complete_intersection,
        regularity=regularity, hf_regularity=hf_regularity, betti1=betti1,
        hs_numerator=hs_num, hilbert_polynomial=hilbert_polynomial,
        koszul_verdict=status.verdict, koszul_reason=status.reason, provenance=prov)


# -- subcommands -----------------------------------------------------------------


def cmd_invariants(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.sequence)
    report = build_report(seq, verify=args.verify, cap=_cap_from(args))
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render_text())
    return 0


def cmd_gb(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.sequence)
    cap = _cap_from(args)
    order = parse_order(args.order, seq.n + 1)

    if args.diff or args.source == "closed":
        if order != TermOrder(seq.n + 1):
            raise ValueError("--order applies to the oracle basis only, not to --diff "
                             "or --source closed")
        prof = closed_profile(seq)
        forms = closed_forms(prof)
        if forms is None:
            print(f"no closed form applies to ({seq})", file=sys.stderr)
            return 2
        closed = reduce_basis(forms.gb(prof), order)

    if args.diff:
        oracle = toric_ideal(seq, cap)
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
    gb = toric_ideal(seq, cap)
    if order != gb.order:
        gb = buchberger(gb.elements, order, gb.cap)
    sys.stdout.write(render_gb(gb.order, gb.elements, seq))
    return 0


def cmd_hilbert(args: argparse.Namespace) -> int:
    if args.max_degree < 0:
        raise ValueError(f"--max-degree must be at least 0, got {args.max_degree}")
    seq = parse_sequence(args.sequence)
    ini = initial_ideal(toric_ideal(seq, _cap_from(args)))
    prof = closed_profile(seq)
    forms = closed_forms(prof)
    closed_hf = forms.hilbert(prof).hf_at if forms else None

    rows = []
    mismatch = False
    for s in range(args.max_degree + 1):
        counted = hf_quotient(ini, s)
        formula = closed_hf(s) if closed_hf else None
        rows.append((s, formula, counted))
        if formula is not None and formula != counted:
            mismatch = True
    if args.json:
        payload = {
            "sequence": list(seq.m),
            "rows": [{"s": s, "closed": f, "counted": c} for s, f, c in rows],
            "hs_numerator": list(hs_numerator(ini)),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{'s':>4} {'closed':>10} {'counted':>10}")
        for s, f, c in rows:
            print(f"{s:>4} {f if f is not None else '-':>10} {c:>10}")
        print(f"hs numerator: {list(hs_numerator(ini))}")
    return 1 if mismatch else 0


# the sweep flags that set a config field: field -> flag; a family takes a
# flag when its config has the field
SWEEP_FLAGS = {"max_mn": "--max-mn", "h_values": "--h", "count": "--count", "seed": "--seed"}


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _run_one(payload: tuple[str, tuple[int, ...], int | None]) -> dict:
    family, m, cap = payload
    seq = CurveSequence(m)
    started = time.perf_counter()
    try:
        checks = sweeps.FAMILIES[family].check(seq, cap)
        ok = all(checks.values())
        record = {"seq": list(m), "ok": ok, "checks": checks}
    except McurveError as exc:
        record = {"seq": list(m), "ok": False, "error": f"{type(exc).__name__}: {exc}"}
    record["elapsed_ms"] = round(1000 * (time.perf_counter() - started), 1)
    return record


def cmd_sweep(args: argparse.Namespace) -> int:
    cap = _cap_from(args)
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
    payloads = [(args.family, s.m, cap) for s in family.instances(cfg)]
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

    def add_common(p: argparse.ArgumentParser, sequence: bool = True) -> None:
        if sequence:
            p.add_argument("-m", "--sequence", required=True,
                           help="comma-separated strictly increasing positive integers")
        p.add_argument("--cap-degree", type=int, default=None,
                       help="Buchberger degree cap (default 4*(m_n + n); env MCURVE_CAP_DEGREE)")

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
    add_common(p, sequence=False)
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


if __name__ == "__main__":
    sys.exit(main())
