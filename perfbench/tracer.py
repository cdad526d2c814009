"""Outside-in tracer for the mcurve modules.

Spans are recorded around the public functions of each mcurve module, from
outside the package: nothing in src/mcurve is edited.  Modules import each
other's functions by name (``from .grobner import toric_ideal``), so patching
only the defining module would miss most calls; `Tracer.install` rebinds the
function object under every name any loaded ``mcurve.*`` module holds for it.
Calls a module makes to its own functions go through the module globals, so
they are traced as well.

`poly` is left unwrapped: its helpers run millions of times per pass, so
their time is counted in the self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# span name -> (module, function); the closed-form and sweep-check spans are
# added from their modules' public functions in `targets`
NAMED = {
    "grobner.lattice_basis": ("mcurve.grobner", "lattice_basis"),
    "grobner.buchberger": ("mcurve.grobner", "buchberger"),
    "grobner.toric_ideal": ("mcurve.grobner", "toric_ideal"),
    "grobner.is_generated_by_quadrics": ("mcurve.grobner", "is_generated_by_quadrics"),
    "grobner.has_quadratic_gb": ("mcurve.grobner", "has_quadratic_gb"),
    "monideal.hf_quotient": ("mcurve.monideal", "hf_quotient"),
    "monideal.hs_numerator": ("mcurve.monideal", "hs_numerator"),
    "monideal.irreducible_decomposition": ("mcurve.monideal", "irreducible_decomposition"),
    "monideal.cm_type_oracle": ("mcurve.monideal", "cm_type_oracle"),
    "monideal.hs_general_split": ("mcurve.monideal", "hs_general_split"),
    "monideal.last_step_check": ("mcurve.monideal", "last_step_check"),
    "koszul.koszul_status": ("mcurve.koszul", "koszul_status"),
    "koszul.quadratic_gb_witness": ("mcurve.koszul", "quadratic_gb_witness"),
    "seq.min_multiple": ("mcurve.seq", "min_multiple"),
    "cli.build_report": ("mcurve.cli", "build_report"),
}
CLOSED_FORM_MODULES = ("mcurve.arith_forms", "mcurve.gen_forms")
SWEEP_CHECK_PREFIX = "check_"

# distinct first arguments are counted for these spans (ratios per curve / ideal)
KEYS = {
    "grobner.toric_ideal": lambda seq, *args, **kwargs: seq.m,
    "monideal.irreducible_decomposition": lambda ideal, *args, **kwargs: (ideal.nvars, ideal.gens),
}


def _public_functions(module):
    return [(name, fn) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == module.__name__]


def targets() -> list[tuple[str, object]]:
    """(span name, function) for every wrapped function, importing its module."""
    mod = importlib.import_module
    out = [(name, getattr(mod(module), attr)) for name, (module, attr) in NAMED.items()]
    for module in CLOSED_FORM_MODULES:
        short = module.rsplit(".", 1)[1]
        out += [(f"{short}.{name}", fn) for name, fn in _public_functions(mod(module))]
    out += [(f"sweeps.{name}", fn) for name, fn in _public_functions(mod("mcurve.sweeps"))
            if name.startswith(SWEEP_CHECK_PREFIX)]
    return out


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, curve id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.keys: dict[str, set] = {name: set() for name in KEYS}
        self.curve = -1
        self._stack: list[int] = []

    def install(self) -> None:
        wrapped = targets()
        modules = [m for name, m in list(sys.modules.items())
                   if name == "mcurve" or name.startswith("mcurve.")]
        for name, fn in wrapped:
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keyfn, keys = KEYS.get(name), self.keys.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyfn is not None:
                keys.add(keyfn(*args, **kwargs))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.curve]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls and self seconds (span time minus the time of
    direct child spans), plus calls per parent span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "parents": {}})
        s["calls"] += 1
        s["self_s"] += end - start - child_time[i]
        pname = spans[parent][0] if parent >= 0 else ""
        s["parents"][pname] = s["parents"].get(pname, 0) + 1
    return out
