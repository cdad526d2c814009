"""Source checks on the package itself."""

import ast
from pathlib import Path

import mcurve

PACKAGE = Path(mcurve.__file__).resolve().parent


def test_no_assert_in_package():
    # internal checks raise McurveError: an assert vanishes under python -O
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_order_key_read_in_grobner_and_closed_form_check_only():
    # orienting a binomial is buchberger's job (and the closed-form check's):
    # any other reader of TermOrder.key is a second copy of that decision
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("grobner.py", "arith_forms.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "key":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_semigroup_imports_no_groebner_or_monomial_ideal_code():
    # the semigroup route is an independent check on both
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "semigroup.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    names = {part for name in imported if name for part in name.split(".")}
    assert not names & {"grobner", "monideal"}, sorted(imported)


def test_import_loads_no_pool_parser_or_dataclasses(run_python):
    # start-up is most of a one-curve command: the process pool (only
    # sweep --jobs N > 1 needs it) and argparse load when a command runs, and
    # the records are NamedTuples, whose classes take no code generation
    heavy = ("argparse", "concurrent.futures", "multiprocessing", "dataclasses")
    proc = run_python("-c", f"""
import sys
before = set(sys.modules)
import mcurve.cli, mcurve.koszul, mcurve.semigroup, mcurve.sweeps
print(sorted(set({heavy!r}) & (set(sys.modules) - before)))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"



def test_package_reads_no_environment_variable():
    # every setting is a command-line flag or a constant: none comes in
    # through the environment
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found.extend(f"{path.name}:{node.lineno}" for alias in node.names
                             if alias.name in ("environ", "getenv"))
    assert not found, found
