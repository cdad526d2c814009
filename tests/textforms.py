"""Text parsers for test fixtures: the inverse of poly.format_monomial and
poly.format_binomial, so expected bases can be written as they print."""

from mcurve.errors import DimensionMismatch
from mcurve.poly import Binomial, Monomial


def parse_monomial(text: str, nvars: int) -> Monomial:
    text = text.strip()
    exps = [0] * nvars
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor.startswith("x"):
            raise ValueError(f"bad factor {factor!r}")
        if "^" in factor:
            var, exp = factor[1:].split("^")
            idx, e = int(var) - 1, int(exp)
        else:
            idx, e = int(factor[1:]) - 1, 1
        if not 0 <= idx < nvars:
            raise DimensionMismatch(f"variable x{idx + 1} out of range ({nvars} vars)")
        exps[idx] += e
    return tuple(exps)


def parse_binomial(text: str, nvars: int) -> Binomial:
    parts = text.split(" - ")
    if len(parts) != 2:
        raise ValueError(f"bad binomial {text!r}")
    return Binomial(parse_monomial(parts[0], nvars), parse_monomial(parts[1], nvars))
