"""Monomials, binomials with +/-1 coefficients, and term orders.

Monomials are plain exponent tuples over the curve ring K[x_1, ..., x_{n+1}]
(0-based indices internally, 1-based names in text form).  Binomials are pure
differences lead - trail; toric S-polynomials and reductions of pure
differences stay pure differences, so no general polynomial type is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .seq import CurveSequence

Monomial = tuple[int, ...]


# -- exponent-vector arithmetic ---------------------------------------------

def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


# -- term orders -------------------------------------------------------------

class TermOrder:
    """Total multiplicative well-order on monomials, realized as a sort key."""

    nvars: int
    name: str

    def key(self, m: Monomial):
        raise NotImplementedError


def _degrevlex_key(m: Monomial):
    # larger total degree wins; ties: smaller exponent on the latest variable wins
    return (sum(m), tuple(-e for e in reversed(m)))


@dataclass(frozen=True)
class DegRevLex(TermOrder):
    """Degree reverse lexicographic order with x_1 > ... > x_nvars.

    An optional priority permutation (most significant variable first) allows
    the "variable x_i cheapest" variants used during saturation.
    """

    nvars: int
    priority: tuple[int, ...] | None = None

    def key(self, m: Monomial):
        if self.priority is not None:
            m = tuple(m[i] for i in self.priority)
        return _degrevlex_key(m)

    @property
    def name(self) -> str:
        if self.priority is None:
            return "degrevlex"
        return "degrevlex[" + ",".join(f"x{i+1}" for i in self.priority) + "]"


def degrevlex_cheapest(nvars: int, cheap: int) -> DegRevLex:
    """Degrevlex with variable `cheap` (0-based) moved to the end."""
    prio = tuple(i for i in range(nvars) if i != cheap) + (cheap,)
    return DegRevLex(nvars, prio)


@dataclass(frozen=True)
class YWeighted(TermOrder):
    """Order with one distinguished variable dominating, ties by degrevlex
    on the remaining variables in their natural priority."""

    nvars: int
    y_index: int

    def key(self, m: Monomial):
        rest = m[:self.y_index] + m[self.y_index + 1:]
        return (m[self.y_index],) + _degrevlex_key(rest)

    @property
    def name(self) -> str:
        return f"yweighted:x{self.y_index + 1}"


def parse_order(text: str, nvars: int) -> TermOrder:
    """Parse "degrevlex" or "yweighted:xK" into a term order."""
    if text == "degrevlex":
        return DegRevLex(nvars)
    if text.startswith("yweighted:x"):
        idx = int(text[len("yweighted:x"):]) - 1
        if not 0 <= idx < nvars:
            raise DimensionMismatch(f"variable index out of range in {text!r}")
        return YWeighted(nvars, idx)
    raise ValueError(f"unknown order {text!r}")


# -- binomials ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Binomial:
    """Pure difference lead - trail with lead >= trail under the ambient order."""

    lead: Monomial
    trail: Monomial

    @property
    def degree(self) -> int:
        return sum(self.lead)

    def __str__(self) -> str:
        return format_binomial(self)


def make_binomial(a: Monomial, b: Monomial, order: TermOrder) -> Binomial | None:
    """Oriented binomial a - b, or None if it is zero."""
    if a == b:
        return None
    if order.key(a) < order.key(b):
        a, b = b, a
    return Binomial(a, b)


# -- parametrization degree map ----------------------------------------------

def bidegree(seq: CurveSequence, m: Monomial) -> tuple[int, int]:
    """Image degree (s_deg, t_deg) of a monomial under x_i -> s^{m_i} t^{m_n - m_i}:
    x_i -> (m_i, m_n - m_i), x_{n+1} -> (0, m_n)."""
    n = seq.n
    if len(m) != n + 1:
        raise DimensionMismatch(f"monomial has {len(m)} vars, curve ring has {n + 1}")
    s_deg = sum(e * seq.m[i] for i, e in enumerate(m[:n]))
    t_deg = sum(e * (seq.mn - seq.m[i]) for i, e in enumerate(m[:n])) + m[n] * seq.mn
    return s_deg, t_deg


def is_member_binomial(seq: CurveSequence, b: Binomial) -> bool:
    """Kernel test: a pure difference vanishes on the curve iff its two
    monomials have equal bidegree."""
    return bidegree(seq, b.lead) == bidegree(seq, b.trail)


# -- text forms ---------------------------------------------------------------

def format_monomial(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


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


def format_binomial(b: Binomial) -> str:
    return f"{format_monomial(b.lead)} - {format_monomial(b.trail)}"


def parse_binomial(text: str, nvars: int) -> Binomial:
    parts = text.split(" - ")
    if len(parts) != 2:
        raise ValueError(f"bad binomial {text!r}")
    return Binomial(parse_monomial(parts[0], nvars), parse_monomial(parts[1], nvars))


def shift_monomial(m: Monomial, offset: int, nvars: int) -> Monomial:
    """Embed an exponent tuple into a larger ring at the given variable offset."""
    out = [0] * nvars
    for i, e in enumerate(m):
        out[offset + i] = e
    return tuple(out)


def shift_binomial(b: Binomial, offset: int, nvars: int) -> Binomial:
    return Binomial(shift_monomial(b.lead, offset, nvars),
                    shift_monomial(b.trail, offset, nvars))
