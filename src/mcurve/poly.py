"""Monomials, binomials with +/-1 coefficients, and term orders.

Monomials are plain exponent tuples over the curve ring K[x_1, ..., x_{n+1}]
(0-based indices internally, 1-based names in text form).  Binomials are pure
differences lead - trail; toric S-polynomials and reductions of pure
differences stay pure differences, so no general polynomial type is needed.
"""

from __future__ import annotations

from operator import le, mul
from typing import NamedTuple

from .errors import DimensionMismatch
from .seq import CurveSequence

Monomial = tuple[int, ...]


# -- exponent-vector arithmetic ---------------------------------------------

def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


# -- term orders -------------------------------------------------------------

class TermOrder(NamedTuple):
    """Degrevlex with x_1 > ... > x_nvars, refined by weight rows: monomials
    compare first by w.m for each row w of `weights` in turn, then by total
    degree, then the smaller exponent on the latest variable wins.  No
    weights is plain degrevlex; `yweighted` below is one row."""

    nvars: int
    weights: tuple[tuple[int, ...], ...] = ()

    def key(self, m: Monomial):
        out = (sum(m),) + tuple([-e for e in reversed(m)])
        for w in reversed(self.weights):
            out = (sum(map(mul, w, m)),) + out
        return out

    @property
    def name(self) -> str:
        if not self.weights:
            return "degrevlex"
        if len(self.weights) == 1 and sorted(self.weights[0]) == [0] * (self.nvars - 1) + [1]:
            return f"yweighted:x{self.weights[0].index(1) + 1}"
        return "degrevlex" + "".join(f"[{','.join(map(str, w))}]" for w in self.weights)


def yweighted(nvars: int, y: int) -> TermOrder:
    """The exponent on x_y (0-based) dominates; ties by degrevlex."""
    return TermOrder(nvars, (tuple(int(j == y) for j in range(nvars)),))


def parse_order(text: str, nvars: int) -> TermOrder:
    """Parse "degrevlex" or "yweighted:xK" (K a decimal number) into a term order."""
    if text == "degrevlex":
        return TermOrder(nvars)
    k = text.removeprefix("yweighted:x")
    if k != text and k.isascii() and k.isdigit():
        idx = int(k) - 1
        if not 0 <= idx < nvars:
            raise DimensionMismatch(f"variable index out of range in {text!r}")
        return yweighted(nvars, idx)
    raise ValueError(f"unknown order {text!r}")


# -- binomials ---------------------------------------------------------------

class Binomial(NamedTuple):
    """Pure difference lead - trail.  Every basis the package returns is
    oriented (lead > trail under its order); `grobner.buchberger` accepts
    either orientation."""

    lead: Monomial
    trail: Monomial

    @property
    def degree(self) -> int:
        return sum(self.lead)

    def __str__(self) -> str:
        return format_binomial(self)


# -- parametrization degree map ----------------------------------------------

def bidegree(seq: CurveSequence, m: Monomial) -> tuple[int, int]:
    """Image degree (s_deg, t_deg) of a monomial under x_i -> s^{m_i} t^{m_n - m_i}:
    x_i -> (m_i, m_n - m_i), x_{n+1} -> (0, m_n).  The two rows are
    (m_1, ..., m_n, 0) and m_n (1, ..., 1) minus that row, so
    t_deg = m_n deg - s_deg."""
    if len(m) != seq.n + 1:
        raise DimensionMismatch(f"monomial has {len(m)} vars, curve ring has {seq.n + 1}")
    s_deg = sum(map(mul, seq.m, m))  # map stops before x_{n+1}, whose s-weight is 0
    return s_deg, seq.mn * sum(m) - s_deg


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


def format_binomial(b: Binomial) -> str:
    return f"{format_monomial(b.lead)} - {format_monomial(b.trail)}"

