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


# -- packed monomials ---------------------------------------------------------

class _Packing:
    """Monomials of `nvars` variables with every exponent at most `top`, each
    held as one int: x_i's exponent in a field of w = (nvars top).bit_length()
    + 1 bits starting at bit `shifts[i]` = w i, whose top bit is a guard and
    stays 0.  The Buchberger kernel (`grobner`), the monomial-ideal layer
    (`monideal`) and the Apery route's basis (`semigroup`) share it.

    A sum of exponents, at most nvars top < 2^(w-1), never carries out of a
    field, so: lead divides m iff every guard survives the subtraction,
    (m + G - lead) & G == G for the guard mask G; a field of a is at least that
    of b iff its guard survives a - b, which gives the kernel its lcms; and the
    degree is the top field of m * ONES (ONES = 1 in every field).  A
    divisor is never the larger int, so in ascending int order every
    monomial comes after its divisors.  `key` is the int whose order is that
    of `TermOrder.key` under the weight rows `weights` on these monomials
    (lcms included, whose degree may reach nvars top): the weight rows, the
    degree and the exponents negated from the last variable to the first
    become the digits of one number, each wider than its spread; the last
    ones are the fields of -m itself.  It is linear in m, so a reduction
    step lead -> trail moves a key by the constant key(trail) - key(lead).
    `degree_key` gives the degree and the key together, the degree computed
    once.  `swap(p, i)` exchanges the exponents of field i and the last
    field, and `last` is the shift of the last field: p >> last is its
    exponent."""

    __slots__ = ("args", "top", "guards", "field", "guard_shift", "shifts", "last", "pack",
                 "unpack", "degree", "degree_key", "swap")

    def __init__(self, nvars: int, top: int, weights: tuple[tuple[int, ...], ...] = ()) -> None:
        self.args, self.top = (nvars, top, weights), top
        w = (nvars * top).bit_length() + 1
        field = self.field = (1 << w) - 1
        self.guard_shift = w - 1
        fields = self.shifts = range(0, w * nvars, w)
        units = [1 << s for s in fields]  # x_i packed
        ones = sum(units)
        self.guards = ones << (w - 1)
        degree_shift = last = self.last = w * max(nvars - 1, 0)
        key_shift = w * nvars  # the degree digit; the weight rows above it
        shift = key_shift + w
        row_keys = [0] * nvars  # x_i's coefficient in the weight-row digits
        for row in reversed(weights):
            for i, c in enumerate(row):
                row_keys[i] += c << shift
            shift += (top * sum(map(abs, row))).bit_length() + 1
        rows = [(s, r) for s, r in zip(fields, row_keys) if r]

        # closures over the constants: the kernel calls them in its inner loops
        def pack(m: Monomial) -> int:
            return sum(map(mul, m, units))

        def unpack(p: int) -> Monomial:
            return tuple([(p >> s) & field for s in fields])

        def degree(p: int) -> int:
            return (p * ones >> degree_shift) & field

        def degree_key(p: int) -> tuple[int, int]:
            d = (p * ones >> degree_shift) & field
            k = (d << key_shift) - p
            for s, r in rows:
                k += ((p >> s) & field) * r
            return d, k

        def swap(p: int, i: int) -> int:
            s = w * i
            d = ((p >> s) ^ (p >> last)) & field
            return p ^ (d << s) ^ (d << last)

        self.pack, self.unpack, self.degree = pack, unpack, degree
        self.degree_key, self.swap = degree_key, swap

    def key(self, p: int) -> int:
        return self.degree_key(p)[1]

    def __reduce__(self):  # closures do not pickle: rebuild from the arguments
        return _Packing, self.args


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
    """Parse "degrevlex" or "yweighted:xK" (K a decimal number, 1 <= K <= nvars)
    into a term order; anything else raises ValueError, a usage error."""
    if text == "degrevlex":
        return TermOrder(nvars)
    k = text.removeprefix("yweighted:x")
    if k != text and k.isascii() and k.isdigit():
        idx = int(k) - 1
        if not 0 <= idx < nvars:
            raise ValueError(f"variable index out of range in {text!r}")
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

