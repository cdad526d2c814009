"""Input sequences and their derived integer profiles.

A projective monomial curve is specified by a strictly increasing tuple of
positive integers m_1 < ... < m_n.  Everything downstream (Groebner bases,
regularity, Hilbert data) is parameterized by a handful of integers derived
here: (q, r, alpha, k, c, tau) for arithmetic sequences and
(p, s, delta, beta_j, sigma_j, lambda_j) for generalized arithmetic ones.

All values are exact integers; operations are pure and all types immutable.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import (
    GcdViolation,
    HNotDividingD,
    InvariantViolation,
    NonIncreasing,
    NonPositive,
    NotArithmetic,
    NotGeneralizedArithmetic,
    Overflow,
    TooShort,
)

# Entries are mathematically unbounded, but the closed-form Hilbert-series
# numerator alone has about m_n entries (about 17 MB of peak memory per 10**6
# of m_n), so 10**9 exhausts memory; reject such input before any work.
ENTRY_LIMIT = 10**7


class CurveSequence(NamedTuple("CurveSequence", [("m", tuple[int, ...])])):
    """Strictly increasing tuple m_1 < ... < m_n of positive integers, n >= 2."""

    __slots__ = ()

    def __new__(cls, m: tuple[int, ...]) -> "CurveSequence":
        if len(m) < 2:
            raise TooShort(f"need at least 2 terms, got {len(m)}")
        for v in m:
            if not isinstance(v, int):
                raise NonPositive(f"entries must be integers, got {v!r}")
            if v < 1:
                raise NonPositive(f"entries must be >= 1, got {v}")
            if v > ENTRY_LIMIT:
                raise Overflow(f"entry {v} exceeds limit {ENTRY_LIMIT}")
        for a, b in zip(m, m[1:]):
            if a >= b:
                raise NonIncreasing(f"entries must strictly increase: {a} >= {b}")
        return super().__new__(cls, m)

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def m1(self) -> int:
        return self.m[0]

    @property
    def mn(self) -> int:
        return self.m[-1]

    def with_gcd_one(self) -> "CurveSequence":
        """Divide by the gcd of all entries (defines the same curve)."""
        g = math.gcd(*self.m)
        return self if g == 1 else CurveSequence(tuple(v // g for v in self.m))

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.m)


def parse_sequence(text: str) -> CurveSequence:
    """Parse a comma-separated list of integers; reject unsorted input."""
    if not text.strip():
        raise TooShort("empty input")
    parts = [p.strip() for p in text.split(",")]
    try:
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise NonPositive(f"not an integer list: {text!r}") from exc
    return CurveSequence(values)


class SequenceClass(NamedTuple):
    """Classification of a sequence: arithmetic / generalized arithmetic / general.

    kind == "arithmetic"  means m_i = m_1 + (i-1) d          (h = 1),
    kind == "generalized" means m_i = h m_1 + (i-1) d, i >= 2 (h >= 2),
    kind == "general"     means no exact (h, d) fit exists.
    """

    kind: str
    h: int | None
    d: int | None
    gcd_m1_d: int | None

    @property
    def is_arithmetic(self) -> bool:
        return self.kind == "arithmetic"

    @property
    def is_generalized_arithmetic(self) -> bool:
        return self.kind in ("arithmetic", "generalized")


def hd_fit(m: Sequence[int]) -> tuple[int, int] | None:
    """The unique exact (h, d) with m_i = h m_1 + (i-1) d for i >= 2, h >= 1,
    of a strictly increasing m of length at least 2, or None.

    For length >= 3 the fit is forced: d is the common gap of m_2, ..., m_n
    and h = (m_2 - d) / m_1, a positive integer.  Every pair fits with h = 1
    and d = m_2 - m_1.  A plain sequence, so that a search over many
    subsequences builds no `CurveSequence`.
    """
    if len(m) == 2:
        return 1, m[1] - m[0]
    d = m[2] - m[1]
    h, rem = divmod(m[1] - d, m[0])
    if h < 1 or rem:
        return None
    for i in range(3, len(m)):
        if m[i] - m[i - 1] != d:
            return None
    return h, d


def classify(seq: CurveSequence) -> SequenceClass:
    """The class of the exact (h, d) fit (`hd_fit`), "general" when there
    is none."""
    fit = hd_fit(seq.m)
    if fit is None:
        return SequenceClass("general", None, None, None)
    h, d = fit
    return SequenceClass("arithmetic" if h == 1 else "generalized", h, d, math.gcd(seq.m1, d))


def generalized_class(seq: CurveSequence) -> SequenceClass:
    """The class of a generalized arithmetic sequence (h >= 1) with
    gcd(m_1, d) = 1; NotGeneralizedArithmetic or GcdViolation otherwise."""
    cls = classify(seq)
    if not cls.is_generalized_arithmetic:
        raise NotGeneralizedArithmetic(f"({seq}) is not generalized arithmetic")
    if cls.gcd_m1_d != 1:
        raise GcdViolation(f"gcd(m_1, d) != 1 for ({seq})")
    return cls


class ArithmeticProfile(NamedTuple):
    """Derived data of an arithmetic sequence with gcd(m_1, d) = 1.

    m_1 = q (n-1) + r with 1 <= r <= n-1, alpha = q + d, k = n - r, and
    m_1 - 1 = c (n-1) + tau with 1 <= tau <= n-1 (c = -1 when m_1 = 1).
    """

    seq: CurveSequence
    d: int
    q: int
    r: int
    alpha: int
    k: int
    c: int
    tau: int


def arithmetic_profile(seq: CurveSequence) -> ArithmeticProfile:
    cls = classify(seq)
    if not cls.is_arithmetic:
        raise NotArithmetic(f"({seq}) is not an arithmetic sequence")
    d = cls.d
    if cls.gcd_m1_d != 1:
        raise GcdViolation(f"gcd(m_1, d) = {cls.gcd_m1_d} != 1 for ({seq})")
    n, m1 = seq.n, seq.m1
    r = (m1 - 1) % (n - 1) + 1
    q = (m1 - r) // (n - 1)
    alpha = q + d
    k = n - r
    tau = (m1 - 2) % (n - 1) + 1
    c = (m1 - 1 - tau) // (n - 1)
    prof = ArithmeticProfile(seq=seq, d=d, q=q, r=r, alpha=alpha, k=k, c=c, tau=tau)
    # alpha*m_1 + m_i = m_{n-k+i} + q*m_n for all i in 1..k
    for i in range(1, k + 1):
        if alpha * m1 + seq.m[i - 1] != seq.m[n - k + i - 1] + q * seq.mn:
            raise InvariantViolation(f"profile identity fails at i = {i} for ({seq})")
    return prof


class GeneralizedProfile(NamedTuple):
    """Derived data of a generalized arithmetic sequence, h >= 2, h | d.

    m_1 = p (n-1) + s with 1 <= s <= n-1 and delta = p h + d + h.  The arrays
    beta, sigma, lam are indexed j = 0 .. delta' (delta' = delta / h) and
    satisfy j h m_1 + beta_j m_2 = m_{sigma_j} + lam_j m_n.  tail is the
    profile of (m_2/h, ..., m_n/h), the arithmetic sequence of the tail curve.
    """

    seq: CurveSequence
    h: int
    d: int
    p: int
    s: int
    delta: int
    delta_prime: int
    beta: tuple[int, ...]
    sigma: tuple[int, ...]
    lam: tuple[int, ...]
    tail: ArithmeticProfile


def generalized_profile(seq: CurveSequence) -> GeneralizedProfile:
    cls = classify(seq)
    if cls.kind != "generalized":
        raise NotGeneralizedArithmetic(f"({seq}) has no fit with h >= 2")
    h, d = cls.h, cls.d
    if cls.gcd_m1_d != 1:
        raise GcdViolation(f"gcd(m_1, d) = {cls.gcd_m1_d} != 1 for ({seq})")
    if d % h != 0:
        raise HNotDividingD(f"h = {h} does not divide d = {d} for ({seq})")
    n, m1, mn = seq.n, seq.m1, seq.mn
    s = (m1 - 1) % (n - 1) + 1
    p = (m1 - s) // (n - 1)
    delta = p * h + d + h
    dp = delta // h

    # recursion, seeded at j = delta'
    beta = [0] * (dp + 1)
    sigma = [0] * (dp + 1)
    lam = [0] * (dp + 1)
    sigma[dp], lam[dp], beta[dp] = s + 1, p, 0
    for j in range(dp, 0, -1):
        if sigma[j] != n:
            sigma[j - 1], lam[j - 1], beta[j - 1] = sigma[j] + 1, lam[j], beta[j] + 1
        else:
            sigma[j - 1], lam[j - 1], beta[j - 1] = 3, lam[j] + 1, beta[j] + 2

    # closed form must reproduce the recursion
    for j in range(1, dp + 1):
        bump = (j + s - 2) // (n - 2) if n > 2 else 0
        if (beta[dp - j], lam[dp - j], sigma[dp - j]) != (j + bump, p + bump, (s + j - 2) % (n - 2) + 3):
            raise InvariantViolation(f"recursion and closed form differ at j = {j} for ({seq})")

    # defining identity at every index, and the membership form of beta_0
    for j in range(dp + 1):
        if j * h * m1 + beta[j] * seq.m[1] != seq.m[sigma[j] - 1] + lam[j] * mn:
            raise InvariantViolation(f"defining identity fails at j = {j} for ({seq})")
    if beta[0] != (mn - h) // (n * h - 2 * h) + 1:
        raise InvariantViolation(f"beta_0 = {beta[0]} is off its membership form for ({seq})")

    return GeneralizedProfile(
        seq=seq, h=h, d=d, p=p, s=s, delta=delta, delta_prime=dp,
        beta=tuple(beta), sigma=tuple(sigma), lam=tuple(lam),
        tail=arithmetic_profile(CurveSequence(tuple(v // h for v in seq.m[1:]))),
    )


def closed_profile(seq: CurveSequence) -> ArithmeticProfile | GeneralizedProfile | None:
    """The one decision whether (and which) closed forms apply: the profile of
    an arithmetic sequence, or of a generalized one with h | d; both need
    gcd(m_1, d) = 1.  None when no closed form applies."""
    cls = classify(seq)
    if cls.gcd_m1_d != 1 or (cls.kind == "generalized" and cls.d % cls.h != 0):
        return None
    return arithmetic_profile(seq) if cls.is_arithmetic else generalized_profile(seq)


def min_multiple(seq: CurveSequence) -> int:
    """Smallest b >= 1 with b*m_1 in the additive span N m_2 + ... + N m_n.

    Computed by a subset-sum style DP over reachable values, independent of
    the alpha / delta closed forms (which predict alpha+1 resp. delta).
    b = m_2 always works (m_2 m_1 is m_1 copies of m_2), so the DP runs up
    to m_1 m_2.  Bit x of the int `reach` says that x is reachable; for each
    generator v it takes reach |= reach << k v for k = 1, 2, 4, ..., after
    which it holds every sum with up to 2k - 1 more copies of v.
    """
    m = seq.m
    limit = m[0] * m[1]
    window = (1 << (limit + 1)) - 1
    reach = 1
    for v in m[1:]:
        step = v
        while step <= limit:
            reach |= (reach << step) & window
            step <<= 1
    return next(b for b in range(1, m[1] + 1) if reach >> (b * m[0]) & 1)
