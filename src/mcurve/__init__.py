"""Exact invariants of projective monomial curves defined by integer sequences.

The curve of m_1 < ... < m_n is parametrized by x_i = s^{m_i} t^{m_n - m_i}
(with x_n = s^{m_n}, x_{n+1} = t^{m_n}); this package computes its vanishing
ideal and the homological / enumerative invariants of the coordinate ring,
with closed forms for arithmetic and generalized-arithmetic sequences checked
against an independent Buchberger oracle.
"""
