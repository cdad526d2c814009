"""Two-row term orders for the tests: degrevlex refined so that one variable
is cheapest.  The reference saturation loop in test_grobner.py runs under
them, and they exercise `TermOrder.key` with more than one weight row."""

from mcurve.poly import TermOrder


def degrevlex_cheapest(nvars: int, cheap: int) -> TermOrder:
    """Degree first, then the smaller exponent on x_cheap (0-based) wins."""
    if cheap == nvars - 1:
        return TermOrder(nvars)  # degrevlex already makes the last variable cheapest
    return TermOrder(nvars, ((1,) * nvars, tuple(-int(j == cheap) for j in range(nvars))))
