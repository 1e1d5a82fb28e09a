"""Closed-form evaluators for the numeric invariants, in exact rationals.

These are identities, not estimates: every result is a Fraction or an int,
and the parameter domains are validated up front.  The genus-2 degree
bookkeeping ties together as

    preimageDegree = 4 p = 4 + 2 * hbarDegree = 4 + 2 * 2(p - 1),

the degree of the Kummer quartic plus twice the residual surface.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RangeError, ResourceGuardError
from .exactnum import is_prime

# every count is below 2^(2g) p^max(g, 3); below 2^14000 it has at most
# 4,215 digits, inside the 4,300 that json prints on every CPython release
_COUNT_BITS_LIMIT = 14_000


def _check_odd_prime(p: int):
    if not isinstance(p, int) or not is_prime(p) or p == 2:
        raise RangeError(f"p must be an odd prime, got {p}")


def _check_genus(g: int):
    if not isinstance(g, int) or g < 2:
        raise RangeError(f"genus must be an integer >= 2, got {g}")


def mu_r(r: int, g: int, d: int, p: int) -> Fraction:
    """Largest possible slope of a rank-r subbundle of the pushforward of a
    degree-d line bundle under Frobenius: ((r-1)(g-1) + d) / p."""
    _check_odd_prime(p)
    _check_genus(g)
    if not 1 <= r <= p:
        raise RangeError(f"need 1 <= r <= p, got r={r}")
    return Fraction((r - 1) * (g - 1) + d, p)


def nu_r(r: int, g: int, d: int, p: int) -> Fraction:
    """Smallest possible slope of a rank-r quotient sheaf of the same
    pushforward: ((2p - r - 1)(g-1) + d) / p."""
    _check_odd_prime(p)
    _check_genus(g)
    if not 1 <= r <= p:
        raise RangeError(f"need 1 <= r <= p, got r={r}")
    return Fraction((2 * p - r - 1) * (g - 1) + d, p)


def nagata_segre(r: int, delta: int, n: int, g: int):
    """The Nagata-Segre subbundle bound for a rank-r degree-delta bundle.

    Returns (epsilon, bound) where epsilon is the unique integer in
    [0, r-1] with epsilon + n(r-n)(g-1) = n delta (mod r), and
    bound = delta/r - ((r-n)/r)(g-1) - epsilon/(r n) is the guaranteed
    slope of some rank-n subbundle.
    """
    _check_genus(g)
    if r < 2 or not 1 <= n <= r - 1:
        raise RangeError(f"need 1 <= n <= r-1, got n={n}, r={r}")
    eps = (n * delta - n * (r - n) * (g - 1)) % r
    bound = Fraction(delta, r) - Fraction((r - n) * (g - 1), r) - Fraction(eps, r * n)
    return eps, bound


def counts(p: int, g: int = 2) -> dict:
    """Every closed-form count, keyed the way the CLI reports them.

    The four degree counts (base locus, generalized Verschiebung, residual
    surface, preimage of the Kummer) are genus-2 statements and are only
    emitted when g == 2; tauInvariantCount and maxDestabDegree make sense
    for any genus >= 2.  Raises ResourceGuardError when a count could exceed
    2^_COUNT_BITS_LIMIT, before any is built.
    """
    _check_odd_prime(p)
    _check_genus(g)
    if 2 * g + max(g, 3) * p.bit_length() > _COUNT_BITS_LIMIT:
        raise ResourceGuardError(f"the counts for p = {p}, g = {g} may exceed 2^{_COUNT_BITS_LIMIT}")
    out = {
        "p": p,
        "g": g,
        "tauInvariantCount": 2 ** (2 * (g - 1) - 1) * (p ** g - 1),
        "maxDestabDegree": g - 1,
    }
    if g == 2:
        # 3 divides p^3 - p = (p - 1) p (p + 1), so p^3 + 2p = (p^3 - p) + 3p
        out.update(
            {
                "baseLocusLength": 2 * (p ** 3 - p) // 3,
                "verschiebungDegree": (p ** 3 + 2 * p) // 3,
                "hbarDegree": 2 * (p - 1),
                "preimageDegree": 4 * p,
            }
        )
        out["consistency"] = out["preimageDegree"] == 4 + 2 * out["hbarDegree"]
    return out
