"""Cartier-Manin against point counts: an oracle that shares no code with the
recurrence.

Manin's congruence (Manin 1961; Yui, J. Algebra 52, 1978): for y^2 = f(x)
of genus 2 over F_p, #X(F_p) = p + 1 - s1 with s1 = tr Frob, and
s1 = tr A (mod p).  The model has one point at infinity (deg f = 5), so
#X(F_p) = p + 1 + sum_x chi(f(x)), and the congruence reads

    tr A = -sum_x chi(f(x))  (mod p),

with chi(a) = a^((p-1)/2) mod p by Euler's criterion.  The count evaluates f
by Horner's rule on plain ints.

Over F_{p^2} = F_p[s]/(s^2 - n), n a non-residue, the quadratic character
is chi(a + b s) = chi(a^2 - n b^2), read through the norm, and the count is
N2 = p^2 + 1 + sum_v chi(f(v)).  With s1 = p + 1 - N1 and
s2 = (s1^2 - (p^2 + 1 - N2)) / 2 the characteristic polynomial of Frobenius
is t^4 - s1 t^3 + s2 t^2 - p s1 t + p^2, which is t^2 det(t - A) mod p, so
s2 = det A (mod p), and #J(F_p) = L(1) = (N1^2 + N2) / 2 - p.

Frobenius induces the Verschiebung V_J, and on F_p-points the relative
Frobenius is a bijection, so J(F_p)[p] is the kernel of V_J on F_p-points:
the p^d flat forms, d = dim ker(A - I).  So p^d divides #J(F_p), and d >= 1
exactly when p divides #J(F_p).

The same holds over F_{p^2} with d2 = dim ker(A^2 - I), and the order needs
no count over F_{p^4}.  With L(T) = 1 - s1 T + s2 T^2 - p s1 T^3 + p^2 T^4
the reversed characteristic polynomial of Frobenius, the Frobenius
eigenvalues over F_{p^2} are the squares of those over F_p, so
L_{p^2}(T^2) = L(T) L(-T) and #J(F_{p^2}) = L_{p^2}(1) = L(1) L(-1).
"""

import pytest

from g2frob import (
    NotSquarefree,
    PrimeField,
    cartier_manin,
    enumerate_p_torsion,
    make_curve,
    make_field,
    random_curve,
    rational_flat_dimension,
)

from conftest import CERTIFIED, NON_ORDINARY_3, rng_for


def character_sum(f, p):
    """sum over x in F_p of the Legendre symbol of f(x), by Euler's criterion."""
    e, total = (p - 1) // 2, 0
    for x in range(p):
        v = 0
        for c in reversed(f):
            v = (v * x + c) % p
        if v:
            total += 1 if pow(v, e, p) == 1 else -1
    return total


def norm_character_sum(f, p):
    """sum over v in F_p[s]/(s^2 - n) of chi(f(v)), n the least non-residue,
    with chi(a + b s) = chi(a^2 - n b^2)."""
    e = (p - 1) // 2
    n = next(c for c in range(2, p) if pow(c, e, p) == p - 1)
    total = 0
    for a in range(p):
        for b in range(p):
            u = w = 0  # f(a + b s) = u + w s, by Horner's rule
            for c in reversed(f):
                u, w = (u * a + n * w * b + c) % p, (u * b + w * a) % p
            m = (u * u - n * w * w) % p
            if m:
                total += 1 if pow(m, e, p) == 1 else -1
    return total


def point_counts(f, p):
    """(#X(F_p), #X(F_{p^2})), each with its one point at infinity."""
    return p + 1 + character_sum(f, p), p * p + 1 + norm_character_sum(f, p)


def _trace(A):
    return A.matrix[0][0] + A.matrix[1][1]


def _curve(F, rng, through_origin):
    if not through_origin:
        return random_curve(F, rng)
    while True:
        try:
            return make_curve(F, [0] + [F.random(rng) for _ in range(4)] + [1])
        except NotSquarefree:
            continue


@pytest.mark.parametrize("p,count", [(3, 9), (5, 9), (7, 9), (11, 9), (13, 9), (17, 9),
                                     (31, 9), (101, 9), (211, 6), (401, 6), (1009, 3),
                                     (65521, 2)])
def test_trace_against_the_point_count(p, count):
    # every third curve has f(0) = 0, the run on f / x
    F = PrimeField(p)
    rng = rng_for(f"arithmetic-trace-{p}")
    for i in range(count):
        cv = _curve(F, rng, i % 3 == 0)
        assert (_trace(cartier_manin(cv)) + character_sum(cv.f, p)) % p == 0, (p, cv.f)


def test_trace_on_the_pinned_curves():
    for p, f in [(p, f) for p, (f, _) in CERTIFIED.items()] + [(3, NON_ORDINARY_3)]:
        A = cartier_manin(make_curve(PrimeField(p), f))
        assert (_trace(A) + character_sum(f, p)) % p == 0, (p, f)


def test_character_sum_of_a_known_curve():
    # y^2 = x^5 + 1 over F_3: f takes 1, 2, 0 at x = 0, 1, 2, so the sum is 0
    # and #X(F_3) = 4; over F_5, f(x) = x + 1 takes 1, 2, 3, 4, 0
    assert character_sum(NON_ORDINARY_3, 3) == 0
    assert character_sum(NON_ORDINARY_3, 5) == 0


def test_norm_character_sum_of_a_known_curve():
    # x -> x^5 permutes F_{p^2} when p = 5 or p^2 != 1 (mod 5), so x^5 + 1
    # takes every value of F_{p^2} once and the character sums to 0
    for p in (3, 5, 7, 13):
        assert norm_character_sum(NON_ORDINARY_3, p) == 0


def _small_curves(p, count):
    # every third curve has f(0) = 0, the run on f / x
    F = PrimeField(p)
    rng = rng_for(f"arithmetic-det-{p}")
    return [_curve(F, rng, i % 3 == 0) for i in range(count)]


_SMALL = [(3, 9), (5, 9), (7, 9), (11, 9), (13, 9), (17, 6), (31, 6), (101, 3)]
_PINNED = [(p, f) for p, (f, _) in CERTIFIED.items()] + [(3, NON_ORDINARY_3)]


def _check_det(cv):
    p, A = cv.p, cartier_manin(cv).matrix
    N1, N2 = point_counts(cv.f, p)
    s1 = p + 1 - N1
    s2, odd = divmod(s1 * s1 - (p * p + 1 - N2), 2)
    assert odd == 0
    assert (s2 - (A[0][0] * A[1][1] - A[0][1] * A[1][0])) % p == 0, (p, cv.f)


def _check_jacobian_order(cv):
    p = cv.p
    N1, N2 = point_counts(cv.f, p)
    order, odd = divmod(N1 * N1 + N2, 2)
    order -= p
    assert odd == 0 and order > 0
    d = rational_flat_dimension(cv, 1)
    assert (d >= 1) == (order % p == 0), (p, cv.f, d, order)
    assert order % p ** d == 0, (p, cv.f, d, order)
    for method in ("brute", "semilinear"):
        assert len(enumerate_p_torsion(cv, method)) == p ** d, (p, cv.f, method)


@pytest.mark.parametrize("p,count", _SMALL)
def test_det_against_the_point_counts(p, count):
    for cv in _small_curves(p, count):
        _check_det(cv)


def test_det_on_the_pinned_curves():
    for p, f in _PINNED:
        _check_det(make_curve(PrimeField(p), f))


@pytest.mark.parametrize("p,count", _SMALL)
def test_flat_forms_against_the_jacobian_order(p, count):
    for cv in _small_curves(p, count):
        _check_jacobian_order(cv)


def test_flat_forms_on_the_pinned_curves():
    for p, f in _PINNED:
        _check_jacobian_order(make_curve(PrimeField(p), f))


def _check_jacobian_order_over_fp2(cv):
    # #J(F_{p^2}) = L(1) L(-1) from N1 and N2 alone; d2 is read off A^2 with
    # no extension built, and then checked against the flat forms counted
    # over F_{p^2} by both methods (p^4 <= 13^4 candidates for brute)
    p = cv.p
    N1, N2 = point_counts(cv.f, p)
    s1 = p + 1 - N1
    s2, odd = divmod(s1 * s1 - (p * p + 1 - N2), 2)
    assert odd == 0

    def L(t):
        return 1 - s1 * t + s2 * t ** 2 - p * s1 * t ** 3 + p * p * t ** 4

    order = L(1) * L(-1)
    assert order > 0
    d2 = rational_flat_dimension(cv, 2)
    assert (d2 >= 1) == (order % p == 0), (p, cv.f, d2, order)
    assert order % p ** d2 == 0, (p, cv.f, d2, order)
    F = make_field(p, 2)
    cv2 = make_curve(F, [F.from_int(c) for c in cv.f])
    for method in ("brute", "semilinear"):
        assert len(enumerate_p_torsion(cv2, method)) == p ** d2, (p, cv.f, method)


@pytest.mark.parametrize("p,count", [(p, count) for p, count in _SMALL if p <= 13])
def test_flat_forms_over_fp2_against_the_jacobian_order(p, count):
    for cv in _small_curves(p, count):
        _check_jacobian_order_over_fp2(cv)


def test_flat_forms_over_fp2_on_the_pinned_curves():
    for p, f in _PINNED:
        _check_jacobian_order_over_fp2(make_curve(PrimeField(p), f))
