"""Cartier-Manin against point counts: an oracle that shares no code with the
recurrence.

Manin's congruence (Manin 1961; Yui, J. Algebra 52, 1978): for y^2 = f(x)
of genus 2 over F_p, #X(F_p) = p + 1 - s1 with s1 = tr Frob, and
s1 = tr A (mod p).  The model has one point at infinity (deg f = 5), so
#X(F_p) = p + 1 + sum_x chi(f(x)), and the congruence reads

    tr A = -sum_x chi(f(x))  (mod p),

with chi(a) = a^((p-1)/2) mod p by Euler's criterion.  The count evaluates f
by Horner's rule on plain ints.
"""

import pytest

from g2frob import NotSquarefree, PrimeField, cartier_manin, make_curve, random_curve

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
