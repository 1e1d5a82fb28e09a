"""Shared fixtures: pinned certified curves and random element factories.

The pinned curves were certified by brute force: each is ordinary, carries a
nonzero rational flat form, and its two characteristic sums are nonzero for
every independent pairing (see test_acceptance for the checks that keep the
certification honest).

The curve fixtures are built afresh for every test: a curve owns the memo of
its lemma data, and a shared curve would let one test's results stand in for
another test's computation.
"""

import random

import pytest

from g2frob import PrimeField, dual_derivation, make_curve

# (p, f coefficients c0..c5, a rational flat form (a, b))
CERTIFIED = {
    3: ([2, 0, 1, 1, 1, 1], (0, 1)),
    5: ([1, 0, 4, 0, 4, 1], (0, 1)),
    7: ([5, 0, 0, 5, 1, 1], (1, 5)),
}

NON_ORDINARY_3 = [1, 0, 0, 0, 0, 1]  # x^5 + 1 over F_3


@pytest.fixture
def curve3():
    return make_curve(PrimeField(3), CERTIFIED[3][0])


@pytest.fixture
def curve5():
    return make_curve(PrimeField(5), CERTIFIED[5][0])


@pytest.fixture
def curve7():
    return make_curve(PrimeField(7), CERTIFIED[7][0])


@pytest.fixture
def flat3(curve3):
    a, b = CERTIFIED[3][1]
    F = curve3.field
    omega = curve3.global_form(F.from_int(a), F.from_int(b))
    return omega, dual_derivation(omega)


def make_random_element(curve, rng, max_deg=3):
    """A random nonzero function field element with small degrees."""
    F = curve.field
    while True:
        A = tuple(F.random(rng) for _ in range(rng.randrange(1, max_deg + 1)))
        B = tuple(F.random(rng) for _ in range(rng.randrange(0, max_deg)))
        D = tuple(F.random(rng) for _ in range(rng.randrange(0, 2))) + (F.one(),)
        u = curve.element(A, B, D)
        if not u.is_zero():
            return u


def rng_for(name: str) -> random.Random:
    return random.Random(f"g2frob-{name}")
