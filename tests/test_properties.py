"""Property tests (Hypothesis, derandomized): the lemma data `verify` reads
off an F_p-line of flat forms, and the chart constant read off an F_p-line
of charts, against the direct per-form computation."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from g2frob import Curve, dual_derivation, enumerate_p_torsion, make_field, poly, random_curve
from g2frob.pcurvature import chart_constant
from g2frob.verify import line_sums, two_sums

FIELDS = st.sampled_from([(5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)])


def _is_normal_form(u):
    F = u.curve.field
    return F.eq(u.D[-1], F.one()) and poly.gcd(F, u.B, poly.gcd(F, u.A, u.D)) == poly.one(F)


def _direct_chart_constant(omega):
    """<omega, theta^p> by p derivation steps, theta dual to omega."""
    cv = omega.curve
    return cv.mul(omega.g, dual_derivation(omega).apply_n(cv.x(), cv.p))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(FIELDS, st.integers(0, 2 ** 32 - 1))
def test_line_data_matches_the_direct_per_form_computation(field, seed):
    # a random squarefree quintic with a nonzero flat line: for every
    # multiple s omega_L, the sums and chart constant read off the line equal
    # the direct orbit sums and p-step constant of s omega_L itself, computed
    # on a fresh curve, and each is a normal form
    F, rng = make_field(*field), random.Random(seed)
    while True:
        cv = random_curve(F, rng)
        nonzero = enumerate_p_torsion(cv, "semilinear").nonzero(F)
        if nonzero:
            break
    direct = Curve(F, cv.f)
    ab_L = nonzero[0]
    for s in range(1, cv.p):
        ab_s = tuple(F.mul(F.from_int(s), c) for c in ab_L)
        omega_s, oracle_s = cv.global_form(*ab_s), direct.global_form(*ab_s)
        oracle_theta = dual_derivation(oracle_s)
        c0 = chart_constant(omega_s)
        assert c0 == _direct_chart_constant(oracle_s) and _is_normal_form(c0)
        for ab in ((F.one(), F.zero()), (F.zero(), F.one())):
            x, S1, S2 = line_sums(cv, omega_s, cv.global_form(*ab))
            oracle_x = direct.global_form(*ab).ratio(oracle_s)
            assert x == oracle_x
            assert (S1, S2) == two_sums(direct, oracle_theta, oracle_x)
            assert all(_is_normal_form(u) for u in (x, S1, S2))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(FIELDS, st.integers(0, 2 ** 32 - 1))
def test_chart_constant_is_one_per_fp_line_of_charts(field, seed):
    # a random nonzero global form, flat or not: every F_p-multiple s omega
    # reads the constant of the line, and it equals the direct p-step
    # <s omega, theta_(s omega)^p> of s omega itself on a fresh curve
    F, rng = make_field(*field), random.Random(seed)
    cv = random_curve(F, rng)
    ab = (F.random(rng), F.random(rng))
    if F.is_zero(ab[0]) and F.is_zero(ab[1]):
        ab = (F.one(), F.zero())
    for s in range(1, cv.p):
        ab_s = tuple(F.mul(F.from_int(s), c) for c in ab)
        c0 = chart_constant(cv.global_form(*ab_s))
        assert c0 == _direct_chart_constant(Curve(F, cv.f).global_form(*ab_s))
