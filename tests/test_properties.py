"""Property tests (Hypothesis, derandomized): the lemma data `verify` reads
off an F_p-line of flat forms, the chart constant and the dual derivation
read off an F_p-line of charts, against the direct per-form computation;
the off-diagonal closed forms, on the line's l-local ring at the
representative and on K at every multiple, against the line table; the
closed-form psi of the linear rigidity solve against the K[eps] engine at
every flat form; the flat twist and the eigen-identities of the two sums;
and the ring axioms of K, of the l-local ring L = F[x, y][1/l] and of K[eps]
over both, with canonical normal forms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2frob import Curve, DualRing, dual_derivation, enumerate_p_torsion, make_field, poly, random_curve
from g2frob.funcfield import line_representative
from g2frob.pcurvature import ConnectionMatrix, chart_constant, p_curvature_matrix
from g2frob.verify import (
    _engine_images,
    _ffe_witness,
    _line_table,
    _rigidity_images,
    check_offdiag_closed_forms,
    line_sums,
    offdiag_engine,
    two_sums,
)

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


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(FIELDS, st.integers(0, 2 ** 32 - 1))
def test_dual_derivation_is_one_inversion_per_fp_line(field, seed):
    # every F_p-multiple s omega of a random global form: the dual read off
    # the line's representative is the direct inverse 1/g of s omega's own g
    F, rng = make_field(*field), random.Random(seed)
    cv = random_curve(F, rng)
    ab = (F.random(rng), F.random(rng))
    if F.is_zero(ab[0]) and F.is_zero(ab[1]):
        ab = (F.zero(), F.one())
    for s in range(1, cv.p):
        omega_s = cv.global_form(*(F.mul(F.from_int(s), c) for c in ab))
        assert dual_derivation(omega_s).value_on_x == omega_s.g.inverse()


def _curve_with_flat_line(F, rng):
    while True:
        cv = random_curve(F, rng)
        nonzero = enumerate_p_torsion(cv, "semilinear").nonzero(F)
        if nonzero:
            return cv, nonzero


@pytest.mark.parametrize("field", [(5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)],
                         ids=["F5", "F7", "F11", "F13", "F9", "F25"])
@settings(derandomize=True, database=None, max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_multiples_ring_engine_against_every_multiple(field, seed):
    # the off-diagonal closed forms against the line table: (a) the guard's
    # run, [[0, x], [0, 1]] and [[1, x], [0, 0]] on the representative chart
    # over its l-local ring, is [[0, S1], [0, 0]] and [[0, S2], [0, 0]] for
    # the row t = 1, raw for raw; (b) the per-multiple engine over K on each
    # chart s rep is [[0, S1(s)], [0, 0]] and [[0, S2(s)], [0, 0]] for the
    # row t = 1/s, at every s in F_p^*
    F, rng = make_field(*field), random.Random(seed)
    cv, nonzero = _curve_with_flat_line(F, rng)
    p, (t0, rep) = cv.p, line_representative(cv.global_form(*nonzero[0]))
    ab_rep = tuple(F.mul(t0, a) for a in nonzero[0])
    for ab in ((F.one(), F.zero()), (F.zero(), F.one())):
        omega = cv.global_form(*ab)
        R, x, _, _, rows = _line_table(cv, rep, omega)
        s1 = rows[F.from_int(1)][3]
        zero, one, xl = R.zero(), R.one(), R.lift(x)
        for T, S in ((((zero, xl), (zero, one)), s1),
                     (((one, xl), (zero, zero)), (s1[0], poly.neg(F, s1[1]), s1[2]))):
            assert p_curvature_matrix(ConnectionMatrix(R, T, rep)).matrix == ((zero, S), (zero, zero))
        for c in range(1, p):
            s = F.from_int(c)
            _, S1, S2, _ = rows[F.from_int(pow(c, -1, p))]
            chart = cv.global_form(*(F.mul(s, a) for a in ab_rep))
            for psi, S in zip(offdiag_engine(cv, chart, omega.ratio(chart)), (S1, S2)):
                assert psi[0][1] == S
                assert all(psi[i][j].is_zero() for i, j in ((0, 0), (1, 0), (1, 1)))


def _assert_rigidity_images_match_the_engine(cv, nonzero):
    """At every nonzero flat form, every multiple of every flat line: the
    closed-form psi of each unknown of the linear rigidity solve, body and
    slope of all four entries, equals the K[eps] engine's, raw for raw."""
    for ab_L in nonzero:
        omega_L = cv.global_form(*ab_L)
        R, closed = _rigidity_images(cv, omega_L)
        engine_ring, engine = _engine_images(cv, omega_L)
        assert engine_ring is R and len(closed) == 6 * cv.field.degree
        assert closed == engine


@pytest.mark.parametrize("field", [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)],
                         ids=["F3", "F5", "F7", "F11", "F13", "F9", "F25"])
@settings(derandomize=True, database=None, max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rigidity_closed_form_against_the_engine(field, seed):
    F, rng = make_field(*field), random.Random(seed)
    _assert_rigidity_images_match_the_engine(*_curve_with_flat_line(F, rng))


# curves whose flat lines include a multiple of x dx/y (a = 0) or of dx/y
# (b = 0), none over F_3, and over F_9 and F_25 the whole F_p-plane of flat
# forms (p + 1 lines); coefficients in the basis of make_field(p, k)
SPECIAL_LINES = [
    ((3, 1), [2, 0, 1, 0, 1, 1], "a = 0"),
    ((5, 1), [0, 3, 0, 0, 1, 1], "a = 0"),
    ((5, 1), [1, 4, 0, 2, 0, 1], "b = 0"),
    ((7, 1), [2, 2, 1, 3, 5, 1], "a = 0"),
    ((7, 1), [1, 4, 6, 6, 6, 1], "b = 0"),
    ((11, 1), [0, 5, 9, 10, 8, 1], "a = 0"),
    ((11, 1), [0, 6, 7, 7, 4, 1], "b = 0"),
    ((13, 1), [12, 12, 5, 10, 11, 1], "a = 0"),
    ((13, 1), [6, 8, 2, 0, 11, 1], "b = 0"),
    ((3, 2), [[0, 2], [0, 0], [0, 1], [0, 1], [0, 1], [1, 0]], "plane"),
    ((5, 2), [[3, 3], [0, 1], [4, 3], [1, 2], [0, 0], [1, 0]], "b = 0"),
    ((5, 2), [[2, 2], [4, 3], [1, 0], [1, 4], [2, 1], [1, 0]], "plane"),
]


@pytest.mark.parametrize("field, f, kind", SPECIAL_LINES,
                         ids=[f"F{p ** k}-{kind}" for (p, k), _, kind in SPECIAL_LINES])
def test_rigidity_closed_form_on_special_lines(field, f, kind):
    F = make_field(*field)
    cv = Curve(F, [F.from_coeffs(c if isinstance(c, list) else [c]) for c in f])
    nonzero = enumerate_p_torsion(cv, "semilinear").nonzero(F)
    p = cv.p
    if kind == "plane":
        assert len(nonzero) == p * p - 1
    else:
        i = 0 if kind == "a = 0" else 1
        assert len(nonzero) == p - 1 and all(F.is_zero(ab[i]) for ab in nonzero)
    _assert_rigidity_images_match_the_engine(cv, nonzero)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(FIELDS, st.integers(0, 2 ** 32 - 1))
def test_flat_twist_and_eigen_identities(field, seed):
    # for every flat F_p-line, second form and s in F_p^*, with two real
    # engine runs per multiple: psi_lower(-s) = -psi_upper(s) entry by entry
    # (the twist by the flat d + s omega_L), S2(-s) = -S1(s), and
    # theta_s(S1) = S1, theta_s(S2) = -S2; the off-diagonal report, which
    # reads half its matrices through the twist, carries the real ones
    F, rng = make_field(*field), random.Random(seed)
    cv, nonzero = _curve_with_flat_line(F, rng)
    p = cv.p
    lines = {}
    for ab_L in nonzero:
        lines.setdefault(line_representative(cv.global_form(*ab_L))[1], ab_L)
    for ab_L in lines.values():
        for ab in ((F.one(), F.zero()), (F.zero(), F.one())):
            omega, psi, sums = cv.global_form(*ab), {}, {}
            for s in range(1, p):
                ab_s = tuple(F.mul(F.from_int(s), c) for c in ab_L)
                chart = cv.global_form(*ab_s)
                x, S1, S2 = line_sums(cv, chart, omega)
                psi[s], sums[s] = offdiag_engine(cv, chart, x), (S1, S2)
                theta = dual_derivation(chart)
                assert theta.apply(S1) == S1 and theta.apply(S2) == -S2
                w = check_offdiag_closed_forms(cv, ab_s, ab).witness
                assert w["psiUpperOffdiag"] == _ffe_witness(psi[s][0][0][1])
                assert w["psiLowerOffdiag"] == _ffe_witness(psi[s][1][0][1])
            for s in range(1, p):
                upper, lower_opposite = psi[s][0], psi[p - s][1]
                assert all(lower_opposite[i][j] == -upper[i][j]
                           for i in range(2) for j in range(2))
                assert sums[p - s][1] == -sums[s][0]


def _ring_samples(cv, rng):
    """(theta, samples): random elements of K (polynomials, quotients by a
    random denominator, elements of a theta-orbit, whose denominators are
    powers of one l = x - r, and zero, one and a constant) and the
    derivation theta = c y / l of that orbit."""
    F = cv.field

    def rpoly(n):
        return [F.random(rng) for _ in range(rng.randrange(n + 1))]

    D = rpoly(3)
    if poly.is_zero(poly.normalize(F, tuple(D))):
        D = [F.one()]
    theta = dual_derivation(cv.global_form(F.random(rng), F.one()))
    seed = cv.element(rpoly(3), rpoly(2))
    return theta, [cv.zero(), cv.one(), cv.constant(F.random(rng)), seed,
                   cv.element(rpoly(4), rpoly(3), D), theta.apply(seed),
                   theta.apply_n(seed, 2), theta.apply_n(cv.x(), 3)]


def _is_canonical(R, u):
    """l-coordinates without trailing zeros, l not dividing both A and B
    when j > 0, and the normal form of K back and forth."""
    F, (A, B, j) = R.curve.field, u
    low = [poly.coefficient(F, c, 0) for c in (A, B)]
    return (poly.normalize(F, A) == A and poly.normalize(F, B) == B
            and (j == 0 or not all(F.is_zero(c) for c in low))
            and _is_normal_form(R.element(u)) and R.lift(R.element(u)) == u)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(FIELDS, st.integers(0, 2 ** 32 - 1))
def test_ring_axioms_with_normal_forms(field, seed):
    # K = curve, the l-local ring L of the orbit's theta, K[eps] =
    # DualRing(curve) and DualRing(L): associativity, commutativity,
    # distributivity, a + (-a) = 0 and a - b = a + (-b), with every result a
    # normal form (equality of normal forms is equality in K) or canonical in
    # l-coordinates; lift and element are inverse on L
    F, rng = make_field(*field), random.Random(seed)
    cv = random_curve(F, rng)
    theta, K = _ring_samples(cv, rng)
    L = theta.ring
    local = [v for v in map(L.lift, K) if v is not None]
    assert len(local) >= 6  # all but the random denominator, at least
    assert all(L.element(L.lift(u)) == u for u in K if L.lift(u) is not None)
    assert L.lift(L.element(L.deriv(local[-1], theta))) == L.deriv(local[-1], theta)
    for R, pick, parts, ok in (
        (cv, lambda: rng.choice(K), lambda u: (u,), _is_normal_form),
        (DualRing(cv), lambda: (rng.choice(K), rng.choice(K)), lambda u: u, _is_normal_form),
        (L, lambda: rng.choice(local), lambda u: (u,), lambda u: _is_canonical(L, u)),
        (DualRing(L), lambda: (rng.choice(local), rng.choice(local)), lambda u: u,
         lambda u: _is_canonical(L, u)),
    ):
        for _ in range(6):
            a, b, c = pick(), pick(), pick()
            results = [
                R.add(R.add(a, b), c), R.add(a, R.add(b, c)),
                R.mul(R.mul(a, b), c), R.mul(a, R.mul(b, c)),
                R.add(a, b), R.add(b, a), R.mul(a, b), R.mul(b, a),
                R.mul(a, R.add(b, c)), R.add(R.mul(a, b), R.mul(a, c)),
                R.sub(a, b), R.add(a, R.neg(b)),
            ]
            for left, right in zip(results[::2], results[1::2]):
                assert left == right
            assert R.add(a, R.neg(a)) == R.zero() and R.is_zero(R.add(a, R.neg(a)))
            assert all(ok(u) for r in results for u in parts(r))
