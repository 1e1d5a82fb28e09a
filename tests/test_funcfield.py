"""Function field arithmetic, differentials, derivations, involution."""

import pytest

from g2frob import (
    Curve,
    DegreeNotFive,
    DegreeOverflow,
    Derivation,
    DivisionByZero,
    EvenCharacteristic,
    ExtField,
    NotSquarefree,
    PrimeField,
    ZeroDifferential,
    canonical_d,
    curve_from_spec,
    curve_id,
    curve_spec,
    dual_derivation,
    hyperelliptic_involution,
    iterate_derivation,
    k_arith,
    make_curve,
    make_field,
    pair,
    random_curve,
)
from g2frob import poly

from conftest import CERTIFIED, make_random_element, rng_for


def test_make_curve_accepts_and_rejects():
    F5 = PrimeField(5)
    cv = make_curve(F5, [1, 1, 0, 0, 0, 1])  # x^5 + x + 1, squarefree over F_5
    assert cv.genus == 2 and cv.p == 5

    F3 = PrimeField(3)
    with pytest.raises(NotSquarefree):
        make_curve(F3, [0, 1, 0, 1, 0, 1])  # x^5 + x^3 + x = x (x+1)^2 (x+2)^2
    with pytest.raises(EvenCharacteristic):
        PrimeField(2)
    with pytest.raises(DegreeNotFive):
        make_curve(F5, [1, 0, 0, 1])
    with pytest.raises(DegreeNotFive):
        make_curve(F5, [1, 0, 0, 0, 0, 2])  # not monic


def test_defining_relation_and_inversion(curve3):
    cv = curve3
    y, x = cv.y(), cv.x()
    fx = cv.from_poly(cv.f)
    assert k_arith(y, y, "mul") == fx
    assert k_arith(cv.one(), y, "div") == y / fx  # 1/y = y/f
    with pytest.raises(DivisionByZero):
        k_arith(cv.one(), cv.zero(), "div")


def test_random_inverses_and_normal_form(curve5):
    cv = curve5
    rng = rng_for("ff-inverse")
    for _ in range(200):
        u = make_random_element(cv, rng)
        assert u * u.inverse() == cv.one()
        # normal form invariants
        F = cv.field
        assert F.eq(u.D[-1], F.one())
        g = poly.gcd(F, poly.gcd(F, u.A, u.B), u.D)
        assert poly.degree(g) == 0


def test_normal_form_uniqueness_via_identities(curve3):
    cv = curve3
    rng = rng_for("ff-uniqueness")
    for _ in range(200):
        u = make_random_element(cv, rng)
        v = make_random_element(cv, rng)
        w = make_random_element(cv, rng)
        assert (u + v) * w == u * w + v * w
        assert u - u == cv.zero()
        assert (u * v) / v == u


def test_canonical_d_basics(curve3):
    cv = curve3
    dx = canonical_d(cv.x())
    assert dx.g == cv.one()
    dy = canonical_d(cv.y())
    fprime = cv.from_poly(cv.fprime)
    two = cv.constant(cv.field.from_int(2))
    assert dy.g == fprime / (two * cv.y())


def test_d_kills_p_powers(curve3, curve5):
    for cv in (curve3, curve5):
        rng = rng_for(f"ff-dpow-{cv.p}")
        for _ in range(100):
            u = make_random_element(cv, rng, max_deg=2)
            assert canonical_d(u ** cv.p).is_zero()


def test_d_leibniz(curve3):
    cv = curve3
    rng = rng_for("ff-dleibniz")
    for _ in range(200):
        u = make_random_element(cv, rng)
        v = make_random_element(cv, rng)
        lhs = canonical_d(u * v).g
        rhs = u * canonical_d(v).g + v * canonical_d(u).g
        assert lhs == rhs


def test_dual_derivation_and_pair(curve3):
    cv = curve3
    omega0, omega1 = cv.basis_forms()
    theta0 = dual_derivation(omega0)
    # theta0(x) = y and theta0(y) = f'/2 for omega0 = dx/y
    assert theta0.value_on_x == cv.y()
    half = cv.constant(cv.field.inv(cv.field.from_int(2)))
    assert theta0.apply(cv.y()) == cv.from_poly(cv.fprime) * half
    # <dx, theta0> = y, <0, theta> = 0, <omega0, theta0> = 1
    from g2frob import Differential

    dx = Differential(cv, cv.one())
    assert pair(dx, theta0) == cv.y()
    assert pair(Differential(cv, cv.zero()), theta0).is_zero()
    assert pair(omega0, theta0) == cv.one()
    with pytest.raises(ZeroDifferential):
        dual_derivation(Differential(cv, cv.zero()))


def test_pair_of_dual_is_one_on_randoms(curve3):
    cv = curve3
    from g2frob import Differential

    rng = rng_for("ff-dualpair")
    for _ in range(100):
        g = make_random_element(cv, rng)
        omega = Differential(cv, g)
        assert pair(omega, dual_derivation(omega)) == cv.one()


def test_pair_is_bilinear(curve3):
    cv = curve3
    from g2frob import Differential

    rng = rng_for("ff-bilinear")
    for _ in range(50):
        g1, g2 = make_random_element(cv, rng), make_random_element(cv, rng)
        s = make_random_element(cv, rng)
        th = Derivation(cv, make_random_element(cv, rng))
        w1, w2 = Differential(cv, g1), Differential(cv, g2)
        assert pair(w1 + w2, th) == pair(w1, th) + pair(w2, th)
        assert pair(w1.scaled(s), th) == s * pair(w1, th)


def test_iterate_derivation(curve3, flat3):
    cv = curve3
    omega_L, theta_L = flat3
    u = cv.x() + cv.y()
    assert iterate_derivation(theta_L, u, 0) == u
    # Jacobson: theta^p is additive and Leibniz
    rng = rng_for("ff-jacobson")
    p = cv.p
    for _ in range(25):
        a = make_random_element(cv, rng, max_deg=2)
        b = make_random_element(cv, rng, max_deg=2)
        tp_ab = iterate_derivation(theta_L, a * b, p)
        assert tp_ab == a * iterate_derivation(theta_L, b, p) + b * iterate_derivation(theta_L, a, p)
        assert iterate_derivation(theta_L, a + b, p) == (
            iterate_derivation(theta_L, a, p) + iterate_derivation(theta_L, b, p)
        )
    # the flatness identity: <omega_L, theta_L^p> = 1
    theta_Lp = Derivation(cv, iterate_derivation(theta_L, cv.x(), p))
    assert pair(omega_L, theta_Lp) == cv.one()


def test_involution(curve3):
    cv = curve3
    assert hyperelliptic_involution(cv.y()) == -cv.y()
    omega0 = cv.basis_forms()[0]
    assert hyperelliptic_involution(omega0).g == -omega0.g
    rng = rng_for("ff-involution")
    for _ in range(100):
        u = make_random_element(cv, rng)
        v = make_random_element(cv, rng)
        iu = hyperelliptic_involution(u)
        assert hyperelliptic_involution(iu) == u
        assert hyperelliptic_involution(u * v) == iu * hyperelliptic_involution(v)
        assert hyperelliptic_involution(u + v) == iu + hyperelliptic_involution(v)
    # fixes the rational subfield pointwise
    w = cv.from_ints([2, 1, 0, 2]) / cv.from_ints([1, 1])
    assert hyperelliptic_involution(w) == w


def test_degree_overflow():
    F = PrimeField(3)
    cv = Curve(F, poly.from_ints(F, CERTIFIED[3][0]))
    cv.degree_cap = 8
    theta0 = dual_derivation(cv.basis_forms()[0])
    with pytest.raises(DegreeOverflow):
        iterate_derivation(theta0, cv.x(), 12)


def test_curve_spec_roundtrip_and_id(curve3):
    spec = curve_spec(curve3)
    cv2 = curve_from_spec(spec)
    assert cv2 == curve3
    assert curve_id(cv2) == curve_id(curve3)
    f9 = ExtField(3, (1, 0, 1))
    cve = make_curve(f9, [f9.from_int(c) for c in CERTIFIED[3][0]])
    spec_e = curve_spec(cve)
    assert spec_e["ext"] == [1, 0, 1]
    assert curve_from_spec(spec_e) == cve
    assert curve_id(cve) != curve_id(curve3)  # field is part of the identity


def test_random_curve_deterministic():
    F = PrimeField(5)
    a = random_curve(F, rng_for("rc"))
    b = random_curve(F, rng_for("rc"))
    assert a == b
    assert poly.is_squarefree(F, a.f)


# ---------------------------------------------------------------------------
# the fast sum and derivative against the plain compositions they replace
# ---------------------------------------------------------------------------

def _curve_through_origin(field, rng):
    """A random curve with f(0) = 0, so x and f/x are factors of f."""
    while True:
        c1 = field.random(rng)
        coeffs = [field.zero(), c1] + [field.random(rng) for _ in range(3)] + [field.one()]
        if field.is_zero(c1):
            continue
        try:
            return make_curve(field, coeffs)
        except NotSquarefree:
            continue


def _hard_element(cv, rng):
    """A random element whose denominator mixes repeated factors, factors
    shared with f (x, f/x, f itself) and a p-th power, whose derivative
    vanishes in characteristic p."""
    F = cv.field
    x = poly.x(F)
    pieces = [
        x,
        poly.divmod_(F, cv.f, x)[0],
        cv.f,
        poly.pow(F, (F.random(rng), F.one()), 2),
        poly.pow(F, (F.random(rng), F.random(rng), F.one()), 3),
        poly.pow(F, (F.random(rng), F.one()), cv.p),
        (F.random(rng), F.one()),
    ]
    D = poly.one(F)
    for _ in range(rng.randrange(0, 4)):
        D = poly.mul(F, D, rng.choice(pieces))
    while True:
        A = tuple(F.random(rng) for _ in range(rng.randrange(0, 5)))
        B = tuple(F.random(rng) for _ in range(rng.randrange(0, 4)))
        if rng.random() < 0.3:  # a numerator sharing a piece with D
            share = rng.choice(pieces)
            A, B = poly.mul(F, A, share), poly.mul(F, B, share)
        u = cv.element(A, B, D)
        if not u.is_zero():
            return u


def _plain_sum(cv, u, v):
    """The cross-multiplied sum, reduced against the whole uD vD."""
    F = cv.field
    return cv._make(
        poly.add(F, poly.mul(F, u.A, v.D), poly.mul(F, v.A, u.D)),
        poly.add(F, poly.mul(F, u.B, v.D), poly.mul(F, v.B, u.D)),
        poly.mul(F, u.D, v.D),
    )


def _quotient_rule_d(cv, u):
    """du/dx as d(A/D) + d(B/D) y + (B/D) f'/(2y), three normal forms and two
    plain sums."""
    F = cv.field
    Dp = poly.derivative(F, u.D)
    DD = poly.mul(F, u.D, u.D)
    ratA = cv._make(
        poly.sub(F, poly.mul(F, poly.derivative(F, u.A), u.D), poly.mul(F, u.A, Dp)),
        (),
        DD,
    )
    ratB = cv._make(
        (),
        poly.sub(F, poly.mul(F, poly.derivative(F, u.B), u.D), poly.mul(F, u.B, Dp)),
        DD,
    )
    half = F.inv(F.from_int(2))
    chain = cv._make(
        (),
        poly.scale(F, poly.mul(F, u.B, cv.fprime), half),
        poly.mul(F, u.D, cv.f),
    )
    return _plain_sum(cv, _plain_sum(cv, ratA, ratB), chain)


_ORACLE_FIELDS = ((PrimeField(3), 150), (PrimeField(13), 150), (ExtField(3, [1, 2, 0, 1]), 60))


@pytest.mark.parametrize("field,rounds", _ORACLE_FIELDS, ids=["F3", "F13", "F27"])
def test_henrici_add_against_plain_sum(field, rounds):
    rng = rng_for(f"ff-henrici-{field!r}")
    cv = _curve_through_origin(field, rng)
    for _ in range(rounds):
        u, v, w = (_hard_element(cv, rng) for _ in range(3))
        assert cv.add(u, v) == _plain_sum(cv, u, v)
        # v' = w - u shares denominator factors with u that cancel in u + v'
        v2 = _plain_sum(cv, w, cv.neg(u))
        assert cv.add(u, v2) == w
        assert cv.add(u, cv.neg(u)) == cv.zero()
        assert cv.add(cv.zero(), u) == u == cv.add(u, cv.zero())


@pytest.mark.parametrize("field,rounds", _ORACLE_FIELDS, ids=["F3", "F13", "F27"])
def test_one_reduction_derivative_against_quotient_rule(field, rounds):
    rng = rng_for(f"ff-dcoef-{field!r}")
    cv = _curve_through_origin(field, rng)
    for _ in range(rounds):
        u = _hard_element(cv, rng)
        assert cv.d_coefficient(u) == _quotient_rule_d(cv, u)
    for u in (cv.zero(), cv.one(), cv.x(), cv.y(), cv.inv(cv.y())):
        assert cv.d_coefficient(u) == _quotient_rule_d(cv, u)


def _plain_product(cv, u, v):
    """The product reduced by `_make` against the whole uD vD."""
    F = cv.field
    return cv._make(
        poly.add(F, poly.mul(F, u.A, v.A), poly.mul(F, poly.mul(F, u.B, v.B), cv.f)),
        poly.add(F, poly.mul(F, u.A, v.B), poly.mul(F, u.B, v.A)),
        poly.mul(F, u.D, v.D),
    )


@pytest.mark.parametrize("field,rounds", _ORACLE_FIELDS, ids=["F3", "F13", "F27"])
def test_constant_product_against_plain_make(field, rounds):
    rng = rng_for(f"ff-constmul-{field!r}")
    cv = _curve_through_origin(field, rng)
    for _ in range(rounds):
        u = _hard_element(cv, rng)
        c = field.random(rng)
        for k in (cv.constant(c), cv.one(), cv.constant(field.neg(field.one()))):
            want = _plain_product(cv, k, u)
            assert cv.mul(k, u) == want == cv.mul(u, k)
        if not u.is_constant():  # no normal form built: the operand itself
            assert cv.mul(cv.one(), u) is u and cv.mul(u, cv.one()) is u
        k1, k2 = cv.constant(c), cv.constant(field.random(rng))
        assert cv.mul(k1, k2) == _plain_product(cv, k1, k2)


def test_curve_memo_computes_once_per_curve(curve3):
    calls = []

    def compute():
        calls.append(1)
        return curve3.one()

    key = ("test-memo", curve3.x())
    assert curve3.memo(key, compute) == curve3.one()
    assert curve3.memo(key, compute) == curve3.one()
    assert len(calls) == 1
    twin = Curve(curve3.field, curve3.f)
    assert twin == curve3
    twin.memo(key, compute)  # an equal curve keeps its own memo
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the l-local ring: the one-step formula and its arithmetic against the gcd
# path of Curve
# ---------------------------------------------------------------------------

def _assert_normal_form(u):
    F = u.curve.field
    assert F.eq(u.D[-1], F.one())
    assert poly.degree(poly.gcd(F, poly.gcd(F, u.A, u.B), u.D)) == 0


def _assert_canonical(R, u):
    """A, B without trailing zeros, and l does not divide both when j > 0."""
    F, (A, B, j) = R.curve.field, u
    assert poly.normalize(F, A) == A and poly.normalize(F, B) == B and j >= 0
    if j:
        assert not F.is_zero(poly.coefficient(F, A, 0)) or not F.is_zero(poly.coefficient(F, B, 0))


_STEP_FIELDS = (PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(13),
                make_field(3, 2), make_field(5, 2))


@pytest.mark.parametrize("field", _STEP_FIELDS, ids=["F3", "F5", "F7", "F13", "F9", "F25"])
def test_root_step_and_power_arithmetic_against_gcd_path(field, monkeypatch):
    """Orbits of theta_L for omega_L with b != 0, b = 0 and a = 0 (root
    r = 0), and of the dx/y chart's theta0, 2p + 1 steps long, so exponents
    j = 0 (mod p) occur, where l^j has derivative 0.  Each step of an input
    in theta's l-local ring runs there with no gcd; the oracle is a twin
    curve, whose every normal form takes Curve's gcd path.  Sums and
    products in the ring match the twin's plain sums and products."""
    rng = rng_for(f"ff-root-step-{field!r}")
    cv = random_curve(field, rng)
    twin = Curve(field, cv.f)
    F, p = field, cv.p

    def nonzero():
        while True:
            c = F.random(rng)
            if not F.is_zero(c):
                return c

    forms = [cv.global_form(F.random(rng), nonzero()),
             cv.global_form(nonzero(), F.zero()),
             cv.global_form(F.zero(), nonzero())]
    dx_y, x_dx_y = cv.basis_forms()
    thetas = [dual_derivation(w) for w in forms] + [dual_derivation(dx_y)]
    assert [len(t.value_on_x.D) - 1 for t in thetas] == [1, 0, 1, 0]
    assert [F.is_zero(t.ring.r) for t in thetas[1:]] == [True] * 3
    assert thetas[1].ring is thetas[2].ring is thetas[3].ring  # one ring per root
    starts = [x_dx_y.ratio(w) for w in forms] + [dx_y.ratio(w) for w in forms]
    starts += [cv.x(), cv.y(), cv.y() * cv.x().inverse() ** 2]

    gcd_calls = []
    real_gcd = poly.gcd

    def counted_gcd(*args):
        gcd_calls.append(args)
        return real_gcd(*args)

    orbits = []
    for theta in thetas:
        R = theta.ring
        for u in starts:
            orbit = [u]
            for _ in range(2 * p + 1):
                local = R.lift(orbit[-1])
                monkeypatch.setattr(poly, "gcd", counted_gcd)
                gcd_calls.clear()
                v = theta.apply(orbit[-1])
                monkeypatch.setattr(poly, "gcd", real_gcd)
                want = twin.mul(twin.d_coefficient(orbit[-1]), theta.value_on_x)
                assert v == want
                _assert_normal_form(v)
                if local is not None:  # the one-step formula: no gcd
                    assert not gcd_calls
                    assert R.element(local) == orbit[-1]
                    step = R.deriv(local, theta)
                    _assert_canonical(R, step)
                    assert R.element(step) == want and R.lift(want) == step
                orbit.append(v)
            orbits.append((R, orbit))

    # 1/f is not in any l-local ring: every theta takes d_coefficient for it
    u = cv.inv(cv.from_poly(cv.f))
    for theta in thetas:
        assert theta.ring.lift(u) is None
        assert theta.apply(u) == twin.mul(twin.d_coefficient(u), theta.value_on_x)

    local = [(R, [R.lift(u) for u in orbit]) for R, orbit in orbits if R.lift(orbit[0])]
    assert any(u[2] and u[2] % p == 0 for _, orbit in local for u in orbit)
    for R, orbit in local:
        for u, v in zip(orbit[::4], orbit[3::4]):
            for s, t in ((u, v), (v, u), (u, R.neg(u)), (u, R.one()), (u, R.zero())):
                total, product = R.add(s, t), R.mul(s, t)
                a, b = R.element(s), R.element(t)
                assert R.element(total) == _plain_sum(twin, a, b)
                assert R.element(product) == _plain_product(twin, a, b)
                assert R.element(R.sub(s, t)) == _plain_sum(twin, a, twin.neg(b))
                _assert_canonical(R, total)
                _assert_canonical(R, product)


@pytest.mark.parametrize("field,rounds", _ORACLE_FIELDS, ids=["F3", "F13", "F27"])
def test_combination_over_common_denominator_against_henrici_sums(field, rounds,
                                                                 monkeypatch):
    """sum c_k u_k in the l-local ring as a scaled sum of the numerators over
    one power of l (`LocalRing.numerators`) and one canonical form, for
    random ring elements and for a theta_L-orbit, against Curve's Henrici
    sums of their normal forms; the orbit's sums take no gcd at all."""
    rng = rng_for(f"ff-combination-{field!r}")
    cv = _curve_through_origin(field, rng)
    F = cv.field
    omega_L = cv.global_form(F.random(rng), F.one())
    theta = dual_derivation(omega_L)  # theta(x) = c y / (x - r)
    R = theta.ring

    def henrici(coeffs, us):
        total = cv.zero()
        for c, u in zip(coeffs, us):
            total = cv.add(total, cv.mul(cv.constant(c), R.element(u)))
        return total

    def scaled_sum(coeffs, us):
        numerators, J = R.numerators(us)
        A = B = ()
        for c, (a, b) in zip(coeffs, numerators):
            A = poly.add(F, A, poly.scale(F, a, c))
            B = poly.add(F, B, poly.scale(F, b, c))
        return R.make(A, B, J)

    def random_local():
        while True:
            A = tuple(F.random(rng) for _ in range(rng.randrange(0, 5)))
            B = tuple(F.random(rng) for _ in range(rng.randrange(0, 4)))
            if rng.random() < 0.3:  # numerators sharing a factor of l
                A, B = (F.zero(),) + A, (F.zero(),) + B
            u = R.make(poly.normalize(F, A), poly.normalize(F, B), rng.randrange(0, 2 * cv.p))
            if not R.is_zero(u):
                return u

    for _ in range(rounds // 10):
        us = [random_local() for _ in range(rng.randrange(1, 6))]
        coeffs = [F.random(rng) for _ in us]
        got = scaled_sum(coeffs, us)
        _assert_canonical(R, got)
        assert R.element(got) == henrici(coeffs, us)
        _assert_normal_form(R.element(got))

    orbit = [R.lift(cv.basis_forms()[0].ratio(omega_L))]
    for _ in range(cv.p):
        orbit.append(R.deriv(orbit[-1], theta))
    gcd_calls = []
    real_gcd = poly.gcd
    monkeypatch.setattr(poly, "gcd", lambda *args: gcd_calls.append(args) or real_gcd(*args))
    sums = [R.element(scaled_sum([F.random(rng) for _ in orbit], orbit)) for _ in range(5)]
    monkeypatch.setattr(poly, "gcd", real_gcd)
    assert not gcd_calls
    for got in sums:
        _assert_normal_form(got)
    coeffs = [F.random(rng) for _ in orbit]
    assert R.element(scaled_sum(coeffs, orbit)) == henrici(coeffs, orbit)


@pytest.mark.parametrize("p, k", [(5, 1), (7, 1), (3, 2)], ids=["F5", "F7", "F9"])
def test_global_form_against_the_product_by_one_over_y(p, k):
    # every (a, b) on curves where f has a root in the field: (a + b x) y / f
    # as it stands, or by `_make` where x + a/b divides f, equals the
    # product (a + b x) * (1/y) in normal form; the `_make` case occurs
    F, rng = make_field(p, k), rng_for(f"global-form-{p}-{k}")
    elements = list(F.elements())
    curves = []
    while len(curves) < 2:
        cv = random_curve(F, rng)
        if any(F.is_zero(poly.divide_at(F, cv.f, r)[1]) for r in elements):
            curves.append(cv)
    reduced = 0
    for cv in curves:
        inv_y = cv.y().inverse()
        for a in elements:
            for b in elements:
                g = cv.global_form(a, b).g
                assert g == cv.mul(cv.from_poly(poly.normalize(F, (a, b))), inv_y)
                reduced += len(g.D) < len(cv.f)
    assert reduced


@pytest.mark.parametrize("p, k", [(3, 1), (13, 1), (3, 2), (5, 3)])
def test_half_fprime_is_fprime_over_two(p, k):
    F = make_field(p, k)
    cv = random_curve(F, rng_for(f"half-{p}-{k}"))
    assert cv._half_fprime == poly.scale(F, cv.fprime, F.inv(F.from_int(2)))


def test_curve_over_a_large_extension_takes_no_inverse(monkeypatch):
    # 1/2 is (p + 1)/2, and an integer f is squarefree-tested over F_p: no
    # Fermat power in F_(3^10)
    F = make_field(3, 10)
    calls = []
    real_inv = ExtField.inv

    def counted_inv(self, a):
        calls.append(a)
        return real_inv(self, a)

    monkeypatch.setattr(ExtField, "inv", counted_inv)
    cv = Curve(F, [F.from_int(c) for c in (1, 2, 0, 1, 2, 1)])
    assert calls == [] and cv.f[0] == F.one()


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(13), make_field(3, 2)],
                         ids=["F5", "F13", "F9"])
def test_local_ring_powers_against_poly_pow(field, monkeypatch):
    # (x - r)^j from the ring's store, asked in a shuffled order for every
    # j up to 2p, is poly.pow's power, and a second ask returns the stored
    # one; lift and element read their powers there, so the one-element
    # path of Derivation.apply_n takes no poly.pow
    from g2frob.funcfield import LocalRing

    rng = rng_for(f"local-powers-{field!r}")
    cv = random_curve(field, rng)
    r = field.random(rng)
    R = LocalRing(cv, r)
    js = list(range(2 * field.char + 1))
    rng.shuffle(js)
    for j in js:
        assert R.power(j) == poly.pow(field, (field.neg(r), field.one()), j)
        assert R.power(j) is R.power(j)

    def three_steps(curve):  # theta_L^3(x) for omega_L = (1 + x) dx/y, l = x + 1
        omega = curve.global_form(field.one(), field.one())
        theta = dual_derivation(omega)
        assert theta.ring is not None
        return theta.apply_n(curve.basis_forms()[1].ratio(omega), 3)

    def never(*args):
        raise AssertionError("the power should come from the ring's store")

    want = three_steps(cv)
    monkeypatch.setattr(poly, "pow", never)
    assert three_steps(Curve(field, cv.f)) == want


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5), PrimeField(13),
                                   PrimeField(101), make_field(3, 2)],
                         ids=["F3", "F5", "F13", "F101", "F9"])
def test_theta_step_kernel_against_the_generic_loop(field):
    # the field's poly_theta_step, raw for raw, against poly's generic loop
    # on seeded random (A, B, j), empty A or B and j = 0 among them, with
    # the phi, psi and c of theta(x) = c y / l^e for e = 0 (r = 0, the chart
    # dx/y) and e = 1; and LocalRing.deriv, which calls it, against the gcd
    # path of a twin curve
    rng = rng_for(f"ff-theta-step-{field!r}")
    cv = random_curve(field, rng)
    twin, F = Curve(field, cv.f), field

    def nonzero():
        while True:
            c = F.random(rng)
            if not F.is_zero(c):
                return c

    thetas = [dual_derivation(cv.basis_forms()[0]),
              dual_derivation(cv.global_form(F.random(rng), nonzero()))]
    assert [len(t.value_on_x.D) - 1 for t in thetas] == [0, 1]
    for theta in thetas:
        R, c = theta.ring, theta.value_on_x.B[0]
        for n in range(60):
            A = poly.normalize(F, [F.random(rng) for _ in range(rng.randrange(0, 8) if n % 3 else 0)])
            B = poly.normalize(F, [F.random(rng) for _ in range(rng.randrange(0, 8) if n % 5 else 0)])
            j = rng.randrange(0, 2 * cv.p + 2) if n % 4 else 0
            got = F.poly_theta_step(A, B, j, R._phi, R._psi, c)
            assert got == poly.theta_step_generic(F, A, B, j, R._phi, R._psi, c)
            assert all(type(a) is tuple and (not a or not F.is_zero(a[-1])) for a in got)
            u = R.make(A, B, j)
            if R.is_zero(u):
                continue
            step = R.deriv(u, theta)
            assert R.element(step) == twin.mul(twin.d_coefficient(R.element(u)), theta.value_on_x)
