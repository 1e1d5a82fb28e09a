"""Polynomial layer: division, gcd, derivatives, squarefreeness."""

from math import factorial

import pytest

from g2frob import DivisionByZero, ExtField, NotSquarefree, PrimeField, RangeError, make_curve
from g2frob import poly

from conftest import rng_for


def _evaluate(F, a, v):
    """a(v) by Horner's rule, one field operation at a time."""
    acc = F.zero()
    for c in reversed(a):
        acc = F.add(F.mul(acc, v), c)
    return acc


def rand_poly(F, rng, max_deg=6):
    return poly.normalize(F, [F.random(rng) for _ in range(rng.randrange(0, max_deg + 2))])


def test_divmod_roundtrip():
    rng = rng_for("poly-divmod")
    for F in (PrimeField(5), ExtField(3, (1, 0, 1))):
        for _ in range(300):
            a = rand_poly(F, rng)
            b = rand_poly(F, rng)
            if poly.is_zero(b):
                continue
            q, r = poly.divmod_(F, a, b)
            assert a == poly.add(F, poly.mul(F, q, b), r)
            assert poly.degree(r) < poly.degree(b)


def test_gcd_is_monic_common_divisor():
    rng = rng_for("poly-gcd")
    F = PrimeField(7)
    for _ in range(200):
        a, b = rand_poly(F, rng), rand_poly(F, rng)
        g = poly.gcd(F, a, b)
        if poly.is_zero(g):
            assert poly.is_zero(a) and poly.is_zero(b)
            continue
        assert F.eq(g[-1], F.one())
        assert poly.is_zero(poly.divmod_(F, a, g)[1])
        assert poly.is_zero(poly.divmod_(F, b, g)[1])
        # common factor scales the gcd
        c = rand_poly(F, rng)
        if not poly.is_zero(c):
            g2 = poly.gcd(F, poly.mul(F, a, c), poly.mul(F, b, c))
            assert poly.is_zero(poly.divmod_(F, g2, g)[1])


def test_derivative_leibniz():
    rng = rng_for("poly-leibniz")
    F = PrimeField(5)
    for _ in range(200):
        a, b = rand_poly(F, rng), rand_poly(F, rng)
        lhs = poly.derivative(F, poly.mul(F, a, b))
        rhs = poly.add(
            F,
            poly.mul(F, poly.derivative(F, a), b),
            poly.mul(F, a, poly.derivative(F, b)),
        )
        assert lhs == rhs


def test_squarefree_known_cases():
    F5, F3 = PrimeField(5), PrimeField(3)
    assert poly.is_squarefree(F5, poly.from_ints(F5, [1, 1, 0, 0, 0, 1]))  # x^5+x+1
    assert not poly.is_squarefree(F3, poly.from_ints(F3, [0, 1, 0, 1, 0, 1]))  # x^5+x^3+x
    assert not poly.is_squarefree(F3, poly.from_ints(F3, [1, 1, 0, 0, 0, 1]))  # (x-1)^2 divides
    assert poly.is_squarefree(F3, poly.from_ints(F3, [1, 0, 0, 0, 0, 1]))  # x^5+1


def test_pow_and_eval():
    F = PrimeField(7)
    xp1 = poly.from_ints(F, [1, 1])
    cube = poly.pow(F, xp1, 3)
    assert list(cube) == [1, 3, 3, 1]
    for v in F.elements():
        assert _evaluate(F, cube, v) == F.pow(F.add(v, 1), 3)


def test_freshman_dream_for_poly_pow():
    # (x + c)^p = x^p + c^p over F_p
    F = PrimeField(5)
    for c in F.elements():
        e = poly.pow(F, poly.from_ints(F, [c, 1]), 5)
        want = [F.pow(c, 5)] + [0] * 4 + [1]
        assert list(e) == [w % 5 for w in want]


# ---------------------------------------------------------------------------
# the F_p int kernels against the generic loops, which make one field method
# call per coefficient operation
# ---------------------------------------------------------------------------

_KERNEL_PRIMES = (3, 5, 13, 101, 2**31 - 1, 2**61 - 1)


def _rand_deg(F, rng, deg, monic=False):
    """A random polynomial of exactly this degree (deg -1 is zero)."""
    if deg < 0:
        return ()
    lead = F.one() if monic else rng.randrange(1, F.p)
    return tuple(F.random(rng) for _ in range(deg)) + (lead,)


def _kernel_pairs(F, rng):
    """Operand pairs: zero, constants, equal degrees, monic and non-monic
    divisors, degrees up to 60."""
    degs = [-1, 0, 1, 2, 5, 13, 30, 60]
    for da in degs:
        for db in degs:
            yield _rand_deg(F, rng, da), _rand_deg(F, rng, db)
    for _ in range(40):
        da = rng.randrange(-1, 61)
        db = rng.randrange(-1, da + 2)
        yield _rand_deg(F, rng, da), _rand_deg(F, rng, db, monic=rng.random() < 0.5)


def _in_range(F, a):
    return all(isinstance(c, int) and 0 <= c < F.p for c in a) and (not a or a[-1])


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
def test_int_kernels_match_generic_loops(p):
    F = PrimeField(p)
    rng = rng_for(f"poly-kernels-{p}")
    for a, b in _kernel_pairs(F, rng):
        prod = poly.mul(F, a, b)
        assert type(prod) is tuple and _in_range(F, prod)
        assert prod == poly.mul_generic(F, a, b)
        g = poly.gcd(F, a, b)
        assert type(g) is tuple and _in_range(F, g)
        assert g == poly.gcd_generic(F, a, b)
        assert not g or g[-1] == 1
        if not b:
            for fn in (poly.divmod_, poly.divmod_generic):
                with pytest.raises(DivisionByZero):
                    fn(F, a, b)
            continue
        q, r = poly.divmod_(F, a, b)
        assert type(q) is tuple and type(r) is tuple
        assert _in_range(F, q) and _in_range(F, r)
        assert (q, r) == poly.divmod_generic(F, a, b)


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
def test_int_linear_kernels_match_generic_loops(p):
    F = PrimeField(p)
    rng = rng_for(f"poly-linear-kernels-{p}")
    scalars = (0, 1, p - 1, 2 % p)
    for a, b in _kernel_pairs(F, rng):
        # a - a and a + (-a) cancel down to zero; a leading p - 1 and a
        # derivative of degree p - 1 leave trailing zeros to strip
        for x, y in ((a, b), (b, a), (a, a), (a, poly.neg(F, a))):
            for fn, oracle in ((poly.add, poly.add_generic), (poly.sub, poly.sub_generic)):
                got = fn(F, x, y)
                assert type(got) is tuple and _in_range(F, got)
                assert got == oracle(F, x, y)
        for fn, oracle in ((poly.neg, poly.neg_generic),
                           (poly.derivative, poly.derivative_generic)):
            got = fn(F, a)
            assert type(got) is tuple and _in_range(F, got)
            assert got == oracle(F, a)
        for s in scalars + (F.random(rng),):
            got = poly.scale(F, a, s)
            assert type(got) is tuple and _in_range(F, got)
            assert got == poly.scale_generic(F, a, s)
        r = F.random(rng)
        q, rem = poly.divide_at(F, a, r)
        assert (q, rem) == poly.divide_at_generic(F, a, r)
        assert _in_range(F, q) and rem == _evaluate(F, a, r)
        assert poly.add(F, poly.mul(F, q, (F.neg(r), 1)), poly.constant(F, rem)) == a
        padded = a + (0,) * rng.randrange(0, 3)
        assert poly.normalize(F, padded) == poly.normalize_generic(F, padded) == a
    # x^p has derivative p x^(p-1) = 0 once p is small enough to build it
    if p < 200:
        assert poly.derivative(F, (0,) * p + (1,)) == ()


def test_divide_at_over_an_extension_field():
    F = ExtField(3, (1, 0, 1))
    rng = rng_for("poly-divide-at-f9")
    for _ in range(100):
        a, r = rand_poly(F, rng), F.random(rng)
        q, rem = poly.divide_at(F, a, r)
        assert rem == _evaluate(F, a, r)
        assert poly.add(F, poly.mul(F, q, (F.neg(r), F.one())), poly.constant(F, rem)) == a


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
def test_int_gcd_recovers_a_known_common_factor(p):
    F = PrimeField(p)
    rng = rng_for(f"poly-kernel-gcd-{p}")
    for _ in range(25):
        c = _rand_deg(F, rng, rng.randrange(0, 12))
        a = poly.mul(F, c, _rand_deg(F, rng, rng.randrange(0, 25)))
        b = poly.mul(F, c, _rand_deg(F, rng, rng.randrange(0, 25)))
        g = poly.gcd(F, a, b)
        assert g == poly.gcd_generic(F, a, b)
        assert poly.is_zero(poly.divmod_(F, g, poly.monic(F, c))[1])
        assert poly.divmod_(F, a, g)[1] == () == poly.divmod_(F, b, g)[1]


def test_curve_squarefree_gcd_near_2_to_61():
    # the Curve constructor's squarefree test is the first gcd a large p meets
    p = 2**61 - 1
    F = PrimeField(p)
    cv = make_curve(F, [3, 1, 0, 0, 0, 1])  # x^5 + x + 3
    assert poly.gcd(F, cv.f, cv.fprime) == (1,) == poly.gcd_generic(F, cv.f, cv.fprime)
    # (x - 2)^2 (x^3 + x + 1) is not squarefree
    f = poly.mul(F, poly.pow(F, poly.from_ints(F, [-2, 1]), 2), poly.from_ints(F, [1, 1, 0, 1]))
    assert poly.gcd(F, f, poly.derivative(F, f)) == poly.from_ints(F, [-2, 1])
    with pytest.raises(NotSquarefree):
        make_curve(F, list(f))


def test_pow_methods_against_repeated_multiplication():
    # every ring's `pow` against n - 1 products (n = 0..9), and a^(-n) against
    # the n-th product of the inverse (n = 1..3) wherever a is a unit
    from g2frob import Curve, DualRing, make_field
    from g2frob.cartier import _mat2_mul, _mat2_pow

    from conftest import CERTIFIED, make_random_element

    rng = rng_for("pow-methods")

    def check(pow_, mul, one, inv, values):
        for a in values:
            prod = one
            for n in range(10):
                assert pow_(a, n) == prod, (a, n)
                prod = mul(prod, a)
            if inv is None:
                continue
            ia, prod = inv(a), one
            for n in range(1, 4):
                prod = mul(prod, ia)
                assert pow_(a, -n) == prod, (a, -n)
                assert mul(pow_(a, -n), pow_(a, n)) == one

    fields = (PrimeField(7), ExtField(3, (1, 0, 1)), make_field(5, 3))
    for F in fields:
        units = [F.random(rng) for _ in range(8)]
        units = [a for a in units if not F.is_zero(a)]
        check(F.pow, F.mul, F.one(), F.inv, units)
        check(F.pow, F.mul, F.one(), None, [F.zero()])
        polys = [rand_poly(F, rng) for _ in range(6)]
        check(lambda a, n: poly.pow(F, a, n), lambda a, b: poly.mul(F, a, b),
              poly.one(F), None, polys)
        D = DualRing(F)
        duals = [(a, F.random(rng)) for a in units[:4]]
        check(D.pow, D.mul, D.one(), D.inv, duals)
        check(D.pow, D.mul, D.one(), None, [(F.zero(), F.one())])
    cv = Curve(PrimeField(5), CERTIFIED[5][0])
    elements = [make_random_element(cv, rng, max_deg=2) for _ in range(3)]
    check(cv.pow, cv.mul, cv.one(), cv.inv, elements + [cv.x(), cv.y()])
    # 2 x 2 matrices, n >= 1: _mat2_pow is only asked for positive powers
    for F in fields[:2]:
        for _ in range(4):
            A = tuple(tuple(F.random(rng) for _ in range(2)) for _ in range(2))
            prod = A
            for n in range(1, 10):
                assert _mat2_pow(F, A, n) == prod, (A, n)
                prod = _mat2_mul(F, prod, A)


def test_negative_power_without_an_inverse_is_a_range_error():
    # poly.pow and _mat2_pow pass no inverse: a negative exponent is refused
    from g2frob.cartier import _mat2_pow

    F = PrimeField(5)
    with pytest.raises(RangeError):
        poly.pow(F, (1, 1), -1)
    with pytest.raises(RangeError):
        _mat2_pow(F, ((1, 2), (3, 4)), -1)


# ---------------------------------------------------------------------------
# the packed F_p kernels against their oracles, on both sides of each
# measured operand length and of the 64-bit slot bound; "always" lowers the
# measured length so that every operand the bound admits is packed
# ---------------------------------------------------------------------------

# p - 1 < 2^32 / sqrt(11) for the first, so a slot holds the theta step's
# 11 (p - 1)^2; not for the second, where 6 (p - 1)^2 still fits
_STEP_BOUND_PRIMES = (1294981361, 1330000013)
# 16 (p - 1)^2 < 2^64 <= 17 (p - 1)^2 for the first: the shortest
# convolution fits, one coefficient more does not; for the second no
# convolution fits, and one of 31 coefficients overflows a slot about twice
_TAYLOR_BOUND_PRIMES = (1073741789, 1500000001)


def _operand(p, n, fill, rng):
    """n coefficients, all p - 1 (the largest slot sums), (p - 1) / m! at m
    (the largest for a Taylor convolution, which weights a_m by m!, n <= p)
    or random, with a nonzero top one."""
    if fill == "max":
        return (p - 1,) * n
    if fill == "conv":
        return tuple(-pow(factorial(m), -1, p) % p for m in range(n))
    return tuple(rng.randrange(p) for _ in range(n - 1)) + (rng.randrange(1, p),) if n else ()


@pytest.mark.parametrize("packed_from", [None, 1], ids=["measured", "always"])
@pytest.mark.parametrize("p", (13, 2039, 2**31 - 1, 2**61 - 1))
def test_packed_mul_against_the_int_loop(monkeypatch, p, packed_from):
    # every pair of lengths up to 9, and 37 and 64; at p = 2^31 - 1 a slot
    # holds 4 (p - 1)^2 but not 5, so the shorter factor meets the bound
    # from both sides
    from g2frob import exactnum
    from g2frob.exactnum import _int_mul

    if packed_from:
        monkeypatch.setattr(exactnum, "_PACKED_MUL_MIN", packed_from)
    if p == 2**31 - 1:
        assert 4 * (p - 1) ** 2 < 2**64 <= 5 * (p - 1) ** 2
    F, rng = PrimeField(p), rng_for(f"packed-mul-{p}")
    lens = list(range(10)) + [37, 64]
    for la in lens:
        for lb in lens:
            for fill in ("max", "random"):
                a, b = _operand(p, la, fill, rng), _operand(p, lb, fill, rng)
                got = F.poly_mul(a, b)
                assert type(got) is tuple and got == tuple([c % p for c in _int_mul(a, b)])


@pytest.mark.parametrize("packed_from", [None, 0], ids=["measured", "always"])
@pytest.mark.parametrize("p", (13, 2039) + _STEP_BOUND_PRIMES + (2**61 - 1,))
def test_packed_theta_step_against_the_generic_loop(monkeypatch, p, packed_from):
    # B of every length up to 9, and 40, the empty B included, A empty or
    # not, and j = 0, inside B and above its top degree (j > m for every m);
    # phi and psi of the lengths a LocalRing has (6 and 5), all p - 1 or
    # random, c = 1 or random: with j = 0 and every coefficient p - 1 a slot
    # sum comes within O(p) of 11 (p - 1)^2
    from g2frob import exactnum

    if packed_from is not None:
        monkeypatch.setattr(exactnum, "_PACKED_STEP_MIN", packed_from)
    assert [11 * (q - 1) ** 2 < 2**64 for q in _STEP_BOUND_PRIMES] == [True, False]
    F, rng = PrimeField(p), rng_for(f"packed-theta-{p}")
    for n in list(range(10)) + [40]:
        for fill in ("max", "random"):
            phi, psi = _operand(p, 6, fill, rng), _operand(p, 5, fill, rng)
            B = _operand(p, n, fill, rng)
            for A in ((), _operand(p, n + 1, fill, rng)):
                for j in (0, n // 2, n + 7):
                    for c in (1, rng.randrange(1, p)):
                        got = F.poly_theta_step(A, B, j, phi, psi, c)
                        assert got == poly.theta_step_generic(F, A, B, j, phi, psi, c)


@pytest.mark.parametrize("conv_from", [None, 1], ids=["measured", "always"])
@pytest.mark.parametrize("p", (3, 13, 17, 31, 127) + _TAYLOR_BOUND_PRIMES + (2**61 - 1,))
def test_taylor_kernel_against_horner(monkeypatch, p, conv_from):
    # degrees below p, p - 1, p and above, past 2p (the split at x^p taken
    # twice), r = 0, 1, p - 1 and random; the convolution runs from
    # min(len a, p) = 16 at the measured length, so from p = 17, and meets
    # the slot bound from both sides at _TAYLOR_BOUND_PRIMES
    from g2frob import exactnum

    if conv_from:
        monkeypatch.setattr(exactnum, "_TAYLOR_CONV_MIN", conv_from)
    q, q2 = _TAYLOR_BOUND_PRIMES
    assert 16 * (q - 1) ** 2 < 2**64 <= 17 * (q - 1) ** 2 and 16 * (q2 - 1) ** 2 >= 2**64
    F, rng = PrimeField(p), rng_for(f"taylor-{p}")
    small = min(p, 40)
    degrees = sorted({*range(-1, 33), small - 2, small - 1, small, small + 1,
                      *(d for d in (p - 1, p, p + 1, 2 * p - 1, 2 * p, 2 * p + 3) if d < 300)})
    for d in degrees:
        for fill in ("max", "conv", "random"):
            if fill == "conv" and d >= p:
                continue
            a = _operand(p, d + 1, fill, rng)
            for r in (0, 1, p - 1, rng.randrange(p)):
                assert F.poly_taylor(a, r) == poly.taylor_generic(F, a, r)


def test_taylor_shift_expands_back():
    # the oracle itself: sum b_i (x - r)^i gives a back, over F_13 and F_9
    rng = rng_for("taylor-expand")
    for F in (PrimeField(13), ExtField(3, (1, 0, 1))):
        for _ in range(30):
            a, r = rand_poly(F, rng, max_deg=20), F.random(rng)
            b, l, total = poly.taylor(F, a, r), (F.neg(r), F.one()), ()
            for i, c in enumerate(b):
                total = poly.add(F, total, poly.scale(F, poly.pow(F, l, i), c))
            assert total == a and len(b) == len(a)
