"""Field axioms, Frobenius, and dual-number arithmetic."""

import itertools
import json

import pytest

from g2frob import (
    DualRing,
    EvenCharacteristic,
    ExtField,
    NonUnitError,
    PrimeField,
    RangeError,
    UnsupportedRing,
    field_arith,
    find_irreducible,
    frobenius,
    make_field,
)
from g2frob.exactnum import _poly_is_irreducible, coords, is_prime, raw_from_json, raw_to_json

from conftest import rng_for


def _rings():
    f5 = PrimeField(5)
    f7 = PrimeField(7)
    f9 = ExtField(3, (1, 0, 1))  # t^2 + 1, irreducible over F_3
    f125 = make_field(5, 3)
    return [f5, f7, f9, f125, DualRing(f5), DualRing(f9)]


@pytest.mark.parametrize("ring", _rings(), ids=lambda r: repr(r))
def test_ring_axioms_on_random_triples(ring):
    rng = rng_for(f"axioms-{ring!r}")
    zero, one = ring.zero(), ring.one()
    for _ in range(1000):
        a, b, c = ring.random(rng), ring.random(rng), ring.random(rng)
        assert ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c)))
        assert ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c)))
        assert ring.eq(ring.add(a, b), ring.add(b, a))
        assert ring.eq(ring.mul(a, b), ring.mul(b, a))
        assert ring.eq(
            ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c))
        )
        assert ring.eq(ring.add(a, ring.neg(a)), zero)
        assert ring.eq(ring.mul(a, one), a)
        unit = not ring.is_zero(a) if not isinstance(ring, DualRing) else ring.is_unit(a)
        if unit:
            assert ring.eq(ring.mul(a, ring.inv(a)), one)


def test_prime_field_examples():
    f5, f7 = PrimeField(5), PrimeField(7)
    assert field_arith(f5, 3, 4, "mul") == 2
    assert field_arith(f7, 1, 3, "div") == 5  # 3 * 5 = 15 = 1 mod 7
    assert f7.mul(3, 5) == 1


def test_dual_number_examples():
    D = DualRing(PrimeField(5))
    u = (1, 2)  # 1 + 2 eps
    v = (1, 3)
    assert field_arith(D, u, v, "mul") == (1, 0)  # eps^2 = 0, 2 + 3 = 0 mod 5
    # inverse law: (a + eps b)^(-1) = a^(-1) - eps b a^(-2)
    rng = rng_for("dual-inverse")
    for _ in range(200):
        w = D.random(rng)
        if D.is_unit(w):
            a, b = w
            ia = pow(a, 3, 5)  # a^(-1) in F_5
            assert D.inv(w) == (ia, (-b * ia * ia) % 5)
            assert D.eq(D.mul(w, D.inv(w)), D.one())
        else:
            with pytest.raises(NonUnitError):
                D.inv(w)


def test_dual_unit_iff_body_nonzero():
    D = DualRing(PrimeField(5))
    assert D.is_unit((2, 0)) and D.is_unit((2, 4))
    assert not D.is_unit((0, 3))
    with pytest.raises(NonUnitError):
        D.div(D.one(), (0, 3))


def test_duals_never_nested():
    with pytest.raises(RangeError):
        DualRing(DualRing(PrimeField(5)))


def test_frobenius_identity_on_prime_field():
    f5 = PrimeField(5)
    for a in f5.elements():
        assert frobenius(f5, a) == a
    assert frobenius(PrimeField(3), 0) == 0


def test_frobenius_on_f9_is_t_to_minus_t():
    # oracle: cube by repeated multiplication
    f9 = ExtField(3, (1, 0, 1))
    t = f9.gen()
    naive = f9.mul(f9.mul(t, t), t)
    assert frobenius(f9, t) == naive == f9.neg(t)


def test_frobenius_is_additive_and_multiplicative():
    f9 = ExtField(3, (1, 0, 1))
    f49 = make_field(7, 2)
    rng = rng_for("frobenius-hom")
    for F in (f9, f49):
        for _ in range(300):
            a, b = F.random(rng), F.random(rng)
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_frobenius_against_pow_on_every_element(p, k):
    F = make_field(p, k)
    assert all(F.frobenius(a) == F.pow(a, p) for a in F.elements())


@pytest.mark.parametrize("p,k", [(3, 10), (5, 8), (31, 3)])
def test_frobenius_against_pow_on_random_elements(p, k):
    # the pow(a, p) oracle, and the ring-map identities
    F = make_field(p, k)
    rng = rng_for(f"frobenius-pow-{p}-{k}")
    assert F.frobenius(F.one()) == F.one() and F.frobenius(F.zero()) == F.zero()
    for _ in range(200):
        a, b = F.random(rng), F.random(rng)
        assert F.frobenius(a) == F.pow(a, p)
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))


def test_frobenius_matrix_is_the_pow_of_the_basis():
    # column j is t^(j p) by pow, whether or not `frobenius` ran first
    assert ExtField(3, (1, 0, 1)).frobenius_matrix() == [[1, 0], [0, 2]]  # t^3 = -t
    for p, k in ((3, 2), (3, 10), (5, 8), (13, 4), (31, 3)):
        for warm in (False, True):
            F = ExtField(p, find_irreducible(p, k))
            if warm:
                F.frobenius(F.gen())
            cols = [F.pow(e, p) for e in F.basis()]
            assert F.frobenius_matrix() == [[c[i] for c in cols] for i in range(k)]
    F = ExtField(5, (2, 1))  # a degree-1 modulus: F_5 again, Frobenius the identity
    assert F.frobenius_matrix() == [[1]]
    assert all(F.frobenius(a) == a for a in F.elements())


def test_irreducibility_checked_once_per_modulus(monkeypatch):
    from g2frob import exactnum

    exactnum._is_irreducible_mod.cache_clear()
    find_irreducible.cache_clear()
    calls = []
    rabin_step = exactnum._x_power_minus_x
    monkeypatch.setattr(exactnum, "_x_power_minus_x",
                        lambda *args: calls.append(args) or rabin_step(*args))
    F = make_field(7, 6)
    searched = len(calls)
    assert searched > 0
    for _ in range(3):
        assert make_field(7, 6) == ExtField(7, F.modulus) == F
    assert len(calls) == searched
    with pytest.raises(RangeError):
        ExtField(7, (1, 0, 1, 0, 1, 0, 1))  # (t^2 + 1)(t^4 + 1)
    assert len(calls) > searched


def test_frobenius_rejected_on_duals():
    D = DualRing(PrimeField(5))
    with pytest.raises(UnsupportedRing):
        frobenius(D, D.one())


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(RangeError):
        ExtField(3, (1, 2, 1))  # (t+1)^2
    with pytest.raises(RangeError):
        ExtField(5, (0, 0, 1))  # t^2


def test_find_irreducible_deterministic():
    m1 = find_irreducible(5, 3, seed=9)
    m2 = find_irreducible(5, 3, seed=9)
    assert m1 == m2
    assert len(m1) == 4 and m1[-1] == 1
    ExtField(5, m1)  # does not raise
    assert find_irreducible(5, 3, seed=10) is not None


@pytest.mark.parametrize("p,k", [(3, 2), (3, 4), (3, 6), (5, 2), (5, 3), (7, 4), (13, 2)])
def test_rabin_test_counts_the_irreducibles(p, k):
    # Gauss: (1/k) sum over d | k of mu(d) p^(k/d) monic irreducibles of degree k
    mu = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1}
    want = sum(mu[d] * p ** (k // d) for d in mu if k % d == 0) // k
    F = PrimeField(p)
    got = sum(
        _poly_is_irreducible(F, list(low) + [1])
        for low in itertools.product(range(p), repeat=k)
    )
    assert got == want


def test_field_constructor_guards():
    with pytest.raises(EvenCharacteristic):
        PrimeField(2)
    with pytest.raises(RangeError):
        PrimeField(9)
    with pytest.raises(RangeError):
        PrimeField(1)
    with pytest.raises(RangeError):
        field_arith(PrimeField(5), 1, 2, "xor")


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_a_sieve_and_rejects_strong_pseudoprimes():
    n = 10 ** 5
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for d in range(2, int(n ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(range(d * d, n, d)))
    assert all(is_prime(m) == bool(sieve[m]) for m in range(n))
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2, ..., 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime((1 << 61) - 1)
    assert not is_prime(((1 << 31) - 1) * ((1 << 61) - 1))


def test_ext_field_size_and_elements():
    f9 = ExtField(3, (1, 0, 1))
    assert f9.size == 9
    assert len(list(f9.elements())) == 9
    assert f9.from_coeffs([2, 1]) == (2, 1)
    with pytest.raises(RangeError):
        f9.from_coeffs([1, 2, 3])


def test_field_basis_coordinates_and_raw_codec():
    f5, f9 = PrimeField(5), ExtField(3, (1, 0, 1))
    assert f5.basis() == (1,)
    assert f9.basis() == ((1, 0), (0, 1))
    for F in (f5, f9, make_field(5, 3)):
        assert F.basis()[0] == F.one() and len(F.basis()) == F.degree
        raws = list(F.elements())
        for a in raws:
            js = json.loads(json.dumps(raw_to_json(a)))
            assert raw_from_json(js) == a
            assert F.from_coeffs(js if isinstance(js, list) else [js]) == a
        # raws sort in the order of their JSON form
        assert [raw_to_json(a) for a in sorted(raws)] == sorted(raw_to_json(a) for a in raws)
    with pytest.raises(RangeError):
        f5.from_coeffs([1, 2])


def test_polynomial_coordinates_and_json_against_the_per_raw_codec():
    # the per-polynomial calls against coords and raw_to_json per raw, a
    # zero raw's coordinates for each padded coefficient
    rng = rng_for("poly-coords")
    for F in (PrimeField(5), ExtField(3, (1, 0, 1)), make_field(5, 3)):
        for n in range(6):
            a = tuple(F.random(rng) for _ in range(n))
            for pad in (0, 1, 3):
                want = [c for raw in a + (F.zero(),) * pad for c in coords(raw)]
                assert F.poly_coords(a, n + pad) == want
            assert F.poly_to_json(a) == [raw_to_json(raw) for raw in a]


def test_ext_basis_is_the_powers_of_t():
    # the unit tuples, against t^i by `pow`, for k = 1 up to k = 10
    for F in (ExtField(5, (2, 1)), ExtField(3, (1, 0, 1)), make_field(5, 2), make_field(3, 3),
              make_field(7, 2), make_field(31, 3), make_field(5, 8), make_field(3, 10)):
        assert F.basis() == tuple(F.pow(F.gen(), i) for i in range(F.degree))


def test_make_field_checks_the_modulus_degree():
    assert make_field(3, 2, (1, 0, 1)) == ExtField(3, (1, 0, 1))
    with pytest.raises(RangeError):
        make_field(3, 1, (1, 0, 1))
    with pytest.raises(RangeError):
        make_field(3, 3, (1, 0, 1))
    with pytest.raises(RangeError):
        make_field(3, 0)
