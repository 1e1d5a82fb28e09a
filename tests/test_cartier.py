"""Cartier-Manin matrix, ordinarity, flat-form enumeration, canonical connection."""

import pytest

from g2frob import (
    FieldTooLargeForBrute,
    G2FrobError,
    NonUnitError,
    NotFlat,
    NotSquarefree,
    PrimeField,
    RangeError,
    ResourceGuardError,
    TorsionSet,
    canonical_connection,
    cartier_manin,
    dual_derivation,
    enumerate_p_torsion,
    is_ordinary,
    make_curve,
    make_field,
    p_curvature_matrix,
    p_curvature_rank1,
    p_rank,
    random_curve,
    rational_flat_dimension,
    stabilization_degree,
)
from g2frob import poly
from g2frob.cartier import (
    CartierManinMatrix,
    _flat_form_data,
    _flat_kernel,
    _flat_kernel_generic,
    _mat2_mul,
    _psi_rows,
    _rank2,
    _theta0_step,
    check_brute_limit,
)
from g2frob.exactnum import prime_field_ints
from g2frob.linalg import enumerate_span_mod_p, kernel_basis_mod_p, rref_mod_p
from g2frob.pcurvature import chart_constant

from conftest import CERTIFIED, NON_ORDINARY_3, rng_for


def _naive_poly_pow_coeffs(f_ints, e, p):
    """Convolution oracle: coefficients of f^e mod p, f given by int list."""
    out = [1]
    for _ in range(e):
        nxt = [0] * (len(out) + len(f_ints) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f_ints):
                nxt[i + j] = (nxt[i + j] + a * b) % p
        out = nxt
    return out


def _oracle_matrix(f_ints, p):
    g = _naive_poly_pow_coeffs(f_ints, (p - 1) // 2, p)

    def co(k):
        return g[k] if 0 <= k < len(g) else 0

    return [[co(p - 1), co(p - 2)], [co(2 * p - 1), co(2 * p - 2)]]


def test_cartier_manin_against_convolution_oracle():
    cases = [
        (3, [1, 0, 0, 0, 0, 1]),      # x^5 + 1
        (3, CERTIFIED[3][0]),
        (5, [1, 1, 0, 0, 0, 1]),      # x^5 + x + 1, the f^2 case
        (5, CERTIFIED[5][0]),
        (7, CERTIFIED[7][0]),
    ]
    for p, f in cases:
        cv = make_curve(PrimeField(p), f)
        got = cartier_manin(cv).to_jsonable()
        assert got == _oracle_matrix(f, p)


def _pow_oracle(cv):
    """The matrix from the expansion of f^((p-1)/2) by poly.pow."""
    F, p = cv.field, cv.p
    h = poly.pow(F, cv.f, (p - 1) // 2)
    return tuple(
        tuple(poly.coefficient(F, h, i * p - j) for j in (1, 2)) for i in (1, 2)
    )


def _random_curve_through_origin(F, rng):
    """A random squarefree monic quintic with f(0) = 0."""
    while True:
        f = [F.zero()] + [F.random(rng) for _ in range(4)] + [F.one()]
        try:
            return make_curve(F, f)
        except NotSquarefree:
            continue


def test_cartier_manin_recurrence_against_pow_oracle():
    cases = [(PrimeField(p), 30) for p in (3, 5, 7, 11, 13, 31, 101, 211, 401)]
    cases += [(PrimeField(1009), 1), (make_field(3, 3), 6), (make_field(5, 2), 6),
              (make_field(31, 3), 6)]
    for F, count in cases:
        rng = rng_for(f"cartier-recurrence-{F!r}")
        for i in range(count):
            # every third curve has f(0) = 0, the x-shifted forward run
            cv = _random_curve_through_origin(F, rng) if i % 3 == 0 else random_curve(F, rng)
            A = cartier_manin(cv)
            assert A.matrix == _pow_oracle(cv), (F, cv.f)
            assert p_rank(cv) == A.p_rank()


def _generic_recurrence_matrix(cv):
    """The matrix from two field-method recurrence runs on f's own raws,
    as `cartier_manin` ran them before the descent to F_p."""
    F, f, p = cv.field, cv.f, cv.p
    n = (p - 1) // 2
    v = 1 if F.is_zero(f[0]) else 0
    row1 = poly.power_top_two_generic(F, f[v:], n, p - 1 - v * n)
    top, below = poly.power_top_two_generic(F, f[::-1], n, n)
    return row1, (below, top)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2), (13, 2), (31, 3)])
def test_prime_field_descent_against_extension_runs(monkeypatch, p, k):
    # f with F_p coefficients over F_{p^k}: A from the F_p kernel equals the
    # generic recurrence and poly.pow on the ExtField, and no ExtField run
    # happens; the p-rank is the one over F_p
    from g2frob import ExtField

    ext_runs = []
    monkeypatch.setattr(ExtField, "poly_power_top_two",
                        lambda F, *args: ext_runs.append(args))
    Fp, F = PrimeField(p), make_field(p, k)
    rng = rng_for(f"cartier-descent-{p}-{k}")
    for i in range(8):
        base = _random_curve_through_origin(Fp, rng) if i % 3 == 0 else random_curve(Fp, rng)
        cv = make_curve(F, [F.from_int(c) for c in base.f])
        A = cartier_manin(cv)
        assert A.matrix == _generic_recurrence_matrix(cv) == _pow_oracle(cv), (p, k, base.f)
        assert A.matrix == tuple(tuple(map(F.from_int, row)) for row in cartier_manin(base).matrix)
        assert A.p_rank() == cartier_manin(base).p_rank()
    assert not ext_runs


def test_prime_field_descent_keeps_non_squarefree_curves_out():
    # squarefree over F_p exactly when squarefree over F_{p^k}, by the F_p
    # gcd and by the generic gcd on the ExtField; x^5 + x + 1 = (x - 1)^2 ...
    # over F_3 is refused over F_9 and F_27 too
    import itertools

    Fp = PrimeField(3)
    for F in (make_field(3, 2), make_field(3, 3)):
        with pytest.raises(NotSquarefree):
            make_curve(F, [F.from_int(c) for c in (1, 1, 0, 0, 0, 1)])
        for low in itertools.product(range(3), repeat=5):
            f = list(low) + [1]
            raws = tuple(F.from_int(c) for c in f)
            generic = len(poly.gcd_generic(F, raws, poly.derivative_generic(F, raws))) == 1
            assert generic == poly.is_squarefree(Fp, tuple(f)), f
            try:
                make_curve(F, raws)
                built = True
            except NotSquarefree:
                built = False
            assert built == generic, f


def _p_rank_loop(F, A):
    """The rank after max(4, 2k + 2) twisted products: the oracle of the
    two-step `CartierManinMatrix.p_rank`."""
    N = Aj = A
    for _ in range(max(4, 2 * F.degree + 2)):
        Aj = tuple(tuple(F.frobenius(e) for e in row) for row in Aj)
        N = _mat2_mul(F, Aj, N)
    return _rank2(F, N)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 5), (13, 4)])
def test_two_step_p_rank_against_the_long_loop(p, k):
    F = make_field(p, k)
    rng = rng_for(f"p-rank-{p}-{k}")
    ranks = set()
    for i in range(700):
        v = (F.random(rng), F.random(rng))
        if i % 3 == 0:
            A = (v, (F.random(rng), F.random(rng)))
        else:  # a rank-1 product u v^T: A^(p) A = u^(p) (v^(p) . u) v^T
            c = F.random(rng)
            # every other one with v^(p) . u = 0, so the kernel rises twice
            u = ((F.random(rng), F.random(rng)) if i % 3 == 1 else
                 (F.mul(c, F.frobenius(v[1])), F.neg(F.mul(c, F.frobenius(v[0])))))
            A = tuple(tuple(F.mul(x, y) for y in v) for x in u)
        got = CartierManinMatrix(matrix=A, field=F).p_rank()
        assert got == _p_rank_loop(F, A), A
        ranks.add(got)
    assert ranks == {0, 1, 2}


def test_p_rank_is_invariant_under_base_change():
    # the same integer f over F_p and over F_{p^k}, through the CLI's field
    # constructor, with p-ranks 0, 1 and 2 among the curves
    rng = rng_for("p-rank-base-change")
    ranks = set()
    for p, k in ((3, 2), (3, 5), (5, 3), (7, 2), (13, 4)):
        Fp, F = PrimeField(p), make_field(p, k)
        for _ in range(12):
            base = random_curve(Fp, rng)
            rank = p_rank(base)
            assert p_rank(make_curve(F, [F.from_int(c) for c in base.f])) == rank, (p, k, base.f)
            ranks.add(rank)
    assert p_rank(make_curve(make_field(3, 4), [make_field(3, 4).from_int(c)
                                                 for c in NON_ORDINARY_3])) == 0
    assert ranks == {0, 1, 2}


def test_p_rank_of_an_integer_f_builds_no_frobenius_columns():
    # A of an integer f over F_{3^10} has F_p entries, so A^(p) = A and
    # p_rank needs no Frobenius; the rank is still that of A^(p) A
    rng = rng_for("p-rank-no-frobenius")
    ranks = set()
    for _ in range(12):
        F = make_field(3, 10)
        base = random_curve(PrimeField(3), rng)
        A = cartier_manin(make_curve(F, [F.from_int(c) for c in base.f]))
        rank = A.p_rank()
        assert F._frob is None, base.f
        Ap = tuple(tuple(F.frobenius(e) for e in row) for row in A.matrix)
        assert rank == _rank2(F, _mat2_mul(F, Ap, A.matrix)) == p_rank(base), base.f
        ranks.add(rank)
    assert len(ranks) > 1


def _recurrence_shapes(F, rng):
    """The shapes `cartier_manin` runs the recurrence on, from two random
    monic quintics f, one with f(0) not in {0, 1} and one with f(0) = 0 and
    f(1) not in {0, 1}: f itself, f / x, and both reversals, the second of
    which ends in 0."""
    p = F.char
    f = (rng.randrange(2, p),) + tuple(F.random(rng) for _ in range(4)) + (1,)
    fx = (0, rng.randrange(2, p)) + tuple(F.random(rng) for _ in range(3)) + (1,)
    return f, fx[1:], f[::-1], fx[::-1]


def test_fp_recurrence_kernel_against_generic_loop():
    # the F_p int kernel against the field-method loop it replaces, both
    # called on a PrimeField; every top at small p, the run lengths of
    # cartier_manin at larger p
    for p in (3, 5, 7, 11, 13, 31):
        F = PrimeField(p)
        inv = F.inverses()
        rng = rng_for(f"cartier-kernel-{p}")
        for _ in range(4):
            for g in _recurrence_shapes(F, rng):
                for n in ((p - 1) // 2, rng.randrange(1, 3 * p)):
                    for top in range(1, p):
                        assert F.poly_power_top_two(g, n, top, inv) == \
                            poly.power_top_two_generic(F, g, n, top), (p, g, n, top)
    for p in (101, 1009, 65521):
        F = PrimeField(p)
        n, inv = (p - 1) // 2, F.inverses()
        forward, shifted, reversal, reversal0 = _recurrence_shapes(
            F, rng_for(f"cartier-kernel-{p}"))
        for g, top in ((forward, p - 1), (shifted, p - 1 - n), (reversal, n), (reversal0, n)):
            assert F.poly_power_top_two(g, n, top, inv) == \
                poly.power_top_two_generic(F, g, n, top), (p, g, top)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 101, 1009, 65521])
def test_inverse_table_against_pow(p):
    # the recursion 1/k = -(p div k) / (p mod k) against Python's modular inverse
    inv = PrimeField(p).inverses()
    assert len(inv) == (p + 1) // 2 and inv[0] == 0
    assert all(inv[k] == pow(k, -1, p) for k in range(1, len(inv)))


def test_fp_recurrence_kernel_refuses_what_it_cannot_run():
    F = PrimeField(7)
    with pytest.raises(RangeError):
        F.poly_power_top_two((1, 2, 3, 4, 5, 6, 1), 3, 6, F.inverses())  # deg g = 6
    with pytest.raises(NonUnitError):
        F.poly_power_top_two((0, 2, 3, 4, 5, 1), 3, 6, F.inverses())


def test_coefficient_extraction_on_invalid_curve_input():
    # x^5 + x + 1 is NOT squarefree over F_3 ((x-1)^2 divides it), so it is
    # rejected as a curve; the raw coefficient extraction of its would-be
    # matrix is still a well-defined quantity, pinned here via the oracle
    from g2frob import NotSquarefree

    with pytest.raises(NotSquarefree):
        make_curve(PrimeField(3), [1, 1, 0, 0, 0, 1])
    assert _oracle_matrix([1, 1, 0, 0, 0, 1], 3) == [[0, 1], [1, 0]]


def test_known_matrices_p3():
    cv = make_curve(PrimeField(3), [1, 0, 0, 0, 0, 1])
    A = cartier_manin(cv)
    assert A.to_jsonable() == [[0, 0], [1, 0]]
    assert A.det() == 0 and not is_ordinary(cv)
    assert p_rank(cv) == 0  # nilpotent

    cv2 = make_curve(PrimeField(3), CERTIFIED[3][0])
    A2 = cartier_manin(cv2)
    assert A2.to_jsonable() == [[1, 0], [1, 1]]
    assert is_ordinary(cv2) and p_rank(cv2) == 2


def test_ordinary_iff_p_rank_two_on_randoms():
    for p in (3, 5, 7):
        F = PrimeField(p)
        rng = rng_for(f"cartier-ord-{p}")
        for _ in range(30):
            cv = random_curve(F, rng)
            assert is_ordinary(cv) == (p_rank(cv) == 2)


def test_torsion_contains_zero_and_is_subspace(curve3, curve5, curve7):
    for cv in (curve3, curve5, curve7):
        ts = enumerate_p_torsion(cv, "brute")
        F = cv.field
        assert (F.zero(), F.zero()) in ts
        assert ts.is_subspace(F)
        assert len(ts) == cv.p ** ts.dimension(cv.p)


def test_methods_agree_on_randoms():
    for p in (3, 5):
        F = PrimeField(p)
        rng = rng_for(f"cartier-agree-{p}")
        for _ in range(20):
            cv = random_curve(F, rng)
            b = enumerate_p_torsion(cv, "brute")
            s = enumerate_p_torsion(cv, "semilinear")
            assert b.forms == s.forms


# (p, k, number of seeded curves): prime fields up to p = 101, and F_9, F_25,
# F_27, F_49, F_169 and F_729; brute takes at most about 0.3 s per curve
_DIFFERENTIAL_GRID = [(3, 1, 6), (5, 1, 6), (7, 1, 4), (11, 1, 3), (13, 1, 3),
                      (3, 2, 4), (5, 2, 2), (3, 3, 2), (7, 2, 1), (31, 1, 1), (61, 1, 1),
                      (101, 1, 1), (13, 2, 1), (3, 6, 1)]


@pytest.mark.parametrize("p,k,count", _DIFFERENTIAL_GRID)
def test_cartier_solver_against_p_curvature_brute(p, k, count):
    # semilinear reads the flat forms off A v = v^(p); brute evaluates the
    # p-curvature of every candidate: two independent routes, one set.  The
    # first `count` seeded curves are compared, and then the next one that
    # has nonzero flat forms, so every field compares a nonzero set.
    F = make_field(p, k)
    rng = rng_for(f"cartier-differential-{p}-{k}")
    checked = flat = 0
    for _ in range(20 * F.size):
        cv = random_curve(F, rng)
        s = enumerate_p_torsion(cv, "semilinear")
        if checked < count or len(s) > 1:
            assert enumerate_p_torsion(cv, "brute").forms == s.forms
            checked += 1
            flat += len(s) > 1
        if checked >= count and flat:
            break
    assert flat


def test_cartier_solver_above_the_brute_limit():
    # over F_{3^10} only the solver runs: every form it lists is flat, and
    # there are 3^(rational dimension over F_{3^10}) of them
    F = make_field(3, 10)
    rng = rng_for("cartier-solver-f3-10")
    sizes = set()
    for _ in range(4):
        cv3 = random_curve(PrimeField(3), rng)
        cv = make_curve(F, [F.from_int(c) for c in cv3.f])
        omega0 = cv.basis_forms()[0]
        theta0 = dual_derivation(omega0)
        ts = enumerate_p_torsion(cv, "semilinear")
        assert len(ts) == 3 ** rational_flat_dimension(cv3, 10)
        for omega in ts.differentials(cv):
            T = cv.mul(omega.g, theta0.value_on_x)
            assert p_curvature_rank1(T, omega0).is_zero()
        sizes.add(len(ts))
    assert sizes != {1}


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2)], ids=["F5", "F9"])
def test_is_subspace_rejects_non_subspaces(p, k):
    F = make_field(p, k)
    z, g = F.zero(), F.basis()[-1]
    line = [(F.mul(F.from_int(s), g), F.from_int(s)) for s in range(p)]

    def is_subspace(forms):
        return TorsionSet(forms=tuple(sorted(forms))).is_subspace(F)

    assert is_subspace(line)
    # the plane spanned by the line and (1, 0)
    assert is_subspace([(F.add(a, F.from_int(s)), b) for a, b in line for s in range(p)])
    assert not is_subspace(line[:-1])  # a line less one element
    assert not is_subspace(line[1:])  # a line less zero
    assert not is_subspace(line + [(F.one(), z)])  # a line plus an outside pair
    # p elements, zero among them, spanning a plane
    assert not is_subspace(line[:-1] + [(F.one(), z)])


def _full_flat_dimension(cv, k):
    """The flat dimension over F_{p^k} by the 2k x 2k solve over that field."""
    F = make_field(cv.p, k)
    A = tuple(tuple(F.from_int(e) for e in row) for row in cartier_manin(cv).matrix)
    return len(_flat_kernel_generic(F, A))


def _span(F, basis):
    """The reduced echelon form of an F_p-span in plane_basis coordinates."""
    return rref_mod_p(basis, 2 * F.degree, F.char)[0]


def test_flat_kernel_on_w_against_the_generic_system():
    # every A over F_3 at k <= 6 and over F_5 at k <= 4 (singular, nilpotent
    # and the identity among them), and random F_p-matrices over four larger
    # fields: the W path spans what the 2k x 2k system over F_{p^k} does
    from itertools import product

    dims, cases = set(), []
    for p, top in ((3, 6), (5, 4)):
        for k in range(1, top + 1):
            cases += [(make_field(p, k), e) for e in product(range(p), repeat=4)]
    rng = rng_for("cartier-flat-kernel-w")
    for p, k in ((7, 3), (13, 2), (31, 3), (3, 10)):
        F = make_field(p, k)
        cases += [(F, [rng.randrange(p) for _ in range(4)]) for _ in range(40)]
    for F, e in cases:
        A = tuple(tuple(F.from_int(c) for c in e[i:i + 2]) for i in (0, 2))
        fast = _flat_kernel(F, A)
        assert _span(F, fast) == _span(F, _flat_kernel_generic(F, A))
        assert len(fast) == len(_span(F, fast))  # a basis, not just a spanning set
        dims.add(len(fast))
    assert dims == {0, 1, 2}


def test_generic_flat_kernel_solves_the_frobenius_equation():
    # the oracle itself, where A has entries outside F_p: each basis vector
    # v = (a, b) satisfies A v = v^(p), and an extension entry takes it
    F = make_field(3, 10)
    k, rng, solved = F.degree, rng_for("cartier-flat-kernel-generic"), 0
    for _ in range(20):
        A = tuple(tuple(F.random(rng) for _ in range(2)) for _ in range(2))
        if prime_field_ints([e for row in A for e in row]) is not None:
            continue
        assert _flat_kernel(F, A) == _flat_kernel_generic(F, A)
        for v in _flat_kernel(F, A):
            a, b = F.from_coeffs(v[:k]), F.from_coeffs(v[k:])
            for row, w in zip(A, (a, b)):
                assert F.add(F.mul(row[0], a), F.mul(row[1], b)) == F.frobenius(w)
            solved += 1
    assert solved


def test_flat_kernel_solves_only_the_2x2_when_w_is_zero(monkeypatch):
    # over F_729: a curve with ker(A^6 - I) = 0 runs one kernel, of the 2 x 2
    # A^6 - I; the curves with d = 1 and d = 2 run the 6d x 6d system next
    from g2frob import cartier

    calls = []

    def recorded(rows, ncols, p):
        calls.append((len(rows), ncols))
        return kernel_basis_mod_p(rows, ncols, p)

    monkeypatch.setattr(cartier, "kernel_basis_mod_p", recorded)
    F, rng = make_field(3, 6), rng_for("cartier-flat-kernel-d0")
    cv3 = random_curve(PrimeField(3), rng)
    while rational_flat_dimension(cv3, 6):
        cv3 = random_curve(PrimeField(3), rng)
    for f, d in ((cv3.f, 0), ((1, 0, 1, 2, 0, 1), 1), ((0, 2, 0, 2, 1, 1), 2)):
        calls.clear()
        ts = enumerate_p_torsion(make_curve(F, [F.from_int(c) for c in f]), "semilinear")
        assert len(ts) == 3 ** d
        assert calls == [(2, 2)] + ([(6 * d, 6 * d)] if d else [])


def test_stabilization_degree_is_least_k_with_full_dimension():
    # checked on seeded curves of p-rank 1 and 2 against the flat dimension
    # over F_{p^k}, k <= 12; a longer order must exceed k_max = 12
    for p in (3, 5, 7):
        rng = rng_for(f"cartier-stabilization-{p}")
        seen = {1: 0, 2: 0}
        while min(seen.values()) < 2:
            cv = random_curve(PrimeField(p), rng)
            rank = p_rank(cv)
            if rank == 0 or seen[rank] == 2:
                continue
            seen[rank] += 1
            dims = [rational_flat_dimension(cv, k) for k in range(1, 13)]
            assert dims == [_full_flat_dimension(cv, k) for k in range(1, 13)]
            full = [k for k, d in enumerate(dims, 1) if d == rank]
            if full:
                assert stabilization_degree(cv) == full[0]
            else:
                with pytest.raises(RangeError):
                    stabilization_degree(cv, k_max=12)


def _least_order_by_iteration(A, p):
    """The least k >= 1 with A^(k+1) = A, by one 2x2 product per k."""
    acc, k = A, 0
    while True:
        acc = tuple(
            tuple(sum(acc[i][m] * A[m][j] for m in range(2)) % p for j in range(2))
            for i in range(2)
        )
        k += 1
        if acc == A:
            return k


def test_stabilization_degree_certifies_the_order():
    # the order is certified from the prime divisors of |GL2(F_p)| (or of
    # p - 1 at p-rank 1); the oracles are the least k with A^(k+1) = A by
    # iteration and, for k <= 30, the full flat dimension over F_{p^k}
    flat_checked = 0
    for p in (3, 5, 7, 11):
        rng = rng_for(f"cartier-order-{p}")
        seen = {1: 0, 2: 0}
        while min(seen.values()) < 3:
            cv = random_curve(PrimeField(p), rng)
            rank = p_rank(cv)
            if rank == 0 or seen[rank] == 3:
                continue
            seen[rank] += 1
            k = stabilization_degree(cv)
            assert k == _least_order_by_iteration(cartier_manin(cv).matrix, p)
            if k <= 30:
                assert rational_flat_dimension(cv, k) == _full_flat_dimension(cv, k) == rank
                flat_checked += 1
    assert flat_checked >= 10


def test_stabilization_degree_builds_no_extension_field(monkeypatch):
    # f = (3, 1, 4, 5, 0, 1) over F_7 has order 48, certified without
    # building F_{7^48}; an order above k_max still raises.  Nor does the
    # rational flat dimension build F_{7^k}: at k = 48 it is the p-rank
    from g2frob.exactnum import ExtField

    def refuse(*args, **kwargs):
        raise AssertionError("an extension field was built")

    monkeypatch.setattr(ExtField, "__init__", refuse)
    cv = make_curve(PrimeField(7), [3, 1, 4, 5, 0, 1])
    assert stabilization_degree(cv) == 48
    with pytest.raises(RangeError):
        stabilization_degree(cv, k_max=47)
    assert rational_flat_dimension(cv, 48) == p_rank(cv) == 2
    assert [rational_flat_dimension(cv, k) for k in (1, 16, 24)] == [0, 0, 0]
    with pytest.raises(RangeError):
        rational_flat_dimension(cv, 0)


def test_rational_count_law():
    # over the curve's own prime field the flat forms are the fixed vectors
    # of the Cartier-Manin matrix: |S| = #ker(A - I)
    for p in (3, 5, 7):
        F = PrimeField(p)
        rng = rng_for(f"cartier-law-{p}")
        for _ in range(25):
            cv = random_curve(F, rng)
            A = cartier_manin(cv).matrix
            rows = [
                [(A[0][0] - 1) % p, A[0][1] % p],
                [A[1][0] % p, (A[1][1] - 1) % p],
            ]
            dim = len(kernel_basis_mod_p(rows, 2, p))
            ts = enumerate_p_torsion(cv, "semilinear")
            assert len(ts) == p ** dim
            assert rational_flat_dimension(cv, 1) == _full_flat_dimension(cv, 1) == dim


def test_non_ordinary_curve_has_small_torsion():
    cv = make_curve(PrimeField(3), NON_ORDINARY_3)
    ts = enumerate_p_torsion(cv, "brute")
    assert len(ts) == 1  # only the zero form
    assert len(ts) < 9 and 3 ** ts.dimension(3) == len(ts)


def test_extension_scan_reaches_geometric_count(curve3):
    # the certified p=3 curve stabilizes at k* = 3: all nine flat forms
    # become rational over F_27, and brute agrees with the solver on the way
    assert p_rank(curve3) == 2
    kstar = stabilization_degree(curve3)
    assert kstar == 3
    assert rational_flat_dimension(curve3, 1) == 1
    assert rational_flat_dimension(curve3, 2) == 1
    assert rational_flat_dimension(curve3, 3) == 2

    for k in (2, 3):
        Fk = make_field(3, k)
        cvk = make_curve(Fk, [Fk.from_int(c) for c in CERTIFIED[3][0]])
        b = enumerate_p_torsion(cvk, "brute")
        s = enumerate_p_torsion(cvk, "semilinear")
        assert b.forms == s.forms
        assert len(b) == 3 ** rational_flat_dimension(curve3, k)
        assert b.is_subspace(Fk)
    assert len(s) == 9  # p^2 at the stabilization degree


def test_brute_guard_on_large_fields():
    F = make_field(3, 10)  # 3^20 candidates > 2^22
    cv = random_curve(F, rng_for("cartier-guard"))
    with pytest.raises(FieldTooLargeForBrute):
        enumerate_p_torsion(cv, "brute")
    # the solver still runs
    ts = enumerate_p_torsion(cv, "semilinear")
    assert ts.is_subspace(F)
    # the guard counts |F|^2 candidates: p = 2039 (4.2e6) is admitted, the
    # next prime and the smallest fields of more than 2^11 elements are not
    check_brute_limit(PrimeField(2039))
    check_brute_limit(make_field(3, 6))
    for F in (PrimeField(2053), make_field(3, 7), make_field(5, 5), make_field(7, 4),
              make_field(13, 3)):
        with pytest.raises(FieldTooLargeForBrute):
            check_brute_limit(F)


def _psi_coordinates(F, rows, a, b):
    """The coefficients of psi(a, b) at `_psi_rows` rows, one per row:
    a^p u + a v + b^p s + b t for the row ((u, v), (s, t))."""
    ap, bp = F.frobenius(a), F.frobenius(b)
    return [F.add(F.add(F.mul(ap, u), F.mul(a, v)), F.add(F.mul(bp, s), F.mul(b, t)))
            for (u, v), (s, t) in rows]


def _psi_of_pair(curve, a, b, xp, h, c0):
    """The normal-form oracle: psi(d + (a + b x) dx/y) = T^p + theta0^(p-1)(T)
    - c0 T for T = a + b x, with T^p = a^p + b^p x^p and theta0 linear over
    constants."""
    F = curve.field
    cb = curve.constant(b)
    T = curve.constant(a) + cb * curve.x()
    cap, cbp = curve.constant(F.frobenius(a)), curve.constant(F.frobenius(b))
    return cap + cbp * xp + cb * h - c0 * T


def _row_oracle_curves():
    F9 = make_field(3, 2)
    # nine flat forms over F_9, among them pairs with b^3 != b
    curves = [make_curve(F9, [F9.from_int(c) for c in (1, 0, 1, 2, 2, 1)])]
    for F, count in ((PrimeField(3), 3), (PrimeField(5), 3), (PrimeField(7), 2), (F9, 2)):
        rng = rng_for(f"cartier-rows-{F!r}")
        curves += [random_curve(F, rng) for _ in range(count)]
    return curves


_ROW_CURVES = _row_oracle_curves()


@pytest.mark.parametrize("curve", _ROW_CURVES,
                         ids=[f"F{c.field.size}-{i}" for i, c in enumerate(_ROW_CURVES)])
def test_psi_rows_against_normal_forms(curve):
    # for every candidate, the row combination is the normal-form psi, built
    # from x^p by curve.pow and from h and c0 by Derivation steps, and brute
    # lists exactly the candidates whose psi is zero
    F, x, omega0 = curve.field, curve.x(), curve.basis_forms()[0]
    xp, c0 = curve.pow(x, curve.p), chart_constant(omega0)
    h = dual_derivation(omega0).apply_n(x, curve.p - 1)
    rows = _psi_rows(F, *_flat_form_data(curve))
    flat = []
    for a in F.elements():
        for b in F.elements():
            psi = _psi_of_pair(curve, a, b, xp, h, c0)
            assert curve.from_poly(_psi_coordinates(F, rows, a, b)) == psi
            if psi.is_zero():
                flat.append((a, b))
    assert 1 <= len(flat) < F.size ** 2
    assert enumerate_p_torsion(curve, "brute").forms == tuple(sorted(flat))


@pytest.mark.parametrize("curve", _ROW_CURVES,
                         ids=[f"F{c.field.size}-{i}" for i, c in enumerate(_ROW_CURVES)])
def test_psi_rows_against_p_curvature_rank1(curve):
    # the rows' psi is the rank-1 closed form of d + (a + b x) dx/y on the
    # chart dx/y, where T = a + b x, for every candidate
    F, omega0 = curve.field, curve.basis_forms()[0]
    rows = _psi_rows(F, *_flat_form_data(curve))
    for a in F.elements():
        for b in F.elements():
            T = curve.constant(a) + curve.constant(b) * curve.x()
            psi = curve.from_poly(_psi_coordinates(F, rows, a, b))
            assert psi == p_curvature_rank1(T, omega0)


def _theta0_step_curves():
    F9, F27 = make_field(3, 2), make_field(3, 3)
    return [
        make_curve(PrimeField(3), CERTIFIED[3][0]),
        make_curve(PrimeField(5), CERTIFIED[5][0]),
        make_curve(PrimeField(13), [8, 2, 3, 8, 11, 1]),
        make_curve(PrimeField(101), [1, 2, 3, 4, 5, 1]),
        random_curve(F9, rng_for("theta0-step-F9")),
        random_curve(F27, rng_for("theta0-step-F27")),
    ]


@pytest.mark.parametrize("curve", _theta0_step_curves(),
                         ids=["F3", "F5", "F13", "F101", "F9", "F27"])
def test_theta0_step_against_derivation(curve):
    # k polynomial steps from x are theta0^k(x), k <= p, by Derivation on
    # dx/y; over F_9 and F_27 f has coefficients outside F_p
    F, x = curve.field, curve.x()
    assert F.degree == 1 or prime_field_ints(curve.f) is None
    theta0 = dual_derivation(curve.basis_forms()[0])
    half_fprime = poly.scale(F, poly.derivative(F, curve.f), F.inv(F.from_int(2)))
    A, B = poly.x(F), ()
    for k in range(curve.p + 1):
        assert curve.element(A, B) == theta0.apply_n(x, k)
        A, B = _theta0_step(F, curve.f, half_fprime, A, B)


def test_brute_rows_take_no_derivation_step(monkeypatch):
    # the flat line of p = 5, f = x^5 + x^2 + x is that of dx/y: with the
    # weld stubbed brute makes no Derivation or LocalRing step, and unstubbed
    # the weld's is_flat walks theta0 once, for dx/y's chart constant; brute
    # imports is_flat from pcurvature when it runs
    from g2frob import pcurvature
    from g2frob.funcfield import Derivation, LocalRing

    runs, derivs = [], []
    real_apply_n, real_deriv = Derivation.apply_n, LocalRing.deriv
    monkeypatch.setattr(Derivation, "apply_n",
                        lambda self, u, n: runs.append(n) or real_apply_n(self, u, n))
    monkeypatch.setattr(LocalRing, "deriv",
                        lambda self, u, theta: derivs.append(u) or real_deriv(self, u, theta))
    curve = make_curve(PrimeField(5), [0, 1, 1, 0, 0, 1])
    with monkeypatch.context() as m:
        m.setattr(pcurvature, "is_flat", lambda omega: True)
        forms = enumerate_p_torsion(curve, "brute").forms
    assert forms == tuple((a, 0) for a in range(5))
    assert not runs and not derivs

    welds, real_is_flat = [], pcurvature.is_flat
    monkeypatch.setattr(pcurvature, "is_flat", lambda omega: welds.append(omega) or real_is_flat(omega))
    curve = make_curve(PrimeField(5), [0, 1, 1, 0, 0, 1])
    assert enumerate_p_torsion(curve, "brute").forms == forms
    assert len(welds) == 4 and runs == [5] and len(derivs) == 5


@pytest.mark.parametrize("curve", [make_curve(PrimeField(5), [0, 1, 1, 0, 0, 1]), _ROW_CURVES[0]],
                         ids=["F5", "F9"])
def test_brute_welds_the_first_four_flat_pairs(monkeypatch, curve):
    # the weld hands is_flat the first four pairs of the full |F|^2
    # evaluation of the rows' psi, in sort order, (0, 0) first
    from g2frob import pcurvature

    F = curve.field
    rows = _psi_rows(F, *_flat_form_data(curve))
    flat = sorted((a, b) for a in F.elements() for b in F.elements()
                  if all(F.is_zero(c) for c in _psi_coordinates(F, rows, a, b)))
    welds, real_is_flat = [], pcurvature.is_flat
    monkeypatch.setattr(pcurvature, "is_flat", lambda omega: welds.append(omega.g) or real_is_flat(omega))
    assert enumerate_p_torsion(curve, "brute").forms == tuple(flat)
    assert len(flat) > 4
    assert welds == [curve.global_form(a, b).g for a, b in flat[:4]]


def test_canonical_connection(curve3, flat3):
    cv = curve3
    omega_L, _ = flat3
    conn = canonical_connection(omega_L, chart="omega_L")
    z, one = cv.zero(), cv.one()
    assert conn.entries == ((z, z), (z, one))
    assert p_curvature_matrix(conn).is_zero()

    conn0 = canonical_connection(omega_L, chart="omega0")
    omega0 = cv.basis_forms()[0]
    assert conn0.chart == omega0
    assert p_curvature_matrix(conn0).is_zero()

    zero_form = canonical_connection(cv.global_form(cv.field.zero(), cv.field.zero()))
    assert all(e.is_zero() for row in zero_form.entries for e in row)

    # a non-flat form must be rejected: (1, 0) is not in the torsion set here
    ts = enumerate_p_torsion(cv, "brute")
    assert (cv.field.one(), cv.field.zero()) not in ts
    with pytest.raises(NotFlat):
        canonical_connection(cv.global_form(cv.field.one(), cv.field.zero()))


def test_torsion_set_differentials_are_flat(curve5):
    from g2frob import p_curvature_rank1

    cv = curve5
    omega0 = cv.basis_forms()[0]
    theta0 = dual_derivation(omega0)
    ts = enumerate_p_torsion(cv, "brute")
    assert len(ts) == 5
    for omega in ts.differentials(cv):
        T = cv.mul(omega.g, theta0.value_on_x)
        assert p_curvature_rank1(T, omega0).is_zero()


def test_brute_weld_rejects_rows_that_accept_a_non_flat_pair(monkeypatch):
    # rows that vanish for every pair let every candidate through; the weld
    # to is_flat must refuse the first nonzero one on a curve whose only
    # flat form is 0
    from g2frob import cartier

    cv = make_curve(PrimeField(3), NON_ORDINARY_3)
    assert len(enumerate_p_torsion(cv, "semilinear")) == 1
    real_rows = cartier._psi_rows

    def zero_rows(F, h, dh):
        z = F.zero()
        return [((z, z), (z, z))] * len(real_rows(F, h, dh))

    monkeypatch.setattr(cartier, "_psi_rows", zero_rows)
    with pytest.raises(G2FrobError, match="is_flat"):
        enumerate_p_torsion(cv, "brute")


def test_span_listing_is_guarded():
    # 2^17 vectors: refused before the first one is listed
    basis = [[int(i == j) for j in range(17)] for i in range(17)]
    with pytest.raises(ResourceGuardError):
        next(enumerate_span_mod_p(basis, 17, 2))


def _flat_data_curves():
    F27 = make_field(3, 3)
    return [
        make_curve(PrimeField(3), CERTIFIED[3][0]),
        make_curve(PrimeField(13), [8, 2, 3, 8, 11, 1]),
        make_curve(F27, [F27.from_int(c) for c in CERTIFIED[3][0]]),
    ]


@pytest.mark.parametrize("curve", _flat_data_curves(), ids=["F3", "F13", "F27"])
def test_flat_form_data_against_pow_and_derivation_steps(curve):
    # h and c0 = h' as elements of K are the Derivation walks of dx/y, and
    # the rows' b^p column is x^p
    h, c0 = _flat_form_data(curve)
    x, omega0 = curve.x(), curve.basis_forms()[0]
    theta0 = dual_derivation(omega0)
    assert curve.from_poly(h) == theta0.apply_n(x, curve.p - 1)
    assert curve.from_poly(c0) == chart_constant(omega0)
    assert curve.from_poly(c0) == curve.mul(omega0.g, theta0.apply_n(x, curve.p))
    rows = _psi_rows(curve.field, h, c0)
    assert curve.from_poly([beta[0] for _, beta in rows]) == curve.pow(x, curve.p)


@pytest.mark.parametrize("p,f", [(3, CERTIFIED[3][0]), (7, CERTIFIED[7][0]),
                                 (13, [8, 2, 3, 8, 11, 1])])
def test_flat_form_is_its_own_chart_constant(p, f):
    # the p-curvature of d + omega_L in the chart omega_L is
    # 1 - <omega_L, theta_L^p>, so a flat omega_L has <omega_L, theta_L^p> = 1
    curve = make_curve(PrimeField(p), f)
    nonzero = enumerate_p_torsion(curve, method="semilinear").nonzero(curve.field)
    assert len(nonzero) == p - 1
    for a, b in nonzero:
        omega_L = curve.global_form(a, b)
        assert chart_constant(omega_L) == curve.one()
    # a form off the flat line is not its own chart constant; the flat forms
    # fill one line, so at least one of dx/y, x dx/y is off it
    F = curve.field
    outside = [ab for ab in ((F.one(), F.zero()), (F.zero(), F.one())) if ab not in nonzero]
    assert outside
    for a, b in outside:
        omega = curve.global_form(a, b)
        assert chart_constant(omega) != curve.one()


def test_fp_kernel_reads_both_l_coordinates(curve5):
    # unknowns c1..c4 -> (c1 y + 2 c2 y + c3 x / l + c4 y / l^2) over the
    # l-local ring of a flat chart: the y-part and the x-part each constrain,
    # at different powers of l, and the kernel is the one line (-2, 1, 0, 0)
    from g2frob.cartier import fp_kernel

    F = curve5.field
    R = dual_derivation(curve5.global_form(F.from_int(1), F.from_int(1))).ring
    ell = curve5.from_poly((F.neg(R.r), F.one()))
    y, x = curve5.y(), curve5.x()
    images = [(R.lift(e),) for e in (y, y + y, x / ell, y / (ell * ell))]
    assert fp_kernel(R, images) == [[3, 1, 0, 0]]
