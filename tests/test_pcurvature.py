"""Engine tests: closed form vs recursion, tables, fundamental form, duals."""

from functools import reduce
from math import comb

import pytest

from g2frob import (
    ConnectionMatrix,
    DualRing,
    PrimeField,
    RangeError,
    ZeroVector,
    coefficient_table,
    dual_derivation,
    enumerate_p_torsion,
    make_curve,
    make_field,
    p_curvature_matrix,
    p_curvature_rank1,
    random_curve,
    second_fundamental_form,
)
from g2frob.funcfield import pair
from g2frob.pcurvature import chart_constant, is_flat

from conftest import CERTIFIED, make_random_element, rng_for


def _chart(curve):
    omega0 = curve.basis_forms()[0]
    return omega0, dual_derivation(omega0)


def test_rank1_zero_connection(curve3):
    omega0, _ = _chart(curve3)
    assert p_curvature_rank1(curve3.zero(), omega0).is_zero()


def test_rank1_unit_connection_on_flat_chart(curve3, flat3):
    # T = 1 on the chart of a flat form: psi = 1 - <omega_L, theta_L^p> = 0
    omega_L, _ = flat3
    assert p_curvature_rank1(curve3.one(), omega_L).is_zero()


def test_rank1_equals_rank1_recursion(curve3, curve5):
    for cv in (curve3, curve5):
        omega0, _ = _chart(cv)
        rng = rng_for(f"pc-oracle-{cv.p}")
        for _ in range(100):
            T = make_random_element(cv, rng, max_deg=2)
            closed = p_curvature_rank1(T, omega0)
            rec = p_curvature_matrix(ConnectionMatrix(cv, ((T,),), omega0))
            assert rec[0, 0] == closed


def _flatness_curves():
    """(field, f) for three random curves each over F_5, F_7 and F_9, among
    them curves with one flat F_p-line, and an F_9 curve with a plane."""
    F9 = make_field(3, 2)
    out = [(F9, tuple(F9.from_int(c) for c in (1, 0, 1, 2, 2, 1)))]  # nine flat forms
    for F in (PrimeField(5), PrimeField(7), F9):
        rng = rng_for(f"is-flat-{F!r}")
        out += [(F, random_curve(F, rng).f) for _ in range(3)]
    return out


_FLATNESS_CURVES = _flatness_curves()


@pytest.mark.parametrize("field, f", _FLATNESS_CURVES,
                         ids=[f"F{F.size}-{i}" for i, (F, _) in enumerate(_FLATNESS_CURVES)])
def test_is_flat_against_the_closed_form_on_dx_over_y(field, f):
    # is_flat reads each form's own chart constant; the oracle is the rank-1
    # closed form of T = <omega, theta0> on the chart dx/y, on a second copy
    # of the curve so that no memo entry is shared
    curve, oracle = make_curve(field, f), make_curve(field, f)
    omega0 = oracle.basis_forms()[0]
    theta0 = dual_derivation(omega0)
    flat = 0
    for a in field.elements():
        for b in field.elements():
            expected = p_curvature_rank1(pair(oracle.global_form(a, b), theta0), omega0).is_zero()
            assert is_flat(curve.global_form(a, b)) == expected
            flat += expected
    assert flat in (1, field.char, field.char ** 2)


def test_flatness_curves_reach_a_line_and_a_plane():
    # the differential test above runs on curves with a flat line and a plane
    sizes = {(F.char, len(enumerate_p_torsion(make_curve(F, f), "semilinear")))
             for F, f in _FLATNESS_CURVES}
    assert {(5, 5), (7, 7), (3, 3), (3, 9)} <= sizes


def test_matrix_zero_connection(curve3):
    omega0, _ = _chart(curve3)
    for r in (1, 2, 3):
        z = curve3.zero()
        conn = ConnectionMatrix(curve3, tuple(tuple(z for _ in range(r)) for _ in range(r)), omega0)
        assert p_curvature_matrix(conn).is_zero()


def test_triangular_connection_offdiagonal_sums(curve3, flat3):
    # [[0, x], [0, 1]] on the flat chart: psi = [[0, sum theta^k(x)], [0, 0]]
    cv = curve3
    omega_L, theta_L = flat3
    x = cv.basis_forms()[0].ratio(omega_L)
    z, one = cv.zero(), cv.one()
    psi = p_curvature_matrix(ConnectionMatrix(cv, ((z, x), (z, one)), omega_L))
    S1 = cv.zero()
    cur = x
    for _ in range(1, cv.p):
        cur = theta_L.apply(cur)
        S1 = S1 + cur
    assert psi[0, 1] == S1 and not S1.is_zero()
    assert psi[0, 0].is_zero() and psi[1, 0].is_zero() and psi[1, 1].is_zero()


def test_block_triangular_psi(curve3):
    cv = curve3
    omega0, _ = _chart(cv)
    rng = rng_for("pc-triangular")
    for _ in range(10):
        a = make_random_element(cv, rng, max_deg=2)
        b = make_random_element(cv, rng, max_deg=2)
        d = make_random_element(cv, rng, max_deg=2)
        conn = ConnectionMatrix(cv, ((a, b), (cv.zero(), d)), omega0)
        psi = p_curvature_matrix(conn)
        assert psi[1, 0].is_zero()
        assert psi[0, 0] == p_curvature_rank1(a, omega0)
        assert psi[1, 1] == p_curvature_rank1(d, omega0)


def test_trace_compatibility(curve3):
    # the induced connection on the determinant is given by the trace, and
    # its scalar p-curvature is the trace of the matrix p-curvature
    cv = curve3
    omega0, _ = _chart(cv)
    rng = rng_for("pc-trace")
    for _ in range(10):
        T = tuple(
            tuple(make_random_element(cv, rng, max_deg=2) for _ in range(2))
            for _ in range(2)
        )
        conn = ConnectionMatrix(cv, T, omega0)
        psi = p_curvature_matrix(conn)
        tr_psi = psi[0, 0] + psi[1, 1]
        psi_tr_closed = p_curvature_rank1(conn.trace(), omega0)
        psi_tr_rec = p_curvature_matrix(
            ConnectionMatrix(cv, ((conn.trace(),),), omega0)
        )[0, 0]
        assert tr_psi == psi_tr_closed == psi_tr_rec


def test_coefficient_table_small_orders(curve3):
    cv = curve3
    omega0, theta0 = _chart(cv)
    rng = rng_for("pc-table-small")
    T = tuple(
        tuple(make_random_element(cv, rng, max_deg=2) for _ in range(2))
        for _ in range(2)
    )
    conn = ConnectionMatrix(cv, T, omega0)
    one, zero = cv.one(), cv.zero()
    ident = ((one, zero), (zero, one))

    t1 = coefficient_table(conn, 1)
    assert t1[0] == T and t1[1] == ident

    # n = 2 by direct expansion: T_0^(2) = T^2 + theta(T), T_1^(2) = 2T
    t2 = coefficient_table(conn, 2)
    two = cv.constant(cv.field.from_int(2))
    for i in range(2):
        for j in range(2):
            sq = T[i][0] * T[0][j] + T[i][1] * T[1][j]
            assert t2[0][i][j] == sq + theta0.apply(T[i][j])
            assert t2[1][i][j] == two * T[i][j]
    assert t2[2] == ident


def test_coefficient_table_identities(curve3, curve5):
    for cv in (curve3, curve5):
        omega0, _ = _chart(cv)
        rng = rng_for(f"pc-table-{cv.p}")
        one, zero = cv.one(), cv.zero()
        for _ in range(3):
            T = tuple(
                tuple(make_random_element(cv, rng, max_deg=1) for _ in range(2))
                for _ in range(2)
            )
            conn = ConnectionMatrix(cv, T, omega0)
            tables = {n: coefficient_table(conn, n) for n in range(1, cv.p + 1)}
            for n in range(1, cv.p + 1):
                tab = tables[n]
                assert tab[n] == ((one, zero), (zero, one))
                for r in range(0, n + 1):
                    c = cv.constant(cv.field.from_int(comb(n, r)))
                    base = tables[r][0] if r >= 1 else ((one, zero), (zero, one))
                    for i in range(2):
                        for j in range(2):
                            assert tab[n - r][i][j] == c * base[i][j]


def test_table_top_coefficient_vanishes_at_n_p(curve5):
    # C(p, 2) = 0 mod p for p >= 5, so T_(p-2)^(p) = 0
    cv = curve5
    omega0, _ = _chart(cv)
    rng = rng_for("pc-table-p")
    T = tuple(
        tuple(make_random_element(cv, rng, max_deg=1) for _ in range(2))
        for _ in range(2)
    )
    tab = coefficient_table(ConnectionMatrix(cv, T, omega0), cv.p)
    for i in range(2):
        for j in range(2):
            assert tab[cv.p - 2][i][j].is_zero()


def test_table_order_bounds(curve3):
    omega0, _ = _chart(curve3)
    conn = ConnectionMatrix(curve3, ((curve3.one(),),), omega0)
    with pytest.raises(RangeError):
        coefficient_table(conn, 0)
    with pytest.raises(RangeError):
        coefficient_table(conn, curve3.p + 1)


def test_psi_consistent_with_table(curve3):
    # psi = T_0^(p) - <omega0, theta0^p> T
    cv = curve3
    omega0, _ = _chart(cv)
    rng = rng_for("pc-psi-table")
    T = tuple(
        tuple(make_random_element(cv, rng, max_deg=2) for _ in range(2))
        for _ in range(2)
    )
    conn = ConnectionMatrix(cv, T, omega0)
    tab = coefficient_table(conn, cv.p)
    c0 = chart_constant(omega0)
    psi = p_curvature_matrix(conn)
    for i in range(2):
        for j in range(2):
            assert psi[i, j] == tab[0][i][j] - c0 * T[i][j]


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

def test_dual_engine_scalar_shift(curve3, flat3):
    # psi(can + eps N) - psi(can + eps N') = eps (f11 - theta^(p-1) f11) I
    # where N is traceless [[f11, f12], [f21, -f11]] and N' = [[2 f11, f12], [f21, 0]]
    cv = curve3
    omega_L, theta_L = flat3
    rng = rng_for("pc-dual")
    D = DualRing(cv)
    z = cv.zero()
    for _ in range(8):
        f11 = make_random_element(cv, rng, max_deg=1)
        f12 = make_random_element(cv, rng, max_deg=1)
        f21 = make_random_element(cv, rng, max_deg=1)
        M = ConnectionMatrix(
            D,
            (
                ((z, f11), (z, f12)),
                ((z, f21), (cv.one(), -f11)),
            ),
            omega_L,
        )
        two = cv.constant(cv.field.from_int(2))
        Mp = ConnectionMatrix(
            D,
            (
                ((z, two * f11), (z, f12)),
                ((z, f21), (cv.one(), cv.zero())),
            ),
            omega_L,
        )
        lhs = p_curvature_matrix(M)
        rhs = p_curvature_matrix(Mp)
        shift = f11 - theta_L.apply_n(f11, cv.p - 1)
        for i in range(2):
            for j in range(2):
                body, slope = D.sub(lhs[i, j], rhs[i, j])
                assert body.is_zero()
                assert slope == (shift if i == j else cv.zero())


def test_dual_lift_of_flat_connection_is_flat(curve3, flat3):
    cv = curve3
    omega_L, _ = flat3
    D = DualRing(cv)
    lift = D.lift
    M = ConnectionMatrix(
        D,
        ((lift(cv.zero()), lift(cv.zero())), (lift(cv.zero()), lift(cv.one()))),
        omega_L,
    )
    assert p_curvature_matrix(M).is_zero()


def test_mixed_entry_kinds_rejected(curve3):
    omega0, _ = _chart(curve3)
    D = DualRing(curve3)
    one, z = curve3.one(), curve3.zero()
    # a K entry in a K[eps] matrix
    with pytest.raises(RangeError):
        ConnectionMatrix(D, ((D.lift(one), one), (D.zero(), D.zero())), omega0)
    # a K[eps] entry in a K matrix
    with pytest.raises(RangeError):
        ConnectionMatrix(curve3, ((one, D.lift(one)), (z, z)), omega0)


def test_ring_of_another_curve_rejected(curve3, curve5):
    # an F_3 ring with a chart on an F_5 curve, over K and over K[eps]
    omega0, _ = _chart(curve5)
    D = DualRing(curve3)
    with pytest.raises(RangeError):
        ConnectionMatrix(curve3, ((curve3.one(),),), omega0)
    with pytest.raises(RangeError):
        ConnectionMatrix(D, ((D.one(),),), omega0)
    # an equal curve built afresh is the chart's curve
    fresh = make_curve(curve5.field, curve5.f)
    ConnectionMatrix(DualRing(fresh), ((DualRing(fresh).one(),),), omega0)


def test_dual_deriv_is_leibniz(curve3, curve5):
    # theta(u v) = theta(u) v + u theta(v) on K[eps], theta acting componentwise
    rng = rng_for("dual-leibniz")
    for cv in (curve3, curve5):
        D = DualRing(cv)
        _, theta0 = _chart(cv)
        for _ in range(4):
            u, v = (
                (make_random_element(cv, rng, max_deg=2), make_random_element(cv, rng, max_deg=2))
                for _ in range(2)
            )
            lhs = D.deriv(D.mul(u, v), theta0)
            rhs = D.add(D.mul(D.deriv(u, theta0), v), D.mul(u, D.deriv(v, theta0)))
            assert lhs == rhs


def test_dual_engine_on_lifted_connection_is_lifted_psi(curve3, curve5):
    # psi over K[eps] of a connection with zero slopes is the lift of psi over K
    rng = rng_for("dual-lift-psi")
    for cv in (curve3, curve5):
        D = DualRing(cv)
        omega0, _ = _chart(cv)
        for _ in range(2):
            T = tuple(
                tuple(make_random_element(cv, rng, max_deg=1) for _ in range(2))
                for _ in range(2)
            )
            lifted = tuple(tuple(D.lift(e) for e in row) for row in T)
            psi = p_curvature_matrix(ConnectionMatrix(cv, T, omega0))
            psi_eps = p_curvature_matrix(ConnectionMatrix(D, lifted, omega0))
            for i in range(2):
                for j in range(2):
                    assert psi_eps[i, j] == D.lift(psi[i, j])


def _dense_psi(conn):
    """The recursion with every entry taken: T M + theta(M) summed over all
    products and derivatives, zero or not, then T0^(p) - c T."""
    R, T, r = conn.ring, conn.entries, conn.rank
    theta = dual_derivation(conn.chart)
    M = T
    for _ in range(conn.curve.p - 1):
        M = tuple(tuple(reduce(R.add, [R.mul(T[i][k], M[k][j]) for k in range(r)]
                               + [R.deriv(M[i][j], theta)]) for j in range(r)) for i in range(r))
    c0 = R.lift(chart_constant(conn.chart))
    return tuple(tuple(R.sub(M[i][j], R.mul(c0, T[i][j])) for j in range(r)) for i in range(r))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_zero_skipping_engine_against_the_dense_step(p):
    # psi over K, over the flat chart's l-local ring R and over K[eps] and
    # R[eps], on matrices whose entries are zero, one or random, against the
    # dense step; over K also on the non-flat chart dx/y
    from g2frob.funcfield import line_representative

    cv = make_curve(PrimeField(p), CERTIFIED[p][0])
    F, rng = cv.field, rng_for(f"engine-dense-{p}")
    omega_L = cv.global_form(*(F.from_int(c) for c in CERTIFIED[p][1]))
    _, omega_L = line_representative(omega_L)
    R = dual_derivation(omega_L).ring
    ratios = [cv.global_form(F.random(rng), F.random(rng)).ratio(omega_L) for _ in range(6)]

    def entry(ring, draw):
        k = rng.randrange(6)
        return ring.zero() if k < 2 else ring.one() if k == 2 else draw()

    rings = [
        (cv, lambda: rng.choice(ratios), (omega_L, cv.basis_forms()[0])),
        (R, lambda: R.lift(rng.choice(ratios)), (omega_L,)),
        (DualRing(cv), lambda: (rng.choice(ratios), rng.choice(ratios)), (omega_L,)),
        (DualRing(R), lambda: (R.lift(rng.choice(ratios)), R.lift(rng.choice(ratios))), (omega_L,)),
    ]
    for ring, draw, charts in rings:
        for chart in charts:
            for r in (1, 2, 2, 2):
                T = [[entry(ring, draw) for _ in range(r)] for _ in range(r)]
                conn = ConnectionMatrix(ring, T, chart)
                assert p_curvature_matrix(conn).matrix == _dense_psi(conn)


# ---------------------------------------------------------------------------
# second fundamental form
# ---------------------------------------------------------------------------

def test_second_fundamental_form_examples(curve3, flat3):
    cv = curve3
    omega_L, theta_L = flat3
    z, one = cv.zero(), cv.one()
    omega0 = cv.basis_forms()[0]

    flat_zero = ConnectionMatrix(cv, ((z, z), (z, z)), omega0)
    assert second_fundamental_form(flat_zero, (one, z)).is_zero()

    canonical = ConnectionMatrix(cv, ((z, z), (z, one)), omega_L)
    assert second_fundamental_form(canonical, (one, z)).is_zero()
    # v = (1, 1) leaves the first summand: theta(v) + T v = (0, 1), nonzero mod v
    val = second_fundamental_form(canonical, (one, one))
    assert val == -one

    with pytest.raises(ZeroVector):
        second_fundamental_form(canonical, (z, z))


def test_second_fundamental_form_vertical_line(curve3):
    # v proportional to e1 forces the complement e2
    cv = curve3
    omega0, theta0 = _chart(cv)
    rng = rng_for("sff-e2")
    T = tuple(
        tuple(make_random_element(cv, rng, max_deg=1) for _ in range(2))
        for _ in range(2)
    )
    conn = ConnectionMatrix(cv, T, omega0)
    v = (cv.one(), cv.zero())
    # expected: component of theta(v) + T v along e2 is exactly w2 = T[1][0]
    assert second_fundamental_form(conn, v) == T[1][0]
