"""Lemma checks: two sums, off-diagonal closed forms, deformation rigidity."""

import json

import pytest

from g2frob import (
    FieldTooLargeForBrute,
    NotTorsion,
    enumerate_p_torsion,
    make_curve,
    make_field,
    recheck,
)
from g2frob.verify import (
    auxiliary_recursion_rows,
    check_offdiag_closed_forms,
    check_two_sums,
    closed_form_rows,
    require_torsion,
    rigidity_scan,
    two_sums,
)

from conftest import CERTIFIED, make_random_element, rng_for


def _flat_pair(curve):
    a, b = CERTIFIED[curve.p][1]
    F = curve.field
    return (F.from_int(a), F.from_int(b))


def test_two_sums_holds_on_certified_curves(curve3, curve5):
    for cv in (curve3, curve5):
        F = cv.field
        ab_L = _flat_pair(cv)
        for ab in [(F.one(), F.zero()), (F.zero(), F.one())]:
            rep = check_two_sums(cv, ab_L, ab)
            dependent = (
                F.is_zero(F.sub(F.mul(ab_L[0], ab[1]), F.mul(ab_L[1], ab[0])))
            )
            assert rep.status == ("inapplicable" if dependent else "holds")


def test_two_sums_dependent_pair_is_inapplicable(curve3):
    cv, F = curve3, curve3.field
    ab_L = _flat_pair(cv)
    scaled = (F.mul(F.from_int(2), ab_L[0]), F.mul(F.from_int(2), ab_L[1]))
    rep = check_two_sums(cv, ab_L, scaled)
    assert rep.status == "inapplicable"
    assert rep.witness["S1"]["A"] == [] and rep.witness["S2"]["A"] == []


def test_two_sums_p3_binomials(curve3, flat3):
    # at p = 3: S2 = 2 theta(x) + theta^2(x)
    cv = curve3
    omega_L, theta_L = flat3
    x = cv.basis_forms()[0].ratio(omega_L)
    S1, S2 = two_sums(cv, theta_L, x)
    t1 = theta_L.apply(x)
    t2 = theta_L.apply(t1)
    assert S1 == t1 + t2
    assert S2 == cv.constant(cv.field.from_int(2)) * t1 + t2


def test_two_sums_invariant_under_flat_shift(curve3):
    # omega -> omega + c omega_L changes x by a constant, so S1 and S2 are
    # literally unchanged
    cv, F = curve3, curve3.field
    ab_L = _flat_pair(cv)
    base = (F.one(), F.zero())
    rep0 = check_two_sums(cv, ab_L, base)
    for c in range(1, cv.p):
        shifted = (
            F.add(base[0], F.mul(F.from_int(c), ab_L[0])),
            F.add(base[1], F.mul(F.from_int(c), ab_L[1])),
        )
        rep = check_two_sums(cv, ab_L, shifted)
        assert rep.status == rep0.status == "holds"
        assert rep.witness["S1"] == rep0.witness["S1"]
        assert rep.witness["S2"] == rep0.witness["S2"]


def test_two_sums_rejects_non_torsion(curve3):
    F = curve3.field
    with pytest.raises(NotTorsion):
        check_two_sums(curve3, (F.one(), F.zero()), (F.zero(), F.one()))
    with pytest.raises(NotTorsion):
        check_two_sums(curve3, (F.zero(), F.zero()), (F.zero(), F.one()))


def test_checks_refuse_a_flat_form_that_is_not_global(curve5):
    # dx/x is flat (d + du/u has p-curvature zero) but not a global form:
    # its dual derivation theta(x) = x has no l-local ring to run in, and
    # require_torsion, which every check runs first, refuses it
    from g2frob.funcfield import Differential
    from g2frob.pcurvature import is_flat

    log_x = Differential(curve5, curve5.x().inverse())
    assert is_flat(log_x)
    with pytest.raises(NotTorsion):
        require_torsion(curve5, log_x)


def test_offdiag_closed_forms_hold(curve3, curve5):
    for cv in (curve3, curve5):
        F = cv.field
        ab_L = _flat_pair(cv)
        for ab in [(F.one(), F.zero()), (F.zero(), F.one()),
                   (F.one(), F.one()), (F.zero(), F.zero())]:
            rep = check_offdiag_closed_forms(cv, ab_L, ab)
            assert rep.status == "holds"


def test_offdiag_zero_form(curve3):
    # omega = 0: both psi matrices vanish and equality holds trivially
    cv, F = curve3, curve3.field
    rep = check_offdiag_closed_forms(cv, _flat_pair(cv), (F.zero(), F.zero()))
    assert rep.status == "holds"
    assert rep.witness["psiUpperOffdiag"]["A"] == []


def test_auxiliary_recursion_matches_closed_forms(curve3, flat3):
    cv = curve3
    omega_L, theta_L = flat3
    rng = rng_for("verify-recursion")
    for _ in range(10):
        f11 = make_random_element(cv, rng, max_deg=1)
        f12 = make_random_element(cv, rng, max_deg=1)
        f21 = make_random_element(cv, rng, max_deg=1)
        rec = auxiliary_recursion_rows(cv, theta_L, f11, f12, f21, cv.p)
        closed = closed_form_rows(cv, theta_L, f11, f12, f21, cv.p)
        assert rec == closed


def test_rigidity_scan_certified_p3(curve3):
    cv, F = curve3, curve3.field
    ab_L = _flat_pair(cv)
    sols, rep = rigidity_scan(cv, ab_L, mode="brute")
    assert rep.status == "holds"
    assert len(sols) == 9
    assert sols.is_trivial_family
    w = rep.witness["scalarShiftIdentity"]
    assert w["checked"] == 729 and w["held"] == 729
    assert rep.witness["closedFormsSampled"] is True

    # every solution is (0, c1 omega_L, c2 omega_L)
    zero = (F.zero(), F.zero())
    for t11, t12, t21 in sols.solutions:
        assert t11 == zero
        for c in (t12, t21):
            # c is an F_3 multiple of ab_L
            assert any(
                c == (F.mul(F.from_int(s), ab_L[0]), F.mul(F.from_int(s), ab_L[1]))
                for s in range(3)
            )


def test_rigidity_linear_agrees_with_brute(curve3):
    ab_L = _flat_pair(curve3)
    brute, _ = rigidity_scan(curve3, ab_L, mode="brute")
    linear, rep = rigidity_scan(curve3, ab_L, mode="linear")
    assert brute.solutions == linear.solutions
    assert rep.status == "holds"


def test_rigidity_guard_on_large_fields():
    F25 = make_field(5, 2)
    cv = make_curve(F25, [F25.from_int(c) for c in CERTIFIED[5][0]])
    ts = enumerate_p_torsion(cv, "semilinear")
    nz = ts.nonzero(F25)
    assert nz
    with pytest.raises(FieldTooLargeForBrute):
        rigidity_scan(cv, nz[0], mode="brute")  # 625^3 triples times 5^2 > 2^20


def test_reports_recheck(curve3):
    cv, F = curve3, curve3.field
    ab_L = _flat_pair(cv)
    r1 = check_two_sums(cv, ab_L, (F.one(), F.zero()))
    r2 = check_offdiag_closed_forms(cv, ab_L, (F.one(), F.zero()))
    _, r3 = rigidity_scan(cv, ab_L, mode="linear")
    assert recheck(cv, r1)
    assert recheck(cv, r2)
    assert recheck(cv, r3)


def _count_chart_constants(monkeypatch, p):
    """The list of p-step derivation runs from now on: only a chart
    constant takes p steps, and it decides flatness (`is_flat`)."""
    from g2frob import funcfield

    runs = []
    real_apply_n = funcfield.Derivation.apply_n

    def counted_apply_n(self, u, n):
        if n == p:
            runs.append(u)
        return real_apply_n(self, u, n)

    monkeypatch.setattr(funcfield.Derivation, "apply_n", counted_apply_n)
    return runs


def test_recheck_recomputes_on_a_fresh_curve(monkeypatch):
    from g2frob import verify

    cv = make_curve(make_field(3), CERTIFIED[3][0])
    F = cv.field
    ab_L = _flat_pair(cv)
    r1 = check_two_sums(cv, ab_L, (F.one(), F.zero()))
    r2 = check_offdiag_closed_forms(cv, ab_L, (F.one(), F.zero()))
    _, r3 = rigidity_scan(cv, ab_L, mode="linear")
    chart_constants = _count_chart_constants(monkeypatch, cv.p)
    for report in (r1, r2, r3):
        before = len(chart_constants)
        assert recheck(cv, report)
        # the torsion check ran again, on the fresh curve's one chart constant
        assert len(chart_constants) == before + 1
    # a faulty two_sums is caught by both rechecks, although cv's memo holds
    # the right sums
    real_two_sums = verify.two_sums

    def off_by_one(curve, theta_L, x):
        S1, S2 = real_two_sums(curve, theta_L, x)
        return S1 + curve.constant(curve.field.one()), S2

    monkeypatch.setattr(verify, "two_sums", off_by_one)
    assert not recheck(cv, r1)
    assert not recheck(cv, r2)  # the per-multiple engine against the faulty S1


def test_report_jsonable_shape(curve3):
    cv, F = curve3, curve3.field
    rep = check_two_sums(cv, _flat_pair(cv), (F.one(), F.zero()))
    d = rep.to_jsonable()
    assert set(d) == {"curveId", "lemmaId", "status", "witness", "timing"}
    import json

    json.dumps(d)  # round-trippable


def test_lemma_data_is_computed_once_per_curve(monkeypatch):
    from g2frob import verify

    p, f = 7, CERTIFIED[7][0]
    cv = make_curve(make_field(p), f)
    F = cv.field
    ab_L, ab = _flat_pair(cv), (F.one(), F.zero())
    chart_constants = _count_chart_constants(monkeypatch, p)
    first = check_two_sums(cv, ab_L, ab)
    second = check_offdiag_closed_forms(cv, ab_L, ab)
    # one chart constant of omega_L: the torsion check of both reports and
    # the engine's constant
    assert len(chart_constants) == 1
    omega_L = cv.global_form(*ab_L)
    theta_L = verify.require_torsion(cv, omega_L)
    x = cv.global_form(*ab).ratio(omega_L)
    S = two_sums(cv, theta_L, x)
    assert two_sums(cv, theta_L, x)[0] is S[0]  # a memo hit, not a recomputation
    assert len(chart_constants) == 1
    # a fresh curve recomputes everything and agrees
    fresh = make_curve(make_field(p), f)
    for check, report in ((check_two_sums, first), (check_offdiag_closed_forms, second)):
        again = check(fresh, ab_L, ab)
        assert (again.status, again.witness) == (report.status, report.witness)
    assert len(chart_constants) == 2


# one flat F_p-line each, with its first nonzero form (a, b) as coefficient lists
ONE_LINE = [
    ({"p": 7, "f": [6, 3, 6, 3, 0, 1]}, ([1], [4])),
    ({"p": 11, "f": [9, 2, 4, 1, 1, 1]}, ([1], [6])),
    ({"p": 13, "f": [6, 12, 6, 0, 4, 1]}, ([1], [2])),
    ({"p": 3, "ext": [1, 0, 1], "f": [[2, 2], [0, 1], [0, 2], [0, 2], [1, 1], [1, 0]]},
     ([1, 2], [2, 1])),
]


@pytest.mark.parametrize("spec, ab_L", ONE_LINE, ids=["F7", "F11", "F13", "F9"])
def test_reports_do_not_depend_on_the_order_of_multiples(monkeypatch, spec, ab_L):
    # every multiple's two reports, asked in ascending and in descending order
    # on fresh curves: the same reports, and two engine runs per second form,
    # the guard's, one per shape at the representative over the line's
    # l-local ring, whichever multiple asks first
    from g2frob import verify
    from g2frob.funcfield import LocalRing, curve_from_spec

    engine, rings = [], []
    real_matrix = verify.p_curvature_matrix

    def counted_matrix(conn):
        engine.append(conn.is_dual)
        rings.append(conn.ring)
        return real_matrix(conn)

    monkeypatch.setattr(verify, "p_curvature_matrix", counted_matrix)

    def reports(order):
        cv = curve_from_spec(spec)
        F, p = cv.field, cv.p
        assert len(enumerate_p_torsion(cv, "semilinear").nonzero(F)) == p - 1
        ab_L_raw = tuple(F.from_coeffs(c) for c in ab_L)
        forms = ((F.one(), F.zero()), (F.zero(), F.one()))
        out = {}
        engine.clear()
        rings.clear()
        for s in order(range(1, p)):
            ab_s = tuple(F.mul(F.from_int(s), c) for c in ab_L_raw)
            for i, ab in enumerate(forms):
                out[s, i] = [_untimed(check(cv, ab_s, ab))
                             for check in (check_two_sums, check_offdiag_closed_forms)]
        assert engine.count(False) == 2 * len(forms)
        assert all(isinstance(R, LocalRing) for R in rings)
        return out

    assert reports(list) == reports(reversed)


def _untimed(report):
    d = report.to_jsonable()
    del d["timing"]
    return d


def test_offdiag_reports_each_multiple_where_the_table_differs(monkeypatch):
    # the row t = 1 of the line table with its S1 moved by one: the guard
    # disagrees, so every multiple's report comes from the per-multiple
    # engine on that multiple's chart, one call each, with that engine's
    # psi as witnesses; the engine and the sums are right, so every report
    # holds, and recheck, which reruns that engine, agrees
    from g2frob import verify
    from g2frob.funcfield import curve_from_spec, line_representative
    from g2frob.verify import _ffe_witness, offdiag_engine

    real_table, real_engine, charts = verify._line_table, verify.offdiag_engine, []

    def moved(curve, rep, omega):
        R, x, numerators, J, rows = real_table(curve, rep, omega)
        one = curve.field.from_int(1)
        rows = {**rows, one: rows[one][:3] + (R.add(rows[one][3], R.one()),)}
        return R, x, numerators, J, rows

    def counted_engine(curve, chart, x):
        charts.append(chart)
        return real_engine(curve, chart, x)

    monkeypatch.setattr(verify, "_line_table", moved)
    monkeypatch.setattr(verify, "offdiag_engine", counted_engine)
    spec, ab_L = ONE_LINE[0]
    cv = curve_from_spec(spec)
    F, omega = cv.field, cv.global_form(cv.field.one(), cv.field.zero())
    t0, _ = line_representative(cv.global_form(*(F.from_coeffs(c) for c in ab_L)))
    for c in range(1, cv.p):
        ab_s = tuple(F.mul(F.mul(F.from_int(c), t0), F.from_coeffs(a)) for a in ab_L)
        charts.clear()
        report = check_offdiag_closed_forms(cv, ab_s, (F.one(), F.zero()))
        chart = cv.global_form(*ab_s)
        assert charts == [chart] and report.status == "holds"
        upper, lower = offdiag_engine(cv, chart, omega.ratio(chart))
        assert report.witness["psiUpperOffdiag"] == _ffe_witness(upper[0][1])
        assert report.witness["psiLowerOffdiag"] == _ffe_witness(lower[0][1])
        assert recheck(cv, report)


# (i, j) of the entry moved, and whether the upper shape [[0, x], [0, 1]]
# (else the lower [[1, x], [0, 0]]) carries it
MUTANTS = [(i, j, upper) for upper in (True, False) for i in range(2) for j in range(2)]


@pytest.mark.parametrize("i, j, upper", MUTANTS,
                         ids=[f"{'upper' if u else 'lower'}{i}{j}" for i, j, u in MUTANTS])
def test_offdiag_never_holds_when_the_engine_moves_one_entry(monkeypatch, i, j, upper):
    # the engine with one entry of one shape moved by one, over the l-local
    # ring of the guard and over K alike: no multiple's report holds, and
    # recheck, which reruns the moved engine, agrees with each
    from g2frob import verify
    from g2frob.funcfield import curve_from_spec
    from g2frob.pcurvature import PCurvature

    real_matrix = verify.p_curvature_matrix

    def moved(conn):
        psi, R = real_matrix(conn), conn.ring
        if R.is_zero(conn.entries[1][1]) != upper:  # the upper shape has T[1][1] = 1
            rows = [list(row) for row in psi.matrix]
            rows[i][j] = R.add(rows[i][j], R.one())
            psi = PCurvature(matrix=tuple(map(tuple, rows)), chart=psi.chart, ring=R)
        return psi

    monkeypatch.setattr(verify, "p_curvature_matrix", moved)
    spec, ab_L = ONE_LINE[0]
    cv = curve_from_spec(spec)
    F = cv.field
    for c in range(1, cv.p):
        ab_s = tuple(F.mul(F.from_int(c), F.from_coeffs(a)) for a in ab_L)
        for ab in ((F.one(), F.zero()), (F.zero(), F.one())):
            report = check_offdiag_closed_forms(cv, ab_s, ab)
            assert report.status == "violated"
            assert recheck(cv, report)


def test_recheck_of_a_linear_report_reruns_the_engine(monkeypatch):
    # the closed form with the images of w11 dropped, as if the diagonal
    # t (u_(p-1) - x) were lost: every w11 solves, so the report is violated
    # with p^2 times the family, and recheck, which solves on the K[eps]
    # engine's images, disagrees with it and agrees with the true report;
    # while the fault stands, recheck's comparison of the closed form's
    # images with the engine's rejects both reports
    from g2frob import verify

    cv = make_curve(make_field(7), CERTIFIED[7][0])
    ab_L = _flat_pair(cv)
    _, good = rigidity_scan(cv, ab_L, mode="linear")
    real_images = verify._rigidity_images

    def diagonal_dropped(curve, omega_L):
        R, images = real_images(curve, omega_L)
        n = 2 * curve.field.degree  # the unknowns of w11 come first
        return R, [tuple(R.zero() for _ in image) for image in images[:n]] + images[n:]

    with monkeypatch.context() as m:
        m.setattr(verify, "_rigidity_images", diagonal_dropped)
        _, bad = rigidity_scan(cv, ab_L, mode="linear")
        assert not recheck(cv, good) and not recheck(cv, bad)
    assert good.status == "holds" and good.witness["solutionCount"] == 49
    assert bad.status == "violated" and bad.witness["solutionCount"] == 49 * 49
    assert recheck(cv, good) and not recheck(cv, bad)


@pytest.mark.parametrize("spec, ab_L", ONE_LINE, ids=["F7", "F11", "F13", "F9"])
def test_standalone_linear_rigidity_builds_two_orbits_and_no_engine(monkeypatch, spec, ab_L):
    # no lemma check before it: the solve fills the line tables of the second
    # forms (1, 0) and (0, 1) from the line's one orbit, and runs no engine at
    # all
    from g2frob import verify
    from g2frob.funcfield import curve_from_spec

    orbits, engine = [], []
    real_orbit, real_matrix = verify._orbit, verify.p_curvature_matrix

    def counted_orbit(*args):
        orbits.append(args)
        return real_orbit(*args)

    def counted_matrix(conn):
        engine.append(conn.is_dual)
        return real_matrix(conn)

    monkeypatch.setattr(verify, "_orbit", counted_orbit)
    monkeypatch.setattr(verify, "p_curvature_matrix", counted_matrix)
    cv = curve_from_spec(spec)
    F = cv.field
    assert len(enumerate_p_torsion(cv, "semilinear").nonzero(F)) == cv.p - 1
    _, report = rigidity_scan(cv, tuple(F.from_coeffs(c) for c in ab_L), mode="linear")
    assert len(orbits) == 1 and engine == []
    # the K[eps] engine finds the same solutions (the F_11 curve's exceed the
    # family), one run per unknown
    assert recheck(cv, report)
    assert engine.count(True) == 6 * F.degree


# (field, seed of random_curve, whether R.make strips a power of l off some
# nonzero row): each curve has a nonzero flat line
PACKED_CASES = [((3, 1), 6, False), ((5, 1), 1, False), ((7, 1), 60, True),
                ((11, 1), 1, False), ((13, 1), 69, True), ((3, 2), 1, False),
                ((5, 2), 2, False)]


def _rows_by_loop(cv, R, x, numerators, J):
    """The per-t loop: S1(t) = sum_k t^(k+1) (A_k, B_k) over l^J, one row at
    a time, then canonical in R, and in K as the gcd normal form of its
    Taylor shift over poly.pow's (x - r)^j."""
    from g2frob import poly
    from g2frob.funcfield import hyperelliptic_involution

    F, rows = cv.field, {}
    for c in range(1, cv.p):
        tc = ct = F.from_int(c)
        A = B = ()
        for a, b in numerators:
            ct = F.mul(ct, tc)
            A = poly.add(F, A, poly.scale(F, a, ct))
            B = poly.add(F, B, poly.scale(F, b, ct))
        s1 = R.make(A, B, J)
        D = poly.pow(F, (F.neg(R.r), F.one()), s1[2])
        S1 = cv._make(R.to_x(s1[0]), R.to_x(s1[1]), D)
        rows[tc] = (cv.mul(cv.constant(tc), x), S1, hyperelliptic_involution(S1), s1)
    return rows


@pytest.mark.parametrize("field, seed, strips", PACKED_CASES,
                         ids=["F3", "F5", "F7", "F11", "F13", "F9", "F25"])
def test_packed_line_table_against_the_per_t_loop(field, seed, strips):
    # every row of the packed table, raw for raw, against the per-t loop,
    # for the basis forms and the flat form itself, whose x is constant and
    # whose rows are all zero; on the F_7 and F_13 curves some nonzero rows
    # lose a power of l to R.make
    import random

    from g2frob import random_curve
    from g2frob.funcfield import line_representative
    from g2frob.verify import _line_table

    F = make_field(*field)
    cv = random_curve(F, random.Random(seed))
    ab_L = enumerate_p_torsion(cv, "semilinear").nonzero(F)[0]
    _, rep = line_representative(cv.global_form(*ab_L))
    stripped = zero = 0
    for ab in ((F.one(), F.zero()), (F.zero(), F.one()), ab_L):
        R, x, numerators, J, rows = _line_table(cv, rep, cv.global_form(*ab))
        want = _rows_by_loop(cv, R, x, numerators, J)
        assert list(rows) == list(want)
        for t, row in rows.items():
            assert [(u.A, u.B, u.D) for u in row[:3]] == [(u.A, u.B, u.D) for u in want[t][:3]]
            assert row[3] == want[t][3]
            nonzero = not R.is_zero(row[3])
            stripped += nonzero and row[3][2] < J
            zero += not nonzero
    assert zero >= cv.p - 1
    assert (stripped > 0) == strips


def _assert_rows_are_the_direct_sums(cv, ab_L, second_forms):
    """Every row of the line tables of omega_L's line and each second form
    against the direct orbit sums `two_sums` of the multiple s rep on a
    fresh curve: x_t, S1 and S2 at t = 1/s."""
    from g2frob import Curve, dual_derivation
    from g2frob.funcfield import line_representative
    from g2frob.verify import _line_table

    F, direct = cv.field, Curve(cv.field, cv.f)
    t0, rep = line_representative(cv.global_form(*ab_L))
    for ab in second_forms:
        rows = _line_table(cv, rep, cv.global_form(*ab))[4]
        for c in range(1, cv.p):
            chart = direct.global_form(*(F.mul(F.from_int(c), F.mul(t0, a)) for a in ab_L))
            x = direct.global_form(*ab).ratio(chart)
            want = (x,) + two_sums(direct, dual_derivation(chart), x)
            assert rows[F.from_int(pow(c, -1, cv.p))][:3] == want


def test_form_pair_reads_every_global_form_back():
    # every (a, b) over F_7 and F_9 back from its global form, on curves
    # where f has roots, so that (a + b x) y / f loses x - r for b != 0 and
    # f(-a/b) = 0
    from g2frob.verify import _form_pair

    for F, f in ((make_field(7), [0, 1, 0, 0, 3, 1]), (make_field(3, 2), [0, 2, 0, 0, 1, 1])):
        cv = make_curve(F, [F.from_int(c) for c in f])
        reduced = 0
        for a in F.elements():
            for b in F.elements():
                form = cv.global_form(a, b)
                reduced += len(form.g.D) < 6
                assert _form_pair(form) == (a, b)
        assert reduced >= F.size - 1


# curves whose flat line is that of dx/y (b = 0); coefficients in the basis
# of make_field(p, k)
DX_OVER_Y_LINES = [((5, 1), [1, 4, 0, 2, 0, 1]), ((7, 1), [1, 4, 6, 6, 6, 1]),
                   ((5, 2), [[3, 3], [0, 1], [4, 3], [1, 2], [0, 0], [1, 0]])]


@pytest.mark.parametrize("field, f", DX_OVER_Y_LINES, ids=["F5", "F7", "F25"])
def test_line_table_of_the_line_through_dx_over_y(field, f):
    # omega_L = a dx/y: omega* is (0, 1), and the second form (1, 0) lies on
    # omega_L's line, beta = 0: x is constant, the orbit and every row are
    # zero and J = 0; every row of both tables against two_sums
    from g2frob.funcfield import line_representative
    from g2frob.verify import _beta, _form_pair, _line_table, independent_basis_form

    F = make_field(*field)
    cv = make_curve(F, [F.from_coeffs(c if isinstance(c, list) else [c]) for c in f])
    ab_L = enumerate_p_torsion(cv, "semilinear").nonzero(F)[0]
    _, rep = line_representative(cv.global_form(*ab_L))
    assert F.is_zero(ab_L[1]) and independent_basis_form(F, ab_L) == (F.zero(), F.one())
    dx_y = (F.one(), F.zero())
    assert F.is_zero(_beta(F, _form_pair(rep), dx_y))
    R, x, numerators, J, rows = _line_table(cv, rep, cv.global_form(*dx_y))
    assert x.is_constant() and J == 0 and numerators == [((), ())] * (cv.p - 1)
    assert all(S1.is_zero() and S2.is_zero() and R.is_zero(s1) for _, S1, S2, s1 in rows.values())
    _assert_rows_are_the_direct_sums(cv, ab_L, [dx_y, (F.zero(), F.one())])


def test_line_tables_for_beta_outside_the_prime_field():
    # over F_9, second forms whose beta, their coordinate along omega*, lies
    # outside F_3: every row is beta times the line's one orbit table, and
    # equals the direct sums of every multiple on a fresh curve
    from g2frob.exactnum import coords
    from g2frob.funcfield import curve_from_spec, line_representative
    from g2frob.verify import _beta, _form_pair

    spec, ab_L = ONE_LINE[3]
    cv = curve_from_spec(spec)
    F = cv.field
    ab_L = tuple(F.from_coeffs(c) for c in ab_L)
    g = F.gen()
    forms = [(F.one(), F.zero()), (F.zero(), F.one()), (g, F.zero()), (F.one(), g),
             (g, F.mul(g, g))]
    ab_rep = _form_pair(line_representative(cv.global_form(*ab_L))[1])
    betas = [_beta(F, ab_rep, ab) for ab in forms]
    assert sum(any(coords(b)[1:]) for b in betas) >= 2
    _assert_rows_are_the_direct_sums(cv, ab_L, forms)


@pytest.mark.parametrize("spec, ab_L", ONE_LINE, ids=["F7", "F11", "F13", "F9"])
def test_a_sign_flipped_beta_reads_violated(monkeypatch, spec, ab_L):
    # beta negated: each second form's table is minus the true one, which a
    # two-sums report, asking only for nonzero sums, cannot see; the guard's
    # engine, run once per shape and second form, disagrees with the row
    # t = 1, so every off-diagonal report is the per-multiple engine's
    # against the negated sums and reads violated, which recheck refuses,
    # unless both sums vanish at that multiple
    from g2frob import verify
    from g2frob.funcfield import LocalRing, curve_from_spec

    real_beta, engine = verify._beta, []
    real_matrix = verify.p_curvature_matrix

    def counted_matrix(conn):
        engine.append(conn.ring)
        return real_matrix(conn)

    monkeypatch.setattr(verify, "_beta", lambda F, ab_rep, ab: F.neg(real_beta(F, ab_rep, ab)))
    monkeypatch.setattr(verify, "p_curvature_matrix", counted_matrix)
    cv = curve_from_spec(spec)
    F = cv.field
    ab_L = tuple(F.from_coeffs(c) for c in ab_L)
    violated = 0
    for c in range(1, cv.p):
        ab_s = tuple(F.mul(F.from_int(c), a) for a in ab_L)
        for ab in ((F.one(), F.zero()), (F.zero(), F.one())):
            report = check_offdiag_closed_forms(cv, ab_s, ab)
            w = report.witness
            vanish = not any(w[S][AB] for S in ("S1", "S2") for AB in ("A", "B"))
            assert report.status == ("holds" if vanish else "violated")
            assert recheck(cv, report) == vanish
            violated += not vanish
    assert violated >= cv.p - 1
    # the guard ran at the representative over the line's l-local ring once
    # per second form, where the first shape already disagrees; the other
    # runs are the per-multiple engine's over K
    assert sum(isinstance(R, LocalRing) for R in engine) == 2


def test_guard_runs_take_no_step_on_a_zero_entry(monkeypatch):
    # every LocalRing deriv, mul and add inside the guard's engine runs on
    # the p = 13 one-line curve gets nonzero operands: the engine reads T's
    # zero pattern and skips zero entries of T and of T0^(n)
    from g2frob import verify
    from g2frob.funcfield import LocalRing, curve_from_spec

    calls, inside = [], []
    real_matrix = verify.p_curvature_matrix

    def marked_matrix(conn):
        inside.append(conn)
        try:
            return real_matrix(conn)
        finally:
            inside.pop()

    def recorded(name):
        real = getattr(LocalRing, name)

        def op(self, u, v):
            if inside:
                calls.append((name, self.is_zero(u) or
                              (name != "deriv" and self.is_zero(v))))
            return real(self, u, v)
        return op

    monkeypatch.setattr(verify, "p_curvature_matrix", marked_matrix)
    for name in ("deriv", "mul", "add"):
        monkeypatch.setattr(LocalRing, name, recorded(name))
    spec, ab_L = ONE_LINE[2]
    cv = curve_from_spec(spec)
    F = cv.field
    for ab in ((F.one(), F.zero()), (F.zero(), F.one())):
        report = check_offdiag_closed_forms(cv, tuple(F.from_coeffs(c) for c in ab_L), ab)
        assert report.status == "holds"
    # two forms, two shapes, p - 1 steps, each with two nonzero entries to
    # derive (a_n or b_n, and the constant 1) of the four
    assert sum(name == "deriv" for name, _ in calls) == 8 * (cv.p - 1)
    assert not any(zero for _, zero in calls)


def _listed_verdict(curve, ab_L, solset):
    from g2frob.verify import _trivial_family

    sols, family = solset.solutions, _trivial_family(curve.field, ab_L)
    return "holds" if sols == family else "violated", len(sols), len(family), sols == family


def _report_verdict(report):
    w = report.witness
    return report.status, w["solutionCount"], w["familyCount"], w["isTrivialFamily"]


# the unknowns' images with a fault (n = 2k unknowns per slot: w11, w12, w21)
_IMAGE_FAULTS = {
    "none": lambda R, im, n: im,
    # w11's images dropped: every w11 solves, a kernel larger than the family
    "diagonal_dropped": lambda R, im, n: [tuple(R.zero() for _ in e) for e in im[:n]] + im[n:],
    # w11 and w12 exchanged: a kernel of the family's size with w11 != 0
    "w11_w12_exchanged": lambda R, im, n: im[n:2 * n] + im[:n] + im[2 * n:],
    # w12's a and b unknowns exchanged: w12 leaves the F-line of omega_L
    "w12_a_b_exchanged": lambda R, im, n: (im[:n] + im[n + n // 2:2 * n] + im[n:n + n // 2]
                                           + im[2 * n:]),
    # w12 and w21 exchanged (S1 read as S2 and back): the kernel keeps its
    # size and the verdict its status
    "w12_w21_exchanged": lambda R, im, n: im[:n] + im[2 * n:3 * n] + im[n:2 * n],
    # w21 pinned to zero by entries of its own: a kernel inside the family
    "w21_pinned": lambda R, im, n: [e + tuple(R.one() if i == 2 * n + m else R.zero()
                                              for m in range(n)) for i, e in enumerate(im)],
}


@pytest.mark.parametrize("spec, ab_L", ONE_LINE, ids=["F7", "F11", "F13", "F9"])
def test_linear_rigidity_verdict_from_the_basis_matches_the_listed_set(monkeypatch, spec, ab_L):
    # the report, read off the kernel basis, against the verdict from the
    # listed solution set, which runs through verify.enumerate_span_mod_p
    # only when read, with the true images and with each fault
    from g2frob import verify
    from g2frob.funcfield import curve_from_spec

    listed = []
    real_span, real_images = verify.enumerate_span_mod_p, verify._rigidity_images
    monkeypatch.setattr(verify, "enumerate_span_mod_p",
                        lambda *args: listed.append(args) or real_span(*args))
    statuses, rechecked = {}, {}
    for name, fault in _IMAGE_FAULTS.items():
        def images(curve, omega_L, fault=fault):
            R, im = real_images(curve, omega_L)
            return R, fault(R, im, 2 * curve.field.degree)

        monkeypatch.setattr(verify, "_rigidity_images", images)
        cv = curve_from_spec(spec)
        ab = tuple(cv.field.from_coeffs(c) for c in ab_L)
        solset, report = rigidity_scan(cv, ab, mode="linear")
        assert listed == [] and len(solset) == report.witness["solutionCount"]
        assert _report_verdict(report) == _listed_verdict(cv, ab, solset)
        assert len(listed) == 1
        listed.clear()
        statuses[name] = report.status, report.witness["solutionCount"]
        # recheck compares the closed form's images with the engine's, so it
        # rejects every fault that moves an image (over F_9 the w12 images of
        # a and b coincide, and exchanging them moves none)
        R, true_images = real_images(cv, cv.global_form(*ab))
        rechecked[name] = recheck(cv, report)
        assert rechecked[name] == (fault(R, true_images, 2 * cv.field.degree) == true_images)
    # the w12/w21 exchange keeps the status and the count, so only the images
    # tell it apart
    assert statuses["w12_w21_exchanged"] == statuses["none"]
    assert rechecked["none"] and not rechecked["w12_w21_exchanged"]
    assert statuses["diagonal_dropped"][0] == statuses["w11_w12_exchanged"][0] == "violated"
    assert statuses["w21_pinned"][0] == "violated"


@pytest.mark.parametrize("argv", [
    "verify --p 13 --f 11,7,3,9,6,1 --rigidity linear",
    # over F_(3^10) the trivial family alone has q^2 = 3^20 > 2^16 triples,
    # past the span guard; the linear rigidity solve lists no span, so the
    # run completes
    "verify --p 3 --ext-k 10 --f 2,0,1,1,1,1",
], ids=["F13", "F3^10"])
def test_cli_verify_lists_no_rigidity_span(capsys, monkeypatch, argv):
    from g2frob import verify
    from g2frob.cli import main

    listed = []
    real_span = verify.enumerate_span_mod_p
    monkeypatch.setattr(verify, "enumerate_span_mod_p",
                        lambda *args: listed.append(args) or real_span(*args))
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    rigidity = json.loads(out)["rigidity"]
    assert [r["lemmaId"] for r in rigidity] == ["split-connection-rigidity"]
    assert listed == []
