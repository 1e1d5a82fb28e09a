"""Acceptance suite: one test per criterion, one PASS line printed per test.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 2 note.  Over the curve's own prime field the number of flat
global forms is p^dim ker(A - I) where A is the Cartier-Manin matrix: it
equals p^2 only when A fixes the whole plane, ordinary or not (concrete
counterexample: p=3, f = x^5+x^4+x^3+2x+2 is ordinary with det A = 1 yet
only the zero form is rational over F_3).  The p^2 <=> ordinary equivalence
is a geometric statement; it is verified here by (a) the exact rational law
against the brute enumeration, (b) brute == semilinear everywhere, (c)
p-rank 2 <=> det A != 0, and (d) direct semilinear enumeration over the
stabilization extension F_{p^k*} on a subsample, where the count reaches
exactly p^2 for ordinary curves.

Criterion 6 note.  The scalar-shift identity asserted for every scanned
deformation is psi(D) - psi(D') = eps (f11 - theta^(p-1) f11) I; over the
dual numbers the p-th power of an eps-multiple vanishes, so no (f11)^p term
can appear.  A variant with a +(f11)^p + theta^(p-1)(f11) coefficient is
tallied informationally on a subsample; it holds only on the deformations
where the two coefficients happen to agree.
"""

import json
import time
from math import comb

from g2frob import (
    ConnectionMatrix,
    Derivation,
    DualRing,
    PrimeField,
    cartier_manin,
    coefficient_table,
    counts,
    dual_derivation,
    enumerate_p_torsion,
    iterate_derivation,
    make_curve,
    make_field,
    p_curvature_matrix,
    p_curvature_rank1,
    p_rank,
    pair,
    random_curve,
    stabilization_degree,
)
from g2frob.cli import main as cli_main
from g2frob.linalg import kernel_basis_mod_p
from g2frob.verify import check_offdiag_closed_forms, check_two_sums, rigidity_scan

from conftest import CERTIFIED, make_random_element, rng_for

# populated by criterion 2, consumed by criterion 3
_FOUND_TORSION = {}


def _report(n, label, t0, extra=""):
    dt = time.perf_counter() - t0
    suffix = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {n} PASS: {label} ({dt:.2f}s){suffix}")


def test_criterion_1_formula_suite():
    t0 = time.perf_counter()
    c3 = counts(3)
    assert c3["baseLocusLength"] == 16
    assert c3["verschiebungDegree"] == 11
    assert c3["hbarDegree"] == 4
    assert c3["preimageDegree"] == 12
    assert counts(5, 2)["tauInvariantCount"] == 48
    for p in (3, 5, 7, 11, 13):
        c = counts(p)
        assert c["preimageDegree"] == 4 * p == 4 + 2 * (2 * (p - 1))
        assert c["consistency"] is True
    assert time.perf_counter() - t0 < 1.0
    _report(1, "closed-form counts exact, consistency 4p = 4 + 2*2(p-1)", t0)


def test_criterion_2_torsion_count_vs_ordinarity():
    t0 = time.perf_counter()
    checked = ext_checked = 0
    for p in (3, 5, 7):
        F = PrimeField(p)
        rng = rng_for(f"acceptance-2-{p}")
        curves = [random_curve(F, rng) for _ in range(50)]
        _FOUND_TORSION[p] = []
        ext_done = 0
        for cv in curves:
            brute = enumerate_p_torsion(cv, "brute")
            semi = enumerate_p_torsion(cv, "semilinear")
            assert brute.forms == semi.forms
            assert brute.is_subspace(F)
            A = cartier_manin(cv)
            rows = [
                [(A.matrix[0][0] - 1) % p, A.matrix[0][1] % p],
                [A.matrix[1][0] % p, (A.matrix[1][1] - 1) % p],
            ]
            fixed_dim = len(kernel_basis_mod_p(rows, 2, p))
            assert len(brute) == p ** fixed_dim  # rational-count law
            ordinary = A.is_invertible()
            assert ordinary == (p_rank(cv) == 2)
            _FOUND_TORSION[p].append((cv, brute))
            checked += 1
            # direct geometric verification where the extension stays small
            if ext_done < 3:
                kstar = stabilization_degree(cv)
                if kstar == 1:
                    continue  # already fully rational; the law covered it
                if kstar <= 6:
                    Fk = make_field(p, kstar)
                    cvk = make_curve(Fk, [Fk.from_int(c) for c in _f_ints(cv)])
                    tsk = enumerate_p_torsion(cvk, "semilinear")
                    assert len(tsk) == p ** p_rank(cv)
                    if ordinary:
                        assert len(tsk) == p * p
                    ext_done += 1
                    ext_checked += 1
    assert time.perf_counter() - t0 < 60.0
    _report(
        2,
        "torsion enumeration matches ordinarity (rational law + geometric "
        "count over the stabilization extension)",
        t0,
        extra=f"{checked} curves, {ext_checked} extension enumerations",
    )


def _f_ints(cv):
    coeffs = list(cv.f) + [0] * (6 - len(cv.f))
    return [c if isinstance(c, int) else c[0] for c in coeffs]


def test_criterion_3_flatness_identity():
    t0 = time.perf_counter()
    total = 0
    sources = dict(_FOUND_TORSION)
    if not sources:  # criterion 2 not run in this session; use pinned curves
        for p, (f, _) in CERTIFIED.items():
            cv = make_curve(PrimeField(p), f)
            sources[p] = [(cv, enumerate_p_torsion(cv, "brute"))]
    for p, pairs in sources.items():
        for cv, ts in pairs:
            for a, b in ts.nonzero(cv.field):
                omega_L = cv.global_form(a, b)
                theta_L = dual_derivation(omega_L)
                theta_Lp = Derivation(
                    cv, iterate_derivation(theta_L, cv.x(), cv.p)
                )
                assert pair(omega_L, theta_Lp) == cv.one()
                total += 1
    assert total > 0
    _report(3, "pair(omega_L, theta_L^p) = 1 for every nonzero flat form", t0,
            extra=f"{total} forms")


def test_criterion_4_engine_oracle_equivalence():
    t0 = time.perf_counter()
    for p in (3, 5, 7):
        cv = make_curve(PrimeField(p), CERTIFIED[p][0])
        omega0 = cv.basis_forms()[0]
        rng = rng_for(f"acceptance-4-{p}")
        for _ in range(100):
            T = make_random_element(cv, rng, max_deg=2)
            closed = p_curvature_rank1(T, omega0)
            rec = p_curvature_matrix(ConnectionMatrix(cv, ((T,),), omega0))
            assert rec[0, 0] == closed
        one, zero = cv.one(), cv.zero()
        ident = ((one, zero), (zero, one))
        for _ in range(20):
            T = tuple(
                tuple(make_random_element(cv, rng, max_deg=1) for _ in range(2))
                for _ in range(2)
            )
            conn = ConnectionMatrix(cv, T, omega0)
            tables = {n: coefficient_table(conn, n) for n in range(1, p + 1)}
            for n in range(1, p + 1):
                assert tables[n][n] == ident
                for r in range(0, n + 1):
                    c = cv.constant(cv.field.from_int(comb(n, r)))
                    base = tables[r][0] if r >= 1 else ident
                    for i in range(2):
                        for j in range(2):
                            assert tables[n][n - r][i][j] == c * base[i][j]
    _report(4, "rank-1 closed form == recursion (300 inputs); "
               "table identities for all n <= p (60 inputs)", t0)


def test_criterion_5_two_sums_with_engine_offdiagonals():
    t0 = time.perf_counter()
    total = 0
    for p in (3, 5):
        cv = make_curve(PrimeField(p), CERTIFIED[p][0])
        F = cv.field
        ts = enumerate_p_torsion(cv, "brute")
        nonzero = ts.nonzero(F)
        assert nonzero, "certified curve must carry nonzero rational flat forms"
        basis = [(F.one(), F.zero()), (F.zero(), F.one())]
        for ab_L in nonzero:
            for ab in basis:
                dep = F.is_zero(
                    F.sub(F.mul(ab_L[0], ab[1]), F.mul(ab_L[1], ab[0]))
                )
                if dep:
                    continue
                rep = check_two_sums(cv, ab_L, ab)
                assert rep.status == "holds"  # S1 != 0 and S2 != 0
                rep2 = check_offdiag_closed_forms(cv, ab_L, ab)
                assert rep2.status == "holds"  # engine psi == S1/S2 entrywise
                total += 1
    _report(5, "S1, S2 nonzero and engine off-diagonals match exactly", t0,
            extra=f"{total} (omega_L, omega) pairs over p in {{3, 5}}")


def test_criterion_6_rigidity_scan_p3():
    t0 = time.perf_counter()
    p = 3
    cv = make_curve(PrimeField(p), CERTIFIED[p][0])
    F = cv.field
    ab_L = tuple(F.from_int(c) for c in CERTIFIED[p][1])
    sols, rep = rigidity_scan(cv, ab_L, mode="brute")
    assert rep.status == "holds"
    assert len(sols) == 9 and sols.is_trivial_family
    ident = rep.witness["scalarShiftIdentity"]
    assert ident["checked"] == 729 and ident["held"] == 729
    assert rep.witness["closedFormsSampled"] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0

    # informational tally: the variant coefficient (f11)^p + theta^(p-1)(f11)
    # - f11 instead of f11 - theta^(p-1)(f11); it fails off the locus where
    # the two agree, which is why the shift identity above is the one asserted
    omega_L = cv.global_form(*ab_L)
    theta_L = dual_derivation(omega_L)
    D = DualRing(cv)
    z = cv.zero()
    variant_holds = variant_total = 0
    pairs = [(F.from_int(a), F.from_int(b)) for a in range(3) for b in range(3)]
    for ab11 in pairs:
        for ab12 in pairs[:3]:
            f11 = cv.global_form(*ab11).ratio(omega_L)
            f12 = cv.global_form(*ab12).ratio(omega_L)
            f21 = cv.zero()
            M = ConnectionMatrix(D, (((z, f11), (z, f12)),
                                     ((z, f21), (cv.one(), -f11))),
                                 omega_L)
            two = cv.constant(F.from_int(2))
            Mp = ConnectionMatrix(D, (((z, two * f11), (z, f12)),
                                      ((z, f21), (cv.one(), cv.zero()))),
                                  omega_L)
            lhs = p_curvature_matrix(M)
            rhs = p_curvature_matrix(Mp)
            coeff = cv.pow(f11, p) + theta_L.apply_n(f11, p - 1) - f11
            ok = True
            for i in range(2):
                for j in range(2):
                    body, slope = D.sub(lhs[i, j], rhs[i, j])
                    want = coeff if i == j else cv.zero()
                    if not (body.is_zero() and slope == want):
                        ok = False
            variant_total += 1
            variant_holds += ok
    _report(
        6,
        "dual-number solution set is exactly the 9-element conjugate-trivial "
        "family; shift identity held for all 729 deformations",
        t0,
        extra=f"variant coefficient with +(f11)^p holds on only "
        f"{variant_holds}/{variant_total} sampled deformations",
    )


def test_criterion_7_scan_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    payloads = []
    for i, workers in enumerate((1, 1, 4)):
        out = tmp_path / f"det{i}.jsonl"
        code = cli_main([
            "scan", "--p", "5", "--count", "12", "--seed", "2024",
            "--workers", str(workers), "--out", str(out),
        ])
        agg = capsys.readouterr().out
        assert code == 0
        agg_obj = json.loads(agg)
        agg_obj.pop("timing", None)
        payloads.append((out.read_bytes(), json.dumps(agg_obj, sort_keys=True)))
    assert payloads[0] == payloads[1] == payloads[2]
    _report(7, "scan output byte-identical across reruns and workers 1 vs 4",
            t0)
