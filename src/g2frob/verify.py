"""Executable checks for the flat-deformation lemmas on a certified curve.

Everything here is phrased as a *report*, not an assertion: the statements
being checked hold for sufficiently general curves, and a small-field curve
is allowed to be special.  A report carries its witness data, so a violated
status can be re-verified independently by re-running the stated computation
on the witness, on a fresh copy of the curve (see `recheck`).

The three checks take each form as the pair (a, b) of (a + b x) dx/y, raws
of the curve's field or ints, and a witness names it as {"a", "b"}.

* check_two_sums: for a nonzero flat form omega_L with dual derivation
  theta_L, and an independent global form omega with ratio x = omega/omega_L,
  neither
      S1 = sum_(k=1..p-1) theta_L^k(x)
  nor
      S2 = sum_(k=1..p-1) C(p-1, k) theta_L^k(x)
  vanishes on a general curve.

* check_offdiag_closed_forms: the engine's p-curvature of the two triangular
  connections [[0, x], [0, 1]] and [[1, x], [0, 0]] (chart omega_L) must be
  [[0, S1], [0, 0]] and [[0, S2], [0, 0]] respectively.

* rigidity_scan: over the dual numbers, the traceless first-order
  deformations T = [[w11, w12], [w21, -w11]] (entries global forms) of the
  split connection diag(d, d + omega_L) with vanishing p-curvature should be
  exactly the conjugation-trivial family {(0, c1 omega_L, c2 omega_L)}.
  The linear mode solves for them as an F_p-linear kernel, psi in closed
  form (below).  The brute mode runs the engine on every deformation and
  verifies, for each, the scalar-shift identity
      psi(nabla_eps) = psi(nabla'_eps) + eps (f11 - theta_L^(p-1)(f11)) I
  where nabla'_eps drops the diagonal part (replacing [[f11, .], [., -f11]]
  by [[2 f11, .], [., 0]]); the eps^p = 0 collapse makes the p-th power of
  f11 drop out of this identity.  It also cross-checks the closed forms of
  the auxiliary recursion R0^(n+1) = (theta_L + J) R0^(n) + R J on sampled
  deformations.

One theta_L-orbit per F_p-line.  The checks depend on omega_L only through
its F_p-line, and `verify` asks for all p - 1 nonzero multiples of each
line.  Let omega_L be the line's representative and omega = s omega_L,
s in F_p^*, a multiple, with t = 1/s (`funcfield.line_representative`
returns t and omega_L for omega).  Then

* theta_s = t theta_L: <s omega_L, t theta_L> = <omega_L, theta_L> = 1.
* x_s = omega'/omega = t x for a second form omega' with x = omega'/omega_L.
* psi is F_p-linear, so omega is flat exactly when omega_L is, and the
  chart constants of omega and omega_L agree (`pcurvature`): one per line,
  which also decides flatness (`is_flat`).
* theta_s^k(x_s) = t^(k+1) u_k with u_k = theta_L^k(x), so
      S1(s) = sum_k t^(k+1) u_k,   S2(s) = sum_k (-1)^k t^(k+1) u_k,
  since C(p-1, k) = prod_(j<=k) (p-j)/j = (-1)^k mod p.

One orbit per line, one table per (line, second form), one entry per form
and per pair, in the curve's memo.  With rep = (a_L + b_L x) dx/y, let
omega* = (1, 0) if b_L != 0, else (0, 1) (`independent_basis_form`): rep
and omega* are an F-basis of the global forms, so a second form splits as
omega = alpha rep + beta omega*, with beta = det(rep, omega) /
det(rep, omega*) (`_beta`), and x = omega/rep = alpha + beta x* for
x* = omega*/rep.  theta_L is F-linear and kills the constant alpha, so
    u_k = theta_L^k(x) = beta theta_L^k(x*)   for k >= 1.
beta in F is a constant: scaling (A, B) by beta != 0 keeps gcd(A, B, D)
and D monic, and l divides beta A and beta B exactly when it divides A and
B.  So the orbit numerators over the same l^J, S1, S2 and each row's
l-coordinates are beta times those of x*, normal form for normal form, and
beta = 0 (omega on the line of rep, x constant) gives zero rows and J = 0.
The line's one orbit table (`_orbit_table`) takes the orbit
u_1, ..., u_(p-1) of x* over one power l^J and holds, for every t in
F_p^*, S1 in K and in l-coordinates.  A second form's table (`_line_table`)
is beta times it, with x_t = t x computed directly and S2 read off S1
(below).  S1(t) = sum_k t^(k+1) (A_k, B_k) scales fixed vectors by F_p
ints, so one packed pass (`_fp_combinations`) over the numerators and
their Taylor shifts to the x-basis gives every row; where `LocalRing.make`
strips l^m off a row, (x - r)^m divides its x-basis numerators.  S2 is
S1's image under y -> -y: theta_L(x) = c y / l^e is odd and theta_L(y)
even, so theta_L anticommutes with y -> -y and u_k, x in F(x), has the
parity of k.  A report reads its form's entry (representative,
torsion-checked once per line) and its pair's (row t, witnesses of x, S1
and S2), which the off-diagonal report shares where its guard agrees
(`_lemma_data`); the guard runs the engine on every (line, second form),
so it checks the scaling too.

All of it runs in the l-coordinates of theta_L's `funcfield.LocalRing`, so
omega_L must be a global form: the orbit, the sums, the engine guard of the
off-diagonal check (below) and the brute rigidity scan.  The linear
rigidity solve reads its psi off the line tables (below) and its F_p rows
off the l-coordinates (`cartier.fp_kernel`).

`two_sums`, the direct per-form orbit sum, `offdiag_engine`, the engine
on one multiple's own chart, and `_engine_images`, the K[eps] engine on
each unknown of the rigidity solve, stay as the oracles that `recheck` and
the tests compare with.

The off-diagonal check in closed form.  On the flat chart omega_s = s rep,
with theta = theta_s and x_s = omega/omega_s, the engine computes
T0^(p) - c T with T0^(1) = T, T0^(n+1) = T T0^(n) + theta(T0^(n)), and the
chart constant c is 1.  Both shapes keep their zero second row:

* upper, T = [[0, x_s], [0, 1]]: T0^(n) = [[0, a_n], [0, 1]] with a_1 = x_s
  and a_(n+1) = x_s + theta(a_n), so a_p = sum_(k<p) theta^k(x_s) and
      psi = [[0, a_p - x_s], [0, 0]] = [[0, S1(s)], [0, 0]];
* lower, T = [[1, x_s], [0, 0]]: T0^(n) = [[1, b_n], [0, 0]] with b_1 = x_s
  and b_(n+1) = (1 + theta)(b_n), so b_p = (1 + theta)^(p-1)(x_s) and
      psi = [[0, b_p - x_s], [0, 0]] = [[0, S2(s)], [0, 0]],
  since (1 + theta)^(p-1) = sum_k C(p-1, k) theta^k.

So on a flat line the report holds at every multiple unless the engine or
the line table is wrong, and its witnesses are S1(s) and S2(s), the row
t = 1/s.  As the executable guard, the engine runs once per shape and
(line, second form), at the representative s = 1 over R
(`_offdiag_agrees`), and all four entries are compared with the row t = 1,
which keeps S1 in l-coordinates (S2 there is (A, -B, j)).  Where the guard
disagrees, each multiple's report is the per-multiple engine's on its own
chart (`offdiag_engine`), so a violated report carries the engine's psi.
`recheck` reruns that engine on the witness's own chart.

The linear rigidity solve in closed form.  On the flat chart omega_L, with
theta = theta_L, the deformation is T = J + eps N with J = diag(0, 1) and
N = [[f11, f12], [f21, -f11]].  The engine computes T0^(p) - c T with
T0^(1) = T, T0^(n+1) = T T0^(n) + theta(T0^(n)), and the chart constant c
is 1 because omega_L is flat (`pcurvature.is_flat`).  J J = J and
theta(J) = 0, so T0^(n) = J + eps Q^(n) with

    Q^(1) = N,   Q^(n+1) = J Q^(n) + N J + theta(Q^(n)),

and psi has body J - J = 0 and slope Q^(p) - N.  J Q keeps the second row
of Q and N J = [[0, f12], [0, -f11]], so entry by entry, by induction on n,

    Q11^(n) = theta^(n-1)(f11),          Q12^(n) = sum_(k<n) theta^k(f12),
    Q21^(n) = (1 + theta)^(n-1)(f21),    Q22^(n) = -sum_(m<n) (1 + theta)^m(f11).

At n = p, (1 + theta)^(p-1) = sum_k C(p-1, k) theta^k = sum_k (-1)^k theta^k,
and sum_(m<p) (1 + theta)^m = theta^(p-1) in the domain F_p[theta], since
theta times either side is (1 + theta)^p - 1 = theta^p.  So the slope is

    [[theta^(p-1)(f11) - f11,               sum_(k=1..p-1) theta^k(f12)],
     [sum_(k=1..p-1) (-1)^k theta^k(f21),   f11 - theta^(p-1)(f11)     ]].

Let omega_L = s rep, t = 1/s, and f = omega/omega_L = t x with
x = omega/rep for a second form omega.  Then theta_L^k(t x) = t^(k+1) u_k
with u_k = theta_rep^k(x), and t^p = t, so f in slot 11 has the diagonal
+-t (u_(p-1) - x), f in slot 12 has S1(s) and f in slot 21 has S2(s): the
row t of the line table, whose last orbit numerator is u_(p-1).  theta is
F-linear, so the form e omega, e in F, has e times omega's image.  The
unknowns of the solve are the plane_basis forms in each slot, so the line
tables of the second forms (1, 0) and (0, 1), the ones the lemma checks
fill, give every image, and no engine runs (`_rigidity_images`).

The verdict from the kernel basis b_1, ..., b_d (`cartier.fp_kernel`):
there are p^d solutions, and the trivial family is an F_p-subspace of
dimension 2k, k = [F : F_p], with q^2 elements.  So the kernel is the
family exactly when d = 2k and every b_i has w11 = 0 and w12 = (a, b), w21
on the F-line of omega_L = (a_L, b_L): a b_L - b a_L = 0.  No solution is
listed for the report; `RigiditySolutionSet.solutions` lists them, through
`enumerate_span_mod_p` and its span guard, when read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from math import comb
from typing import Callable

from . import poly
from .cartier import fp_kernel, plane_basis
from .errors import FieldTooLargeForBrute, NotTorsion, PrimeTooLarge, RangeError
from .exactnum import DualRing, pack_slots, raw_from_json, raw_to_json, unpack_slots
from .funcfield import (
    Curve,
    Derivation,
    Differential,
    FunctionFieldElement,
    curve_id,
    dual_derivation,
    hyperelliptic_involution,
    line_representative,
)
from .linalg import enumerate_span_mod_p
from .pcurvature import ConnectionMatrix, is_flat, p_curvature_matrix

# |F|^6 deformation triples, each two K[eps] engine runs of about p^2 work
# (1.4 ms a triple at p = 5, 2.5 ms at p = 7), times p^2
_BRUTE_WORK_LIMIT = 1 << 20
# flat F_p-lines times p^3 for the lemma checks of `verify` (per line, the
# one orbit, its 2(p - 1) Taylor shifts and the packed rows; per line and
# second form, the guard's 2(p - 1) engine steps on entries of degree about
# p, then O(p^2) JSON): `verify --rigidity linear` on one line took 0.22 s
# at p = 101, 0.33 s at p = 127 and 0.83 s at p = 211 with the guard lifted
# (fresh process, best of three, CPython 3.11 on a 2-vCPU VM)
_LEMMA_WORK_LIMIT = 1 << 21
# evenly spaced brute triples whose auxiliary recursion meets its closed forms
_CLOSED_FORM_SAMPLES = 16


@dataclass(frozen=True)
class LemmaReport:
    curve_id: str
    lemma_id: str
    status: str  # "holds" | "violated" | "inapplicable"
    witness: dict
    timing: float

    def to_jsonable(self):
        return {
            "curveId": self.curve_id,
            "lemmaId": self.lemma_id,
            "status": self.status,
            "witness": self.witness,
            "timing": self.timing,
        }


@dataclass(frozen=True)
class RigiditySolutionSet:
    count: int
    is_trivial_family: bool
    listing: Callable = field(repr=False, compare=False)

    @cached_property
    def solutions(self):
        """Sorted triples ((a,b), (a,b), (a,b)) of raw pairs, listed by
        `listing` when first read."""
        return self.listing()

    def __len__(self):
        return self.count


def _as_pair(curve: Curve, ab):
    """(a, b) as raws, for a pair of raws or of ints."""
    a, b = ab
    return (curve.field.from_int(a), curve.field.from_int(b)) if isinstance(a, int) else (a, b)


def require_torsion(curve: Curve, omega_L: Differential) -> Derivation:
    """Check omega_L is a nonzero flat global form (`is_flat`, once per
    F_p-line); return its dual derivation, which has an l-local ring."""
    if omega_L.is_zero():
        raise NotTorsion("omega_L must be nonzero")
    if not is_flat(omega_L):
        raise NotTorsion("d + omega_L does not have vanishing p-curvature")
    theta = dual_derivation(omega_L)
    if theta.ring is None:
        raise NotTorsion("omega_L must be a global form")
    return theta


def _orbit(R, theta: Derivation, u):
    """theta^k(u) for k = 1..p-1, in the l-coordinates of R."""
    out = []
    for _ in range(1, R.curve.p):
        u = R.deriv(u, theta)
        out.append(u)
    return out


def _fp_combinations(F, vectors, scalars):
    """sum_k c_k vectors[k], a list of polynomials over F, for each row c of
    `scalars`, ints in [0, p): each vector's F_p coordinates in one int of
    64-bit slots (`pack_slots`), which hold len(vectors) (p - 1)^2, one sum
    of int multiples per row, read back by one `unpack`, which reduces mod p."""
    p = F.char
    lens = [max(len(v[i]) for v in vectors) for i in range(len(vectors[0]))]
    if len(vectors) * (p - 1) ** 2 >> 64:
        raise PrimeTooLarge(f"p = {p} overflows the 64-bit slots of the line table")
    packed = [pack_slots([c for a, n in zip(v, lens) for c in F.poly_coords(a, n)])
              for v in vectors]
    size, starts, out = F.degree * sum(lens), list(accumulate(lens, initial=0)), []
    for row in scalars:
        raws = F.unpack(unpack_slots(sum(c * P for c, P in zip(row, packed)), size))
        out.append([poly.normalize(F, raws[i:i + n]) for i, n in zip(starts, lens)])
    return out


def independent_basis_form(F, ab_L):
    """omega* of the line of omega_L = ab_L: the basis form (1, 0), or (0, 1)
    when omega_L is a multiple of dx/y, as a pair of raws."""
    if F.is_zero(ab_L[1]):
        return (F.zero(), F.one())
    return (F.one(), F.zero())


def _form_pair(form: Differential):
    """(a, b) of the global form (a + b x) dx/y, off its g = (a + b x) y / f,
    which `Curve.global_form` reduces by x - r where f(r) = 0."""
    cv = form.curve
    F = cv.field
    ab = poly.mul(F, form.g.B, poly.divmod_(F, cv.f, form.g.D)[0])
    return poly.coefficient(F, ab, 0), poly.coefficient(F, ab, 1)


def _beta(F, ab_rep, ab):
    """beta in omega = alpha rep + beta omega* (module docstring), for the
    pairs of rep and omega: det(rep, omega) / det(rep, omega*)."""
    star = independent_basis_form(F, ab_rep)
    return F.div(*(F.sub(F.mul(ab_rep[0], v[1]), F.mul(ab_rep[1], v[0])) for v in (ab, star)))


def _orbit_table(curve: Curve, rep: Differential):
    """(R, x*, numerators, J, sums), in the curve's memo: R the l-local ring
    of rep, x* = omega*/rep, the numerators (A_k, B_k) of the line's one
    orbit, that of x*, over l^J, and S1 of x* at every t in F_p^*, in K and
    in l-coordinates, by one packed pass."""

    def table():
        theta, F, p = dual_derivation(rep), curve.field, curve.p
        star = curve.global_form(*independent_basis_form(F, _form_pair(rep)))
        R, xs = theta.ring, star.ratio(rep)
        numerators, J = R.numerators(_orbit(R, theta, R.lift(xs)))
        vectors = [(a, b, R.to_x(a), R.to_x(b)) for a, b in numerators]
        powers = [[pow(c, k, p) for k in range(2, p + 1)] for c in range(1, p)]
        sums = {}
        for c, (a, b, ax, bx) in enumerate(_fp_combinations(F, vectors, powers), 1):
            s1 = R.make(a, b, J)
            if s1[2] < J and not R.is_zero(s1):  # l^m stripped: (x - r)^m divides ax, bx
                ax, bx = (poly.divmod_(F, v, R.power(J - s1[2]))[0] for v in (ax, bx))
            sums[F.from_int(c)] = (FunctionFieldElement(curve, ax, bx, R.power(s1[2])), s1)
        return R, xs, numerators, J, sums

    return curve.memo(("orbit_table", rep.g), table)


def _line_table(curve: Curve, rep: Differential, omega: Differential):
    """(R, x, numerators, J, rows) for the line representative rep and the
    second form omega, in the curve's memo: R the l-local ring of rep,
    x = omega/rep, the numerators (A_k, B_k) of the orbit of x over l^J, and
    the row t of the line table for every t in F_p^*: the normal forms
    (x_t, S1, S2) of the multiple s rep, t = 1/s, and S1 in the
    l-coordinates of R (S2 there is (A, -B, j)); all but x_t are beta times
    the `_orbit_table`'s (module docstring).  x is omega/rep itself, not
    alpha + beta x*, so the guard's engine, which reads x, checks beta; x is
    in F(x), and x_t = t x scales its numerator."""

    def table():
        F = curve.field
        R, xs, numerators, J, sums = _orbit_table(curve, rep)
        ab_rep, ab = _form_pair(rep), _form_pair(omega)
        x = xs if ab == independent_basis_form(F, ab_rep) else omega.ratio(rep)
        beta = _beta(F, ab_rep, ab)
        c, unit, rows = curve.constant(beta), F.eq(beta, F.one()), {}

        def scaled(A, B, j):  # canonical: `make` strips a zero down to l^0
            return (A, B, j) if unit else R.make(poly.scale(F, A, beta), poly.scale(F, B, beta), j)

        for t, (S, s1) in sums.items():
            S1, xt = curve.mul(c, S), (poly.scale(F, x.A, t), poly.scale(F, x.B, t), x.D)
            rows[t] = (FunctionFieldElement(curve, *xt), S1, hyperelliptic_involution(S1),
                       scaled(*s1))
        return (R, x) + R.numerators([scaled(A, B, J) for A, B in numerators]) + (rows,)

    return curve.memo(("line_table", rep.g, omega.g), table)


def line_sums(curve: Curve, omega_L: Differential, omega: Differential):
    """(x, S1, S2) as normal forms of K for the flat form omega_L and the
    second form omega: the row t of the line table of omega_L = s rep and
    omega, t = 1/s (module docstring)."""
    require_torsion(curve, omega_L)
    t, rep = line_representative(omega_L)
    return _line_table(curve, rep, omega)[4][t][:3]


def two_sums(curve: Curve, theta_L: Derivation, x: FunctionFieldElement):
    """S1 = sum theta_L^k(x), S2 = sum C(p-1,k) theta_L^k(x), k = 1..p-1, by
    the direct orbit of x and sums in K: the oracle of `line_sums`.
    Computed once per curve, theta_L and x (the curve's memo)."""

    def sums():
        p = curve.p
        S1, S2 = curve.zero(), curve.zero()
        cur = x
        for k in range(1, p):
            cur = theta_L.apply(cur)
            S1 = S1 + cur
            S2 = S2 + curve.constant(curve.field.from_int(comb(p - 1, k))) * cur
        return S1, S2

    return curve.memo(("two_sums", theta_L.value_on_x, x), sums)


def _two_sums_status(x, S1, S2) -> str:
    if x.is_constant():
        return "inapplicable"  # theta_L kills x: both sums are zero
    return "holds" if not S1.is_zero() and not S2.is_zero() else "violated"


def _lemma_form(curve: Curve, ab_L):
    """(omega_L, t, rep) of the form ab_L, a pair of raws, with rep =
    t omega_L its F_p-line's representative: one memo entry per form, and
    one per line, whose representative is checked by `require_torsion`:
    flatness and the global-form condition hold for the whole line or not."""

    def form():
        omega_L = curve.global_form(*ab_L)
        if omega_L.is_zero():
            raise NotTorsion("omega_L must be nonzero")
        t, rep = line_representative(omega_L)
        curve.memo(("lemma_line", rep.g), lambda: require_torsion(curve, rep))
        return omega_L, t, rep

    return curve.memo(("lemma_form",) + ab_L, form)


def line_of(curve: Curve, ab_L) -> Differential:
    """The representative of the F_p-line of the flat form ab_L (as in
    `check_two_sums`), read from the entry its lemma reports fill."""
    return _lemma_form(curve, _as_pair(curve, ab_L))[2]


def _lemma_data(curve: Curve, ab_L, ab):
    """What both lemma reports of omega_L and omega (forms as in
    `check_two_sums`) read: the form's entry (`_lemma_form`) and one memo
    entry per pair."""
    ab_L, ab = _as_pair(curve, ab_L), _as_pair(curve, ab)

    def pair():
        omega_L, t, rep = _lemma_form(curve, ab_L)
        omega = curve.global_form(*ab)
        x, S1, S2 = _line_table(curve, rep, omega)[4][t][:3]
        return dict(omega_L=omega_L, rep=rep, omega=omega, x=x, S1=S1, S2=S2, wx=_ffe_witness(x),
                    forms={"omegaL": _form_witness(ab_L), "omega": _form_witness(ab)},
                    sums={"S1": _ffe_witness(S1), "S2": _ffe_witness(S2)})

    return curve.memo(("lemma_pair", ab_L, ab), pair)


def check_two_sums(curve: Curve, ab_L, ab) -> LemmaReport:
    """The two-sums lemma for the flat form omega_L and the second form omega,
    given as (a, b) pairs of (a + b x) dx/y, raws or ints."""
    t0 = time.perf_counter()
    d = _lemma_data(curve, ab_L, ab)
    return LemmaReport(curve_id=curve_id(curve), lemma_id="two-sums-nonvanishing",
                       status=_two_sums_status(d["x"], d["S1"], d["S2"]),
                       witness={**d["forms"], "x": d["wx"], **d["sums"]},
                       timing=time.perf_counter() - t0)


def offdiag_engine(curve: Curve, chart: Differential, x: FunctionFieldElement):
    """psi of [[0, x], [0, 1]] and [[1, x], [0, 0]] on the chart itself, by
    two plain engine runs over K: the per-multiple oracle of the guard
    (`check_offdiag_closed_forms`, `recheck`, the tests)."""
    z, one = curve.zero(), curve.one()
    return tuple(p_curvature_matrix(ConnectionMatrix(curve, T, chart)).matrix
                 for T in (((z, x), (z, one)), ((one, x), (z, z))))


def _offdiag_status(psi, S1, S2) -> str:
    """Whether the two matrices of `offdiag_engine` are [[0, S1], [0, 0]] and
    [[0, S2], [0, 0]]."""
    upper, lower = psi
    ok = upper[0][1] == S1 and lower[0][1] == S2 and all(
        m[i][j].is_zero() for m in psi for i, j in ((0, 0), (1, 0), (1, 1)))
    return "holds" if ok else "violated"


def _offdiag_agrees(curve: Curve, rep: Differential, omega: Differential) -> bool:
    """The guard of the line of rep and the second form omega, in the curve's
    memo: whether the engine, run once per shape on the chart rep over its
    l-local ring R, gives [[0, S1], [0, 0]] and [[0, S2], [0, 0]] for the
    row t = 1 of the line table, entry for entry (module docstring)."""

    def agrees():
        R, x, _, _, rows = _line_table(curve, rep, omega)
        F = curve.field
        s1 = rows[F.from_int(1)][3]
        s2 = (s1[0], poly.neg(F, s1[1]), s1[2])
        zero, one, xl = R.zero(), R.one(), R.lift(x)
        return all(
            p_curvature_matrix(ConnectionMatrix(R, T, rep)).matrix == ((zero, S), (zero, zero))
            for T, S in ((((zero, xl), (zero, one)), s1), (((one, xl), (zero, zero)), s2)))

    return curve.memo(("offdiag_agrees", rep.g, omega.g), agrees)


def check_offdiag_closed_forms(curve: Curve, ab_L, ab) -> LemmaReport:
    """Engine p-curvature of the triangular connections vs the two sums read
    off the line's orbit (`line_sums`), for forms given as in
    `check_two_sums`: "holds" with the sums as witnesses where the line's
    guard agrees (`_offdiag_agrees`), else the per-multiple engine's report
    on omega_L's own chart (`offdiag_engine`)."""
    t0 = time.perf_counter()
    d = _lemma_data(curve, ab_L, ab)
    if _offdiag_agrees(curve, d["rep"], d["omega"]):
        status, upper, lower = "holds", d["sums"]["S1"], d["sums"]["S2"]
    else:
        psi = offdiag_engine(curve, d["omega_L"], d["x"])
        status = _offdiag_status(psi, d["S1"], d["S2"])
        upper, lower = _ffe_witness(psi[0][0][1]), _ffe_witness(psi[1][0][1])
    return LemmaReport(curve_id=curve_id(curve), lemma_id="offdiag-closed-forms", status=status,
                       witness={**d["forms"], **d["sums"], "psiUpperOffdiag": upper,
                                "psiLowerOffdiag": lower}, timing=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# rigidity of the split connection under first-order deformations
# ---------------------------------------------------------------------------

def _deformation_psi(ring, chart: Differential, g11, f12, f21, g22):
    """psi of diag(0,1) + eps [[g11, f12], [f21, g22]] on the chart omega_L,
    as (body, slope) pairs over DualRing(ring): the traceless deformation
    has (g11, g22) = (f11, -f11), its companion (2 f11, 0)."""
    z = ring.zero()
    M = (((z, g11), (z, f12)), ((z, f21), (ring.one(), g22)))
    return p_curvature_matrix(ConnectionMatrix(DualRing(ring), M, chart))


def scalar_shift_identity_holds(psi, psi_companion, shift) -> bool:
    """psi - psi_companion == eps shift I exactly, for the shift
    f11 - theta_L^(p-1)(f11) as a raw of psi's base ring."""
    R = psi.ring.base
    for i in range(2):
        for j in range(2):
            body, slope = psi.ring.sub(psi[i, j], psi_companion[i, j])
            if not (R.is_zero(body) and slope == (shift if i == j else R.zero())):
                return False
    return True


def auxiliary_recursion_rows(curve: Curve, theta_L: Derivation, f11, f12, f21, n: int):
    """R0^(m) for m = 1..n, where R0^(1) = R = [[2 f11, f12], [f21, 0]] and
    R0^(m+1) = J R0^(m) + theta_L(R0^(m)) + R J with J = diag(0, 1).

    J M keeps only the second row of M; M J keeps only the second column, so
    R J contributes f12 in the top-right corner and nothing else.
    """
    two = curve.constant(curve.field.from_int(2))
    R = ((two * f11, f12), (f21, curve.zero()))
    rows = [R]
    cur = R
    for _ in range(n - 1):
        cur = (
            (theta_L.apply(cur[0][0]), theta_L.apply(cur[0][1]) + f12),
            (cur[1][0] + theta_L.apply(cur[1][0]), cur[1][1] + theta_L.apply(cur[1][1])),
        )
        rows.append(cur)
    return rows


def closed_form_rows(curve: Curve, theta_L: Derivation, f11, f12, f21, n: int):
    """The predicted R0^(m): [[2 theta^(m-1) f11, sum_(k<m) theta^k f12],
    [sum_(k<m) C(m-1,k) theta^k f21, 0]]."""
    F = curve.field
    two = curve.constant(F.from_int(2))
    out = []
    t11 = f11
    iter12 = [f12]
    iter21 = [f21]
    for m in range(1, n + 1):
        if m > 1:
            t11 = theta_L.apply(t11)
            iter12.append(theta_L.apply(iter12[-1]))
            iter21.append(theta_L.apply(iter21[-1]))
        s12 = curve.zero()
        for k in range(m):
            s12 = s12 + iter12[k]
        s21 = curve.zero()
        for k in range(m):
            c = comb(m - 1, k) % curve.p
            if c:
                s21 = s21 + curve.constant(F.from_int(c)) * iter21[k]
        out.append(((two * t11, s12), (s21, curve.zero())))
    return out


def rigidity_scan(curve: Curve, ab_L, mode: str = "brute"):
    """Enumerate traceless first-order deformations with vanishing p-curvature
    of the split connection of omega_L = (a + b x) dx/y, (a, b) = ab_L.

    Returns (RigiditySolutionSet, LemmaReport).  Status is "holds" iff the
    solution set equals the conjugation-trivial family
    {(0, c1 omega_L, c2 omega_L) : c1, c2 in the field} AND the scalar-shift
    identity held for every scanned deformation (brute mode).
    """
    t0 = time.perf_counter()
    ab_L = _as_pair(curve, ab_L)
    omega_L = curve.global_form(*ab_L)
    theta_L = require_torsion(curve, omega_L)
    if mode == "brute":
        sols, identity_ok, identity_total, closed_ok = _rigidity_brute(curve, theta_L, omega_L)
        count, listing = len(sols), lambda: sols
        is_family = sols == _trivial_family(curve.field, ab_L)
    elif mode == "linear":
        R, images = _rigidity_images(curve, omega_L)
        count, is_family, listing = _rigidity_linear(curve, ab_L, R, images)
        identity_ok = identity_total = 0
        closed_ok = True
    else:
        raise RangeError(f"unknown mode {mode!r}")
    status = "holds" if is_family and identity_ok == identity_total and closed_ok else "violated"
    solset = RigiditySolutionSet(count=count, is_trivial_family=is_family, listing=listing)
    report = LemmaReport(
        curve_id=curve_id(curve),
        lemma_id="split-connection-rigidity",
        status=status,
        witness={
            "omegaL": _form_witness(ab_L),
            "solutionCount": count,
            "familyCount": curve.field.size ** 2,
            "isTrivialFamily": is_family,
            "scalarShiftIdentity": {"checked": identity_total, "held": identity_ok},
            "closedFormsSampled": closed_ok,
            "mode": mode,
        },
        timing=time.perf_counter() - t0,
    )
    return solset, report


def check_brute_rigidity(curve: Curve):
    """Refuse the brute scan (FieldTooLargeForBrute) beyond F_3 and F_5."""
    q, p = curve.field.size, curve.p
    if q ** 6 * p * p > _BRUTE_WORK_LIMIT:
        raise FieldTooLargeForBrute(f"{q * q}^3 deformation triples at p = {p} exceed the guard")


def check_lemma_work(curve: Curve, lines: int):
    """Refuse (PrimeTooLarge) the lemma checks of `lines` flat F_p-lines when
    lines * p^3 exceeds _LEMMA_WORK_LIMIT."""
    p = curve.p
    if lines * p ** 3 > _LEMMA_WORK_LIMIT:
        raise PrimeTooLarge(
            f"{lines} flat F_p-lines at p = {p} exceed the lemma-check guard "
            f"(lines * p^3 <= {_LEMMA_WORK_LIMIT})"
        )


def _rigidity_brute(curve, theta_L, omega_L):
    """Every triple through the engine over the chart's l-local ring R; the
    scalar shifts and the sampled closed forms come from K."""
    check_brute_rigidity(curve)
    F, R = curve.field, theta_L.ring
    pairs = [(a, b) for a in F.elements() for b in F.elements()]
    ratios = {ab: curve.global_form(*ab).ratio(omega_L) for ab in pairs}
    local = {ab: R.lift(u) for ab, u in ratios.items()}
    shifts = {ab: R.lift(u - theta_L.apply_n(u, curve.p - 1)) for ab, u in ratios.items()}
    two = R.lift(curve.constant(F.from_int(2)))
    sols = []
    identity_ok = identity_total = 0
    closed_ok = True
    sample_step = max(1, len(pairs) ** 3 // _CLOSED_FORM_SAMPLES)
    idx = 0
    for ab11 in pairs:
        for ab12 in pairs:
            for ab21 in pairs:
                f11, f12, f21 = local[ab11], local[ab12], local[ab21]
                psi = _deformation_psi(R, omega_L, f11, f12, f21, R.neg(f11))
                if psi.is_zero():
                    sols.append((ab11, ab12, ab21))
                psi_c = _deformation_psi(R, omega_L, R.mul(two, f11), f12, f21, R.zero())
                identity_total += 1
                if scalar_shift_identity_holds(psi, psi_c, shifts[ab11]):
                    identity_ok += 1
                if idx % sample_step == 0:
                    if not _closed_forms_match(curve, theta_L, psi_c, ratios[ab11],
                                               ratios[ab12], ratios[ab21]):
                        closed_ok = False
                idx += 1
    return tuple(sorted(set(sols))), identity_ok, identity_total, closed_ok


def _closed_forms_match(curve, theta_L, psi_companion, f11, f12, f21) -> bool:
    """R0-recursion == closed forms for n <= p, and the companion psi, over
    the l-local ring, equals eps (R0^(p) - R)."""
    p = curve.p
    rec = auxiliary_recursion_rows(curve, theta_L, f11, f12, f21, p)
    closed = closed_form_rows(curve, theta_L, f11, f12, f21, p)
    for got, want in zip(rec, closed):
        for i in range(2):
            for j in range(2):
                if got[i][j] != want[i][j]:
                    return False
    R, Rp, L = rec[0], rec[-1], theta_L.ring
    for i in range(2):
        for j in range(2):
            body, slope = psi_companion[i, j]
            if not L.is_zero(body) or slope != L.lift(Rp[i][j] - R[i][j]):
                return False
    return True


def _rigidity_images(curve, omega_L):
    """(R, images): psi of each unknown's deformation, (body, slope) per
    entry over R, the l-local ring of omega_L's line, in closed form off the
    line tables of the second forms (1, 0) and (0, 1) (module docstring):
    no engine run."""
    F = curve.field
    t, rep = line_representative(omega_L)
    R = dual_derivation(rep).ring
    zero, slopes = R.zero(), []  # per second form, per slot: the slope's four entries
    for omega in curve.basis_forms():
        _, x, numerators, J, rows = _line_table(curve, rep, omega)
        s1 = rows[t][3]
        s2 = (s1[0], poly.neg(F, s1[1]), s1[2])
        # the diagonal t (u_(p-1) - x), u_(p-1) the orbit's last numerator over l^J
        d = R.mul(R.lift(curve.constant(t)), R.sub(R.make(*numerators[-1], J), R.lift(x)))
        slopes.append([(d, zero, zero, R.neg(d)), (zero, s1, zero, zero), (zero, zero, s2, zero)])
    scalars = [R.lift(curve.constant(c)) for c in F.basis()]
    return R, [tuple(e for u in slopes[form][slot] for e in (zero, R.mul(c, u)))
               for slot in range(3) for form in range(2) for c in scalars]


def _engine_images(curve, omega_L):
    """(R, images) as in `_rigidity_images`, by one K[eps] engine run per
    unknown on the chart omega_L: the oracle of the closed form (`recheck`,
    the tests)."""
    R = dual_derivation(omega_L).ring
    images = []  # unknown j: coordinate j of (a11, b11, a12, b12, a21, b21)
    for slot in range(3):
        for a, b in plane_basis(curve.field):
            fs = [R.zero()] * 3
            fs[slot] = R.lift(curve.global_form(a, b).ratio(omega_L))
            psi = _deformation_psi(R, omega_L, *fs, R.neg(fs[0]))
            images.append(tuple(e for i in range(2) for j in range(2) for e in psi[i, j]))
    return R, images


def _rigidity_linear(curve, ab_L, R, images):
    """(count, is_family, listing) for the kernel of the F_p-linear map
    (w11, w12, w21) -> psi(deformation), unknown j sent to images[j]
    (`_rigidity_images`, `_engine_images`), read off `fp_kernel`'s basis
    (module docstring): p^dim solutions, whether they are the trivial
    family of omega_L = ab_L, and a function listing them as sorted
    triples of (a, b) pairs."""
    F, k, p = curve.field, curve.field.degree, curve.p
    basis = fp_kernel(R, images)

    def triple(v):
        w = [F.from_coeffs(v[i * k:(i + 1) * k]) for i in range(6)]
        return (w[0], w[1]), (w[2], w[3]), (w[4], w[5])

    def in_family(v):  # w11 = 0, and w12, w21 on the F-line of ab_L
        (a11, b11), *rest = triple(v)
        return F.is_zero(a11) and F.is_zero(b11) and all(
            F.eq(F.mul(a, ab_L[1]), F.mul(b, ab_L[0])) for a, b in rest)

    def listing():
        return tuple(sorted({triple(v) for v in enumerate_span_mod_p(basis, len(images), p)}))

    return p ** len(basis), len(basis) == 2 * k and all(map(in_family, basis)), listing


def _trivial_family(F, ab_L):
    """{(0, c1 omega_L, c2 omega_L)} as sorted triples of (a, b) pairs."""
    zero = (F.zero(), F.zero())
    multiples = {(F.mul(c, ab_L[0]), F.mul(c, ab_L[1])) for c in F.elements()}
    return tuple(sorted((zero, u, v) for u in multiples for v in multiples))


def _ffe_witness(u: FunctionFieldElement):
    F = u.curve.field
    return {"A": F.poly_to_json(u.A), "B": F.poly_to_json(u.B), "D": F.poly_to_json(u.D)}


def _form_witness(ab):
    return {"a": raw_to_json(ab[0]), "b": raw_to_json(ab[1])}


def recheck(curve: Curve, report: LemmaReport) -> bool:
    """Re-run the stated computation on the report's witness; True iff the
    stored status (and the S1/S2 values, where present) reproduce exactly,
    and, for a linear rigidity report, the closed-form images equal the
    engine's entry for entry.

    The computation runs on a fresh copy of the curve, so nothing comes from
    the memo of the curve that produced the report."""
    curve = Curve(curve.field, curve.f)
    w = report.witness
    if report.lemma_id == "two-sums-nonvanishing":
        # the direct per-form sums, not the line's orbit that made the report
        omega_L = curve.global_form(*_witness_form(curve, w["omegaL"]))
        omega = curve.global_form(*_witness_form(curve, w["omega"]))
        x = omega.ratio(omega_L)
        S1, S2 = two_sums(curve, require_torsion(curve, omega_L), x)
        return _two_sums_status(x, S1, S2) == report.status and \
            _ffe_witness(S1) == w["S1"] and _ffe_witness(S2) == w["S2"]
    if report.lemma_id == "offdiag-closed-forms":
        # the per-multiple engine on the witness's own chart and direct sums
        omega_L = curve.global_form(*_witness_form(curve, w["omegaL"]))
        omega = curve.global_form(*_witness_form(curve, w["omega"]))
        x = omega.ratio(omega_L)
        S1, S2 = two_sums(curve, require_torsion(curve, omega_L), x)
        psi = offdiag_engine(curve, omega_L, x)
        return _offdiag_status(psi, S1, S2) == report.status and \
            _ffe_witness(psi[0][0][1]) == w["psiUpperOffdiag"] and \
            _ffe_witness(psi[1][0][1]) == w["psiLowerOffdiag"]
    if report.lemma_id == "split-connection-rigidity":
        if w["mode"] != "linear":
            _, fresh = rigidity_scan(curve, _witness_form(curve, w["omegaL"]), mode=w["mode"])
            return fresh.status == report.status and \
                fresh.witness["solutionCount"] == w["solutionCount"]
        # the engine images, not the line tables that made the report, and
        # the closed form's images entry for entry against them
        ab_L = _witness_form(curve, w["omegaL"])
        omega_L = curve.global_form(*ab_L)
        require_torsion(curve, omega_L)
        R, images = _engine_images(curve, omega_L)
        count, is_family, _ = _rigidity_linear(curve, ab_L, R, images)
        status = "holds" if is_family else "violated"
        return status == report.status and count == w["solutionCount"] and \
            _rigidity_images(curve, omega_L)[1] == images
    raise RangeError(f"unknown lemma id {report.lemma_id!r}")


def _witness_form(curve: Curve, wf: dict):
    return _as_pair(curve, (raw_from_json(wf["a"]), raw_from_json(wf["b"])))
