"""Cartier-Manin matrix, ordinarity, and the flat global differential forms.

The Cartier-Manin matrix of y^2 = f(x) is read off the expansion of
h = f^n, n = (p-1)/2: A[i][j] is the coefficient of x^(i*p - j), indices
i, j in {1, 2}.  The curve is ordinary exactly when det A != 0, and the
p-rank is the stable rank of the associated semilinear operator: the rank
of A^(p) A, two steps (`CartierManinMatrix.p_rank` gives the argument).

The four coefficients come from a linear recurrence in O(p) field
operations rather than from expanding f^n (Bostan-Gaudry-Schost, SIAM J.
Comput. 2007).  If g(0) = g0 != 0, the coefficients h_k of h = g^n satisfy
g h' = n g' h, that is

    g0 k h_k = sum_{j >= 1} g_j (n j - (k - j)) h_{k-j},    h_0 = g0^n.

Row 1 (x^(p-1), x^(p-2)) comes from a forward run on g = f / x^v, where
v = 1 if f(0) = 0 and v = 0 otherwise; f is squarefree, so x^2 does not
divide it and g(0) != 0.  The run stops at index p - 1 - v n.  Row 2
(x^(2p-1), x^(2p-2)) comes from a run on the reversed polynomial
x^5 f(1/x), whose constant term is 1 because f is monic of degree 5: its
n-th power holds the coefficient of x^m of f^n at index 5n - m, so the row
is read at indices (p-3)/2 and (p-1)/2.  Both runs divide only by k <= p-1,
never by the singular k = p, where the recurrence would lose h_p.

A run is the field context's kernel `poly_power_top_two`, in the pattern of
the `poly_*` kernels.  Over F_p it is a loop on plain ints: g has degree
<= 5, so the window of the last five h_k is five locals, and step k is the
sum of five products with taps c_j = (n + 1) j d_j - k d_j (d_j = g_j / g0),
which step down by d_j, times 1/k: six products and one reduction mod p.
The 1/k come from one table of (p-1)/2 ints (`PrimeField.inverses`, by
1/k = -(p div k) / (p mod k)) that `cartier_manin` builds once per call and
both runs read; above (p-1)/2, 1/k = -1/(p-k) is the table read backwards.
Over F_{p^k} it is `poly.power_top_two_generic`, one field method call per
operation and one inverse per step, which is also the oracle the tests run
the F_p kernel against; `poly.pow` stays the oracle of the whole matrix, and
the point count of `tests/test_arithmetic.py` checks its trace.  Descent:
when f has F_p coefficients (every CLI `--f`), so does A, and both runs take
the F_p kernel on those ints (`exactnum.prime_field_ints`), embedded by
`from_int`; an f with a coefficient outside F_p keeps the generic run.

A global form omega = (a + b x) dx/y defines the connection d + omega on the
structure sheaf; its p-curvature against the standard chart (omega0 = dx/y,
theta0 dual) vanishes on an F_p-subspace of the (a, b) plane.  Over the
curve's own coefficient field that subspace is the fixed space of A:

    |{(a,b) : psi = 0}| = #ker(A - I)  over F_p,

and more generally the solutions of A v = v^(p).  Over a large enough
extension the flat forms fill out p^(p-rank) elements: p^2 for an ordinary
genus-2 curve.  `stabilization_degree` computes how large is large enough.

Both enumeration methods are exposed, and they take independent routes.
`semilinear` solves A v = v^(p) linearized over F_p: O(p) field operations
for A, then the kernel below.  `brute` evaluates the p-curvature of every
candidate pair from h = theta0^(p-1)(x), which takes p - 1 polynomial steps,
and stays the normative oracle.  So `scan`'s `agree` and
`torsion --crosscheck` compare two independent computations.

The semilinear kernel.  Let A have F_p entries (every CLI `--f`) and sigma
be the Frobenius of F = F_{p^k}.  If A v = sigma(v), then sigma^j(v) = A^j v,
and sigma^k = 1 on F gives v = A^k v: v lies in W (x) F for the F_p-space
W = ker(A^k - I), of dimension d <= 2, which A maps into itself.  With a
basis B of W, A B = B M and v = B c, the equation is sigma(c) = M c, where
M^k = I.  By Lang's theorem it has exactly p^d solutions over the algebraic
closure, and each is rational, since sigma^k(c) = M^k c = c.  On the
F_p-coordinates of c it is the dk x dk system M (x) I_k - I_d (x) Phi, with
Phi = `frobenius_matrix()`; d = 0 needs no solve, and d is
`rational_flat_dimension`.  An A with an entry outside F_p takes the
2k x 2k system over F instead (`_flat_kernel_generic`), the oracle.

The brute rows.  On the chart dx/y, theta0(x) = y and theta0(y) = f'/2, so

    theta0(A + B y) = (B' f + B f'/2) + A' y

maps F[x, y] into itself and swaps the parity in y (`_theta0_step`).  From
x, p - 1 steps, an even number, give h = theta0^(p-1)(x) in F[x], and
c0 = <dx/y, theta0^p> = (1/y) theta0(h) = (1/y) h' y = h'.  For T = a + b x,

    psi(a, b) = a^p + b^p x^p + b h - (a + b x) h',

a polynomial in x, so psi = 0 exactly when every coefficient is 0.  It is
the F-combination, with coefficients a^p, b^p, b, -a and -b, of the
coefficient rows of 1, x^p, h, h' and x h' (`_psi_rows`), and it splits as
alpha(a) + beta(b), from a^p, a and from b^p, b, so psi(a, b) = 0 exactly
when beta(b) = -alpha(a): a join on that vector (`_torsion_brute`).  No
normal form is built per candidate, and the rows share no code with
`Derivation` or `LocalRing`.  The first four solutions are welded to
`is_flat` on their own charts, whose chart constants `Derivation` walks, so
the weld is an independent check on every line, that of dx/y included.  The
cost is the p - 1 polynomial steps, the join's 2 |F| evaluations and, if a
nonzero form is flat, the p steps of its line's chart constant: 0.17 s,
0.008 s and 0.20 s at p = 1009, 0.66 s, 0.01 s and 0.81 s at p = 2039, and
a join of 0.03-0.04 s over F_729, F_1331 and F_1849 (CPython 3.11 on a
2-vCPU VM, CPU time, best of three runs, five for the join).
`check_brute_limit` refuses more than 2^22 candidate pairs, the next prime
2053 among them.
"""

from __future__ import annotations

from functools import partial

from . import poly
from .errors import FieldTooLargeForBrute, G2FrobError, NotFlat, PrimeTooLarge, RangeError
from .exactnum import coords, prime_divisors, prime_field_ints, raw_to_json
from .funcfield import Curve, Differential
from .linalg import enumerate_span_mod_p, kernel_basis_mod_p, rref_mod_p

# brute lists the flat pairs among |F|^2 candidates by 2 |F| evaluations;
# at p = 2039 (4.2 * 10^6 candidates) it takes about 1.5 s, nearly all of it
# theta0 steps, those of the weld included (module docstring).  The bound on
# |F|^2 is kept as it stands, so the refused inputs do not change
_BRUTE_CANDIDATE_LIMIT = 1 << 22
# cartier_manin runs about 1.5 p recurrence steps and builds a table of p/2
# inverses: a CLI `curve` call took 0.9-1.3 s at p = 10^6 and 3.7-4.8 s
# (101 MB peak RSS) at 2^22 under CPython 3.11 on a 2-vCPU VM; the limit
# stays until a sublinear path in p moves it
_CARTIER_P_LIMIT = 1 << 22


class CartierManinMatrix:
    """2x2 matrix ((a11, a12), (a21, a22)) over the curve's field; entries
    are raw field values."""

    __slots__ = ("matrix", "field")

    def __init__(self, matrix, field):
        self.matrix, self.field = matrix, field

    def det(self):
        return _det2(self.field, self.matrix)

    def is_invertible(self) -> bool:
        return not self.field.is_zero(self.det())

    def p_rank(self) -> int:
        """Stable rank of the semilinear Cartier operator (0, 1 or 2), the
        rank of N_2 = A^(p) A.  With N_0 = I, N_n = sigma(N_(n-1)) A and
        sigma the Frobenius on entries, N_(n+1) = sigma^n(A) N_n, so
        ker N_n lies in ker N_(n+1).  Once ker N_n = ker N_(n+1) it stays:
        N_(n+2) v = 0 iff A v is in sigma(ker N_(n+1)) = sigma(ker N_n) iff
        N_(n+1) v = 0.  On F^2 the kernel dimension rises at most twice, so
        N_2 already has the stable kernel, hence the stable rank.  A with
        F_p entries (every integer f) is its own A^(p)."""
        F, A = self.field, self.matrix
        Ap = A if prime_field_ints(A[0] + A[1]) else tuple(
            tuple(F.frobenius(e) for e in row) for row in A)
        return _rank2(F, _mat2_mul(F, Ap, A))

    def to_jsonable(self):
        return [[raw_to_json(e) for e in row] for row in self.matrix]


def cartier_manin(curve: Curve) -> CartierManinMatrix:
    """The coefficients of x^(p-1), x^(p-2), x^(2p-1), x^(2p-2) in f^((p-1)/2).

    Two runs of the recurrence in the module docstring: a forward run on
    f / x^v (v = 1 exactly when f(0) = 0) for row 1, and a run on the
    reversed polynomial for row 2.  Neither reaches the singular step k = p.
    Raises PrimeTooLarge before any work when p > _CARTIER_P_LIMIT.  The
    matrix is computed once per curve (the curve's memo).
    """
    F, f, p = curve.field, curve.f, curve.p
    if p > _CARTIER_P_LIMIT:
        raise PrimeTooLarge(
            f"p = {p} exceeds the Cartier-Manin limit {_CARTIER_P_LIMIT}"
        )

    def matrix():
        n = (p - 1) // 2
        ints = prime_field_ints(f)  # the descent to F_p (module docstring)
        G, g = (F, f) if ints is None else (F.prime_field, ints)
        # one table of inverses for both F_p runs; the generic run inverts k itself
        inv = None if ints is None else G.inverses()
        v = 1 if G.is_zero(g[0]) else 0
        row1 = G.poly_power_top_two(g[v:], n, p - 1 - v * n, inv)
        # x^(2p-1) and x^(2p-2) of f^n sit at (p-3)/2 and (p-1)/2 of the reversal
        top, below = G.poly_power_top_two(g[::-1], n, (p - 1) // 2, inv)
        rows = (row1, (below, top))
        if ints is not None:
            rows = tuple(tuple(map(F.from_int, row)) for row in rows)
        return CartierManinMatrix(matrix=rows, field=F)

    return curve.memo(("cartier_manin",), matrix)


def is_ordinary(curve: Curve) -> bool:
    return cartier_manin(curve).is_invertible()


def p_rank(curve: Curve) -> int:
    """Stable rank of the semilinear Cartier operator (0, 1 or 2)."""
    return cartier_manin(curve).p_rank()


def _mat2_mul(F, X, Y):
    return tuple(
        tuple(
            F.add(F.mul(X[i][0], Y[0][j]), F.mul(X[i][1], Y[1][j]))
            for j in range(2)
        )
        for i in range(2)
    )


def _det2(F, M):
    return F.sub(F.mul(M[0][0], M[1][1]), F.mul(M[0][1], M[1][0]))


def _rank2(F, M) -> int:
    if all(F.is_zero(e) for row in M for e in row):
        return 0
    return 1 if F.is_zero(_det2(F, M)) else 2


class TorsionSet:
    """Global forms (a + b x) dx/y with vanishing p-curvature, as a tuple of
    (a_raw, b_raw) pairs.

    Sorted deterministically; always contains (0, 0); an F_p-subspace, so its
    size is a power of p.
    """

    __slots__ = ("forms",)

    def __init__(self, forms):
        self.forms = forms

    def __len__(self):
        return len(self.forms)

    def __iter__(self):
        return iter(self.forms)

    def __contains__(self, ab):
        return tuple(ab) in self.forms

    def dimension(self, p: int) -> int:
        n, d = len(self.forms), 0
        while n > 1:
            n //= p
            d += 1
        return d

    def nonzero(self, field):
        return tuple(
            ab for ab in self.forms if not (field.is_zero(ab[0]) and field.is_zero(ab[1]))
        )

    def differentials(self, curve: Curve):
        return tuple(curve.global_form(a, b) for a, b in self.forms)

    def is_subspace(self, field) -> bool:
        """The forms lie in their own F_p-span, which has p^rank elements, so
        they are a subspace exactly when there are p^rank of them."""
        rows = [coords(a) + coords(b) for a, b in self.forms]
        rank = len(rref_mod_p(rows, 2 * field.degree, field.char)[1])
        return len(set(self.forms)) == field.char ** rank

    def to_jsonable(self):
        return [[raw_to_json(a), raw_to_json(b)] for a, b in self.forms]


def _theta0_step(F, f, half_fprime, A, B):
    """theta0(A + B y) = (B' f + B f'/2) + A' y, theta0 dual to dx/y."""
    return (poly.add(F, poly.mul(F, poly.derivative(F, B), f), poly.mul(F, B, half_fprime)),
            poly.derivative(F, A))


def _flat_form_data(curve: Curve):
    """(h, h') for h = theta0^(p-1)(x) in F[x]; h' is c0, the chart constant
    of dx/y (module docstring).  p - 1 `_theta0_step`s cost about p^2; its
    one caller, `_torsion_brute`, runs `check_brute_limit` first, which
    refuses every p >= 2053."""
    F = curve.field
    A, B = poly.x(F), ()
    for _ in range(curve.p - 1):
        A, B = _theta0_step(F, curve.f, curve._half_fprime, A, B)
    return A, poly.derivative(F, A)


def check_brute_limit(field):
    """Raise FieldTooLargeForBrute when |field|^2, the candidate pairs that
    brute's join covers by 2 |field| evaluations, exceeds
    _BRUTE_CANDIDATE_LIMIT.  The bound on |field|^2 is kept on purpose, so
    the refused inputs stay those of the pairwise scan it replaced."""
    if field.size ** 2 > _BRUTE_CANDIDATE_LIMIT:
        raise FieldTooLargeForBrute(
            f"|field|^2 = {field.size ** 2} candidates exceed the brute-force "
            f"guard {_BRUTE_CANDIDATE_LIMIT}"
        )


def _psi_rows(F, h, dh):
    """psi(a, b) = a^p + b^p x^p + b h - (a + b x) h' (module docstring), for
    dh = h', as one row (alpha, beta) per coefficient: alpha = (u, v) and
    beta = (s, t) read off 1, -h', x^p and h - x h', and
        psi(a, b)_i = (a^p u + a v) + (b^p s + b t)."""
    z, one, p, c = F.zero(), F.one(), F.char, partial(poly.coefficient, F)
    return [((one if i == 0 else z, F.neg(c(dh, i))),
             (one if i == p else z, F.sub(c(h, i), c(dh, i - 1))))
            for i in range(max(p + 1, len(h), len(dh) + 1))]


def _frobenius_affine(F, row, e, ep):
    """e^p u + e v for row = (u, v), given ep = e^p."""
    return F.add(F.mul(ep, row[0]), F.mul(e, row[1]))


def enumerate_p_torsion(curve: Curve, method: str = "brute") -> TorsionSet:
    """All (a, b) with vanishing p-curvature of d + (a+bx)dx/y.

    `brute` covers all |field|^2 candidates by a join on psi's two halves
    (guarded); `semilinear` solves A v = v^(p) for the Cartier-Manin matrix
    A and returns the identical set.
    """
    if method == "brute":
        forms = _torsion_brute(curve)
    elif method == "semilinear":
        forms = _torsion_semilinear(curve)
    else:
        raise RangeError(f"unknown method {method!r}")
    return TorsionSet(forms=forms)


def _torsion_brute(curve: Curve):
    """Every (a, b) in F^2 with psi(a, b) = 0 (`_psi_rows`).

    Coefficients that vanish for every pair are dropped; psi lies in K^p,
    so most do.  psi(a, b) = alpha(a) + beta(b) on the coefficients left,
    so one pass over F keys each a by the vector -alpha(a) and one pass
    looks up each b by beta(b).  The first four solutions are welded to
    `is_flat`, each on its own chart, a route independent of the rows
    (module docstring).  Refused before any derivation step beyond
    `check_brute_limit`.
    """
    from .pcurvature import is_flat

    F = curve.field
    check_brute_limit(F)
    # e -> e^p u + e v is F_p-linear: it vanishes on F when it vanishes on
    # an F_p-basis
    basis = [(e, F.frobenius(e)) for e in F.basis()]
    live = [rows for rows in _psi_rows(F, *_flat_form_data(curve))
            if any(not F.is_zero(_frobenius_affine(F, r, e, ep))
                   for r in rows for e, ep in basis)]

    def values(rows, e):
        ep = F.frobenius(e)
        return tuple(_frobenius_affine(F, r, e, ep) for r in rows)

    alpha, beta, by_key = [r for r, _ in live], [s for _, s in live], {}
    for a in F.elements():
        by_key.setdefault(tuple(map(F.neg, values(alpha, a))), []).append(a)
    found = sorted((a, b) for b in F.elements() for a in by_key.get(values(beta, b), ()))
    for a, b in found[:4]:  # weld the row evaluation to the chart constant
        if not is_flat(curve.global_form(a, b)):
            raise G2FrobError("factored psi disagrees with is_flat")
    return tuple(found)


def _torsion_semilinear(curve: Curve):
    """The span of `_flat_kernel`: a vector's coordinates in plane_basis(F)
    are those of a, then those of b."""
    F, k = curve.field, curve.field.degree
    basis = _flat_kernel(F, cartier_manin(curve).matrix)
    return tuple(sorted(
        (F.from_coeffs(v[:k]), F.from_coeffs(v[k:]))
        for v in enumerate_span_mod_p(basis, 2 * k, curve.p)
    ))


# ---------------------------------------------------------------------------
# F_p-linear solves over the plane of global forms: flat forms, rigidity
# ---------------------------------------------------------------------------

def plane_basis(F):
    """F_p-basis of the (a, b) plane of global forms: (e, 0), then (0, e),
    for e running over F.basis()."""
    z, basis = F.zero(), F.basis()
    return [(e, z) for e in basis] + [(z, e) for e in basis]


def _flat_kernel(F, A):
    """F_p-basis, in the coordinates of plane_basis(F), of the v in F^2 with
    A v = v^(p).  For A over F_p (module docstring): B from the 2 x 2 kernel
    of A^k - I, the basis vectors v = B c for c in the kernel of the dk x dk
    int system M (x) I_k - I_d (x) Phi, or none when d = 0."""
    ints = prime_field_ints([e for row in A for e in row])
    if ints is None:
        return _flat_kernel_generic(F, A)
    k, p, A = F.degree, F.char, (ints[:2], ints[2:])
    B = _fixed_basis(F.prime_field, A, k)
    if not B:
        return []
    # A b_j in the basis B, read where b_i is 1: B = I when d = 2, and
    # A b = lambda b when d = 1
    M = [[sum(x * y for x, y in zip(A[bi.index(1)], bj)) for bj in B] for bi in B]
    phi, d = F.frobenius_matrix(), len(B)
    rows = [[M[i][j] * (r == s) - (i == j) * phi[r][s] for j in range(d) for s in range(k)]
            for i in range(d) for r in range(k)]
    return [[sum(b[m] * c[j * k + r] for j, b in enumerate(B)) % p
             for m in range(2) for r in range(k)]
            for c in kernel_basis_mod_p(rows, d * k, p)]


def _flat_kernel_generic(F, A):
    """`_flat_kernel` for any A over F, the oracle of the F_p path: column j
    of the system is A u_j - u_j^(p) for the j-th plane_basis vector u_j,
    which has one nonzero entry, in slot j // k."""
    k, cols = F.degree, []
    for j, u in enumerate(plane_basis(F)):
        Au = (F.mul(r[j // k], u[j // k]) for r in A)
        cols.append([x for w, v in zip(Au, u)
                     for x in coords(F.sub(w, F.frobenius(v)))])
    return kernel_basis_mod_p(list(zip(*cols)), len(cols), F.char)


def _fixed_basis(Fp, A, k: int):
    """F_p-basis of W = ker(A^k - I) for an int matrix A over Fp = F_p."""
    p, Ak = Fp.p, _mat2_pow(Fp, A, k)
    return kernel_basis_mod_p([[Ak[0][0] - 1, Ak[0][1]], [Ak[1][0], Ak[1][1] - 1]], 2, p)


def fp_kernel(ring, images):
    """F_p-basis of the kernel of the F_p-linear map sending unknown j to
    images[j], a tuple of raws of a `funcfield.LocalRing` (the same length
    for every j).  Each entry is read off its l-coordinates over one power
    of l per position (`LocalRing.numerators`), an injective F_p-linear
    image of K, so the kernel is the one on K; each numerator's F_p
    coordinates come from one field call (`poly_coords`)."""
    F, rows = ring.curve.field, []
    for entry in zip(*images):
        numerators, _ = ring.numerators(entry)
        na = max(len(A) for A, _ in numerators)
        nb = max(len(B) for _, B in numerators)
        rows.extend(zip(*(F.poly_coords(A, na) + F.poly_coords(B, nb) for A, B in numerators)))
    return kernel_basis_mod_p(rows, len(images), F.char)


# ---------------------------------------------------------------------------
# expected counts over extensions, from the Cartier-Manin matrix alone
# ---------------------------------------------------------------------------

def rational_flat_dimension(curve: Curve, k: int = 1) -> int:
    """F_p-dimension of the flat forms rational over F_{p^k}: that of
    ker(A^k - I) over F_p (module docstring), so no extension is built.
    Requires a prime-field curve and k >= 1.
    """
    if curve.field.degree != 1:
        raise RangeError("rational_flat_dimension expects a prime-field curve")
    if k < 1:
        raise RangeError("extension degree must be >= 1")
    return len(_fixed_basis(curve.field, cartier_manin(curve).matrix, k))


def stabilization_degree(curve: Curve, k_max: int = 20000) -> int:
    """Smallest k with all p^(p-rank) geometric flat forms rational over F_{p^k}.

    A geometric solution v of A v = v^(p) satisfies v^(p^k) = A^k v, so the
    solutions live in the stable image of A and become rational exactly when
    A^k is the identity there, that is when A^(k+1) = A: A^k = I at p-rank 2,
    and mu^k = 1 at p-rank 1, where A^2 = mu A.  The least such k is an
    order, so it divides N = |GL2(F_p)| = p (p-1)^2 (p+1) at p-rank 2 and
    N = p - 1 at p-rank 1; it is N with each prime q divided out while
    A^(k/q) still satisfies the condition.  No extension field is built.
    Raises RangeError when the order exceeds k_max.
    """
    if curve.field.degree != 1:
        raise RangeError("stabilization_degree expects a prime-field curve")
    F, p = curve.field, curve.p
    cm = cartier_manin(curve)
    rank = cm.p_rank()
    if rank == 0:
        return 1
    A = cm.matrix
    k = p * (p - 1) ** 2 * (p + 1) if rank == 2 else p - 1
    primes = {p, *prime_divisors(p - 1), *prime_divisors(p + 1)}
    for q in sorted(primes):
        while k % q == 0 and _mat2_pow(F, A, k // q + 1) == A:
            k //= q
    if k > k_max:
        raise RangeError(f"stabilization order {k} exceeds {k_max}")
    return k


def _mat2_pow(F, A, n: int):
    """A^n for n >= 0 (`poly.power`)."""
    one = ((F.one(), F.zero()), (F.zero(), F.one()))
    return poly.power(A, n, one, partial(_mat2_mul, F), None)


# ---------------------------------------------------------------------------
# the canonical split connection attached to a flat form
# ---------------------------------------------------------------------------

def canonical_connection(omega_L: Differential, chart: str = "omega_L"):
    """diag(d, d + omega_L) as a rank-2 `ConnectionMatrix`.

    With chart omega_L itself the matrix is diag(0, 1); with the standard
    chart omega0 = dx/y it is diag(0, <omega_L, theta0>).  Raises NotFlat if
    d + omega_L has nonvanishing p-curvature.  omega_L = 0 gives the zero
    matrix on the standard chart.
    """
    from .pcurvature import ConnectionMatrix, is_flat

    curve = omega_L.curve
    if not is_flat(omega_L):
        raise NotFlat("d + omega_L has nonzero p-curvature")
    omega0, z = curve.basis_forms()[0], curve.zero()
    if omega_L.is_zero():
        return ConnectionMatrix(curve, ((z, z), (z, z)), omega0)
    if chart == "omega_L":
        return ConnectionMatrix(curve, ((z, z), (z, curve.one())), omega_L)
    if chart == "omega0":
        return ConnectionMatrix(curve, ((z, z), (z, omega_L.ratio(omega0))), omega0)
    raise RangeError(f"unknown chart {chart!r}")
