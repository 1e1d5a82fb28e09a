"""The p-curvature engine.

A connection on the trivial rank-r bundle is presented, on the affine chart,
by an r x r matrix T of function field elements relative to a trivializing
differential omega0: nabla(h e) = T(e) h omega0 + e dh.  With theta0 the
derivation dual to omega0 (<omega0, theta0> = 1), the p-curvature against
theta0 is

    psi = (T + theta0)^p - <omega0, theta0^p> T - theta0^p.

It is computed by the operator recursion

    T0^(1) = T,    T0^(n+1) = T T0^(n) + theta0(T0^(n))        (entrywise),
    psi = T0^(p) - <omega0, theta0^p> T,

where T0^(n) is the theta0-degree-zero coefficient of (T + theta0)^n.  The
full coefficient row (T_0^(n), ..., T_n^(n)) obeys

    T_k^(n+1) = T T_k^(n) + theta0(T_k^(n)) + T_(k-1)^(n),

with T_n^(n) = identity.  For r = 1 the whole computation collapses to the
closed form psi = T^p + theta0^(p-1)(T) - <omega0, theta0^p> T.

The engine takes the chart alone: theta0 is the chart's dual, and every
entry point derives it (`dual_derivation`, once per chart), so no caller can
pair a chart with another derivation.  The chart constant
<omega0, theta0^p> depends on omega0 only through its F_p-line: for s in
F_p^* and t = 1/s, theta_(s omega0) = t theta0, since
<s omega0, t theta0> = <omega0, theta0> = 1, so

    <s omega0, (t theta0)^p> = s t^p <omega0, theta0^p>
                             = s^(1-p) <omega0, theta0^p> = <omega0, theta0^p>,

for every chart, flat or not.  `chart_constant` takes its p steps once per
line, on the representative of `funcfield.line_representative`.  It also
decides flatness: a nonzero omega is flat exactly when its chart constant
is 1 (`is_flat`).

psi is returned as a bare matrix over the connection's ring (K or K[eps],
below); the implicit omega0^(tensor p) twist is never materialized because
only vanishing and equality of psi are ever consumed.

The flat twist.  Let d + omega_L be flat, so d + s omega_L is flat for
every s in F_p, and let x_s = omega/(s omega_L) for a form omega, so
x_(-s) = -x_s.  The connections

    upper(s)  = [[0, x_s], [0, 1]]     on the chart s omega_L,
    lower(-s) = [[1, x_(-s)], [0, 0]]  on the chart -s omega_L

have the connection forms [[0, s x_s omega_L], [0, s omega_L]] and
[[-s omega_L, s x_s omega_L], [0, 0]], whose difference is s omega_L I:
upper(s) is lower(-s) tensored with the flat line d + s omega_L.  The
p-curvature of a tensor product with a line adds the line's, here zero,
times I, so the two psi agree intrinsically.  Their bare matrices are
taken against (s omega_L)^(tensor p) and (-s omega_L)^(tensor p) =
-(s omega_L)^(tensor p) (p is odd), so psi_lower(-s) = -psi_upper(s) entry
by entry, and by s -> -s, psi_upper(-s) = -psi_lower(s).  This is a tested
identity of the per-multiple engine; `verify` reads no report through it,
since both psi have closed forms in the line's two sums (`verify`).

The engine is generic over a ring context (see `exactnum`): a connection
carries the ring its entries are raw values of, and the engine touches
them only through `ring.add`, `sub`, `mul`, `is_zero`, `one`, `zero`,
`lift` (embed K) and `deriv(u, theta)`.  Two contexts serve it: the curve
itself for K, whose raws are function field elements, and `DualRing(curve)`
for the first-order deformations K[eps], whose raws are pairs
(body, slope) standing for body + eps * slope with eps^2 = 0 and on which
theta acts componentwise.  On a flat global chart, whose chart constant is
1, the chart's `funcfield.LocalRing` R may stand in for the curve, as in
`verify`'s guard of the off-diagonal closed forms.

A run reads T's nonzero pattern once and each step that of T0^(n): no
`mul`, `deriv` or `add` touches a zero entry of either, and a zero
derivative (of a constant) is not added.  The program's connections are
sparse, so most entries of a step are zero.
"""

from __future__ import annotations

from functools import reduce

from .errors import RangeError, ZeroVector
from .exactnum import DualRing
from .funcfield import (
    Differential,
    FunctionFieldElement,
    dual_derivation,
    line_representative,
)


class ConnectionMatrix:
    """r x r matrix T over a ring context plus the chart form omega0: the
    curve for K, DualRing(curve) for K[eps], or the chart's LocalRing in
    their place.  The curve is the chart's; another ring raises RangeError."""

    __slots__ = ("ring", "curve", "rank", "entries", "chart")

    def __init__(self, ring, entries, chart: Differential):
        rows = tuple(tuple(row) for row in entries)
        r = len(rows)
        if r < 1 or any(len(row) != r for row in rows):
            raise RangeError("connection matrix must be square, rank >= 1")
        if chart.is_zero():
            raise RangeError("the chart differential must be nonzero")
        base = getattr(ring, "base", ring)  # DualRing extends a base
        if base is None or base not in (chart.curve, dual_derivation(chart).ring):
            raise RangeError(f"{ring!r} is not a ring of the chart's curve")
        try:
            for row in rows:
                for e in row:
                    ring.is_zero(e)
        except (TypeError, AttributeError):
            raise RangeError(f"every entry must be a raw value of {ring!r}") from None
        self.ring = ring
        self.curve = chart.curve
        self.rank = r
        self.entries = rows
        self.chart = chart

    @property
    def is_dual(self) -> bool:
        return isinstance(self.ring, DualRing)

    def trace(self):
        t = self.entries[0][0]
        for i in range(1, self.rank):
            t = self.ring.add(t, self.entries[i][i])
        return t

    def __repr__(self):
        return f"ConnectionMatrix(rank={self.rank}, chart={self.chart!r})"


class PCurvature:
    """psi as a bare matrix of raw values of the connection's ring, with the
    chart (a Differential) it was computed on.

    The omega0^(tensor p) twist of the chart is implicit.
    """

    __slots__ = ("matrix", "chart", "ring")

    def __init__(self, matrix, chart, ring):
        self.matrix, self.chart, self.ring = matrix, chart, ring

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(e) for row in self.matrix for e in row)

    def __getitem__(self, ij):
        return self.matrix[ij[0]][ij[1]]


class CoefficientTable:
    """The row (T_0^(n), ..., T_n^(n)) of theta0-coefficients of (T+theta0)^n:
    rows[k] is the r x r matrix T_k^(n)."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        self.n, self.rows = n, rows

    def __getitem__(self, k):
        return self.rows[k]


def chart_constant(omega0: Differential) -> FunctionFieldElement:
    """<omega0, theta0^p>, the scalar the recursion subtracts against T:
    p derivation steps, taken once per F_p-line of charts (the curve's
    memo), since every multiple of a chart has the same constant (module
    docstring)."""
    cv = omega0.curve
    _, rep = line_representative(omega0)
    return cv.memo(("chart_constant", rep.g),
                   lambda: cv.mul(rep.g, dual_derivation(rep).apply_n(cv.x(), cv.p)))


def p_curvature_rank1(T: FunctionFieldElement, omega0: Differential) -> FunctionFieldElement:
    """Closed form for a connection on the trivial line bundle:
    psi = T^p + theta0^(p-1)(T) - <omega0, theta0^p> T."""
    cv = T.curve
    theta0 = dual_derivation(omega0)
    return cv.pow(T, cv.p) + theta0.apply_n(T, cv.p - 1) - chart_constant(omega0) * T


def is_flat(omega: Differential) -> bool:
    """Whether d + omega has vanishing p-curvature: omega = 0, or its chart
    constant is 1.  On omega's own chart T = 1, so the closed form gives
    psi = 1 - <omega, theta_omega^p>, and whether psi vanishes does not
    depend on the chart.  One chart constant per F_p-line, the engine's."""
    return omega.is_zero() or chart_constant(omega) == omega.curve.one()


def _mat_add(ring, A, B, r):
    return tuple(tuple(ring.add(A[i][j], B[i][j]) for j in range(r)) for i in range(r))


def _support(ring, T):
    """T's nonzero pattern, read once per run: row i lists (k, T[i][k]) for
    the nonzero entries."""
    return tuple(tuple((k, e) for k, e in enumerate(row) if not ring.is_zero(e)) for row in T)


def _step(ring, support, M, theta):
    """T M + theta(M), the recursion's step on one coefficient matrix, for
    T given by its `_support`: no product, derivative or sum is taken of a
    zero entry of T or of M, nor a sum with a zero derivative."""
    is_zero, add, mul, deriv = ring.is_zero, ring.add, ring.mul, ring.deriv
    live = [[not is_zero(e) for e in row] for row in M]
    out = []
    for i, row in enumerate(M):
        new = []
        for j, e in enumerate(row):
            terms = [mul(t, M[k][j]) for k, t in support[i] if live[k][j]]
            if live[i][j] and not is_zero(d := deriv(e, theta)):
                terms.append(d)
            new.append(reduce(add, terms) if terms else ring.zero())
        out.append(tuple(new))
    return tuple(out)


def p_curvature_matrix(conn: ConnectionMatrix) -> PCurvature:
    """psi via the recursion T0^(n+1) = T T0^(n) + theta0(T0^(n)), skipping
    zero entries (`_step`)."""
    R, T = conn.ring, conn.entries
    theta0, support = dual_derivation(conn.chart), _support(R, T)
    T0 = T
    for _ in range(conn.curve.p - 1):
        T0 = _step(R, support, T0, theta0)
    c0 = R.lift(chart_constant(conn.chart))
    psi = tuple(tuple(e if R.is_zero(t) else R.sub(e, R.mul(c0, t)) for e, t in zip(row0, row))
                for row0, row in zip(T0, T))
    return PCurvature(matrix=psi, chart=conn.chart, ring=R)


def coefficient_table(conn: ConnectionMatrix, n: int) -> CoefficientTable:
    """All theta0-coefficients of (T + theta0)^n, 1 <= n <= p."""
    R, r, T = conn.ring, conn.rank, conn.entries
    theta0 = dual_derivation(conn.chart)
    if not 1 <= n <= conn.curve.p:
        raise RangeError(f"table order must satisfy 1 <= n <= p, got {n}")
    ident = tuple(tuple(R.one() if i == j else R.zero() for j in range(r)) for i in range(r))
    row, support = [T, ident], _support(R, T)  # n = 1
    for _ in range(n - 1):
        # T_k^(n+1) = T T_k^(n) + theta0(T_k^(n)) + T_(k-1)^(n); the top stays I
        nxt = [_step(R, support, M, theta0) for M in row]
        for k in range(1, len(nxt)):
            nxt[k] = _mat_add(R, nxt[k], row[k - 1], r)
        row = nxt + [row[-1]]
    return CoefficientTable(n=n, rows=tuple(row))


def second_fundamental_form(conn: ConnectionMatrix, v) -> FunctionFieldElement:
    """Image of theta0(v) + T v in K^2 / K v, in a deterministic complement.

    The complement basis vector is the first standard vector not proportional
    to v; the result is zero iff the line K v is preserved by the connection.
    The chart's dual derivation is used, matching the matrix convention.
    """
    if conn.rank != 2 or conn.is_dual:
        raise RangeError("second fundamental form is for rank-2 K-connections")
    v1, v2 = v
    if v1.is_zero() and v2.is_zero():
        raise ZeroVector("need a nonzero section")
    theta0 = dual_derivation(conn.chart)
    T = conn.entries
    w1 = theta0.apply(v1) + T[0][0] * v1 + T[0][1] * v2
    w2 = theta0.apply(v2) + T[1][0] * v1 + T[1][1] * v2
    # complement: e1 unless v is proportional to e1 (v2 = 0), else e2
    if v2.is_zero():
        # [v e2] has det v1; w = a v + b e2 => b = (v1 w2 - v2 w1)/v1
        return (v1 * w2 - v2 * w1) / v1
    # [v e1] has det -v2; solve w = a v + b e1
    return (v2 * w1 - v1 * w2) / v2
