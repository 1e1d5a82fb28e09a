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

psi is returned as a bare matrix over K; the implicit omega0^(tensor p)
twist is never materialized because only vanishing and equality of psi are
ever consumed.

The engine is generic over its coefficient entries: plain function field
elements, or first-order deformations (DualFunctionElement, a pair
body + eps * slope with eps^2 = 0).  Both support the ring operators and a
`deriv` method, which is all the recursion touches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RangeError, ZeroVector
from .funcfield import (
    Curve,
    Derivation,
    Differential,
    FunctionFieldElement,
    pair,
)


class DualFunctionElement:
    """body + eps * slope with eps^2 = 0, over the function field."""

    __slots__ = ("body", "slope")

    def __init__(self, body: FunctionFieldElement, slope: FunctionFieldElement):
        self.body = body
        self.slope = slope

    @classmethod
    def lift(cls, u: FunctionFieldElement) -> "DualFunctionElement":
        return cls(u, u.curve.zero())

    @classmethod
    def infinitesimal(cls, u: FunctionFieldElement) -> "DualFunctionElement":
        return cls(u.curve.zero(), u)

    @property
    def curve(self) -> Curve:
        return self.body.curve

    def is_zero(self) -> bool:
        return self.body.is_zero() and self.slope.is_zero()

    def deriv(self, theta: Derivation) -> "DualFunctionElement":
        return DualFunctionElement(theta.apply(self.body), theta.apply(self.slope))

    def __add__(self, other: "DualFunctionElement") -> "DualFunctionElement":
        return DualFunctionElement(self.body + other.body, self.slope + other.slope)

    def __sub__(self, other: "DualFunctionElement") -> "DualFunctionElement":
        return DualFunctionElement(self.body - other.body, self.slope - other.slope)

    def __neg__(self) -> "DualFunctionElement":
        return DualFunctionElement(-self.body, -self.slope)

    def __mul__(self, other: "DualFunctionElement") -> "DualFunctionElement":
        return DualFunctionElement(
            self.body * other.body,
            self.body * other.slope + self.slope * other.body,
        )

    def __eq__(self, other):
        if not isinstance(other, DualFunctionElement):
            return NotImplemented
        return self.body == other.body and self.slope == other.slope

    def __hash__(self):
        return hash((self.body, self.slope))

    def __repr__(self):
        return f"Dual({self.body!r} + eps*{self.slope!r})"


class ConnectionMatrix:
    """r x r matrix T over K (or K[eps]) plus the chart form omega0."""

    __slots__ = ("curve", "rank", "entries", "chart")

    def __init__(self, curve: Curve, entries, chart: Differential):
        rows = tuple(tuple(row) for row in entries)
        r = len(rows)
        if r < 1 or any(len(row) != r for row in rows):
            raise RangeError("connection matrix must be square, rank >= 1")
        if chart.is_zero():
            raise RangeError("the chart differential must be nonzero")
        kinds = {type(e) for row in rows for e in row}
        if not kinds <= {FunctionFieldElement, DualFunctionElement} or len(kinds) != 1:
            raise RangeError("entries must be uniformly K or K[eps] valued")
        self.curve = curve
        self.rank = r
        self.entries = rows
        self.chart = chart

    @property
    def is_dual(self) -> bool:
        return isinstance(self.entries[0][0], DualFunctionElement)

    def trace(self):
        t = self.entries[0][0]
        for i in range(1, self.rank):
            t = t + self.entries[i][i]
        return t

    def __repr__(self):
        return f"ConnectionMatrix(rank={self.rank}, chart={self.chart!r})"


@dataclass(frozen=True)
class PCurvature:
    """psi as a bare matrix over the connection's coefficient ring.

    The omega0^(tensor p) twist of the chart is implicit.
    """

    matrix: tuple
    chart: Differential

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.matrix for e in row)

    def __getitem__(self, ij):
        return self.matrix[ij[0]][ij[1]]


@dataclass(frozen=True)
class CoefficientTable:
    """The row (T_0^(n), ..., T_n^(n)) of theta0-coefficients of (T+theta0)^n."""

    n: int
    rows: tuple  # rows[k] is the r x r matrix T_k^(n)

    def __getitem__(self, k):
        return self.rows[k]


def _check_duality(omega0: Differential, theta0: Derivation):
    if not pair(omega0, theta0) == omega0.curve.one():
        raise RangeError("theta0 is not dual to the chart form: <omega0, theta0> != 1")


def chart_constant(omega0: Differential, theta0: Derivation) -> FunctionFieldElement:
    """<omega0, theta0^p>, the scalar the recursion subtracts against T.

    p derivation steps, taken once per curve and chart (the curve's memo).
    """
    cv = omega0.curve
    return cv.memo(
        ("chart_constant", omega0.g, theta0.value_on_x),
        lambda: cv.mul(omega0.g, theta0.apply_n(cv.x(), cv.p)),
    )


def p_curvature_rank1(
    T: FunctionFieldElement, theta0: Derivation, omega0: Differential
) -> FunctionFieldElement:
    """Closed form for a connection on the trivial line bundle:
    psi = T^p + theta0^(p-1)(T) - <omega0, theta0^p> T."""
    _check_duality(omega0, theta0)
    cv = T.curve
    c0 = chart_constant(omega0, theta0)
    return cv.pow(T, cv.p) + theta0.apply_n(T, cv.p - 1) - c0 * T


def _entry_like(sample, value: FunctionFieldElement):
    """Lift a K value to the entry ring of `sample`."""
    if isinstance(sample, DualFunctionElement):
        return DualFunctionElement.lift(value)
    return value


def _identity_entries(conn: ConnectionMatrix):
    cv = conn.curve
    one = _entry_like(conn.entries[0][0], cv.one())
    zero = _entry_like(conn.entries[0][0], cv.zero())
    return tuple(
        tuple(one if i == j else zero for j in range(conn.rank))
        for i in range(conn.rank)
    )


def _mat_mul(A, B, r):
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = A[i][0] * B[0][j]
            for k in range(1, r):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_theta(M, theta, r):
    return tuple(tuple(M[i][j].deriv(theta) for j in range(r)) for i in range(r))


def p_curvature_matrix(conn: ConnectionMatrix, theta0: Derivation) -> PCurvature:
    """psi via the recursion T0^(n+1) = T T0^(n) + theta0(T0^(n))."""
    _check_duality(conn.chart, theta0)
    cv, r, T = conn.curve, conn.rank, conn.entries
    T0 = T
    for _ in range(cv.p - 1):
        prod = _mat_mul(T, T0, r)
        dT0 = _mat_theta(T0, theta0, r)
        T0 = tuple(
            tuple(prod[i][j] + dT0[i][j] for j in range(r)) for i in range(r)
        )
    c0 = _entry_like(T[0][0], chart_constant(conn.chart, theta0))
    psi = tuple(
        tuple(T0[i][j] - c0 * T[i][j] for j in range(r)) for i in range(r)
    )
    return PCurvature(matrix=psi, chart=conn.chart)


def coefficient_table(conn: ConnectionMatrix, theta0: Derivation, n: int) -> CoefficientTable:
    """All theta0-coefficients of (T + theta0)^n, 1 <= n <= p."""
    _check_duality(conn.chart, theta0)
    cv, r, T = conn.curve, conn.rank, conn.entries
    if not 1 <= n <= cv.p:
        raise RangeError(f"table order must satisfy 1 <= n <= p, got {n}")
    ident = _identity_entries(conn)
    row = [T, ident]  # n = 1
    for _ in range(n - 1):
        nxt = []
        for k in range(len(row) + 1):
            if k < len(row):
                term = _mat_mul(T, row[k], r)
                dk = _mat_theta(row[k], theta0, r)
                term = tuple(
                    tuple(term[i][j] + dk[i][j] for j in range(r)) for i in range(r)
                )
            else:
                term = None
            if k > 0:
                prev = row[k - 1]
                term = prev if term is None else tuple(
                    tuple(term[i][j] + prev[i][j] for j in range(r)) for i in range(r)
                )
            nxt.append(term)
        row = nxt
    return CoefficientTable(n=n, rows=tuple(row))


def second_fundamental_form(conn: ConnectionMatrix, v) -> FunctionFieldElement:
    """Image of theta0(v) + T v in K^2 / K v, in a deterministic complement.

    The complement basis vector is the first standard vector not proportional
    to v; the result is zero iff the line K v is preserved by the connection.
    The chart's dual derivation is used, matching the matrix convention.
    """
    from .funcfield import dual_derivation

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
