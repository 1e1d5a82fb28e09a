"""The genus-2 hyperelliptic function field K = F_q(x)[y] / (y^2 - f(x)).

The curve model is y^2 = f(x) with f monic, squarefree, of degree exactly 5
over a field of odd characteristic, so there is a single point at infinity
and the global regular differentials are spanned by dx/y and x dx/y.

Elements of K are kept in the normal form (A + B y) / D with A, B, D
polynomials in x, D monic, and gcd(gcd(A, B), D) = 1.  Two elements are
equal iff their normal forms are identical, which makes equality testing
and zero testing trivial.

Curve's arithmetic builds every normal form by `Curve._make`, which divides
out the common factor of A, B and D.  Its cost is that gcd, so the
arithmetic keeps the candidates small:

* A derivative is put over the one denominator D^2 f: du = g dx with
  g = (f (A'D - AD') + (f (B'D - BD') + B f' D / 2) y) / (D^2 f), from the
  quotient rule and dy = f'/(2y) dx = f' y/(2f) dx, and reduced once.
* A product with a nonzero constant c is (cA + cB y) / D: D stays monic and
  gcd(cA, cB, D) = gcd(A, B, D) = 1, so it is already a normal form and no
  gcd runs; the constant 1 returns the other operand itself.

The l-local ring.  The derivation dual to a global form (a + b x) dx/y has
theta(x) = c y / l^e: l = x - r the monic factor of a + b x and e = 1 when
b != 0, l = x and e = 0 when b = 0 (and for the chart dx/y).  It maps
R = F[x, y][1/l] into itself, and `LocalRing` computes in R in
l-coordinates (A(l) + B(l) y) / l^j, canonical when l does not divide both
A and B, so a common l is stripped by a slice.  With f = phi(l),
f'/2 = psi(l) expanded at r once and l' = 1, the quotient rule gives
    theta((A + B y) / l^j)
      = c [(l B' - j B) phi + l B psi + (l A' - j A) y] / l^(j+1+e),
where l A' - j A = sum (m - j) a_m l^m: no gcd and no product by a power
of l.  `LocalRing.deriv` takes both numerators from one kernel of the
field context, `poly_theta_step` (`exactnum`): over F_p two products of
packed ints, or an int loop on short B.  Lifts and their inverse are the
field's Taylor shift `poly_taylor`.  Back in K (`LocalRing.element`),
D = (x - r)^j, one stored power per ring and j, and gcd(A, B, D) = 1: a
normal form with no gcd.

Differentials are represented on the affine chart as g dx with g in K.
A derivation theta is determined by theta(x) (the chain rule extends it to
all of K, with theta(y) = theta(x) f'(x) / (2y)), and <g dx, theta> =
g * theta(x).

The hyperelliptic involution is y -> -y; it fixes F_q(x) pointwise and acts
on differentials through their dx-coefficients.
"""

from __future__ import annotations

import hashlib
import json

from . import poly
from .errors import (
    DegreeNotFive,
    DegreeOverflow,
    DivisionByZero,
    NotSquarefree,
    RangeError,
    ZeroDifferential,
)
from .exactnum import ExtField, coords, field_arith, make_field, prime_field_ints, raw_to_json


class Curve:
    """y^2 = f(x), deg f = 5, f monic squarefree, over F_p or F_{p^k}.

    The curve object doubles as the arithmetic context for its function
    field: all FunctionFieldElement operations go through it, each result a
    gcd normal form, and `d_coefficient` is its one derivative.  Its
    `is_zero`, `lift` and `deriv` make it the ring context of the
    p-curvature engine over K (DualRing(curve) is the one over K[eps]).
    Its attribute `degree_cap`, 64 p + 400 and not a constructor parameter,
    bounds the polynomial degrees appearing in normal forms; derivation
    towers grow degrees steadily and the cap turns a blowup into an explicit
    DegreeOverflow instead of a memory grab.

    The curve also owns a memo (`memo`): each module that asks for a
    result again and again keys it there, under a tuple that begins with a
    name of its own.  Memo values refer back to the curve, so a curve used
    as a context manager clears its memo on exit: refcounting, not the
    cyclic garbage collector, then frees both once the CLI call or scan row
    that built the curve lets it go.
    """

    __slots__ = ("field", "f", "f_ints", "fprime", "degree_cap", "_half_fprime", "_memo",
                 "__weakref__")

    def __init__(self, field, f_coeffs):
        f = poly.normalize(field, tuple(f_coeffs))
        if poly.degree(f) != 5 or not field.eq(f[-1], field.one()):
            raise DegreeNotFive(
                f"f must be monic of degree 5, got degree {poly.degree(f)}"
            )
        # f_ints: f as F_p ints, None when a coefficient lies outside F_p; an
        # F_p-rational f is squarefree over F_p exactly when over F_{p^k}, and
        # f' and f'/2 are taken on the ints, then embedded
        self.f_ints = ints = prime_field_ints(f)
        G, g = (field, f) if ints is None else (field.prime_field, ints)
        if not poly.is_squarefree(G, g):
            raise NotSquarefree("gcd(f, f') != 1: the model y^2 = f is singular")
        dg = poly.derivative(G, g)
        half = poly.scale(G, dg, G.from_int((field.char + 1) // 2))
        if ints is not None:
            dg, half = tuple(map(field.from_int, dg)), tuple(map(field.from_int, half))
        self.field = field
        self.f = f
        self.fprime = dg
        self.degree_cap = 64 * field.char + 400
        self._half_fprime = half
        self._memo = {}

    @property
    def p(self) -> int:
        return self.field.char

    @property
    def genus(self) -> int:
        return 2

    def memo(self, key, compute):
        """The value stored under `key` in this curve's memo; `compute()`
        supplies it on first use."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._memo.clear()

    # -- element constructors ----------------------------------------------
    def element(self, A, B=(), D=None) -> "FunctionFieldElement":
        if D is None:
            D = poly.one(self.field)
        F = self.field
        return self._make(
            poly.normalize(F, tuple(A)),
            poly.normalize(F, tuple(B)),
            poly.normalize(F, tuple(D)),
        )

    def from_poly(self, coeffs) -> "FunctionFieldElement":
        return self._make(poly.normalize(self.field, tuple(coeffs)), (), poly.one(self.field))

    def from_ints(self, ints) -> "FunctionFieldElement":
        return self.from_poly(poly.from_ints(self.field, ints))

    def constant(self, a) -> "FunctionFieldElement":
        return self.from_poly(poly.constant(self.field, a))

    def zero(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self, (), (), poly.one(self.field))

    def one(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self, poly.one(self.field), (), poly.one(self.field))

    def x(self) -> "FunctionFieldElement":
        return self.from_poly(poly.x(self.field))

    def y(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self, (), poly.one(self.field), poly.one(self.field))

    def _make(self, A, B, D) -> "FunctionFieldElement":
        """The normal form of (A + B y) / D."""
        F = self.field
        if poly.is_zero(D):
            raise DivisionByZero("zero denominator in function field element")
        if poly.is_zero(A) and poly.is_zero(B):
            return FunctionFieldElement(self, (), (), poly.one(F))
        if poly.degree(D) > 0:
            g = poly.gcd(F, B, poly.gcd(F, A, D))
            if poly.degree(g) > 0:
                A = poly.divmod_(F, A, g)[0]
                B = poly.divmod_(F, B, g)[0]
                D = poly.divmod_(F, D, g)[0]
        if not F.eq(D[-1], F.one()):
            s = F.inv(D[-1])
            A = poly.scale(F, A, s)
            B = poly.scale(F, B, s)
            D = poly.scale(F, D, s)
        top = max(poly.degree(A), poly.degree(B), poly.degree(D))
        if top > self.degree_cap:
            raise DegreeOverflow(
                f"normal form degree {top} exceeds cap {self.degree_cap}"
            )
        return FunctionFieldElement(self, A, B, D)

    # -- arithmetic (operands assumed to be elements of this curve's K) -----
    def add(self, u, v):
        if u.is_zero():
            return v
        if v.is_zero():
            return u
        F = self.field
        A = poly.add(F, poly.mul(F, u.A, v.D), poly.mul(F, v.A, u.D))
        B = poly.add(F, poly.mul(F, u.B, v.D), poly.mul(F, v.B, u.D))
        return self._make(A, B, poly.mul(F, u.D, v.D))

    def neg(self, u):
        return FunctionFieldElement(
            self, poly.neg(self.field, u.A), poly.neg(self.field, u.B), u.D
        )

    def sub(self, u, v):
        return self.add(u, self.neg(v))

    def mul(self, u, v):
        """The product; by a constant it is a scaling (module docstring)."""
        if u.is_zero() or v.is_zero():
            return self.zero()
        if v.is_constant():
            u, v = v, u
        F = self.field
        if u.is_constant():
            c = u.A[0]
            if F.eq(c, F.one()):
                return v
            return FunctionFieldElement(
                self, poly.scale(F, v.A, c), poly.scale(F, v.B, c), v.D
            )
        A = poly.add(
            F,
            poly.mul(F, u.A, v.A),
            poly.mul(F, poly.mul(F, u.B, v.B), self.f),
        )
        B = poly.add(F, poly.mul(F, u.A, v.B), poly.mul(F, u.B, v.A))
        return self._make(A, B, poly.mul(F, u.D, v.D))

    def inv(self, u):
        # (A + B y)^(-1) = (A - B y)/(A^2 - B^2 f); nonzero since f is not a square
        F = self.field
        N = poly.sub(
            F,
            poly.mul(F, u.A, u.A),
            poly.mul(F, poly.mul(F, u.B, u.B), self.f),
        )
        if poly.is_zero(N):
            raise DivisionByZero("inversion of zero in the function field")
        return self._make(
            poly.mul(F, u.A, u.D), poly.neg(F, poly.mul(F, u.B, u.D)), N
        )

    def div(self, u, v):
        return self.mul(u, self.inv(v))

    def is_zero(self, u) -> bool:
        return u.is_zero()

    def lift(self, u):
        """K is its own coefficient ring: the embedding is the identity."""
        return u

    def deriv(self, u, theta: "Derivation"):
        return theta.apply(u)

    def pow(self, u, n: int):
        return poly.power(u, n, self.one(), self.mul, self.inv)

    # -- the canonical derivation d ----------------------------------------
    def d_coefficient(self, u) -> "FunctionFieldElement":
        """g such that du = g dx: the quotient rule and dy = f'/(2y) dx over
        the one denominator D^2 f, reduced once (module docstring)."""
        F, f, D = self.field, self.f, u.D
        Dp = poly.derivative(F, D)
        A = poly.mul(F, f, poly.sub(
            F, poly.mul(F, poly.derivative(F, u.A), D), poly.mul(F, u.A, Dp)))
        B = poly.add(
            F,
            poly.mul(F, f, poly.sub(
                F, poly.mul(F, poly.derivative(F, u.B), D), poly.mul(F, u.B, Dp))),
            poly.mul(F, poly.mul(F, u.B, self._half_fprime), D),
        )
        return self._make(A, B, poly.mul(F, poly.mul(F, D, D), f))

    # -- global regular differentials ---------------------------------------
    def basis_forms(self):
        """The basis (dx/y, x dx/y) of the global regular differentials."""
        F = self.field
        return self.global_form(F.one(), F.zero()), self.global_form(F.zero(), F.one())

    def global_form(self, a, b) -> "Differential":
        """(a + b x) dx / y for raw field values a, b: (a + b x) y / f is a
        normal form as it stands (f is monic) unless b != 0 and f(-a/b) = 0,
        the one case where `_make` divides out x + a/b."""
        F = self.field
        B = poly.normalize(F, (a, b))
        if not B:
            return Differential(self, self.zero())
        if len(B) == 2 and F.is_zero(poly.divide_at(F, self.f, F.neg(F.div(a, b)))[1]):
            return Differential(self, self._make((), B, self.f))
        return Differential(self, FunctionFieldElement(self, (), B, self.f))

    def __repr__(self):
        return f"Curve({self.field!r}, f={self.f})"

    def __eq__(self, other):
        return (
            isinstance(other, Curve)
            and other.field == self.field
            and other.f == self.f
        )

    def __hash__(self):
        return hash(("Curve", self.field, self.f))


class FunctionFieldElement:
    """(A + B y) / D in normal form.  Immutable; operators delegate to the curve."""

    __slots__ = ("curve", "A", "B", "D")

    def __init__(self, curve: Curve, A, B, D):
        self.curve = curve
        self.A = A
        self.B = B
        self.D = D

    def is_zero(self) -> bool:
        return not self.A and not self.B

    def is_constant(self) -> bool:
        return not self.B and len(self.A) <= 1 and len(self.D) == 1

    def inverse(self) -> "FunctionFieldElement":
        return self.curve.inv(self)

    def __add__(self, other):
        return self.curve.add(self, _coerce(self.curve, other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.curve.sub(self, _coerce(self.curve, other))

    def __rsub__(self, other):
        return self.curve.sub(_coerce(self.curve, other), self)

    def __neg__(self):
        return self.curve.neg(self)

    def __mul__(self, other):
        return self.curve.mul(self, _coerce(self.curve, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.curve.div(self, _coerce(self.curve, other))

    def __rtruediv__(self, other):
        return self.curve.div(_coerce(self.curve, other), self)

    def __pow__(self, n: int):
        return self.curve.pow(self, n)

    def __eq__(self, other):
        if not isinstance(other, FunctionFieldElement):
            return NotImplemented
        return self.curve == other.curve and (
            self.A == other.A and self.B == other.B and self.D == other.D
        )

    def __hash__(self):
        return hash((self.A, self.B, self.D))

    def __repr__(self):
        return f"FFE(A={self.A}, B={self.B}, D={self.D})"


def _coerce(curve: Curve, v):
    if isinstance(v, FunctionFieldElement):
        return v
    if isinstance(v, int):
        return curve.constant(curve.field.from_int(v))
    raise RangeError(f"cannot interpret {v!r} in the function field")


class Differential:
    """A rational differential g dx on the affine chart."""

    __slots__ = ("curve", "g")

    def __init__(self, curve: Curve, g: FunctionFieldElement):
        self.curve = curve
        self.g = g

    def is_zero(self) -> bool:
        return self.g.is_zero()

    def __add__(self, other: "Differential") -> "Differential":
        return Differential(self.curve, self.g + other.g)

    def __sub__(self, other: "Differential") -> "Differential":
        return Differential(self.curve, self.g - other.g)

    def __neg__(self) -> "Differential":
        return Differential(self.curve, -self.g)

    def scaled(self, u) -> "Differential":
        """K-scaling u * omega."""
        return Differential(self.curve, self.g * _coerce(self.curve, u))

    def ratio(self, other: "Differential") -> FunctionFieldElement:
        """self / other as an element of K (other nonzero)."""
        if other.is_zero():
            raise ZeroDifferential("ratio by the zero differential")
        return self.g / other.g

    def __eq__(self, other):
        if not isinstance(other, Differential):
            return NotImplemented
        return self.curve == other.curve and self.g == other.g

    def __hash__(self):
        return hash(("dx", self.g))

    def __repr__(self):
        return f"Differential({self.g!r} dx)"


class Derivation:
    """A derivation of K determined by its value on x.

    theta(u) = d_coefficient(u) theta(x) in general.  For theta(x) = c y / l^e,
    l = x - r or l = x, `ring` is the LocalRing of l (one per root, the
    curve's memo; None for any other theta(x)), and an input whose
    denominator is 1 or a power of l is lifted once, takes its n steps there,
    and comes back."""

    __slots__ = ("curve", "value_on_x", "ring")

    def __init__(self, curve: Curve, value_on_x: FunctionFieldElement):
        self.curve, self.value_on_x, self.ring = curve, value_on_x, None
        v, F = value_on_x, curve.field
        if not v.A and len(v.B) == 1 and len(v.D) <= 2:
            r = F.neg(v.D[0]) if len(v.D) == 2 else F.zero()
            self.ring = curve.memo(("local_ring", r), lambda: LocalRing(curve, r))

    def apply(self, u: FunctionFieldElement) -> FunctionFieldElement:
        return self.apply_n(u, 1)

    def apply_n(self, u: FunctionFieldElement, n: int) -> FunctionFieldElement:
        if n < 0:
            raise RangeError("derivation iterate needs n >= 0")
        R = self.ring
        v = R.lift(u) if R is not None and n else None
        if v is None:
            cv = self.curve
            for _ in range(n):
                u = cv.mul(cv.d_coefficient(u), self.value_on_x)
            return u
        for _ in range(n):
            v = R.deriv(v, self)
        return R.element(v)

    def __repr__(self):
        return f"Derivation(theta(x)={self.value_on_x!r})"


class LocalRing:
    """F[x, y][1/l], l = x - r, in l-coordinates (module docstring), the ring
    context of the theta_L path.  A raw value (A, B, j) is the canonical
    (A(l) + B(l) y) / l^j; `lift` takes K to it (None off the ring) and
    `element` back."""

    __slots__ = ("curve", "r", "_phi", "_psi", "_powers")

    def __init__(self, curve: Curve, r):
        F = curve.field
        self.curve = curve
        self.r = r
        self._phi = poly.taylor(F, curve.f, r)  # f = phi(l)
        self._psi = poly.taylor(F, curve._half_fprime, r)  # f'/2 = psi(l)
        self._powers = [poly.one(F)]  # (x - r)^j at index j

    def make(self, A, B, j: int):
        """The canonical (A + B y) / l^j: common factors l, at most j, sliced off."""
        F, cap, k = self.curve.field, self.curve.degree_cap, 0
        while k < j and (k >= len(A) or F.is_zero(A[k])) and (k >= len(B) or F.is_zero(B[k])):
            k += 1
        A, B, j = A[k:], B[k:], j - k
        top = max(len(A) - 1, len(B) - 1, j)
        if top > cap:
            raise DegreeOverflow(f"normal form degree {top} exceeds cap {cap}")
        return A, B, j

    def zero(self):
        return (), (), 0

    def one(self):
        return (self.curve.field.one(),), (), 0

    def is_zero(self, u) -> bool:
        return not u[0] and not u[1]

    def add(self, u, v):
        if not u[0] and not u[1]:
            return v
        if u[2] < v[2]:
            u, v = v, u
        F, (A, B, i), (C, E, j) = self.curve.field, u, v
        s = i - j
        return self.make(poly.add(F, A, _shift(F, C, s)), poly.add(F, B, _shift(F, E, s)), i)

    def neg(self, u):
        F = self.curve.field
        return poly.neg(F, u[0]), poly.neg(F, u[1]), u[2]

    def sub(self, u, v):
        return self.add(u, self.neg(v))

    def mul(self, u, v):
        """The product; the ring's one returns the other operand itself."""
        one = self.one()
        if u == one:
            return v
        if v == one:
            return u
        F, (A, B, i), (C, E, j) = self.curve.field, u, v
        if not (A or B) or not (C or E):
            return self.zero()
        if not B and not E:
            return self.make(poly.mul(F, A, C), (), i + j)
        A2 = poly.add(F, poly.mul(F, A, C), poly.mul(F, poly.mul(F, B, E), self._phi))
        return self.make(A2, poly.add(F, poly.mul(F, A, E), poly.mul(F, B, C)), i + j)

    def numerators(self, us):
        """(numerators, J): each u as a pair (A, B) over the one denominator
        l^J, J the largest exponent; a shift each, no product."""
        F, J = self.curve.field, max(u[2] for u in us)
        return [(_shift(F, A, J - j), _shift(F, B, J - j)) for A, B, j in us], J

    def power(self, j: int):
        """(x - r)^j, l^j in the x-basis: computed once per ring and j."""
        F, powers = self.curve.field, self._powers
        while len(powers) <= j:
            powers.append(poly.mul(F, powers[-1], (F.neg(self.r), F.one())))
        return powers[j]

    def lift(self, u: FunctionFieldElement):
        """u in l-coordinates, the Taylor expansions of uA and uB at r; None
        when uD is not a power of l."""
        F, j = self.curve.field, len(u.D) - 1
        if j and u.D != self.power(j):
            return None
        return poly.taylor(F, u.A, self.r), poly.taylor(F, u.B, self.r), j

    def to_x(self, a):
        """A polynomial a in l as the polynomial a(x - r) in x."""
        return poly.taylor(self.curve.field, a, self.curve.field.neg(self.r))

    def element(self, u) -> FunctionFieldElement:
        """The normal form (A(x - r) + B(x - r) y) / (x - r)^j: no gcd."""
        return FunctionFieldElement(self.curve, self.to_x(u[0]), self.to_x(u[1]), self.power(u[2]))

    def deriv(self, u, theta: Derivation):
        """theta(u) for theta(x) = c y / l^e by the one-step formula of the
        module docstring, one field kernel (`poly_theta_step`) for both
        numerators; c and e are read off theta(x), and `make` strips."""
        A, B, j = u
        if not B and not j and len(A) <= 1:  # a constant, zero included
            return self.zero()
        v = theta.value_on_x
        nA, nB = self.curve.field.poly_theta_step(A, B, j, self._phi, self._psi, v.B[0])
        return self.make(nA, nB, j + len(v.D))


def _shift(F, a, n: int):
    """l^n a for a polynomial a in l."""
    return (F.zero(),) * n + a if a else ()


# ---------------------------------------------------------------------------
# module-level operations (the public surface)
# ---------------------------------------------------------------------------

def make_curve(field, f_coeffs) -> Curve:
    """Validate and build a curve; raises DegreeNotFive / NotSquarefree on
    bad input (the field context has already refused p = 2)."""
    return Curve(field, f_coeffs)


def k_arith(u: FunctionFieldElement, v: FunctionFieldElement, op: str) -> FunctionFieldElement:
    """`field_arith` on K, the curve as the ring context."""
    return field_arith(u.curve, u, v, op)


def canonical_d(u: FunctionFieldElement) -> Differential:
    """du as a differential; kills p-th powers."""
    return Differential(u.curve, u.curve.d_coefficient(u))


def dual_derivation(omega: Differential) -> Derivation:
    """The derivation theta with <omega, theta> = 1, i.e. theta(x) = 1/g;
    one per chart (the curve's memo).  With (t, omega_L) the line's
    representative, theta = t theta_L, since <omega, t theta_L> =
    <t omega, theta_L> = 1: one inversion per F_p-line of charts."""
    if omega.is_zero():
        raise ZeroDifferential("the zero differential has no dual derivation")
    cv = omega.curve

    def derive():
        t, rep = line_representative(omega)
        if rep.g == omega.g:  # t = 1
            return Derivation(cv, omega.g.inverse())
        return Derivation(cv, cv.mul(cv.constant(t), dual_derivation(rep).value_on_x))

    return cv.memo(("dual_derivation", omega.g), derive)


def line_representative(omega: Differential):
    """(t, t omega) for a nonzero form omega: t in F_p^* is the inverse of
    the first nonzero F_p-coordinate of the leading coefficient of omega's
    numerator (of B when B != 0), so t omega, whose coordinate is 1, is one
    representative shared by every F_p-multiple of omega."""
    if omega.is_zero():
        raise ZeroDifferential("the zero differential spans no line")
    cv, lead = omega.curve, (omega.g.B or omega.g.A)[-1]
    t = cv.field.from_int(pow(next(c for c in coords(lead) if c), -1, cv.p))
    return t, Differential(cv, cv.mul(cv.constant(t), omega.g))


def pair(omega: Differential, theta: Derivation) -> FunctionFieldElement:
    """<g dx, theta> = g * theta(x); K-bilinear."""
    return omega.curve.mul(omega.g, theta.value_on_x)


def iterate_derivation(theta: Derivation, u: FunctionFieldElement, n: int) -> FunctionFieldElement:
    return theta.apply_n(u, n)


def hyperelliptic_involution(v):
    """y -> -y on elements; g dx -> involution(g) dx on differentials."""
    if isinstance(v, Differential):
        return Differential(v.curve, hyperelliptic_involution(v.g))
    if isinstance(v, FunctionFieldElement):
        return FunctionFieldElement(v.curve, v.A, poly.neg(v.curve.field, v.B), v.D)
    raise RangeError("involution acts on elements and differentials")


# ---------------------------------------------------------------------------
# catalog interchange: {"p": int, "ext": optional modulus coeffs, "f": [c0..c5]}
# ---------------------------------------------------------------------------

def curve_from_spec(spec: dict) -> Curve:
    """Build a curve from its catalog record.  A coefficient is an int, or a
    list of at most k ints in the basis 1, t, ..., t^(k-1) of F_{p^k}."""
    if not isinstance(spec, dict) or "p" not in spec or "f" not in spec:
        raise RangeError("curve record must be an object with at least 'p' and 'f'")
    ext = spec.get("ext")
    if ext and not _is_int_list(ext):
        raise RangeError("'ext' must list the integer modulus coefficients")
    field = make_field(spec["p"]) if not ext else ExtField(spec["p"], ext)
    f = spec["f"]
    if not isinstance(f, list) or len(f) != 6:
        raise DegreeNotFive("'f' must list the six coefficients c0..c5")
    if not all(isinstance(c, int) or _is_int_list(c) for c in f):
        raise RangeError("each coefficient of 'f' must be an int or a list of ints")
    coeffs = [field.from_coeffs(c if isinstance(c, list) else [c]) for c in f]
    return Curve(field, coeffs)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(c, int) for c in v)


def curve_spec(curve: Curve) -> dict:
    """The catalog record for a curve (inverse of curve_from_spec)."""
    spec = {"p": curve.p, "f": _f_json(curve)}
    if isinstance(curve.field, ExtField):
        spec["ext"] = list(curve.field.modulus)
    return spec


def curve_id(curve: Curve) -> str:
    """Canonical hash of (p, k, modulus, f), stable across runs; one per curve."""
    field = curve.field
    return curve.memo(("curve_id",), lambda: hashlib.sha256(json.dumps({
        "p": curve.p,
        "k": getattr(field, "k", 1),
        "modulus": list(getattr(field, "modulus", [])),
        "f": _f_json(curve),
    }, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16])


def random_curve(field, rng) -> Curve:
    """Rejection-sample a monic squarefree quintic; deterministic given rng state."""
    while True:
        coeffs = [field.random(rng) for _ in range(5)] + [field.one()]
        try:
            return Curve(field, coeffs)
        except NotSquarefree:
            continue


def _f_json(curve: Curve):
    """The six coefficients c0..c5 of f as JSON values."""
    return [raw_to_json(poly.coefficient(curve.field, curve.f, i)) for i in range(6)]
