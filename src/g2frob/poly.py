"""Dense univariate polynomials over a field context.

A polynomial is a tuple of raw field values with no trailing zeros; () is the
zero polynomial.  Index i holds the coefficient of x^i.  All functions take
the field context as their first argument and never mutate their inputs, so
polynomials can be shared freely.

`power` is the package's one square-and-multiply loop, in any ring given by
its one, product and inverse: `pow` here, the `pow` of `ExtField`, `DualRing`
and `Curve`, and `cartier`'s 2 x 2 matrix powers (`exactnum` imports `poly`).

Every coefficient loop dispatches to the field context's polynomial
kernels: `normalize`, `add`, `sub`, `neg`, `scale`, `derivative`,
`divide_at`, `taylor`, `mul`, `divmod_` and `gcd` call `F.poly_normalize`,
`F.poly_add`, ... `F.poly_gcd`.  Over F_p these run on the int coefficients
with inline reduction mod p; over F_{p^k} they are the generic loops at the
end of this module (`add_generic`, ..., `gcd_generic`), one field method
call per coefficient operation, which are also the test oracle for the F_p
kernels.  The same holds for `power_top_two_generic`, the Cartier-Manin
recurrence run that `cartier` calls as `F.poly_power_top_two`: over F_p an
int kernel with one reduction per step; and for `theta_step_generic`, one
derivation step in l-coordinates that `funcfield.LocalRing.deriv` calls as
`F.poly_theta_step`.  Gcds are plain Euclid.  Over F_p, from an operand
length measured on CPython 3.11 (best of seven, 2-vCPU VM), a product, a
theta step and a Taylor shift pack their ints into 64-bit slots (Kronecker
substitution, `exactnum.pack_slots`) for one big-int product: `mul` from 4
coefficients of the shorter factor (3.9 -> 3.4 us at 4 x 4, 13.9 -> 6.8 us
at 11 x 11 at p = 13, 4.55 -> 0.61 ms at 4000 x 6 at p = 2039, but 3.2 ->
3.7 us at 3 x 3), the theta step from 5 of B (23.7 -> 16.0 us at 11,
p = 13), the Taylor shift, a convolution, from 16 of min(len a, p) (Horner
2.05 ms, in place 0.93 ms, convolution 0.20 ms at degree 127, p = 127;
below, in place: 15.6 us against Horner's 36.7 at degree 13, p = 13).
"""

from __future__ import annotations

import builtins
from functools import partial

from .errors import DivisionByZero, RangeError


def normalize(F, coeffs):
    """Strip trailing zeros; coefficients must already be raw field values."""
    return F.poly_normalize(coeffs)


def from_ints(F, ints):
    """Build a polynomial from plain integer coefficients."""
    return normalize(F, [F.from_int(n) for n in ints])


def one(F):
    return (F.one(),)


def constant(F, a):
    return () if F.is_zero(a) else (a,)


def x(F):
    return (F.zero(), F.one())


def degree(a) -> int:
    """Degree with the convention deg 0 = -1."""
    return len(a) - 1


def is_zero(a) -> bool:
    return not a


def add(F, a, b):
    return F.poly_add(a, b)


def neg(F, a):
    return F.poly_neg(a)


def sub(F, a, b):
    return F.poly_sub(a, b)


def scale(F, a, s):
    return F.poly_scale(a, s)


def mul(F, a, b):
    return F.poly_mul(a, b)


def power(a, n: int, one, mul, inv):
    """a^n by square-and-multiply (module docstring); inv(a^(-n)) for n < 0,
    so `inv` may be None where n >= 0 (RangeError otherwise)."""
    if n < 0:
        if inv is None:
            raise RangeError(f"a^{n} needs an inverse, and this ring passes none")
        return inv(power(a, -n, one, mul, inv))
    r = one
    while n:
        if n & 1:
            r = mul(r, a)
        a = mul(a, a)
        n >>= 1
    return r


def pow(F, a, n: int):  # noqa: A001 - deliberate, mirrors the ring interface
    """a^n for n >= 0."""
    return power(a, n, one(F), partial(mul, F), None)


def divmod_(F, a, b):
    """Quotient and remainder; b must be nonzero."""
    return F.poly_divmod(a, b)


def monic(F, a):
    if not a:
        return ()
    if F.eq(a[-1], F.one()):
        return a
    return scale(F, a, F.inv(a[-1]))


def gcd(F, a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    return F.poly_gcd(a, b)


def derivative(F, a):
    return F.poly_derivative(a)


def divide_at(F, a, r):
    """Quotient and remainder of a by x - r in one Horner pass; the
    remainder is a(r)."""
    return F.poly_divide_at(a, r)


def taylor(F, a, r):
    """The coefficients b_i of a = sum b_i (x - r)^i."""
    return F.poly_taylor(a, r)


def coefficient(F, a, i: int):
    return a[i] if 0 <= i < len(a) else F.zero()


def is_squarefree(F, a) -> bool:
    return len(gcd(F, a, derivative(F, a))) == 1


# ---------------------------------------------------------------------------
# generic kernels: one field method call per coefficient operation
# ---------------------------------------------------------------------------

def normalize_generic(F, coeffs):
    c = list(coeffs)
    while c and F.is_zero(c[-1]):
        c.pop()
    return tuple(c)


def add_generic(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return normalize_generic(F, out)


def neg_generic(F, a):
    return tuple(F.neg(c) for c in a)


def sub_generic(F, a, b):
    return add_generic(F, a, neg_generic(F, b))


def scale_generic(F, a, s):
    if F.is_zero(s):
        return ()
    return normalize_generic(F, [F.mul(c, s) for c in a])


def derivative_generic(F, a):
    return normalize_generic(
        F, [F.mul(F.from_int(i), c) for i, c in enumerate(a)][1:]
    )


def divide_at_generic(F, a, r):
    """Horner's rule: the running values are the quotient's coefficients."""
    if not a:
        return (), F.zero()
    q = [F.zero()] * (len(a) - 1)
    acc = a[-1]
    for i in range(len(a) - 2, -1, -1):
        q[i] = acc
        acc = F.add(F.mul(acc, r), a[i])
    return tuple(q), acc


def taylor_generic(F, a, r):
    """Horner's rule once per coefficient: the remainders by x - r."""
    out = []
    while a:
        a, rem = divide_at_generic(F, a, r)
        out.append(rem)
    return tuple(out)


def mul_generic(F, a, b):
    """Schoolbook product."""
    if not a or not b:
        return ()
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if not F.is_zero(c):
            for j, d in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(c, d))
    return normalize(F, out)


def theta_step_generic(F, A, B, j: int, phi, psi, c):
    """The numerators (c [(l B' - j B) phi + l B psi], c (l A' - j A)) of one
    theta step in l-coordinates (`funcfield.LocalRing.deriv`), where
    l a' - j a = sum (m - j) a_m l^m; not stripped of common factors l."""
    def euler(a):
        return [F.mul(F.from_int(m - j), x) for m, x in enumerate(a)]

    lBpsi = mul_generic(F, B, psi)
    nA = add_generic(F, mul_generic(F, euler(B), phi), (F.zero(),) + lBpsi if lBpsi else ())
    return scale_generic(F, nA, c), scale_generic(F, euler(A), c)


def divmod_generic(F, a, b):
    """Quotient and remainder by long division; b must be nonzero."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    q = [F.zero()] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    while len(a) >= len(b) and a:
        s = F.mul(a[-1], inv_lead)
        k = len(a) - len(b)
        q[k] = s
        for i, c in enumerate(b):
            a[k + i] = F.sub(a[k + i], F.mul(s, c))
        while a and F.is_zero(a[-1]):
            a.pop()
    return normalize(F, q), normalize(F, a)


def gcd_generic(F, a, b):
    """Monic gcd by Euclid."""
    while b:
        a, b = b, divmod_generic(F, a, b)[1]
    return monic(F, a)


def power_top_two_generic(F, g, n: int, top: int, inv=None):
    """The coefficients of x^top and x^(top-1) in g^n, for 1 <= top < p, by
    the recurrence of `cartier` (its module docstring).  inv, the F_p
    kernel's table of inverses, is not read: this loop inverts each k itself.

    g is a coefficient tuple of degree >= 2 with g[0] != 0.  With d_j =
    g_j / g0 the recurrence reads h_k = k^(-1) s1 - s2, where s1 = sum_j
    (n + 1) j d_j h_{k-j} and s2 = sum_j d_j h_{k-j}; only the last deg g
    values are kept.  One inverse of k per step; the oracle of the F_p kernel.
    """
    p = F.char
    g0_inv = F.inv(g[0])
    terms = []
    for j in range(1, len(g)):
        if not F.is_zero(g[j]):
            d = F.mul(g[j], g0_inv)
            terms.append((j, d, F.mul(F.from_int((n + 1) * j), d)))
    window = [F.zero()] * (len(g) - 2) + [F.pow(g[0], n)]  # ..., h_0
    for k in range(1, top + 1):
        s1 = s2 = F.zero()
        for j, d, e in terms:
            h = window[-j]
            s1 = F.add(s1, F.mul(e, h))
            s2 = F.add(s2, F.mul(d, h))
        window.append(F.sub(F.mul(F.from_int(builtins.pow(k, -1, p)), s1), s2))
        del window[0]
    return window[-1], window[-2]
