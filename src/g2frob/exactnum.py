"""Exact coefficient rings: prime fields, extension fields, dual numbers.

A ring here is a lightweight *context object* whose methods operate on raw
element values:

    PrimeField(p)        raw value: int in [0, p)
    ExtField(p, modulus) raw value: tuple of k ints (coefficients in the
                         basis 1, t, ..., t^(k-1) modulo the monic
                         irreducible `modulus` of degree k)
    DualRing(base)       raw value: pair (body, slope) of base raws,
                         representing body + eps*slope with eps^2 = 0

Raw values are plain immutable Python data, so everything in this module is
safe to share across threads and processes.  Contexts compare equal when they
describe the same ring, which lets curves and higher layers check operand
compatibility cheaply.

Both field contexts share one interface, so callers never branch on the field
type: `char`, `size`, `degree`, `prime_field` (the field's F_p context,
itself on F_p), `zero()`, `one()`, `from_int(n)`,
`from_coeffs(cs)` (at most `degree` ints in the basis below), `unpack(ints)`
(the raws whose coordinates in that basis run through ints), `add`, `sub`,
`neg`, `mul`, `inv`, `div`, `pow` (`poly.power` on F_{p^k}, the builtin on
F_p), `frobenius`, `is_zero`, `eq`, `elements()`, `random(rng)`, `basis()`,
the F_p-basis 1, t, ..., t^(k-1) as raw values (just (1,) on F_p),
`frobenius_matrix()`, the Frobenius in that basis as a k x k F_p-matrix
([[1]] on F_p), whose columns `frobenius` combines on F_{p^k}, and the
polynomial kernels `poly_normalize`, `poly_add`, `poly_sub`, `poly_neg`,
`poly_scale`, `poly_derivative`, `poly_divide_at`, `poly_taylor`,
`poly_mul`, `poly_divmod` and `poly_gcd` behind the functions of `poly` of
the same names, `poly_power_top_two`, the Cartier-Manin recurrence run of
`cartier`, and `poly_theta_step`, the numerators of one derivation step in
l-coordinates (`funcfield.LocalRing.deriv`).  F_p runs them on the int
coefficients with inline reduction mod p (the recurrence reads 1/k from the
table `inverses()`), long products as one product of ints in 64-bit slots
(`pack_slots`, the `poly` docstring); F_{p^k} uses `poly`'s generic loops,
one field method call per coefficient operation.  Raw values go to JSON and
back through `raw_to_json` / `raw_from_json` (a polynomial's through
`poly_to_json`, its F_p coordinates through `poly_coords`), and raws of one
field sort in the order of their JSON form; `prime_field_ints` reads raws
that all lie in F_p as ints.

The base of a DualRing may be a field context or a `funcfield.Curve`, the
context of the curve's function field K, whose raws are function field
elements (or its `LocalRing`).  DualRing(curve) is the p-curvature engine's
K[eps].  The engine relies on the base's `zero`, `one`, `add`, `sub`, `mul`,
`is_zero` and `lift`, and on its `deriv(u, theta)`, which `DualRing.deriv`
applies to body and slope.

The Frobenius x -> x^p is exposed on the two fields (it is the identity on
F_p).  On dual numbers it is rejected: eps^p = 0 collapses the slope, so a
blanket Frobenius would silently destroy first-order data; callers that want
it componentwise must say so by mapping over body and slope themselves.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import accumulate, islice, repeat

from . import poly
from .errors import (
    DivisionByZero,
    EvenCharacteristic,
    NonUnitError,
    RangeError,
    ResourceGuardError,
    UnsupportedRing,
)

_MAX_P = 1 << 61  # machine-word guard; everything here targets small p anyway
# operand lengths from which the F_p kernels pack into 64-bit slots: below
# them the int loops measured faster (the `poly` docstring has the figures)
_PACKED_MUL_MIN = 4  # the shorter factor of `poly_mul`
_PACKED_STEP_MIN = 5  # B of `poly_theta_step`
_TAYLOR_CONV_MIN = 16  # min(len a, p) of `poly_taylor`
# k^4 log2(p), about k Rabin tests of k^3 log2(p) work: searches near the limit
# (k = 45, 32, 19 at p = 3, 101, 2^61 - 1) took 0.2-5 s, at k = 80, p = 3 16 s
_EXT_WORK_LIMIT = 1 << 23

# Miller-Rabin with the primes up to 37 as bases decides primality exactly
# below 318665857834031151167461 ~ 3.2 * 10^23, the least strong pseudoprime
# to all twelve (Sorenson and Webster, Math. Comp. 2017), far above _MAX_P
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: exact below 3.2 * 10^23, a strong
    probable-prime test to twelve bases above."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for an odd prime p, acting on ints reduced into [0, p)."""

    __slots__ = ("p", "_fact")

    def __init__(self, p: int):
        if isinstance(p, int) and p == 2:
            raise EvenCharacteristic("characteristic 2 is not supported")
        if not isinstance(p, int) or not is_prime(p):
            raise RangeError(f"{p} is not prime")
        if p >= _MAX_P:
            raise RangeError(f"p must be below 2^61, got {p}")
        self.p = p
        self._fact = [1], [1]

    # -- ring structure ---------------------------------------------------
    @property
    def char(self) -> int:
        return self.p

    @property
    def prime_field(self):
        return self

    @property
    def size(self) -> int:
        return self.p

    @property
    def degree(self) -> int:
        return 1

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def from_coeffs(self, coeffs):
        if len(coeffs) > 1:
            raise RangeError("too many coefficients for a prime field")
        return coeffs[0] % self.p if coeffs else 0

    def unpack(self, ints):
        """The raws whose coordinates run through ints, reduced mod p."""
        p = self.p
        return [c % p for c in ints]

    def basis(self):
        return (1,)

    def frobenius_matrix(self):
        return [[1]]

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise NonUnitError("division by zero in F_p")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            return self.inv(self.pow(a, -n))
        return pow(a, n, self.p)

    def frobenius(self, a):
        return a % self.p  # Fermat: a^p = a on F_p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def eq(self, a, b) -> bool:
        return (a - b) % self.p == 0

    # -- polynomial kernels (see `poly`): ints, reduced mod p --------------
    def poly_normalize(self, coeffs):
        p, c = self.p, list(coeffs)
        while c and not c[-1] % p:
            c.pop()
        return tuple(c)

    def poly_add(self, a, b):
        p = self.p
        if len(a) < len(b):
            a, b = b, a
        out = [(c + d) % p for c, d in zip(a, b)]
        out += a[len(b):]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def poly_sub(self, a, b):
        p = self.p
        out = [(c - d) % p for c, d in zip(a, b)]
        if len(a) > len(b):
            out += a[len(b):]
        else:
            out += [-d % p for d in b[len(a):]]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def poly_neg(self, a):
        p = self.p
        return tuple([-c % p for c in a])

    def poly_scale(self, a, s):
        p = self.p
        s %= p
        return tuple([c * s % p for c in a]) if s else ()

    def poly_derivative(self, a):
        p = self.p
        out = [i * c % p for i, c in enumerate(a)][1:]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def poly_divide_at(self, a, r):
        if not a:
            return (), 0
        p, n = self.p, len(a) - 1
        q = [0] * n
        acc = a[-1]
        for i in range(n - 1, -1, -1):
            q[i] = acc
            acc = (acc * r + a[i]) % p
        return tuple(q), acc

    def poly_mul(self, a, b):
        """One packed product when the shorter factor's n coefficients reach
        _PACKED_MUL_MIN and a slot holds n (p - 1)^2, else `_int_mul`."""
        p = self.p
        if (len(a) < _PACKED_MUL_MIN or len(b) < _PACKED_MUL_MIN
                or min(len(a), len(b)) * (p - 1) ** 2 >> 64):
            return tuple([c % p for c in _int_mul(a, b)])
        return tuple([c % p for c in unpack_slots(pack_slots(a) * pack_slots(b),
                                                  len(a) + len(b) - 1)])

    def poly_theta_step(self, A, B, j: int, phi, psi, c):
        """`poly.theta_step_generic` on ints: (m - j) b_m against c phi plus
        B against c psi one slot up, as two packed products while a slot
        holds (len phi + len psi) (p - 1)^2; on a short B an int loop."""
        p = self.p
        nB = self.poly_normalize([(m - j) * a * c % p for m, a in enumerate(A)])
        n = len(B) + max(len(phi) - 1, len(psi))
        if len(B) >= _PACKED_STEP_MIN and not (len(phi) + len(psi)) * (p - 1) ** 2 >> 64:
            E = pack_slots([(m - j) * b % p for m, b in enumerate(B)])
            nA = (E * pack_slots([f * c % p for f in phi])
                  + (pack_slots(B) * pack_slots([g * c % p for g in psi]) << 64))
            return self.poly_normalize([v % p for v in unpack_slots(nA, n)]), nB
        nA = [0] * n
        for m, b in enumerate(B):
            if b:
                e = (m - j) * b
                for i, f in enumerate(phi, m):
                    nA[i] += e * f
                for i, g in enumerate(psi, m + 1):
                    nA[i] += b * g
        return self.poly_normalize([v * c % p for v in nA]), nB

    def poly_taylor(self, a, r):
        """`poly.taylor_generic` on ints: while min(len a, p) is below
        _TAYLOR_CONV_MIN or a slot cannot hold len(a) (p - 1)^2, its Horner
        passes in place on one list; else, for deg a < p, the convolution
        i! b_i = sum_m (m! a_m) r^(m-i) / (m-i)! as one packed product, and
        above, T(a) = T(lo + r hi) + l^p T(hi) for a = lo + x^p hi, since
        x^p = l^p + r^p and r^p = r."""
        p, n = self.p, len(a)
        if n < _TAYLOR_CONV_MIN or p < _TAYLOR_CONV_MIN or n * (p - 1) ** 2 >> 64:
            b = list(a)
            for i in range(n - 1):
                acc = b[-1]
                for m in range(n - 2, i - 1, -1):
                    acc = b[m] = (b[m] + r * acc) % p
            return tuple(b)
        if n > p:
            lo, hi = a[:p], a[p:]
            return self.poly_add(self.poly_taylor(self.poly_add(lo, self.poly_scale(hi, r)), r),
                                 (0,) * p + self.poly_taylor(hi, r))
        fact, inv = self._fact  # k! and 1/k! for k < m, kept on the field
        if len(fact) < n:
            m = min(p, 2 * n)
            fact = list(accumulate(range(1, m), lambda f, k: f * k % p, initial=1))
            inv = list(accumulate(range(m - 1, 0, -1), lambda f, k: f * k % p,
                                  initial=pow(fact[-1], -1, p)))[::-1]
            self._fact = fact, inv
        rk = accumulate(repeat(r, n - 1), lambda u, v: u * v % p, initial=1)
        s = unpack_slots(pack_slots([c * f % p for c, f in zip(a[::-1], fact[n - 1::-1])])
                         * pack_slots([u * v % p for u, v in zip(rk, inv)]), 2 * n - 1)
        return tuple([s[n - 1 - i] * inv[i] % p for i in range(n)])

    def poly_coords(self, a, n: int):  # padded to n coefficients
        return list(a) + [0] * (n - len(a))

    def poly_to_json(self, a):
        return list(a)

    def poly_divmod(self, a, b):
        if not b:
            raise DivisionByZero("polynomial division by zero")
        q = [0] * max(0, len(a) - len(b) + 1)
        r = _int_rem(self.p, list(a), b, q)
        return tuple(q), tuple(r)

    def poly_gcd(self, a, b):
        p = self.p
        a, b = list(a), list(b)
        while b:
            a, b = b, _int_rem(p, a, b)
        if not a:
            return ()
        inv = pow(a[-1], -1, p)
        return tuple([c * inv % p for c in a])

    def inverses(self):
        """[0, 1/1, ..., 1/h] mod p, h = (p-1)/2, by 1/k = -(p div k) / (p mod k)."""
        p, inv = self.p, [0, 1]
        for k in range(2, p // 2 + 1):
            inv.append(-(p // k) * inv[p % k] % p)
        return inv

    def poly_power_top_two(self, g, n: int, top: int, inv):
        """`poly.power_top_two_generic` on ints, for deg g <= 5, with the
        table inv = `inverses()`.

        The window h_(k-1), ..., h_(k-5) is five locals w1..w5, and step k is
            h_k = (sum_j c_j w_j) (1/k),    c_j = (n + 1) j d_j - k d_j,
        one reduction per step; the taps c_j step down by d_j, unreduced.
        Up to h = (p-1)/2, 1/k is read from inv; above h, 1/k = -1/(p-k):
        inv read backwards, with the taps negated.
        """
        p = self.p
        if len(g) > 6:
            raise RangeError(f"the F_p recurrence takes deg g <= 5, got {len(g) - 1}")
        g0 = g[0] % p
        if not g0:
            raise NonUnitError("the recurrence needs g(0) != 0")
        i0, m = pow(g0, -1, p), n + 1
        d1, d2, d3, d4, d5 = [c * i0 % p for c in g[1:]] + [0] * (6 - len(g))
        c1, c2, c3, c4, c5 = ((m - 1) * d1, (2 * m - 1) * d2, (3 * m - 1) * d3,
                              (4 * m - 1) * d4, (5 * m - 1) * d5)
        w1, w2, w3, w4, w5 = pow(g0, n, p), 0, 0, 0, 0
        h = p // 2
        for t in islice(inv, 1, min(top, h) + 1):
            w1, w2, w3, w4, w5 = (
                (c1 * w1 + c2 * w2 + c3 * w3 + c4 * w4 + c5 * w5) * t % p, w1, w2, w3, w4)
            c1 -= d1
            c2 -= d2
            c3 -= d3
            c4 -= d4
            c5 -= d5
        if top > h:
            c1, c2, c3, c4, c5 = -c1 % p, -c2 % p, -c3 % p, -c4 % p, -c5 % p
            for t in islice(reversed(inv), top - h):
                w1, w2, w3, w4, w5 = (
                    (c1 * w1 + c2 * w2 + c3 * w3 + c4 * w4 + c5 * w5) * t % p, w1, w2, w3, w4)
                c1 += d1
                c2 += d2
                c3 += d3
                c4 += d4
                c5 += d5
        return w1, w2

    # -- enumeration / sampling -------------------------------------------
    def elements(self):
        return range(self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class ExtField:
    """F_{p^k} presented as F_p[t] modulo a monic irreducible of degree k.

    Raw values are k-tuples of ints; index i is the coefficient of t^i.
    The modulus is checked for irreducibility at construction (once per
    (p, modulus) in a process).  The Frobenius is F_p-linear: with columns
    t^(i p), computed on first use by one `pow` and k - 1 products, a^p is
    sum_i a_i t^(i p), one pass of k x k int multiply-adds (`frobenius`,
    `frobenius_matrix`).
    """

    __slots__ = ("p", "k", "modulus", "prime_field", "_red", "_frob")

    def __init__(self, p: int, modulus):
        self.prime_field = PrimeField(p)
        self.p = p
        mod = tuple(c % p for c in modulus)
        while mod and mod[-1] == 0:
            mod = mod[:-1]
        if len(mod) < 2:
            raise RangeError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise RangeError("modulus must be monic")
        self.k = len(mod) - 1
        self.modulus = mod
        if not _is_irreducible_mod(self.p, mod):
            raise RangeError(f"modulus {mod} is reducible over F_{p}")
        # _red[i] = t^(k+i) reduced mod the modulus, enough for deg < k products
        self._red = []
        cur = [(-c) % p for c in mod[:-1]]  # t^k
        for _ in range(self.k):
            self._red.append(tuple(cur))
            cur = [0] + cur  # multiply by t
            top = cur.pop()
            if top:
                cur = [(cur[i] - top * mod[i]) % p for i in range(self.k)]
        self._frob = None

    @property
    def char(self) -> int:
        return self.p

    @property
    def size(self) -> int:
        return self.p ** self.k

    @property
    def degree(self) -> int:
        return self.k

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def gen(self):
        """The class of t."""
        if self.k == 1:
            return ((-self.modulus[0]) % self.p,)
        return (0, 1) + (0,) * (self.k - 2)

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.k - 1)

    def from_coeffs(self, coeffs):
        c = [x % self.p for x in coeffs]
        if len(c) > self.k:
            raise RangeError("too many coefficients for this extension")
        return tuple(c + [0] * (self.k - len(c)))

    def unpack(self, ints):
        """The raws whose coordinates run through ints, k at a time, reduced mod p."""
        p, k = self.p, self.k
        return [tuple([x % p for x in ints[i:i + k]]) for i in range(0, len(ints), k)]

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        out = prod[:k]
        for i in range(k, 2 * k - 1):
            c = prod[i]
            if c:
                r = self._red[i - k]
                for j in range(k):
                    out[j] = (out[j] + c * r[j]) % p
        return tuple(out)

    def inv(self, a):
        if self.is_zero(a):
            raise NonUnitError("division by zero in F_{p^k}")
        return self.pow(a, self.size - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        return poly.power(a, n, self.one(), self.mul, self.inv)

    def frobenius(self, a):
        """a^p = sum_i a_i t^(i p), over the columns of `_frobenius_columns`."""
        out = [0] * self.k
        for x, col in zip(a, self._frob or self._frobenius_columns()):
            if x:
                out = [o + x * c for o, c in zip(out, col)]
        p = self.p
        return tuple([o % p for o in out])

    def _frobenius_columns(self):
        """t^(i p) for i < k, the powers of t^p by `pow`; stored on first use."""
        tp = self.pow(self.gen(), self.p)
        self._frob = tuple(accumulate(repeat(tp, self.k - 1), self.mul, initial=self.one()))
        return self._frob

    def is_zero(self, a) -> bool:
        return all(x % self.p == 0 for x in a)

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    # -- polynomial kernels (see `poly`): the generic loops ----------------
    poly_normalize = poly.normalize_generic
    poly_add = poly.add_generic
    poly_sub = poly.sub_generic
    poly_neg = poly.neg_generic
    poly_scale = poly.scale_generic
    poly_derivative = poly.derivative_generic
    poly_divide_at = poly.divide_at_generic
    poly_taylor = poly.taylor_generic
    poly_mul = poly.mul_generic
    poly_theta_step = poly.theta_step_generic
    poly_divmod = poly.divmod_generic
    poly_gcd = poly.gcd_generic
    poly_power_top_two = poly.power_top_two_generic

    def poly_coords(self, a, n: int):  # padded to n coefficients
        return [c for raw in a for c in raw] + [0] * (self.k * (n - len(a)))

    def poly_to_json(self, a):
        return [list(raw) for raw in a]

    def elements(self):
        from itertools import product

        for tup in product(range(self.p), repeat=self.k):
            yield tup

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def frobenius_matrix(self):
        """Columns are t^(i*p) in the t-power basis (F_p-linear Frobenius)."""
        cols = self._frob or self._frobenius_columns()
        return [[cols[j][i] for j in range(self.k)] for i in range(self.k)]

    def basis(self):
        """1, t, ..., t^(k-1): the F_p-basis the raw tuples are coordinates in."""
        return tuple((0,) * i + (1,) + (0,) * (self.k - 1 - i) for i in range(self.k))

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.modulus))

    def __repr__(self):
        return f"ExtField(p={self.p}, modulus={list(self.modulus)})"


class DualRing:
    """base[eps]/(eps^2): first-order deformations over a field context or
    over a curve's function field (see the module docstring).

    Raw values are pairs (body, slope).  A pair is a unit iff its body is;
    (a + eps b)^(-1) = a^(-1) - eps b a^(-2).  Duals are never nested.
    """

    __slots__ = ("base",)

    def __init__(self, base):
        if isinstance(base, DualRing):
            raise RangeError("dual numbers are not nested")
        self.base = base

    @property
    def char(self) -> int:
        return self.base.char

    def zero(self):
        return (self.base.zero(), self.base.zero())

    def one(self):
        return (self.base.one(), self.base.zero())

    def lift(self, a):
        """Embed a value of K (the base's `lift`) as a dual with zero slope."""
        return (self.base.lift(a), self.base.zero())

    def from_int(self, n: int):
        return (self.base.from_int(n), self.base.zero())

    def add(self, u, v):
        F = self.base
        return (F.add(u[0], v[0]), F.add(u[1], v[1]))

    def sub(self, u, v):
        F = self.base
        return (F.sub(u[0], v[0]), F.sub(u[1], v[1]))

    def neg(self, u):
        F = self.base
        return (F.neg(u[0]), F.neg(u[1]))

    def mul(self, u, v):
        F = self.base
        return (F.mul(u[0], v[0]), F.add(F.mul(u[0], v[1]), F.mul(u[1], v[0])))

    def inv(self, u):
        F = self.base
        if F.is_zero(u[0]):
            raise NonUnitError("dual number with zero body is not a unit")
        ia = F.inv(u[0])
        return (ia, F.neg(F.mul(u[1], F.mul(ia, ia))))

    def div(self, u, v):
        return self.mul(u, self.inv(v))

    def pow(self, u, n: int):
        return poly.power(u, n, self.one(), self.mul, self.inv)

    def frobenius(self, u):
        raise UnsupportedRing(
            "Frobenius is not defined on dual numbers; apply it to body and "
            "slope separately if that is what you mean"
        )

    def is_zero(self, u) -> bool:
        return self.base.is_zero(u[0]) and self.base.is_zero(u[1])

    def deriv(self, u, theta):
        """A derivation of the base, applied to body and slope (base.deriv)."""
        return (self.base.deriv(u[0], theta), self.base.deriv(u[1], theta))

    def eq(self, u, v) -> bool:
        return self.is_zero(self.sub(u, v))

    def is_unit(self, u) -> bool:
        return not self.base.is_zero(u[0])

    def random(self, rng):
        return (self.base.random(rng), self.base.random(rng))

    def __eq__(self, other):
        return isinstance(other, DualRing) and other.base == self.base

    def __hash__(self):
        return hash(("DualRing", self.base))

    def __repr__(self):
        return f"DualRing({self.base!r})"


def field_arith(ring, a, b, op: str):
    """One-call ring arithmetic: op in {'add', 'sub', 'mul', 'div'}."""
    try:
        fn = {"add": ring.add, "sub": ring.sub, "mul": ring.mul, "div": ring.div}[op]
    except KeyError:
        raise RangeError(f"unknown operation {op!r}") from None
    return fn(a, b)


def frobenius(ring, a):
    """The p-power map on a field value (identity on F_p)."""
    return ring.frobenius(a)


def raw_to_json(raw):
    """A raw field value as JSON: an int on F_p, a list of k ints on F_{p^k}."""
    return list(raw) if isinstance(raw, tuple) else raw


def raw_from_json(value):
    """Inverse of `raw_to_json`."""
    return tuple(value) if isinstance(value, list) else value


def coords(raw):
    """F_p coordinates of a raw field value in the field's basis()."""
    return raw if isinstance(raw, tuple) else (raw,)


def prime_field_ints(raws):
    """The raws as ints when every one lies in F_p, else None."""
    cs = [coords(r) for r in raws]
    return None if any(any(c[1:]) for c in cs) else [c[0] for c in cs]


# ---------------------------------------------------------------------------
# F_p polynomial arithmetic on int coefficient lists
# ---------------------------------------------------------------------------

def pack_slots(ints):
    """ints in [0, 2^64) as one int, ints[i] in bits 64 i to 64 i + 63."""
    a = array("Q", ints)
    if sys.byteorder == "big":
        a.byteswap()
    return int.from_bytes(a.tobytes(), "little")


def unpack_slots(total: int, n: int):
    """The n 64-bit slots of 0 <= total < 2^(64 n): `pack_slots` inverted."""
    a = array("Q", total.to_bytes(8 * n, "little"))
    if sys.byteorder == "big":
        a.byteswap()
    return a


def _int_mul(a, b):
    """Schoolbook product of int coefficient sequences, not reduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return out


def _int_rem(p, r, b, q=None):
    """The remainder of the int list r (consumed; its entries need not lie in
    [0, p)) modulo the nonzero F_p polynomial b, as a list reduced into
    [0, p) with no trailing zeros.  Quotient coefficients go into q if given."""
    n = len(b) - 1
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    for k in range(len(r) - 1 - n, -1, -1):
        s = r.pop() * inv % p
        if s:
            if q is not None:
                q[k] = s
            for i, c in enumerate(low, k):
                r[i] -= s * c
    r = [c % p for c in r]
    while r and not r[-1]:
        r.pop()
    return r


# ---------------------------------------------------------------------------
# irreducibility over F_p and deterministic modulus search
# ---------------------------------------------------------------------------

def _x_power_minus_x(F, e: int, m):
    """x^e - x mod m over F = F_p: left-to-right binary powering, so each bit
    costs one squaring, a shift for a one bit, and one reduction."""
    r = [1]
    for bit in bin(e)[2:]:
        r = _int_mul(r, r)
        if bit == "1":
            r.insert(0, 0)
        r = _int_rem(F.p, r, m)
    return poly.sub(F, tuple(r), poly.x(F))


def _poly_is_irreducible(F, mod) -> bool:
    """Rabin test over F = F_p: x^(p^k) = x mod m, and
    gcd(x^(p^(k/q)) - x, m) = 1 for each prime q dividing k.  Refused
    (ResourceGuardError) before any work above the extension guard."""
    k = len(mod) - 1
    if k == 1:
        return True
    if k ** 4 * F.p.bit_length() > _EXT_WORK_LIMIT:
        raise ResourceGuardError(f"F_({F.p}^{k}) exceeds the extension-degree guard")
    if _x_power_minus_x(F, F.p ** k, mod):
        return False
    return all(
        len(F.poly_gcd(_x_power_minus_x(F, F.p ** (k // q), mod), mod)) == 1
        for q in prime_divisors(k)
    )


@lru_cache(maxsize=256)
def _is_irreducible_mod(p: int, mod: tuple) -> bool:
    """`_poly_is_irreducible` over F_p, run once per (p, mod) in a process."""
    return _poly_is_irreducible(PrimeField(p), mod)


def prime_divisors(n: int):
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def find_irreducible(p: int, k: int, seed: int = 0):
    """Deterministic seeded search for a monic irreducible of degree k over F_p."""
    import random

    if k < 1:
        raise RangeError("extension degree must be >= 1")
    if k == 1:
        return (0, 1)
    PrimeField(p)  # refuses a p that is not an odd prime before the search
    rng = random.Random(((p * 1_000_003 + k) * 1_000_003 + seed))
    while True:
        cand = tuple([rng.randrange(p) for _ in range(k)] + [1])
        if cand[0] == 0:
            continue  # divisible by x
        if _is_irreducible_mod(p, cand):
            return cand


def make_field(p: int, k: int = 1, modulus=None):
    """Build F_p (k=1 without a modulus) or F_{p^k} with a caller-supplied or
    searched modulus (`find_irreducible`), whose degree must be k."""
    if modulus is None:
        if k == 1:
            return PrimeField(p)
        modulus = find_irreducible(p, k)
    f = ExtField(p, modulus)
    if f.k != k:
        raise RangeError(f"modulus degree {f.k} does not match requested k={k}")
    return f
