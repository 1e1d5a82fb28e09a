"""The multiples ring R[z]/(z^(p-1) - 1) over an l-local ring R.

`MultiplesRing(R)`, with theta(z) = 0, holds the values of a computation in
R (`funcfield.LocalRing`) for every z = s in F_p^* at once: the
coefficient of each l^m is all p - 1 z-coefficients in one value of the
field's `cyclic_slots` kernel, one int of 64-bit slots over F_p.  `verify`
runs the p-curvature engine here for all multiples of a flat chart.
"""

from __future__ import annotations

from . import poly
from .errors import DegreeOverflow, RangeError
from .funcfield import Derivation, FunctionFieldElement, LocalRing


class MultiplesRing:
    """R[z]/(z^n - 1), n = p - 1, over an l-local ring R, with theta(z) = 0:
    the ring in which `verify` runs the engine for every F_p-multiple of a
    flat chart at once.  Since z^n - 1 is the product of the z - s over
    s in F_p^*, evaluation at those n points (`evaluate`) is a ring
    isomorphism onto R^n that commutes with theta.

    A raw value (A, B, j, h) stands for (A(l) + B(l) y) / l^j as in R.  With
    h None it is the raw (A, B, j) of R, constant in z (`lift`, `one`).
    Otherwise each coefficient of A and B is a value of the field's kernel
    `cyclic_slots(n)`, all n z-coefficients at once, and h bounds its
    slots.  The kernel leaves slots unreduced, and an operation reduces its
    operands (`_reduce`) only when its result could pass the kernel's
    `limit`.  So these raws are not canonical: `normal` gives the canonical
    raw, and `is_zero` is exact.

    Products by a constant of R, the Euler factors (m - j) and the weights
    of phi and psi in `deriv` are products of slot values by raws of F, a
    product by z is a rotation, and a product of two slotted values sums
    z^k u_k v over the z-coefficients u_k of u."""

    __slots__ = ("base", "n", "_S", "_z", "_derivs")

    def __init__(self, base: LocalRing):
        F = base.curve.field
        self.base, self.n = base, F.char - 1
        self._S = S = F.cyclic_slots(self.n)
        self._z = ((S.rotate(S.const(F.one()), 1),), (), 0, S.reduced)
        self._derivs = {}
        if S.reduced * self.max_growth() > S.limit:
            raise RangeError(f"the slots of F_{F.char}[z]/(z^{self.n} - 1) are too narrow")

    def max_growth(self) -> int:
        """The largest factor by which one operation can raise a slot bound:
        a product by a constant of R, whose A and B phi have at most
        2 cap + 7 coefficients (deg phi = 5), each a raw of weight < p."""
        F = self.base.curve.field
        return self._S.weight(F.neg(F.one())) * (2 * self.base.curve.degree_cap + 7)

    def zero(self):
        return (), (), 0, None

    def one(self):
        return (*self.base.one(), None)

    def z(self):
        return self._z

    def lift(self, u: FunctionFieldElement):
        """u, constant in z; None off R."""
        v = self.base.lift(u)
        return None if v is None else (*v, None)

    def is_zero(self, u) -> bool:
        if u[3] is None:
            return self.base.is_zero(u[:3])
        return all(map(self._S.is_zero, u[0] + u[1]))

    def normal(self, u):
        """The canonical raw of u: slotted, reduced and sliced like `LocalRing.make`."""
        return self._reduce(self._slotted(u))

    def add(self, u, v):
        if not u[0] and not u[1]:
            return v
        if not v[0] and not v[1]:
            return u
        if u[3] is None and v[3] is None:
            return (*self.base.add(u[:3], v[:3]), None)
        u, v, S = self._slotted(u), self._slotted(v), self._S
        if u[3] + v[3] > S.limit:
            u, v = self._reduce(u), self._reduce(v)
        if u[2] < v[2]:
            u, v = v, u
        pad = (S.zero,) * (u[2] - v[2])
        return self._make(_add_slots(S.add, u[0], pad + v[0]), _add_slots(S.add, u[1], pad + v[1]),
                          u[2], u[3] + v[3])

    def neg(self, u):
        """-u; on slots a product by p - 1."""
        if u[3] is None:
            return (*self.base.neg(u[:3]), None)
        return self._times(self.base.neg(self.base.one()), u)

    def sub(self, u, v):
        return self.add(u, self.neg(v))

    def mul(self, u, v):
        one = self.one()
        if u == one:
            return v
        if v == one:
            return u
        if not (u[0] or u[1]) or not (v[0] or v[1]):
            return self.zero()
        if u[3] is not None and v[3] is None:
            u, v = v, u
        if u[3] is None:
            if v[3] is None:
                return (*self.base.mul(u[:3], v[:3]), None)
            return self._times(u[:3], v)
        if v == self._z:
            u, v = v, u
        if u == self._z:
            return self._rotated(v, 1)
        out = self.zero()
        for k, uk in enumerate(self._coefficients(u)):
            if not self.base.is_zero(uk):
                out = self.add(out, self._rotated(self._times(uk, v), k))
        return out

    def deriv(self, u, theta: Derivation):
        """theta(u) by `LocalRing.deriv`'s formula, fused: the new A is
        sum_d B_m c ((m - j) phi_d + psi_(d-1)) l^(m+d) and the new B is
        c (m - j) A_m l^m, each weight one raw of F per (m - j) mod p."""
        A, B, j, h = u
        if not B and not j and len(A) <= 1:  # a constant, zero included
            return self.zero()
        if h is None:
            return (*self.base.deriv(u[:3], theta), None)
        S, p = self._S, self.n + 1
        weights, scales, growth = self._deriv_tables(theta.value_on_x.B[0])
        if h * growth > S.limit:
            A, B, j, h = self._reduce(u)
        add, scale = S.add, S.scale
        nA = [S.zero] * (len(B) + 5)
        for m, b in enumerate(B):
            if b:
                for d, w in weights[(m - j) % p]:
                    nA[m + d] = add(nA[m + d], scale(b, w))
        nB = [scale(a, scales[(m - j) % p]) for m, a in enumerate(A)]
        return self._make(nA, nB, j + len(theta.value_on_x.D), h * growth)

    def evaluate(self, u, s):
        """u at z = s, s in F_p^* as a raw of F: a raw of R."""
        if u[3] is None:
            return u[:3]
        F, slots = self.base.curve.field, self._S.slots

        def at(c):
            acc = F.zero()
            for v in reversed(slots(c)):
                acc = F.add(F.mul(acc, s), v)
            return acc

        A, B = (poly.normalize(F, tuple(map(at, cs))) for cs in u[:2])
        return self.base.make(A, B, u[2])

    def from_slots(self, rows, J: int):
        """sum_k z^k (A_k + B_k y) / l^J for rows[k] = (A_k, B_k), k < n,
        polynomials in l over F: a canonical raw."""
        S, zero = self._S, self.base.curve.field.zero()

        def columns(polys):
            return [S.pack([a[m] if m < len(a) else zero for a in polys])
                    for m in range(max(map(len, polys)))]

        return self._make(columns([A for A, _ in rows]), columns([B for _, B in rows]),
                          J, S.reduced)

    def _coefficients(self, u):
        """The z-coefficients u_0, ..., u_(n-1) of a slotted u as raws of R."""
        F, slots = self.base.curve.field, self._S.slots
        A, B = [slots(c) for c in u[0]], [slots(c) for c in u[1]]
        return [self.base.make(poly.normalize(F, tuple(a[k] for a in A)),
                               poly.normalize(F, tuple(b[k] for b in B)), u[2])
                for k in range(self.n)]

    def _slotted(self, u):
        if u[3] is not None:
            return u
        S = self._S
        return tuple(map(S.const, u[0])), tuple(map(S.const, u[1])), u[2], S.reduced

    def _reduce(self, u):
        A, B, j, _ = u
        cs = self._S.reduce(A + B)
        return self._make(cs[:len(A)], cs[len(A):], j, self._S.reduced)

    def _make(self, A, B, j: int, h: int):
        """(A, B, j, h) with zero coefficients, as far as the ints show them,
        cut off at the top and common factors l sliced off (`LocalRing.make`)."""
        A, B = _strip_slots(A), _strip_slots(B)
        k = 0
        while k < j and (k >= len(A) or not A[k]) and (k >= len(B) or not B[k]):
            k += 1
        A, B, j = A[k:], B[k:], j - k
        top, cap = max(len(A) - 1, len(B) - 1, j), self.base.curve.degree_cap
        if top > cap:
            raise DegreeOverflow(f"normal form degree {top} exceeds cap {cap}")
        return A, B, j, h

    def _weight(self, P) -> int:
        return sum(map(self._S.weight, P))

    def _times(self, c, v):
        """c v for a raw c of R and a slotted v."""
        F, S = self.base.curve.field, self._S
        Ac, Bc, jc = c
        Bphi = poly.mul(F, Bc, self.base._phi)
        growth = self._weight(Ac) + max(self._weight(Bphi), self._weight(Bc))
        if v[3] * growth > S.limit:
            v = self._reduce(v)
        A, B, j, h = v
        nA = [S.zero] * (max(len(Ac) + len(A), len(Bphi) + len(B)))
        nB = [S.zero] * (max(len(Ac) + len(B), len(Bc) + len(A)))
        for P, V, out in ((Ac, A, nA), (Bphi, B, nA), (Ac, B, nB), (Bc, A, nB)):
            for d, w in enumerate(P):
                if not F.is_zero(w):
                    for m, cm in enumerate(V, d):
                        if cm:
                            out[m] = S.add(out[m], S.scale(cm, w))
        return self._make(nA, nB, jc + j, h * growth)

    def _rotated(self, u, k: int):
        """z^k u for a slotted u."""
        rotate = self._S.rotate
        return (tuple(rotate(c, k) for c in u[0]), tuple(rotate(c, k) for c in u[1]),
                u[2], u[3])

    def _deriv_tables(self, c):
        """Per residue k = (m - j) mod p: the nonzero weights
        (d, c (k phi_d + psi_(d-1))), the scale c k of A_m, and the largest
        growth of a slot bound they give."""
        if c not in self._derivs:
            R, F, S = self.base, self.base.curve.field, self._S
            weights, scales, growth = [], [], 0
            for k in map(F.from_int, range(self.n + 1)):
                ws = []
                for d in range(6):
                    w = F.mul(k, poly.coefficient(F, R._phi, d))
                    if d:
                        w = F.add(w, poly.coefficient(F, R._psi, d - 1))
                    w = F.mul(c, w)
                    if not F.is_zero(w):
                        ws.append((d, w))
                weights.append(tuple(ws))
                scales.append(F.mul(c, k))
                growth = max(growth, sum(S.weight(w) for _, w in ws), S.weight(scales[-1]))
            self._derivs[c] = weights, scales, growth
        return self._derivs[c]


def _add_slots(add, a, b):
    """The coefficient-wise sum of two sequences of slot values."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + tuple(a[len(b):])


def _strip_slots(cs):
    """cs as a tuple without its trailing zero ints (or empty tuples)."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])
