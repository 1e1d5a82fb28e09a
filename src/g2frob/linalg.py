"""Tiny exact linear algebra over F_p (plain int matrices, mod-p arithmetic)."""

from __future__ import annotations

from .errors import ResourceGuardError

_SPAN_LIMIT = 1 << 16


def rref_mod_p(rows, ncols: int, p: int):
    """Row-reduce in place; returns (reduced_rows, pivot_columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                s = mat[i][c]
                mat[i] = [(a - s * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def kernel_basis_mod_p(rows, ncols: int, p: int):
    """Basis of the kernel of the matrix (rows act on column vectors)."""
    red, pivots = rref_mod_p(rows, ncols, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-red[ri][fc]) % p
        basis.append(v)
    return basis


def check_span(p: int, dim: int):
    """Raise ResourceGuardError when a span of p^dim vectors exceeds _SPAN_LIMIT."""
    if p ** dim > _SPAN_LIMIT:
        raise ResourceGuardError(f"{p}^{dim} vectors exceed the span guard {_SPAN_LIMIT}")


def enumerate_span_mod_p(basis, ncols: int, p: int):
    """All F_p-combinations of the basis vectors (p^len(basis) of them).

    Raises ResourceGuardError, before listing any, if there are more than
    _SPAN_LIMIT (`check_span`)."""
    from itertools import product

    check_span(p, len(basis))
    if not basis:
        yield [0] * ncols
        return
    for coeffs in product(range(p), repeat=len(basis)):
        v = [0] * ncols
        for s, b in zip(coeffs, basis):
            if s:
                for i in range(ncols):
                    v[i] = (v[i] + s * b[i]) % p
        yield v
