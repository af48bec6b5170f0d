"""Exact integer linear algebra.

The row Hermite normal form, with its entries kept small, decides regularity,
finds integer relations and presents a quotient by its characters.  The one
Smith normal form alternates Hermite forms and records the unimodular
transforms; it serves `equi present`, the divisors of a cone that fails the
regularity test, and the completion of partial bases.
Primitive vectors complete the module.  Rationals appear only internally, in
the determinant and the inverse, which `QMat` computes.  Integers are coerced
once, where they enter, by `_vec`, which rejects a float.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Sequence

from fanalg.linalg import QMat

Vec = tuple[int, ...]


def _vec(v: Sequence[int]) -> Vec:
    """The one integer coercion: a float or a Fraction raises TypeError."""
    return tuple(map(index, v))


class IntMatrix:
    """Immutable integer matrix, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], shape: tuple[int, int] | None = None):
        frozen = tuple(map(_vec, entries))
        if shape is not None:
            m, n = shape
        else:
            m = len(frozen)
            n = len(frozen[0]) if frozen else 0
        if len(frozen) != m or any(len(r) != n for r in frozen):
            raise ValueError("ragged or mis-shaped matrix data")
        object.__setattr__(self, "rows", m)
        object.__setattr__(self, "cols", n)
        object.__setattr__(self, "entries", frozen)

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), shape=(n, n))

    @classmethod
    def zero(cls, m: int, n: int) -> "IntMatrix":
        return cls(tuple((0,) * n for _ in range(m)), shape=(m, n))

    @classmethod
    def from_columns(cls, cols: Sequence[Vec], rows: int | None = None) -> "IntMatrix":
        if cols:
            rows = len(cols[0])
        if rows is None:
            raise ValueError("row count required for an empty column list")
        return cls(tuple(tuple(c[i] for c in cols) for i in range(rows)), shape=(rows, len(cols)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.cols == 0:
            return IntMatrix.zero(self.rows, other.cols)
        cols = tuple(zip(*other.entries))
        out = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.entries)
        return IntMatrix(out, shape=(self.rows, other.cols))

    def apply(self, v: Sequence[int]) -> Vec:
        """Matrix-vector product over the integers."""
        v = _vec(v)
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} does not match {self.rows}x{self.cols} matrix")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            tuple(zip(*self.entries)) if self.entries and self.cols else (((),) * self.cols if self.cols else ()),
            shape=(self.cols, self.rows),
        )

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def det(self) -> int:
        """Exact determinant, read from the one fraction-free elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return QMat._of(self.entries, 1, self.rows, self.cols).det().numerator

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1

    def inverse(self) -> "IntMatrix":
        """Inverse of a unimodular matrix, from one rational inversion: an
        integer matrix has an integral inverse exactly when its determinant
        is 1 or -1."""
        try:
            inv = QMat._of(self.entries, 1, self.rows, self.cols).inverse()
        except ValueError:  # singular or not square
            raise ValueError("matrix is not unimodular") from None
        if inv.den != 1:
            raise ValueError("matrix is not unimodular")
        return IntMatrix(inv.num, shape=(self.rows, self.cols))


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns (U, D, V) with U, V unimodular and D = U @ m @ V diagonal with
    nonnegative entries d1 | d2 | ...  The row Hermite forms of [A | U] and
    of [A^T | V^T] alternate, from U and V the identity, until A is
    diagonal; the right-hand blocks carry the transforms, whose entries stay
    polynomial in size as the Hermite form's do (Kannan and Bachem, SIAM J.
    Comput. 8, 1979).  A sweep over pairs i < j of the diagonal then makes
    it a divisibility chain with
    [[s, t], [-b/g, a/g]] diag(a, b) [[1, -t b/g], [1, s a/g]] = diag(g, a b/g),
    where g = s a + t b = gcd(a, b).  Every step is canonical, so the
    transforms are reproducible.
    """
    r, c = m.rows, m.cols
    a = list(m.entries)
    u = list(IntMatrix.identity(r).entries)
    vt = list(IntMatrix.identity(c).entries)  # V transposed: its rows are V's columns

    def diagonal() -> bool:
        return not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)

    while True:
        h = hnf_rows([x + y for x, y in zip(a, u)])
        a, u = [row[:c] for row in h], [row[c:] for row in h]
        if diagonal():
            break
        h = hnf_rows([tuple(row[j] for row in a) + y for j, y in enumerate(vt)])
        a, vt = [tuple(row[i] for row in h) for i in range(r)], [row[r:] for row in h]
        if diagonal():
            break
    # the nonzero pivots are positive and come first
    d = [a[i][i] for i in range(min(r, c))]
    k = sum(1 for x in d if x)
    for i in range(k):
        for j in range(i + 1, k):
            p, q = d[i], d[j]
            if q % p == 0:
                continue
            # the Hermite form of [[p, 1, 0], [q, 0, 1]] leads with g = s p + t q
            (g, s, t), _ = hnf_rows([(p, 1, 0), (q, 0, 1)])
            p, q = p // g, q // g
            u[i], u[j] = [s * x + t * y for x, y in zip(u[i], u[j])], [p * y - q * x for x, y in zip(u[i], u[j])]
            vt[i], vt[j] = [x + y for x, y in zip(vt[i], vt[j])], [s * p * y - t * q * x for x, y in zip(vt[i], vt[j])]
            d[i], d[j] = g, d[i] * q
    return (
        IntMatrix(u, shape=(r, r)),
        IntMatrix(tuple(tuple(d[i] if i == j else 0 for j in range(c)) for i in range(r)), shape=(r, c)),
        IntMatrix(vt, shape=(c, c)).transpose(),
    )


def primitive(v: Sequence[int]) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    v = _vec(v)
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("no primitive direction")
    return tuple(x // g for x in v)


def complete_to_basis(vs: Sequence[Sequence[int]], rank: int | None = None) -> IntMatrix:
    """Unimodular matrix whose first columns are the given vectors.

    The input must extend to a lattice basis: the Smith form of the column
    matrix has to consist of ones.  With U @ M @ V = D this takes
    W = U^-1 @ blockdiag(V^-1, I), whose first k columns reproduce M.
    """
    vecs = [_vec(v) for v in vs]
    if rank is None:
        if not vecs:
            raise ValueError("rank required for an empty vector list")
        rank = len(vecs[0])
    if any(len(v) != rank for v in vecs):
        raise ValueError("mixed vector lengths")
    k = len(vecs)
    if k == 0:
        return IntMatrix.identity(rank)
    if k > rank:
        raise ValueError("not a basis fragment")
    m = IntMatrix.from_columns(vecs, rows=rank)
    u, d, v = snf(m)
    if any(d[i, i] != 1 for i in range(k)):
        raise ValueError("not a basis fragment")
    vinv = v.inverse()
    pad = [[vinv[i, j] if i < k and j < k else (1 if i == j else 0) for j in range(rank)] for i in range(rank)]
    w = u.inverse() @ IntMatrix(pad, shape=(rank, rank))
    if any(w.column(j) != vecs[j] for j in range(k)):
        raise AssertionError("completed basis does not start with the given vectors")
    if not w.is_unimodular():
        raise AssertionError("completed basis is not unimodular")
    return w


def hnf_rows(rows: Sequence[Sequence[int]]) -> list[Vec]:
    """Canonical generating set of the row lattice (row Hermite normal form).

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    and zero rows are dropped.  Rows are inserted one at a time into a basis
    kept in this form: the extended gcd, run on a new row and the basis row
    whose pivot column holds the new row's first nonzero entry, leaves the gcd
    in the basis row and a zero in the new one.  Each insertion ends with one
    pass, in increasing column order, that reduces the entries above each
    pivot.  This keeps the entries polynomial in size (Kannan and Bachem, SIAM
    J. Comput. 8, 1979; Cohen, GTM 138, section 2.4).
    """
    basis: dict[int, list[int]] = {}  # pivot column -> row
    for row in rows:
        v = list(_vec(row))
        for c in range(len(v)):
            if v[c] == 0:
                continue
            b = basis.get(c)
            if b is None:
                basis[c] = v if v[c] > 0 else [-x for x in v]
                break
            while v[c]:
                # floor division leaves a remainder of the sign of b[c] > 0
                q = v[c] // b[c]
                v = [y - q * x for x, y in zip(b, v)]
                if v[c]:
                    b, v = v, b
            basis[c] = b
        cols = sorted(basis)
        for j, c in enumerate(cols):
            for d in cols[:j]:
                q = basis[d][c] // basis[c][c]
                if q:
                    basis[d] = [x - q * y for x, y in zip(basis[d], basis[c])]
    return [tuple(basis[c]) for c in sorted(basis)]
