"""Exact integer linear algebra.

Smith normal form with recorded unimodular transforms, primitive vectors,
completion of partial bases, and integer kernels.  Everything is computed
over arbitrary-precision integers; rationals appear only internally, in
the determinant and the inverse, which `QMat` computes.  Integers are
coerced once, where they enter, by `_vec`, which rejects a float.
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

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.cols)]

    def det(self) -> int:
        """Exact determinant, read from the one rational elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return QMat(self.entries, shape=(self.rows, self.cols)).det().numerator

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1

    def inverse(self) -> "IntMatrix":
        """Inverse of a unimodular matrix, from one rational inversion: an
        integer matrix has an integral inverse exactly when its determinant
        is 1 or -1."""
        try:
            inv = QMat(self.entries, shape=(self.rows, self.cols)).inverse()
        except ValueError:  # singular or not square
            raise ValueError("matrix is not unimodular") from None
        if any(x.denominator != 1 for x in inv.flat()):
            raise ValueError("matrix is not unimodular")
        return IntMatrix(tuple(tuple(x.numerator for x in row) for row in inv.rows), shape=(self.rows, self.cols))


def _row_op(a, t, i, j, q):
    # row_i -= q * row_j in a, mirrored in the transform t
    a[i] = [x - q * y for x, y in zip(a[i], a[j])]
    t[i] = [x - q * y for x, y in zip(t[i], t[j])]


def _col_op(a, t, i, j, q):
    # col_i -= q * col_j in a, mirrored in the transform t
    for row in a:
        row[i] -= q * row[j]
    for row in t:
        row[i] -= q * row[j]


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns (U, D, V) with U, V unimodular and D = U @ m @ V diagonal with
    nonnegative entries d1 | d2 | ...  The pivot is always the nonzero entry
    of minimal absolute value in the remaining block, ties broken by row then
    column, so the transforms are reproducible.
    """
    a = [list(row) for row in m.entries]
    r, c = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def pivot(k):
        best = None
        for i in range(k, r):
            for j in range(k, c):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    for k in range(min(r, c)):
        while True:
            p = pivot(k)
            if p is None:
                break
            i, j = p
            if i != k:
                a[k], a[i] = a[i], a[k]
                u[k], u[i] = u[i], u[k]
            if j != k:
                for row in a:
                    row[k], row[j] = row[j], row[k]
                for row in v:
                    row[k], row[j] = row[j], row[k]
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]
                u[k] = [-x for x in u[k]]
            dirty = False
            for i in range(k + 1, r):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    _row_op(a, u, i, k, q)
                    dirty = dirty or a[i][k] != 0
            for j in range(k + 1, c):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    _col_op(a, v, j, k, q)
                    dirty = dirty or a[k][j] != 0
            if dirty:
                continue
            # enforce the divisibility chain before moving on
            bad = None
            for i in range(k + 1, r):
                for j in range(k + 1, c):
                    if a[i][j] % a[k][k] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
            u[k] = [x + y for x, y in zip(u[k], u[bad])]

    return (
        IntMatrix(u, shape=(r, r)),
        IntMatrix(a, shape=(r, c)),
        IntMatrix(v, shape=(c, c)),
    )


def elementary_divisors(m: IntMatrix) -> list[int]:
    _, d, _ = snf(m)
    return [d[i, i] for i in range(min(m.rows, m.cols))]


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


def kernel_basis(m: IntMatrix) -> list[Vec]:
    """Basis of the integer kernel {x : m @ x = 0}, from the Smith form."""
    _, d, v = snf(m)
    rank = sum(1 for i in range(min(m.rows, m.cols)) if d[i, i] != 0)
    return [v.column(j) for j in range(rank, m.cols)]


def hnf_rows(rows: Sequence[Sequence[int]]) -> list[Vec]:
    """Canonical generating set of the row lattice (row Hermite normal form).

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    and zero rows are dropped.  Used wherever a lattice of relations has to be
    reported deterministically.
    """
    a = [list(_vec(r)) for r in rows]
    if not a:
        return []
    n = len(a[0])
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(a)):
            if a[i][c] != 0:
                if piv is None or abs(a[i][c]) < abs(a[piv][c]):
                    piv = i
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        while True:
            done = True
            for i in range(r + 1, len(a)):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c] != 0:
                        a[r], a[i] = a[i], a[r]
                        done = False
            if done:
                break
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            if a[i][c] != 0:
                # reduce entries above the pivot into [0, pivot)
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return [tuple(row) for row in a[:r] if any(row)]
