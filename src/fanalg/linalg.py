"""Dense exact rational linear algebra.

Small immutable matrices over Fraction: products, inverses, nullspaces.
Zero-by-zero and zero-by-k shapes are first-class citizens because diagram
modules routinely carry zero-dimensional blocks.  Products are taken over
the integers: rows and columns are cleared of denominators first, so each
entry costs one integer dot product and one reduced Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

Q = Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def _cleared(vectors: Iterable[Sequence[Fraction]]) -> list[tuple[list[int], int]]:
    """Each vector times the lcm d of its denominators, as (integers, d)."""
    out = []
    for vec in vectors:
        d = lcm(*(x.denominator for x in vec))
        out.append(([x.numerator * (d // x.denominator) for x in vec], d))
    return out


class QMat:
    """Immutable matrix over the rationals."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, rows: Sequence[Sequence], shape: tuple[int, int] | None = None):
        frozen = tuple(tuple(_frac(x) for x in row) for row in rows)
        if shape is not None:
            m, n = shape
        else:
            m = len(frozen)
            n = len(frozen[0]) if frozen else 0
        if len(frozen) != m or any(len(r) != n for r in frozen):
            raise ValueError("ragged or mis-shaped matrix data")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", frozen)

    def __setattr__(self, *a):
        raise AttributeError("QMat is immutable")

    @classmethod
    def zero(cls, m: int, n: int) -> "QMat":
        return cls(tuple((Q(0),) * n for _ in range(m)), shape=(m, n))

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls(tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n)), shape=(n, n))

    @classmethod
    def from_flat(cls, m: int, n: int, flat: Sequence) -> "QMat":
        if len(flat) != m * n:
            raise ValueError(f"expected {m * n} entries, got {len(flat)}")
        return cls(tuple(tuple(_frac(flat[i * n + j]) for j in range(n)) for i in range(m)), shape=(m, n))

    @classmethod
    def diagonal(cls, entries: Sequence) -> "QMat":
        es = [_frac(x) for x in entries]
        n = len(es)
        return cls(tuple(tuple(es[i] if i == j else Q(0) for j in range(n)) for i in range(n)), shape=(n, n))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, QMat) and self.m == other.m and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.rows))

    def __repr__(self) -> str:
        return f"QMat({[[str(x) for x in row] for row in self.rows]})"

    def __add__(self, other: "QMat") -> "QMat":
        self._same_shape(other)
        return QMat(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            shape=(self.m, self.n),
        )

    def __sub__(self, other: "QMat") -> "QMat":
        self._same_shape(other)
        return QMat(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            shape=(self.m, self.n),
        )

    def __neg__(self) -> "QMat":
        return QMat(tuple(tuple(-a for a in row) for row in self.rows), shape=(self.m, self.n))

    def scale(self, c) -> "QMat":
        c = _frac(c)
        return QMat(tuple(tuple(c * a for a in row) for row in self.rows), shape=(self.m, self.n))

    def __matmul__(self, other: "QMat") -> "QMat":
        if self.n != other.m:
            raise ValueError(f"shape mismatch {self.m}x{self.n} @ {other.m}x{other.n}")
        if self.n == 0:
            return QMat.zero(self.m, other.n)
        cols = _cleared(zip(*other.rows))
        out = tuple(
            tuple(Fraction(sum(map(mul, row, col)), dr * dc) for col, dc in cols) for row, dr in _cleared(self.rows)
        )
        return QMat(out, shape=(self.m, other.n))

    def _same_shape(self, other: "QMat") -> None:
        if self.m != other.m or self.n != other.n:
            raise ValueError(f"shape mismatch {self.m}x{self.n} vs {other.m}x{other.n}")

    def transpose(self) -> "QMat":
        return QMat(tuple(zip(*self.rows)) if self.rows and self.n else (((),) * self.n if self.n else ()), shape=(self.n, self.m))

    def is_square(self) -> bool:
        return self.m == self.n

    def is_identity(self) -> bool:
        return self.is_square() and all(
            self.rows[i][j] == (1 if i == j else 0) for i in range(self.m) for j in range(self.n)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        a = [list(row) for row in self.rows]
        n = self.m
        d = Q(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != 0), None)
            if piv is None:
                return Q(0)
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                d = -d
            d *= a[k][k]
            inv = 1 / a[k][k]
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    f = a[i][k] * inv
                    a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        return d

    def is_invertible(self) -> bool:
        return self.is_square() and self.det() != 0

    def inverse(self) -> "QMat":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.m
        a = [list(row) + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(self.rows)]
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            a[k], a[piv] = a[piv], a[k]
            inv = 1 / a[k][k]
            a[k] = [x * inv for x in a[k]]
            for i in range(n):
                if i != k and a[i][k] != 0:
                    f = a[i][k]
                    a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        return QMat(tuple(tuple(row[n:]) for row in a), shape=(n, n))

    def pow_int(self, k: int) -> "QMat":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            return self.inverse().pow_int(-k)
        out = QMat.identity(self.m)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def flat(self) -> list[Fraction]:
        return [x for row in self.rows for x in row]


def assemble(m: int, n: int, blocks: dict[tuple[int, int], QMat]) -> QMat:
    """Place blocks into an m-by-n zero matrix at the given (row, col) offsets."""
    grid = [[Q(0)] * n for _ in range(m)]
    for (r0, c0), b in blocks.items():
        for i in range(b.m):
            row = grid[r0 + i]
            for j in range(b.n):
                row[c0 + j] += b.rows[i][j]
    return QMat(tuple(tuple(row) for row in grid), shape=(m, n))


def block_diag(mats: Iterable[QMat]) -> QMat:
    mats = list(mats)
    m = sum(b.m for b in mats)
    n = sum(b.n for b in mats)
    blocks = {}
    r = c = 0
    for b in mats:
        blocks[(r, c)] = b
        r += b.m
        c += b.n
    return assemble(m, n, blocks)


def kron(a: QMat, b: QMat) -> QMat:
    """Kronecker product, basis ordered (i_a * b.m + i_b)."""
    rows = []
    for i in range(a.m):
        for p in range(b.m):
            rows.append(tuple(a.rows[i][j] * b.rows[p][q] for j in range(a.n) for q in range(b.n)))
    return QMat(tuple(rows), shape=(a.m * b.m, a.n * b.n))


def random_invertible(n: int, rng, spread: int = 2) -> QMat:
    """Constructive random invertible matrix: unit triangular factors times
    a nonzero diagonal, never rejection sampling."""
    lo = [[Q(1) if i == j else (Q(rng.randint(-spread, spread)) if i > j else Q(0)) for j in range(n)] for i in range(n)]
    up = [[Q(1) if i == j else (Q(rng.randint(-spread, spread)) if i < j else Q(0)) for j in range(n)] for i in range(n)]
    diag = QMat.diagonal([Q(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)) for _ in range(n)])
    return QMat(lo) @ diag @ QMat(up)


def rref(mat: QMat) -> tuple[QMat, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = [list(row) for row in mat.rows]
    m, n = mat.m, mat.n
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return QMat(tuple(tuple(row) for row in a), shape=(m, n)), pivots


def nullspace(mat: QMat) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, one canonical vector per free column."""
    red, pivots = rref(mat)
    free = [c for c in range(mat.n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Q(0)] * mat.n
        vec[fc] = Q(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red.rows[r][fc]
        basis.append(tuple(vec))
    return basis
