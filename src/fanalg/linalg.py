"""Exact rational linear algebra.

Small immutable matrices over Fraction: products, determinants, inverses,
rref and nullspaces.  Zero-by-zero and zero-by-k shapes are first-class
citizens because diagram modules routinely carry zero-dimensional blocks.
Products are taken over the integers: rows and columns are cleared of
denominators first, so each entry costs one integer dot product and one
reduced Fraction.  Every elimination reads one sparse, fully reduced row
echelon form, built by `_echelon`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
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
        held, divisors = _echelon(self.rows)
        if len(held) < self.m:
            return Q(0)
        # the i-th row has its pivot in column order[i]; the sign is that permutation's
        order = list(held)
        swaps = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
        return prod(divisors, start=Q(-1 if swaps % 2 else 1))

    def is_invertible(self) -> bool:
        return self.is_square() and len(_echelon(self.rows)[0]) == self.m

    def inverse(self) -> "QMat":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.m
        # [A | I] always has rank n; its echelon form is [I | A^-1] exactly when A is invertible
        held, _ = _echelon(a + e for a, e in zip(self.rows, QMat.identity(n).rows))
        if any(c >= n for c in held):
            raise ValueError("matrix is singular")
        return QMat(tuple(tuple(held[i].get(j, Q(0)) for j in range(n, 2 * n)) for i in range(n)), shape=(n, n))

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


def block_diag(mats: Iterable[QMat]) -> QMat:
    mats = list(mats)
    n = sum(b.n for b in mats)
    rows = []
    c = 0
    for b in mats:
        left, right = (Q(0),) * c, (Q(0),) * (n - c - b.n)
        rows += [left + row + right for row in b.rows]
        c += b.n
    return QMat(rows, shape=(len(rows), n))


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


def _subtract(row: dict[int, Fraction], f: Fraction, other: dict[int, Fraction]) -> None:
    """row -= f * other in place, keeping only nonzero entries."""
    for j, x in other.items():
        y = row.get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def _echelon(rows: Iterable[Sequence[Fraction]]) -> tuple[dict[int, dict[int, Fraction]], list[Fraction]]:
    """The unique fully reduced row echelon form of `rows`, built one sparse row at a time.

    Each row is reduced against the held pivot rows and dropped if it reduces
    to zero; otherwise its first nonzero column becomes a pivot, the row is
    divided by its value there, and that column is cleared from the held rows.
    Returns the held rows ({column: value}, keyed by pivot column in arrival
    order) and the pivot values divided out, in the same order.
    """
    held: dict[int, dict[int, Fraction]] = {}
    divisors: list[Fraction] = []
    for dense in rows:
        row = {j: x for j, x in enumerate(dense) if x}
        # a held row is zero at every other pivot, so these reductions commute
        for c in held.keys() & row.keys():
            _subtract(row, row[c], held[c])
        if not row:
            continue
        p = min(row)
        d = row[p]
        if d != 1:
            row = {j: x / d for j, x in row.items()}
        for other in held.values():
            if p in other:
                _subtract(other, other[p], row)
        held[p] = row
        divisors.append(d)
    return held, divisors


def rref(mat: QMat) -> tuple[QMat, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    held, _ = _echelon(mat.rows)
    pivots = sorted(held)
    zero = Q(0)
    rows = [tuple(held[c].get(j, zero) for j in range(mat.n)) for c in pivots]
    rows += [(zero,) * mat.n] * (mat.m - len(rows))
    return QMat(rows, shape=(mat.m, mat.n)), pivots


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
