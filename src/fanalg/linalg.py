"""Exact rational linear algebra.

Small immutable matrices over the rationals: products, determinants,
inverses, rref and nullspaces.  Zero-by-zero and zero-by-k shapes are
first-class citizens because diagram modules routinely carry
zero-dimensional blocks.

A `QMat` holds integers over one denominator: `num`, a tuple of int rows,
and `den > 0`, always in the canonical form gcd(den, *entries) == 1, so the
zero matrix has den == 1.  Because the form is unique, `==` and `hash`
compare the fields directly.  Products take integer dot products and then
one gcd pass; sums rescale both operands to the lcm of their denominators;
negation, transposes, block sums and Kronecker products work on the
integers.  Every product of the package, `@` and those of `diagram.evaluate`
and `diagram.rep_check`, goes through one integer kernel, `_rows_times`,
which reads both operands as integer rows, so no caller builds a column
list.  `rows`, `__getitem__` and `flat` build `Fraction` views on
request; nothing inside the package reads them on a hot path.

The checks compare products without building them: `_products_equal`
decides a @ b == c @ d and `_is_product` decides x == a @ b or
x == I + a @ b, entry by entry on the integer rows cross-multiplied by the
denominators, with no gcd pass and no new matrix, stopping at the first
entry that differs.  Both iterate over the shapes, so a product through a
zero-dimensional middle space is compared as the zero matrix it is.

Rank-one objects, such as a character on every cone, have 1x1 blocks only,
and sums and tensors of two characters have 2x2 blocks, so the checks of
descent and validation and `diagram.rep_check` on them see mostly 1x1 and
2x2 operands.  The kernels therefore choose a closed form by shape, after
the same shape checks as the general path:
- for 1x1 operands `_products_equal` and `_is_product` compare
  cross-multiplied integers, `@` multiplies the two entries and reduces by
  one gcd, `is_invertible` tests the entry against zero and `inverse`
  returns den / x with the sign on the numerator;
- for 2x2 operands `_rows_times` holds the one closed form of the product,
  which `@` takes through it; `_products_equal`, `_is_product` (with the
  identity added on the diagonal only) and `_combination` write out the
  four entries, with no column list (`_columns`) and no row loop,
  `is_invertible` tests a d != b c and `inverse` returns den times the
  adjugate over the determinant.
Neither size makes an `_echelon` call.  Each returns the integers, the
canonical `QMat` and the verdict of the general path, and raises the same
errors; every other shape takes the general path.  The comparisons,
`_combination` and the inverse keep closed forms of their own because
2x2 operands are a large share of their calls in `rep_check`, descent and
validation, and their general paths are slower there; the comparisons'
general paths read columns (`_columns`) so as to stop at the first entry
that differs, and going through the product kernel was slower on larger
operands.

`_combination` and `_rows_times` are the kernels of `diagram.evaluate` and
of `diagram.rep_check` on spaces of dimension 2 or more: `_combination`
sums c * a for integer coefficients c as integer rows over the lcm of the
terms' denominators, and `_rows_times` multiplies two matrices given by
their integer rows, with no gcd pass and no new matrix, so that a caller
that places every block of a total matrix reduces once.  `evaluate` sums the
monodromies of each entry and meets the path product once; `rep_check`
multiplies the sums of the factors of each term of a product, and no
product with an identity is made.  The monodromies come from the table
that each module owns for its lifetime, keyed by (cone, exponent), one
entry per distinct key an evaluation of the module has read on such a
space.  A block on a 1-dimensional space takes no monodromy matrix and
adds no table entry: it is summed as integers from the torus scalars.

Every elimination reads one sparse, fully reduced row echelon form, built by
`_echelon` from the integer rows without leaving the integers: a
fraction-free Gauss-Jordan elimination (Bareiss, Montante) that holds D times
the reduced echelon form, D being the common pivot value.  Scaling a matrix
does not change its reduced echelon form, so det(num / den) is
+-D / den^m, the inverse is the right half of the held form of
[num | den * I] over D, rref is the held rows over D, and a kernel vector
reads -row[fc] / D.

Numbers are coerced once, where they enter: the public constructors
(`QMat(rows)`, `from_flat`, `diagonal`) pass each entry through `_frac`, the
one rational coercion of the package, and check the shape.  The file readers
of `serialize` read ints and the canonical "p" and "p/q" strings straight
into integer rows over a denominator, built by `QMat._reduced`, and pass any
other entry through `_frac`.  Every matrix the library builds goes through the
trusted `QMat._of` (integers already in canonical form), `QMat._reduced`
(integers over a denominator, reduced by one gcd pass) or
`QMat._of_fractions` (rationals the library has just computed), which
coerce and check nothing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul, neg
from typing import Iterable, Sequence

Q = Fraction


def _frac(x) -> Fraction:
    """The one rational coercion: a Fraction, an int or a string that
    `Fraction` parses, such as "p/q"; a float raises TypeError, since it is
    not exact.  The canonical "p" and "p/q" that `str(Fraction)` writes skip
    the general string parser."""
    if isinstance(x, str):
        if x.isascii():
            p, slash, q = x.partition("/")
            if (p.isdigit() or p[:1] == "-" and p[1:].isdigit()) and (q.isdigit() or not slash):
                return Fraction(int(p), int(q)) if slash else Fraction(int(p))
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"cannot coerce {x!r} to a rational")


class QMat:
    """Immutable matrix over the rationals, held as integers `num` over one
    positive denominator `den` in canonical form."""

    __slots__ = ("m", "n", "num", "den")

    def __init__(self, rows: Sequence[Sequence], shape: tuple[int, int] | None = None):
        frozen = tuple(tuple(map(_frac, row)) for row in rows)
        if shape is not None:
            m, n = shape
        else:
            m = len(frozen)
            n = len(frozen[0]) if frozen else 0
        if len(frozen) != m or any(len(r) != n for r in frozen):
            raise ValueError("ragged or mis-shaped matrix data")
        num, den = _over_lcm(frozen)
        _set_m(self, m)
        _set_n(self, n)
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _of(cls, num: tuple[tuple[int, ...], ...], den: int, m: int, n: int) -> "QMat":
        """The m x n matrix num / den, which the library has just built in
        canonical form; nothing is coerced, reduced or checked again."""
        a = object.__new__(cls)
        _set_m(a, m)
        _set_n(a, n)
        _set_num(a, num)
        _set_den(a, den)
        return a

    @classmethod
    def _reduced(cls, num: tuple[tuple[int, ...], ...], den: int, m: int, n: int) -> "QMat":
        """num / den for integer rows and a positive den, brought to canonical
        form by one gcd pass."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple([x // g for x in row]) for row in num)
                den //= g
        return cls._of(num, den, m, n)

    @classmethod
    def _of_fractions(cls, rows: Sequence[Sequence[Fraction | int]], m: int, n: int) -> "QMat":
        """The m x n matrix of rationals (Fractions or ints) the library has
        just computed; they are not coerced or checked again."""
        num, den = _over_lcm(rows)
        return cls._of(num, den, m, n)

    def __setattr__(self, *a):
        raise AttributeError("QMat is immutable")

    @classmethod
    def zero(cls, m: int, n: int) -> "QMat":
        return cls._of(((0,) * n,) * m, 1, m, n)

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls._of(_eye(n, 1), 1, n, n)

    @classmethod
    def from_flat(cls, m: int, n: int, flat: Sequence) -> "QMat":
        if m < 0 or n < 0 or len(flat) != m * n:
            raise ValueError(f"a {m}x{n} matrix cannot have {len(flat)} entries")
        es = tuple(map(_frac, flat))
        return cls._of_fractions(tuple(es[i * n : (i + 1) * n] for i in range(m)), m, n)

    @classmethod
    def diagonal(cls, entries: Sequence) -> "QMat":
        es = list(map(_frac, entries))
        n = len(es)
        return cls._of_fractions(tuple(tuple(es[i] if i == j else 0 for j in range(n)) for i in range(n)), n, n)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, built on each read."""
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.num)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMat)
            and self.m == other.m
            and self.n == other.n
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.den, self.num))

    def __repr__(self) -> str:
        return f"QMat({[[str(x) for x in row] for row in self.rows]})"

    def __add__(self, other: "QMat") -> "QMat":
        self._same_shape(other)
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        num = tuple(tuple([fa * x + fb * y for x, y in zip(ra, rb)]) for ra, rb in zip(self.num, other.num))
        return QMat._reduced(num, d, self.m, self.n)

    def __sub__(self, other: "QMat") -> "QMat":
        return self + -other

    def __neg__(self) -> "QMat":
        return QMat._of(tuple(tuple(map(neg, row)) for row in self.num), self.den, self.m, self.n)

    def scale(self, c: int | Fraction) -> "QMat":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"cannot scale by {c!r}, an int or a Fraction is needed")
        p = c.numerator
        return QMat._reduced(tuple(tuple([p * x for x in row]) for row in self.num), c.denominator * self.den, self.m, self.n)

    def __matmul__(self, other: "QMat") -> "QMat":
        """The product: the integer product `_rows_times` over
        den * other.den, reduced by one gcd pass; 1x1 operands take a closed
        form, and a product through a 0-dimensional middle space is zero."""
        if self.n != other.m:
            raise ValueError(f"shape mismatch {self.m}x{self.n} @ {other.m}x{other.n}")
        if self.m == self.n == other.n == 1:
            p, d = self.num[0][0] * other.num[0][0], self.den * other.den
            g = gcd(p, d)
            return QMat._of(((p // g,),), d // g, 1, 1)
        if not self.n:
            return QMat.zero(self.m, other.n)
        return QMat._reduced(_rows_times(self.num, other.num), self.den * other.den, self.m, other.n)

    def _same_shape(self, other: "QMat") -> None:
        if self.m != other.m or self.n != other.n:
            raise ValueError(f"shape mismatch {self.m}x{self.n} vs {other.m}x{other.n}")

    def transpose(self) -> "QMat":
        return QMat._of(tuple(zip(*self.num)) if self.num else ((),) * self.n, self.den, self.n, self.m)

    def is_square(self) -> bool:
        return self.m == self.n

    def is_identity(self) -> bool:
        return self.den == 1 and self.is_square() and self.num == _eye(self.m, 1)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        held, d = _echelon(self.num)
        if len(held) < self.m:
            return Q(0)
        # d is the minor on the pivot columns in arrival order; the sign is that permutation's
        order = list(held)
        swaps = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
        return Q(-d if swaps % 2 else d, self.den**self.m)

    def is_invertible(self) -> bool:
        if self.m == self.n == 1:
            return self.num[0][0] != 0
        if self.m == self.n == 2:
            (a, b), (c, d) = self.num
            return a * d != b * c
        return self.is_square() and len(_echelon(self.num)[0]) == self.m

    def inverse(self) -> "QMat":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.m
        if n == 1:
            x = self.num[0][0]
            if not x:
                raise ValueError("matrix is singular")
            return QMat._of(((self.den if x > 0 else -self.den,),), abs(x), 1, 1)
        if n == 2:
            # den times the adjugate, over the determinant of num
            (a, b), (c, d) = self.num
            det = a * d - b * c
            if not det:
                raise ValueError("matrix is singular")
            e = self.den
            return _over_pivot(((d * e, -b * e), (-c * e, a * e)), det, 2, 2)
        # (num / den)^-1 = den * num^-1, and [num | den I] reduces to [I | den * num^-1]
        # exactly when num is invertible; [num | den I] always has rank n
        held, d = _echelon(a + e for a, e in zip(self.num, _eye(n, self.den)))
        if any(c >= n for c in held):
            raise ValueError("matrix is singular")
        return _over_pivot(([held[i].get(j, 0) for j in range(n, 2 * n)] for i in range(n)), d, n, n)

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
        d = self.den
        return [Fraction(x, d) for row in self.num for x in row]


# the slot descriptors, which set a slot with no attribute lookup and pass by
# the `__setattr__` that keeps a QMat immutable
_set_m, _set_n, _set_num, _set_den = QMat.m.__set__, QMat.n.__set__, QMat.num.__set__, QMat.den.__set__


def _columns(b: QMat) -> list[tuple[int, ...]]:
    """The integer columns of b; a b with no rows still has b.n (empty) columns."""
    return list(zip(*b.num)) if b.m else [()] * b.n


def _products_equal(a: QMat, b: QMat, c: QMat, d: QMat) -> bool:
    """a @ b == c @ d, decided entry by entry on the integer rows without
    building either product: (A B) den(c) den(d) == (C D) den(a) den(b).
    1x1 and 2x2 operands take a closed form."""
    if a.n != b.m or c.n != d.m:
        raise ValueError(f"shape mismatch {a.m}x{a.n} @ {b.m}x{b.n} vs {c.m}x{c.n} @ {d.m}x{d.n}")
    if a.m != c.m or b.n != d.n:
        return False
    f, g = c.den * d.den, a.den * b.den
    if a.m == a.n == b.n == c.n == 1:
        return f * a.num[0][0] * b.num[0][0] == g * c.num[0][0] * d.num[0][0]
    if a.m == a.n == b.n == c.n == 2:
        (a0, a1), (a2, a3) = a.num
        (b0, b1), (b2, b3) = b.num
        (c0, c1), (c2, c3) = c.num
        (d0, d1), (d2, d3) = d.num
        return (
            f * (a0 * b0 + a1 * b2) == g * (c0 * d0 + c1 * d2)
            and f * (a0 * b1 + a1 * b3) == g * (c0 * d1 + c1 * d3)
            and f * (a2 * b0 + a3 * b2) == g * (c2 * d0 + c3 * d2)
            and f * (a2 * b1 + a3 * b3) == g * (c2 * d1 + c3 * d3)
        )
    bcols, dcols = _columns(b), _columns(d)
    for ra, rc in zip(a.num, c.num):
        for cb, cd in zip(bcols, dcols):
            if f * sum(map(mul, ra, cb)) != g * sum(map(mul, rc, cd)):
                return False
    return True


def _is_product(x: QMat, a: QMat, b: QMat, plus_identity: bool = False) -> bool:
    """x == a @ b, or x == I + a @ b with plus_identity, decided entry by entry
    on the integer rows without building the product:
    X den(a) den(b) == (A B + [I] den(a) den(b)) den(x).  1x1 and 2x2
    operands take a closed form."""
    if a.n != b.m or plus_identity and a.m != b.n:
        raise ValueError(f"shape mismatch {'I + ' if plus_identity else ''}{a.m}x{a.n} @ {b.m}x{b.n}")
    if x.m != a.m or x.n != b.n:
        return False
    g, dx = a.den * b.den, x.den
    s = g if plus_identity else 0
    if x.m == x.n == a.n == 1:
        return x.num[0][0] * g == (a.num[0][0] * b.num[0][0] + s) * dx
    if x.m == x.n == a.n == 2:
        (x0, x1), (x2, x3) = x.num
        (a0, a1), (a2, a3) = a.num
        (b0, b1), (b2, b3) = b.num
        return (
            x0 * g == (a0 * b0 + a1 * b2 + s) * dx
            and x1 * g == (a0 * b1 + a1 * b3) * dx
            and x2 * g == (a2 * b0 + a3 * b2) * dx
            and x3 * g == (a2 * b1 + a3 * b3 + s) * dx
        )
    bcols = _columns(b)
    for i, (rx, ra) in enumerate(zip(x.num, a.num)):
        for j, (e, cb) in enumerate(zip(rx, bcols)):
            if e * g != (sum(map(mul, ra, cb)) + (s if i == j else 0)) * dx:
                return False
    return True


def _combination(terms: Iterable[tuple[int, Sequence[Sequence[int]], int]]) -> tuple[list[list[int]], int]:
    """The sum of c * rows / den over the terms (c, rows, den), for integers c
    and integer matrices rows of one shape over positive denominators, as
    integer rows over the lcm of the denominators, not reduced: no `QMat` is
    built and no gcd pass is made.  A lone term with coefficient 1 is
    returned as it stands, its rows not copied; 2x2 terms take the closed
    form."""
    terms = list(terms)
    den = lcm(*[d for _, _, d in terms])
    (c, rows, d), *rest = terms
    if not rest and c == 1:
        return rows, d
    if len(rows) == 2 and len(rows[0]) == 2:
        p = q = r = t = 0
        for c, ((x, y), (z, w)), d in terms:
            f = c * (den // d)
            p += f * x
            q += f * y
            r += f * z
            t += f * w
        return [[p, q], [r, t]], den
    f = c * (den // d)
    acc = [[f * x for x in row] for row in rows]
    for c, rows, d in rest:
        f = c * (den // d)
        for out, row in zip(acc, rows):
            for j, x in enumerate(row):
                out[j] += f * x
    return acc, den


def _rows_times(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The integer product of the rows a and the rows b, for a b with at
    least one row, as tuple rows; the package's one product kernel.  2x2
    operands take the closed form, and every other shape reads the columns
    of b once."""
    if len(a) == len(b) == len(b[0]) == 2:
        (p, q), (r, s) = a
        (e, f), (g, h) = b
        return ((p * e + q * g, p * f + q * h), (r * e + s * g, r * f + s * h))
    cols = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def _eye(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """d times the n x n identity, as integer rows."""
    return tuple(tuple(d if i == j else 0 for j in range(n)) for i in range(n))


def _over_lcm(rows: Iterable[Sequence[Fraction | int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rationals in lowest terms as integers over the lcm of their
    denominators, which is already canonical: a prime power dividing the lcm
    exactly divides some denominator, and that entry's numerator is not
    divisible by the prime."""
    rows = tuple(rows)
    den = lcm(*[x.denominator for row in rows for x in row])
    if den == 1:
        return tuple([tuple([x.numerator for x in row]) for row in rows]), 1
    return tuple([tuple([x.numerator * (den // x.denominator) for x in row]) for row in rows]), den


def block_diag(mats: Iterable[QMat]) -> QMat:
    """The block sum, over the lcm of the blocks' denominators; canonical as
    it stands, for the reason `_over_lcm` gives."""
    mats = list(mats)
    n = sum(b.n for b in mats)
    den = lcm(*(b.den for b in mats))
    rows = []
    c = 0
    for b in mats:
        f = den // b.den
        left, right = (0,) * c, (0,) * (n - c - b.n)
        rows += [left + tuple(f * x for x in row) + right for row in b.num]
        c += b.n
    return QMat._of(tuple(rows), den, len(rows), n)


def kron(a: QMat, b: QMat) -> QMat:
    """Kronecker product, basis ordered (i_a * b.m + i_b)."""
    rows = tuple(tuple(x * y for x in ra for y in rb) for ra in a.num for rb in b.num)
    return QMat._reduced(rows, a.den * b.den, a.m * b.m, a.n * b.n)


def random_invertible(n: int, rng, spread: int = 2) -> QMat:
    """Constructive random invertible matrix: unit triangular factors times
    a nonzero diagonal, never rejection sampling."""
    lo = tuple(tuple(1 if i == j else (rng.randint(-spread, spread) if i > j else 0) for j in range(n)) for i in range(n))
    up = tuple(tuple(1 if i == j else (rng.randint(-spread, spread) if i < j else 0) for j in range(n)) for i in range(n))
    diag = QMat.diagonal([Q(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)) for _ in range(n)])
    return QMat._of(lo, 1, n, n) @ diag @ QMat._of(up, 1, n, n)


def _subtract(row: dict[int, int], f: int, other: dict[int, int]) -> None:
    """row -= f * other in place, keeping only nonzero entries."""
    for j, x in other.items():
        y = row.get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[dict[int, dict[int, int]], int]:
    """D times the unique fully reduced row echelon form of the integer `rows`,
    built one sparse row at a time without leaving the integers.

    This is the fraction-free Gauss-Jordan elimination of Bareiss (Math. Comp.
    22, 1968) in Montante's form.  The held rows ({column: value}, keyed by
    pivot column in arrival order) are D times the reduced echelon form of the
    rows kept so far, with D the common value at every pivot; D is the minor of
    the kept rows on the pivot columns in arrival order.  A new row r becomes
    D * r - sum of r[c] * held[c] over the pivots c, which is zero at every
    pivot and is dropped if it is zero.  Otherwise its first nonzero column p
    becomes a pivot, its value P there the new D, and each held row h becomes
    (P * h - h[p] * r) / D, a division that is exact by Sylvester's identity.
    Returns the held rows and D (1 when no row is kept).
    """
    held: dict[int, dict[int, int]] = {}
    d = 1
    for dense in rows:
        row = {j: x for j, x in enumerate(dense) if x}
        # a held row is zero at every other pivot, so these reductions commute
        hits = [(c, row[c]) for c in held.keys() & row.keys()]
        if d != 1:
            row = {j: d * x for j, x in row.items()}
        for c, f in hits:
            _subtract(row, f, held[c])
        if not row:
            continue
        p = min(row)
        pv = row[p]
        for c, h in held.items():
            f = h.get(p)
            if f is not None:
                h = {j: pv * x for j, x in h.items()}
                _subtract(h, f, row)
                held[c] = {j: x // d for j, x in h.items()} if d != 1 else h
            elif pv != d:
                held[c] = {j: pv * x // d for j, x in h.items()}
        held[p] = row
        d = pv
    return held, d


def _over_pivot(rows: Iterable[Iterable[int]], d: int, m: int, n: int) -> QMat:
    """The m x n matrix rows / d for a nonzero pivot value d of either sign."""
    if d < 0:
        rows, d = (map(neg, row) for row in rows), -d
    return QMat._reduced(tuple(map(tuple, rows)), d, m, n)


def rref(mat: QMat) -> tuple[QMat, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    held, d = _echelon(mat.num)
    pivots = sorted(held)
    rows = [[held[c].get(j, 0) for j in range(mat.n)] for c in pivots]
    rows += [(0,) * mat.n] * (mat.m - len(rows))
    return _over_pivot(rows, d, mat.m, mat.n), pivots


def _primitive_kernel(rows: Iterable[Sequence[int]], n: int) -> list[list[int]]:
    """A basis of the right kernel of integer rows with n columns, one vector
    per free column of one echelon form, in increasing free column order: the
    vector `nullspace` gives, scaled to a primitive integer vector, whose
    entries have gcd 1 and whose entry at its free column is positive."""
    held, d = _echelon(rows)
    basis = []
    for fc in range(n):
        if fc in held:
            continue
        vec = [0] * n
        vec[fc] = d
        for pc, row in held.items():
            x = row.get(fc)
            if x:
                vec[pc] = -x
        g = gcd(*vec) if d > 0 else -gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def nullspace(mat: QMat) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, one canonical vector per free column: the
    primitive kernel vector over its entry at the free column, which is its
    last nonzero entry, since a held row reaches only later free columns."""
    basis = []
    for vec in _primitive_kernel(mat.num, mat.n):
        last = max(j for j, x in enumerate(vec) if x)
        basis.append(tuple(Q(x, vec[last]) for x in vec))
    return basis
