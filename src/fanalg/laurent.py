"""Sparse multivariate Laurent polynomials over the exact rationals.

A polynomial holds integers over one denominator: `num`, a finite map from
integer exponent vectors to nonzero integers, and `den > 0`, always in the
canonical form gcd(den, *num.values()) == 1, so the zero polynomial has
den == 1.  Because the form is unique, `==` and `hash` compare the fields
directly.  A product is an integer convolution and a sum rescales both
operands to the lcm of their denominators, each followed by one gcd pass;
`terms` builds a `Fraction` view on request, and nothing inside the package
reads it.  Besides the ring structure, the module provides the two
operations the fan algebra depends on: exact division by binomials t^v - 1
for primitive v, done coset by coset on the exponents e + Zv with no change
of coordinates, and the monomial map induced by an integer matrix on
exponents.

Numbers are coerced once, where they enter: the public constructors
(`LaurentPoly(rank, terms)`, `constant`, `monomial`) pass each exponent
through `lattice._vec`, which rejects a float instead of truncating it, and
each coefficient through `linalg._frac`, the one rational coercion.
Arithmetic, `one`, `binomial`, `monomial_map` and the quotients of
`divide_by_binomial` build their integers through the trusted
`LaurentPoly._of` (already canonical) or `LaurentPoly._reduced` (reduced by
one gcd pass).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from fanalg.lattice import IntMatrix, Vec, _vec, primitive
from fanalg.linalg import _frac


class LaurentPoly:
    """Laurent polynomial with rational coefficients and integer exponents,
    held as integers `num` over one positive denominator `den` in canonical
    form."""

    __slots__ = ("rank", "num", "den")

    def __init__(self, rank: int, terms: Mapping[Vec, Fraction] | Iterable[tuple[Vec, Fraction]] = ()):
        data: dict[Vec, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for e, c in items:
            e = _vec(e)
            if len(e) != rank:
                raise ValueError(f"exponent {e} does not have rank {rank}")
            c = _frac(c)
            acc = data.get(e, Fraction(0)) + c
            if acc == 0:
                data.pop(e, None)
            else:
                data[e] = acc
        # over the lcm of the denominators, which is canonical as it stands:
        # a prime power exactly dividing the lcm exactly divides some
        # denominator, and that coefficient's numerator is prime to it
        den = lcm(*(c.denominator for c in data.values()))
        _set_rank(self, rank)
        _set_num(self, {e: c.numerator * (den // c.denominator) for e, c in data.items()})
        _set_den(self, den)

    @classmethod
    def _of(cls, rank: int, num: dict[Vec, int], den: int) -> "LaurentPoly":
        """num / den, which arithmetic on polynomials has just built in
        canonical form with integer-tuple exponents and nonzero integers;
        nothing is coerced, reduced or checked again."""
        f = object.__new__(cls)
        _set_rank(f, rank)
        _set_num(f, num)
        _set_den(f, den)
        return f

    @classmethod
    def _reduced(cls, rank: int, num: dict[Vec, int], den: int) -> "LaurentPoly":
        """num / den for nonzero integers and a positive den, brought to
        canonical form by one gcd pass."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        return cls._of(rank, num, den)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls._of(rank, {}, 1)

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls._of(rank, {(0,) * rank: 1}, 1)

    @classmethod
    def constant(cls, rank: int, c) -> "LaurentPoly":
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def monomial(cls, v: Sequence[int], c=1) -> "LaurentPoly":
        e = tuple(v)
        return cls(len(e), {e: c})

    @property
    def terms(self) -> Mapping[Vec, Fraction]:
        """The coefficients as Fractions, a read-only view built on each read."""
        d = self.den
        return MappingProxyType({e: Fraction(c, d) for e, c in self.num.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.rank == other.rank
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.den, frozenset(self.num.items())))

    def is_zero(self) -> bool:
        return not self.num

    def is_unit(self) -> bool:
        """Units of the Laurent ring are the single-term polynomials."""
        return len(self.num) == 1

    def _is_one(self) -> bool:
        if self.den != 1 or len(self.num) != 1:
            return False
        ((e, c),) = self.num.items()
        return c == 1 and not any(e)

    def _check_rank(self, other: "LaurentPoly") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_rank(other)
        den = self.den
        if den == other.den:
            out = dict(self.num)
            items = other.num.items()
        else:
            den = lcm(den, other.den)
            fa, fb = den // self.den, den // other.den
            out = {e: fa * c for e, c in self.num.items()}
            items = [(e, fb * c) for e, c in other.num.items()]
        for e, c in items:
            # c is nonzero, so a zero sum means e was already there
            acc = out.get(e, 0) + c
            if acc:
                out[e] = acc
            else:
                del out[e]
        return LaurentPoly._reduced(self.rank, out, den)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of(self.rank, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly.zero(self.rank)
            p = other.numerator
            return LaurentPoly._reduced(self.rank, {e: p * c for e, c in self.num.items()}, other.denominator * self.den)
        self._check_rank(other)
        if other._is_one():
            return self
        if self._is_one():
            return other
        out: dict[Vec, int] = {}
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = tuple(map(add, e1, e2))
                acc = out.get(e, 0) + c1 * c2
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        return LaurentPoly._reduced(self.rank, out, self.den * other.den)

    def __rmul__(self, other) -> "LaurentPoly":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            if not self.is_unit():
                raise ValueError("negative power of a non-unit")
            # (c / den) t^e inverts to (den / c) t^-e, canonical since gcd(c, den) == 1
            ((e, c),) = self.num.items()
            sign = 1 if c > 0 else -1
            return LaurentPoly._of(self.rank, {tuple(-x for x in e): sign * self.den}, sign * c) ** (-k)
        out = LaurentPoly.one(self.rank)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        if not self.num:
            return "0"
        names = ["t"] if self.rank == 1 else [f"t{i + 1}" for i in range(self.rank)]
        zero = (0,) * self.rank
        parts = []
        # constants last, otherwise descending lexicographic
        for e, n in sorted(self.num.items(), key=lambda kv: (kv[0] == zero, tuple(-x for x in kv[0]))):
            c = Fraction(n, self.den)
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k != 0:
                    factors.append(f"{name}^{k}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    __repr__ = __str__


# the slot descriptors, which set a slot with no attribute lookup and pass by
# the `__setattr__` that keeps a LaurentPoly immutable
_set_rank, _set_num, _set_den = LaurentPoly.rank.__set__, LaurentPoly.num.__set__, LaurentPoly.den.__set__


def binomial(v: Sequence[int]) -> LaurentPoly:
    """The polynomial t^v - 1."""
    e = _vec(v)
    zero = (0,) * len(e)
    return LaurentPoly._of(len(e), {e: 1, zero: -1} if e != zero else {}, 1)


def monomial_map(f: LaurentPoly, q: IntMatrix) -> LaurentPoly:
    """Ring homomorphism sending t^u to s^(q @ u); colliding images are
    summed, and may sum to a multiple of the denominator."""
    if q.cols != f.rank:
        raise ValueError(f"matrix with {q.cols} columns cannot act on rank {f.rank}")
    out: dict[Vec, int] = {}
    for e, c in f.num.items():
        e = q.apply(e)
        out[e] = out.get(e, 0) + c
    return LaurentPoly._reduced(q.rows, {e: c for e, c in out.items() if c}, f.den)


def divide_by_binomial(f: LaurentPoly, v: Sequence[int]) -> LaurentPoly | None:
    """Exact quotient of f by t^v - 1, or None when not divisible.

    The exponents fall into cosets e + Zv.  With j the first nonzero
    coordinate of v, each exponent is base + k*v for k = e[j] // v[j], and
    base is the same across a coset, so on each coset f is a univariate
    polynomial in x = t^v.  It is divisible by x - 1 exactly when its
    coefficients sum to zero, and the quotient's coefficient at base + k*v is
    minus the running sum of f's coefficients at positions up to k.  The sums
    run on the integers `num` and the quotient keeps `den`, which is
    canonical as it stands: a prime dividing `den` and every quotient
    coefficient would divide every coefficient of f = q * (t^v - 1).
    """
    v = _vec(v)
    if len(v) != f.rank:
        raise ValueError("vector rank does not match polynomial rank")
    if all(x == 0 for x in v):
        raise ValueError("no primitive direction")
    if primitive(v) != v:
        raise ValueError(f"vector {v} is not primitive")
    j = next(i for i, x in enumerate(v) if x)
    cosets: dict[Vec, dict[int, int]] = {}
    for e, c in f.num.items():
        k = e[j] // v[j]
        cosets.setdefault(tuple(a - k * b for a, b in zip(e, v)), {})[k] = c
    # an exponent fixes its coset and k, so each quotient term is set once
    out: dict[Vec, int] = {}
    for base, coeffs in cosets.items():
        hi = max(coeffs)
        run = 0
        for k in range(min(coeffs), hi):
            run += coeffs.get(k, 0)
            if run:
                out[tuple(a + k * b for a, b in zip(base, v))] = -run
        if run + coeffs[hi] != 0:
            return None
    return LaurentPoly._of(f.rank, out, f.den)


def divide_by_product(f: LaurentPoly, vs: Sequence[Sequence[int]]) -> LaurentPoly | None:
    """Iterated exact division by the binomials t^v - 1 for v in vs.

    The binomials for distinct primitive vectors are non-associate primes of
    the Laurent ring, so the result does not depend on the order of vs.
    """
    vecs = [_vec(v) for v in vs]
    if len(set(vecs)) != len(vecs):
        raise ValueError("repeated vector in divisor list")
    out = f
    for v in vecs:
        out = divide_by_binomial(out, v)
        if out is None:
            return None
    return out


def poly_to_data(f: LaurentPoly) -> list[dict]:
    """Serializable form: records {"c": "p/q", "e": [exponents]}, sorted."""
    return [{"c": str(Fraction(c, f.den)), "e": list(e)} for e, c in sorted(f.num.items())]


def poly_from_data(data: Sequence[Mapping], rank: int) -> LaurentPoly:
    """The polynomial of records {"c": rational, "e": [exponents]}, coerced by
    the constructor."""
    return LaurentPoly(rank, [(rec["e"], rec["c"]) for rec in data])
