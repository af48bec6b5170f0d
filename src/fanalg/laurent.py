"""Sparse multivariate Laurent polynomials over the exact rationals.

A polynomial is a finite map from integer exponent vectors to nonzero
rational coefficients.  Besides the ring structure, the module provides the
two operations the fan algebra depends on: exact division by binomials
t^v - 1 for primitive v, done coset by coset on the exponents e + Zv with no
change of coordinates, and the monomial map induced by an integer matrix on
exponents.

Numbers are coerced once, where they enter: the public constructors
(`LaurentPoly(rank, terms)`, `constant`, `monomial`) pass each exponent
through `lattice._vec`, which rejects a float instead of truncating it, and
each coefficient through `linalg._frac`, the one rational coercion.
Arithmetic, `one`, `binomial`, `monomial_map` and the quotients of
`divide_by_binomial` build their terms through the trusted `LaurentPoly._of`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from fanalg.lattice import IntMatrix, Vec, _vec, primitive
from fanalg.linalg import _frac


class LaurentPoly:
    """Laurent polynomial with rational coefficients and integer exponents."""

    __slots__ = ("rank", "terms", "_key")

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
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", data)
        object.__setattr__(self, "_key", None)

    @classmethod
    def _of(cls, rank: int, terms: dict[Vec, Fraction]) -> "LaurentPoly":
        """The polynomial with these terms, which arithmetic on polynomials
        has just built with integer-tuple exponents and nonzero Fraction
        coefficients; they are not coerced again."""
        f = object.__new__(cls)
        object.__setattr__(f, "rank", rank)
        object.__setattr__(f, "terms", terms)
        object.__setattr__(f, "_key", None)
        return f

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls._of(rank, {(0,) * rank: Fraction(1)})

    @classmethod
    def constant(cls, rank: int, c) -> "LaurentPoly":
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def monomial(cls, v: Sequence[int], c=1) -> "LaurentPoly":
        e = tuple(v)
        return cls(len(e), {e: c})

    def key(self) -> tuple:
        if self._key is None:
            object.__setattr__(self, "_key", tuple(sorted(self.terms.items())))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.rank == other.rank and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.rank, self.key()))

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """Units of the Laurent ring are the single-term polynomials."""
        return len(self.terms) == 1

    def _check_rank(self, other: "LaurentPoly") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_rank(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e, Fraction(0)) + c
            if acc == 0:
                out.pop(e, None)
            else:
                out[e] = acc
        return LaurentPoly._of(self.rank, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly._of(self.rank, {e: other * x for e, x in self.terms.items()} if other else {})
        self._check_rank(other)
        out: dict[Vec, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                acc = out.get(e, 0) + c1 * c2
                if acc == 0:
                    out.pop(e, None)
                else:
                    out[e] = acc
        return LaurentPoly._of(self.rank, out)

    def __rmul__(self, other) -> "LaurentPoly":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            if not self.is_unit():
                raise ValueError("negative power of a non-unit")
            ((e, c),) = self.terms.items()
            return LaurentPoly._of(self.rank, {tuple(-x for x in e): 1 / c}) ** (-k)
        out = LaurentPoly.one(self.rank)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = ["t"] if self.rank == 1 else [f"t{i + 1}" for i in range(self.rank)]
        zero = (0,) * self.rank
        parts = []
        # constants last, otherwise descending lexicographic
        for e, c in sorted(self.terms.items(), key=lambda kv: (kv[0] == zero, tuple(-x for x in kv[0]))):
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


def binomial(v: Sequence[int]) -> LaurentPoly:
    """The polynomial t^v - 1."""
    e = _vec(v)
    zero = (0,) * len(e)
    return LaurentPoly._of(len(e), {e: Fraction(1), zero: Fraction(-1)} if e != zero else {})


def monomial_map(f: LaurentPoly, q: IntMatrix) -> LaurentPoly:
    """Ring homomorphism sending t^u to s^(q @ u); colliding images are summed."""
    if q.cols != f.rank:
        raise ValueError(f"matrix with {q.cols} columns cannot act on rank {f.rank}")
    out: dict[Vec, Fraction] = {}
    for e, c in f.terms.items():
        e = q.apply(e)
        out[e] = out.get(e, 0) + c
    return LaurentPoly._of(q.rows, {e: c for e, c in out.items() if c})


def divide_by_binomial(f: LaurentPoly, v: Sequence[int]) -> LaurentPoly | None:
    """Exact quotient of f by t^v - 1, or None when not divisible.

    The exponents fall into cosets e + Zv.  With j the first nonzero
    coordinate of v, each exponent is base + k*v for k = e[j] // v[j], and
    base is the same across a coset, so on each coset f is a univariate
    polynomial in x = t^v.  It is divisible by x - 1 exactly when its
    coefficients sum to zero, and the quotient's coefficient at base + k*v is
    minus the running sum of f's coefficients at positions up to k.
    """
    v = _vec(v)
    if len(v) != f.rank:
        raise ValueError("vector rank does not match polynomial rank")
    if all(x == 0 for x in v):
        raise ValueError("no primitive direction")
    if primitive(v) != v:
        raise ValueError(f"vector {v} is not primitive")
    j = next(i for i, x in enumerate(v) if x)
    cosets: dict[Vec, dict[int, Fraction]] = {}
    for e, c in f.terms.items():
        k = e[j] // v[j]
        cosets.setdefault(tuple(a - k * b for a, b in zip(e, v)), {})[k] = c
    # an exponent fixes its coset and k, so each quotient term is set once
    out_terms: dict[Vec, Fraction] = {}
    for base, coeffs in cosets.items():
        hi = max(coeffs)
        run = Fraction(0)
        for k in range(min(coeffs), hi):
            run += coeffs.get(k, 0)
            if run:
                out_terms[tuple(a + k * b for a, b in zip(base, v))] = -run
        if run + coeffs[hi] != 0:
            return None
    return LaurentPoly._of(f.rank, out_terms)


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
    return [{"c": str(c), "e": list(e)} for e, c in sorted(f.terms.items())]


def poly_from_data(data: Sequence[Mapping], rank: int) -> LaurentPoly:
    """The polynomial of records {"c": rational, "e": [exponents]}, coerced by
    the constructor."""
    return LaurentPoly(rank, [(rec["e"], rec["c"]) for rec in data])
