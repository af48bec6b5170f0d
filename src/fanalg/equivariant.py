"""Base change of the fan algebra along a torus quotient.

A closed subgroup of the torus is presented by the induced map Q of
cocharacter lattices, either directly or through the characters cutting the
subgroup out.  A quotient is Q alone, checked once to have full row rank,
and an equivariant module pushes every exponent through Q, in the one hook
`_exponent` that `monodromy` and the scalar path of `evaluate` both read.
Its Smith form, in which the quotient map raises the i-th coordinate to the
power d_i, is built only where it is printed, by `fanalg equi present`.

The base-changed algebra is kept abstract: a free module on the basis
elements f(sigma, tau) = (forced divisor) E(sigma, tau) with structure
constants over the quotient Laurent ring, because taking the quotient can
kill matrix entries without killing the element itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from fanalg.algebra import cofactor_rays
from fanalg.diagram import DiagramModule, axiom_report
from fanalg.fan import Cone, Fan, cone_key
from fanalg.lattice import IntMatrix, Vec, _vec, hnf_rows
from fanalg.laurent import LaurentPoly, monomial_map
from fanalg.linalg import QMat, _echelon
from fanalg.report import Report


@dataclass(frozen=True)
class QuotientData:
    """Full-row-rank integer matrix presenting the quotient of cocharacter
    lattices; `quotient_presentation` checks the rank."""

    q: IntMatrix

    @property
    def source_rank(self) -> int:
        return self.q.cols

    @property
    def target_rank(self) -> int:
        return self.q.rows


def quotient_presentation(
    q: IntMatrix | Sequence[Sequence[int]] | None = None,
    characters: Sequence[Sequence[int]] | None = None,
    rank: int | None = None,
) -> QuotientData:
    """Build QuotientData from a quotient matrix or from cutting characters.

    The lattice of characters vanishing on the subgroup is the row lattice of
    the character matrix C, and the rows of Q are its row Hermite form
    `hnf_rows(C)`, which spans the same lattice with entries polynomial in
    size.  Q is checked once to have full row rank, by counting the rows
    that fraction-free elimination keeps.
    """
    if (q is None) == (characters is None):
        raise ValueError("provide exactly one of a quotient matrix or characters")
    if characters is not None:
        chars = [_vec(row) for row in characters]
        if chars:
            rank = len(chars[0])
        if rank is None:
            raise ValueError("rank required when no characters are given")
        if any(len(c) != rank for c in chars):
            raise ValueError("mixed character lengths")
        rows = hnf_rows(chars)
        q = IntMatrix(rows, shape=(len(rows), rank))
    elif not isinstance(q, IntMatrix):
        rows = [_vec(row) for row in q]
        if rows:
            rank = len(rows[0])
        if rank is None:
            raise ValueError("rank required for an empty matrix")
        q = IntMatrix(rows, shape=(len(rows), rank))

    if len(_echelon(q.entries)[0]) < q.rows:
        raise ValueError("rank-deficient Q: the quotient map must be onto a torus")
    return QuotientData(q)


@dataclass(frozen=True)
class EqStructure:
    """Structure constants of the base-changed algebra on the basis f(sigma, tau)."""

    fan: Fan
    quotient: QuotientData
    table: Mapping[tuple[Cone, Cone, Cone], LaurentPoly]

    def constant(self, sigma: Cone, tau: Cone, rho: Cone) -> LaurentPoly:
        return self.table[(tuple(sorted(sigma)), tuple(sorted(tau)), tuple(sorted(rho)))]

    def multiply(
        self,
        x: Mapping[tuple[Cone, Cone], LaurentPoly],
        y: Mapping[tuple[Cone, Cone], LaurentPoly],
    ) -> dict[tuple[Cone, Cone], LaurentPoly]:
        """Product of elements written in the f basis with quotient-ring coefficients."""
        nt = self.quotient.target_rank
        out: dict[tuple[Cone, Cone], LaurentPoly] = {}
        for (sigma, tau), c1 in x.items():
            for (tau2, rho), c2 in y.items():
                if tau != tau2:
                    continue
                key = (sigma, rho)
                acc = out.get(key, LaurentPoly.zero(nt)) + c1 * c2 * self.constant(sigma, tau, rho)
                if acc.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = acc
        return out


def ag_structure(fan: Fan, quotient: QuotientData) -> EqStructure:
    """Structure-constant table: c(sigma,tau,rho) is the image under the
    quotient monomial map of the plain algebra's product cofactor, the
    binomials of `cofactor_rays(sigma, tau, rho)`; associative by
    construction, so `associativity_report` checks it, not this function."""
    if quotient.source_rank != fan.rank:
        raise ValueError("quotient matrix does not act on the fan lattice")
    table = {}
    cones = fan.cone_list()
    for sigma in cones:
        for tau in cones:
            for rho in cones:
                cofactor = fan.binomial_product(cofactor_rays(sigma, tau, rho))
                table[(sigma, tau, rho)] = monomial_map(cofactor, quotient.q)
    return EqStructure(fan, quotient, table)


def associativity_report(s: EqStructure, samples: int | None = None, seed: int = 0) -> Report:
    """Check (f1 f2) f3 = f1 (f2 f3) on basis 4-tuples, exhaustively for
    small fans or on a seeded sample, which the report records as a skip.
    A sampled 4-tuple is read off its index in lexicographic order, so the
    list of all 4-tuples is never built."""
    rep = Report()
    cones = s.fan.cone_list()
    n = len(cones)
    total = n**4
    quads = product(cones, repeat=4)
    if samples is not None and total > samples:
        rep.skip(f"associativity checked on {samples} sampled basis 4-tuples of {total}")
        rng = random.Random(seed)
        picks = [rng.randrange(total) for _ in range(samples)]
        # the cone indices of the k-th 4-tuple are the base-n digits of k
        quads = [tuple(cones[k // n**e % n] for e in (3, 2, 1, 0)) for k in picks]
    for a, b, c, d in quads:
        left = s.constant(a, b, c) * s.constant(a, c, d)
        right = s.constant(b, c, d) * s.constant(a, b, d)
        if left != right:
            rep.add(
                "associativity",
                f"({cone_key(a)})({cone_key(b)})({cone_key(c)})({cone_key(d)})",
                f"(f f) f gives {left}, f (f f) gives {right}",
            )
    return rep


class EqDiagramModule(DiagramModule):
    """Diagram module whose torus matrices live over the quotient coordinates."""

    __slots__ = ("quotient",)

    def __init__(
        self,
        fan: Fan,
        quotient: QuotientData,
        dims: Mapping[Cone, int],
        torus: Mapping[Cone, Sequence[QMat]],
        u: Mapping[tuple[Cone, Cone], QMat],
        v: Mapping[tuple[Cone, Cone], QMat],
    ):
        super().__init__(fan, dims, torus, u, v, nt=quotient.target_rank)
        object.__setattr__(self, "quotient", quotient)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EqDiagramModule)
            and self.quotient == other.quotient
            and super().__eq__(other)
        )

    def _exponent(self, w: Vec) -> Vec:
        """The torus matrices are in quotient coordinates, so the fan lattice
        vector w is pushed through Q."""
        return self.quotient.q.apply(w)


def validate_equivariant(m: EqDiagramModule) -> Report:
    """The plain axioms, read through the module's `monodromy`, which pushes
    exponents through the quotient map, so rays killed by the quotient force
    vanishing compositions."""
    if not isinstance(m, EqDiagramModule):
        raise ValueError("expected an equivariant module")
    return axiom_report(m)


def inflate(m: EqDiagramModule) -> DiagramModule:
    """Restrict along the base change: plain torus matrix j is the monodromy
    of the unit vector e_j, which is that of column j of Q in quotient
    coordinates.  The module is checked once, here: on failure Rejected
    carries the report.  The output is not checked again: inflating a valid
    equivariant module gives a valid plain module, a theorem the tests assert
    as a property."""
    validate_equivariant(m).require("invalid equivariant module")
    units = IntMatrix.identity(m.fan.rank).entries
    torus = {c: tuple(m.monodromy(c, e) for e in units) for c in m.fan.cones}
    return DiagramModule(m.fan, dict(m.dims), torus, dict(m.u), dict(m.v))
