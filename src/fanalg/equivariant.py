"""Base change of the fan algebra along a torus quotient.

A closed subgroup of the torus is presented by the induced map Q of
cocharacter lattices, either directly or through the characters cutting the
subgroup out.  The Smith form of Q supplies the diagonal presentation: in
suitable coordinates the quotient map raises the i-th coordinate to the
power d_i, discrete factors contributing roots of monodromy and connected
factors killing it.

The base-changed algebra is kept abstract: a free module on the basis
elements f(sigma, tau) = (forced divisor) E(sigma, tau) with structure
constants over the quotient Laurent ring, because taking the quotient can
kill matrix entries without killing the element itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from fanalg.algebra import cofactor_rays, times_binomials
from fanalg.diagram import DiagramModule, axiom_report, validate
from fanalg.fan import Cone, Fan, cone_key
from fanalg.lattice import IntMatrix, Vec, _vec, snf
from fanalg.laurent import LaurentPoly, monomial_map
from fanalg.linalg import QMat
from fanalg.report import Report


@dataclass(frozen=True)
class QuotientData:
    """Full-row-rank integer matrix presenting the quotient of cocharacter
    lattices, with its Smith data U @ Q @ V = D and the invariants d_i."""

    q: IntMatrix
    d: tuple[int, ...]
    row_transform: IntMatrix
    col_transform: IntMatrix

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
    the character matrix; its Hermite-style basis, read off the Smith form,
    gives the rows of Q.
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
        cmat = IntMatrix(chars, shape=(len(chars), rank))
        u, dmat, v = snf(cmat)
        vinv = v.inverse()
        rows = []
        for i in range(min(cmat.rows, cmat.cols)):
            di = dmat[i, i]
            if di == 0:
                break
            rows.append(tuple(di * x for x in vinv.entries[i]))
        q = IntMatrix(rows, shape=(len(rows), rank))
    elif not isinstance(q, IntMatrix):
        rows = [_vec(row) for row in q]
        if rows:
            rank = len(rows[0])
        if rank is None:
            raise ValueError("rank required for an empty matrix")
        q = IntMatrix(rows, shape=(len(rows), rank))

    u, dmat, v = snf(q)
    d = tuple(dmat[i, i] for i in range(min(q.rows, q.cols)))
    if len(d) < q.rows or any(x == 0 for x in d):
        raise ValueError("rank-deficient Q: the quotient map must be onto a torus")
    return QuotientData(q, d, u, v)


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

    def unit_element(self) -> dict[tuple[Cone, Cone], LaurentPoly]:
        one = LaurentPoly.one(self.quotient.target_rank)
        return {(c, c): one for c in self.fan.cones}


def ag_structure(fan: Fan, quotient: QuotientData) -> EqStructure:
    """Structure-constant table: c(sigma,tau,rho) is the image under the
    quotient monomial map of the plain algebra's product cofactor, the
    binomials of `cofactor_rays(sigma, tau, rho)`; associative by
    construction, so `associativity_report` checks it, not this function."""
    if quotient.source_rank != fan.rank:
        raise ValueError("quotient matrix does not act on the fan lattice")
    one = LaurentPoly.one(fan.rank)
    table = {}
    cones = fan.cone_list()
    for sigma in cones:
        for tau in cones:
            for rho in cones:
                cofactor = times_binomials(one, fan, cofactor_rays(sigma, tau, rho))
                table[(sigma, tau, rho)] = monomial_map(cofactor, quotient.q)
    return EqStructure(fan, quotient, table)


def associativity_report(s: EqStructure, samples: int | None = None, seed: int = 0) -> Report:
    """Check (f1 f2) f3 = f1 (f2 f3) on basis 4-tuples, exhaustively for
    small fans or on a seeded sample, which the report records as a skip."""
    rep = Report()
    cones = s.fan.cone_list()
    quads = [(a, b, c, d) for a in cones for b in cones for c in cones for d in cones]
    if samples is not None and len(quads) > samples:
        rep.skip(f"associativity checked on {samples} sampled basis 4-tuples of {len(quads)}")
        rng = random.Random(seed)
        quads = [quads[rng.randrange(len(quads))] for _ in range(samples)]
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


def validate_equivariant(m: EqDiagramModule) -> Report:
    """Plain axioms with monodromy exponents pushed through the quotient map,
    so rays killed by the quotient force vanishing compositions."""
    if not isinstance(m, EqDiagramModule):
        raise ValueError("expected an equivariant module")

    def exponent(w: Vec) -> Vec:
        return m.quotient.q.apply(w)

    return axiom_report(m, exponent)


def inflate(m: EqDiagramModule) -> DiagramModule:
    """Restrict along the base change: plain torus matrix j is the monodromy
    of column j of Q in quotient coordinates.  The module is checked once,
    here: on failure Rejected carries the report."""
    validate_equivariant(m).require("invalid equivariant module")
    fan = m.fan
    columns = m.quotient.q.columns()
    torus = {c: tuple(m.monodromy(c, col) for col in columns) for c in fan.cones}
    out = DiagramModule(fan, dict(m.dims), torus, dict(m.u), dict(m.v))
    check = validate(out)
    if not check.ok:
        raise AssertionError("inflated module is invalid:\n" + check.render())
    return out
