"""Finite-dimensional modules over the fan algebra, in diagram form.

A diagram module assigns to every cone a finite-dimensional rational vector
space together with commuting invertible torus matrices, and to every
covering pair of cones an arrow pair u (up) and v (down).  Validity is the
conjunction of four axiom families:

  A1  per cone, the torus matrices commute and are invertible;
  A2  arrows intertwine the torus matrices across each covering pair;
  A3  all squares of u arrows, of v arrows, and the mixed uv squares commute;
  A4  per covering pair with new ray r, the monodromy of r equals
      id + v u on the lower cone and id + u v on the upper cone.

Evaluation sends an algebra element to a total matrix on the direct sum of
the spaces, via the factorization of entries into generator words.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import index, matmul
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from fanalg.algebra import AlgebraElement, covering_chain, random_member
from fanalg.fan import Cone, Fan, cone_key, covering_pairs, product_fan, standard_fan
from fanalg.lattice import IntMatrix, Vec, hnf_rows, kernel_basis
from fanalg.linalg import QMat, _frac, block_diag, kron, nullspace, random_invertible
from fanalg.report import Report

PairKey = tuple[Cone, Cone]  # (tau, sigma) with tau one ray short of sigma


def _pair_label(tau: Cone, sigma: Cone) -> str:
    return f"({cone_key(tau)})<({cone_key(sigma)})"


class DiagramModule:
    """Spaces, torus matrices and u/v arrows indexed by the cones of a fan.

    `nt` is the number of torus matrices per cone; it equals the fan rank
    for plain modules and the quotient rank for equivariant ones.

    A module is immutable, so it owns two caches for its lifetime, filled on
    first use: torus powers keyed by (cone, j, k), and u-chain and v-chain
    products keyed by their covering chains.  Every derived module is a new
    instance with empty caches.
    """

    __slots__ = ("fan", "nt", "dims", "torus", "u", "v", "_powers", "_chains")

    def __init__(
        self,
        fan: Fan,
        dims: Mapping[Cone, int],
        torus: Mapping[Cone, Sequence[QMat]],
        u: Mapping[PairKey, QMat],
        v: Mapping[PairKey, QMat],
        nt: int | None = None,
    ):
        nt = fan.rank if nt is None else nt
        full_dims = {}
        full_torus = {}
        for c in fan.cone_list():
            d = index(dims.get(c, 0))
            full_dims[c] = d
            mats = torus.get(c)
            if mats is None:
                mats = tuple(QMat.identity(d) for _ in range(nt))
            full_torus[c] = tuple(mats)
        full_u = {}
        full_v = {}
        for tau, sigma, _ in covering_pairs(fan):
            key = (tau, sigma)
            full_u[key] = u.get(key, QMat.zero(full_dims[sigma], full_dims[tau]))
            full_v[key] = v.get(key, QMat.zero(full_dims[tau], full_dims[sigma]))
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "nt", nt)
        object.__setattr__(self, "dims", MappingProxyType(full_dims))
        object.__setattr__(self, "torus", MappingProxyType(full_torus))
        object.__setattr__(self, "u", MappingProxyType(full_u))
        object.__setattr__(self, "v", MappingProxyType(full_v))
        object.__setattr__(self, "_powers", {})
        object.__setattr__(self, "_chains", {})

    def __setattr__(self, *a):
        raise AttributeError("DiagramModule is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiagramModule)
            and self.fan == other.fan
            and self.nt == other.nt
            and self.dims == other.dims
            and self.torus == other.torus
            and self.u == other.u
            and self.v == other.v
        )

    def __repr__(self) -> str:
        dims = {cone_key(c): d for c, d in sorted(self.dims.items()) if d}
        return f"DiagramModule(fan={self.fan!r}, dims={dims})"

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def offsets(self) -> dict[Cone, int]:
        out = {}
        pos = 0
        for c in self.fan.cone_list():
            out[c] = pos
            pos += self.dims[c]
        return out

    def monodromy(self, cone: Cone, w: Vec, exponent: Callable[[Vec], Vec] | None = None) -> QMat:
        """Torus action of the lattice vector w on the space of a cone, as a
        product of cached torus powers."""
        e = tuple(w) if exponent is None else exponent(tuple(w))
        factors = [self._power(cone, j, k) for j, k in enumerate(e) if k]
        return reduce(matmul, factors) if factors else QMat.identity(self.dims[cone])

    def _power(self, cone: Cone, j: int, k: int) -> QMat:
        """Torus matrix j of a cone to the power k != 0; negative powers are
        powers of the one cached inverse."""
        key = (cone, j, k)
        out = self._powers.get(key)
        if out is None:
            if k == 1:
                out = self.torus[cone][j]
            elif k == -1:
                out = self.torus[cone][j].inverse()
            else:
                out = self._power(cone, j, 1 if k > 0 else -1).pow_int(abs(k))
            self._powers[key] = out
        return out

    def _chain(self, kind: str, lower: Cone, chain: Sequence[PairKey]) -> QMat:
        """The u arrows composed up a covering chain from the face `lower`
        (kind "u"), or the v arrows composed back down it (kind "v"), cached."""
        key = (kind, lower, tuple(chain))
        out = self._chains.get(key)
        if out is None:
            arrows = [self.u[pair] for pair in reversed(chain)] if kind == "u" else [self.v[pair] for pair in chain]
            out = reduce(matmul, arrows) if arrows else QMat.identity(self.dims[lower])
            self._chains[key] = out
        return out


# ---------------------------------------------------------------------------
# validation


def axiom_report(m: DiagramModule, exponent: Callable[[Vec], Vec] | None = None) -> Report:
    """Check A1 to A4; dimension problems and singular torus matrices
    short-circuit the checks after them."""
    fan = m.fan
    rep = Report()
    for c in fan.cone_list():
        d = m.dims[c]
        if d < 0:
            rep.add("dim", cone_key(c), f"negative dimension {d}")
        mats = m.torus[c]
        if len(mats) != m.nt:
            rep.add("dim", cone_key(c), f"expected {m.nt} torus matrices, got {len(mats)}")
            continue
        for j, s in enumerate(mats):
            if s.m != d or s.n != d:
                rep.add("dim", cone_key(c), f"torus matrix {j + 1} is {s.m}x{s.n}, space has dimension {d}")
    for tau, sigma, _ in covering_pairs(fan):
        du, dt = m.dims[sigma], m.dims[tau]
        uu = m.u[(tau, sigma)]
        vv = m.v[(tau, sigma)]
        if (uu.m, uu.n) != (du, dt):
            rep.add("dim", _pair_label(tau, sigma), f"u is {uu.m}x{uu.n}, expected {du}x{dt}")
        if (vv.m, vv.n) != (dt, du):
            rep.add("dim", _pair_label(tau, sigma), f"v is {vv.m}x{vv.n}, expected {dt}x{du}")
    if not rep.ok:
        return rep

    for c in fan.cone_list():
        for j, s in enumerate(m.torus[c]):
            if not s.is_invertible():
                rep.add("A1", cone_key(c), f"torus matrix {j + 1} is singular")
    if not rep.ok:
        return rep  # A4 inverts torus matrices for rays with negative coordinates

    for c in fan.cone_list():
        mats = m.torus[c]
        for j in range(len(mats)):
            for k in range(j + 1, len(mats)):
                if mats[j] @ mats[k] != mats[k] @ mats[j]:
                    rep.add("A1", cone_key(c), f"torus matrices {j + 1} and {k + 1} do not commute")

    for tau, sigma, _ in covering_pairs(fan):
        uu = m.u[(tau, sigma)]
        vv = m.v[(tau, sigma)]
        for j in range(m.nt):
            if uu @ m.torus[tau][j] != m.torus[sigma][j] @ uu:
                rep.add("A2", _pair_label(tau, sigma), f"u does not intertwine torus matrix {j + 1}")
            if vv @ m.torus[sigma][j] != m.torus[tau][j] @ vv:
                rep.add("A2", _pair_label(tau, sigma), f"v does not intertwine torus matrix {j + 1}")

    for sigma in fan.cone_list():
        if len(sigma) < 2:
            continue
        for a_idx in range(len(sigma)):
            for b_idx in range(a_idx + 1, len(sigma)):
                a, b = sigma[a_idx], sigma[b_idx]
                tau = tuple(x for x in sigma if x not in (a, b))
                rho = tuple(sorted(tau + (a,)))
                rho2 = tuple(sorted(tau + (b,)))
                loc = f"square ({cone_key(tau)})<({cone_key(sigma)})"
                if m.u[(rho, sigma)] @ m.u[(tau, rho)] != m.u[(rho2, sigma)] @ m.u[(tau, rho2)]:
                    rep.add("A3", loc, "u square does not commute")
                if m.v[(tau, rho)] @ m.v[(rho, sigma)] != m.v[(tau, rho2)] @ m.v[(rho2, sigma)]:
                    rep.add("A3", loc, "v square does not commute")
                if m.v[(rho, sigma)] @ m.u[(rho2, sigma)] != m.u[(tau, rho)] @ m.v[(tau, rho2)]:
                    rep.add("A3", loc, "mixed square does not commute")
                if m.v[(rho2, sigma)] @ m.u[(rho, sigma)] != m.u[(tau, rho2)] @ m.v[(tau, rho)]:
                    rep.add("A3", loc, "mixed square does not commute (other orientation)")

    for tau, sigma, ray in covering_pairs(fan):
        w = fan.rays[ray]
        uu = m.u[(tau, sigma)]
        vv = m.v[(tau, sigma)]
        lower = QMat.identity(m.dims[tau]) + vv @ uu
        upper = QMat.identity(m.dims[sigma]) + uu @ vv
        if m.monodromy(tau, w, exponent) != lower:
            rep.add("A4", _pair_label(tau, sigma), "monodromy of the new ray is not id + v u on the lower cone")
        if m.monodromy(sigma, w, exponent) != upper:
            rep.add("A4", _pair_label(tau, sigma), "monodromy of the new ray is not id + u v on the upper cone")
        # redundant with A1 + A4, kept as an explicit guard
        if not lower.is_invertible() or not upper.is_invertible():
            rep.add("A4-inv", _pair_label(tau, sigma), "id + v u or id + u v is singular")
    return rep


def validate(m: DiagramModule) -> Report:
    if m.nt != m.fan.rank:
        raise ValueError("expected a plain module with one torus matrix per lattice coordinate")
    return axiom_report(m)


# ---------------------------------------------------------------------------
# evaluation and the representation check


def evaluate(x: AlgebraElement, m: DiagramModule, rng: random.Random | None = None) -> QMat:
    """Total matrix of an algebra element on the direct sum of the spaces.

    Entry (sigma, tau) factors as scalar * u-chain * v-chain, with the
    entry's quotient as the scalar; the result does not depend on the chain
    choice, which `rng` can randomize for testing.  Chain products and torus
    powers come from the module's caches.
    """
    if x.fan != m.fan:
        raise ValueError("fan mismatch")
    if m.nt != m.fan.rank:
        raise ValueError("evaluation needs a plain module; inflate equivariant modules first")
    fan = m.fan
    offs = m.offsets()
    n = m.total_dim()
    total = [[Fraction(0)] * n for _ in range(n)]
    for (sigma, tau), y in sorted(x.quotients.items()):
        meet = tuple(sorted(set(sigma) & set(tau)))
        up = m._chain("u", meet, covering_chain(fan, meet, sigma, rng))
        down = m._chain("v", meet, covering_chain(fan, meet, tau, rng))
        d = m.dims[sigma]
        scal = [[Fraction(0)] * d for _ in range(d)]  # sum of c * monodromy(e) over the terms of y
        for e, c in y.terms.items():
            for acc, row in zip(scal, m.monodromy(sigma, e).rows):
                for j, a in enumerate(row):
                    if a:
                        acc[j] += c * a
        block = QMat._of(tuple(map(tuple, scal)), d, d) @ up @ down
        r0, c0 = offs[sigma], offs[tau]
        for i, row in enumerate(block.rows):  # entries are distinct cone pairs, so blocks do not overlap
            total[r0 + i][c0 : c0 + block.n] = row
    return QMat._of(tuple(map(tuple, total)), n, n)


@dataclass
class RepCheck(Report):
    """A representation-check report with the number of trials run."""

    trials: int = 0

    @property
    def failure(self) -> str | None:
        return self.findings[0].detail if self.findings else None


def rep_check(m: DiagramModule, trials: int = 100, seed: int = 0) -> RepCheck:
    """Evaluate random member pairs and compare products and sums of images;
    the first failing trial is the one finding."""
    validate(m).require("invalid module")
    rng = random.Random(seed)
    rep = RepCheck()
    for k in range(trials):
        rep.trials = k + 1
        a = random_member(m.fan, rng)
        b = random_member(m.fan, rng)
        ea, eb = evaluate(a, m), evaluate(b, m)
        if evaluate(a * b, m) != ea @ eb:
            rep.add("repcheck", "module", f"trial {k}: evaluate(a*b) != evaluate(a) @ evaluate(b) for a={a}, b={b}")
            break
        if evaluate(a + b, m) != ea + eb:
            rep.add("repcheck", "module", f"trial {k}: evaluate(a+b) != evaluate(a) + evaluate(b) for a={a}, b={b}")
            break
    return rep


# ---------------------------------------------------------------------------
# monodromy relation report


@dataclass(frozen=True)
class MonodromyOp:
    kind: str  # "M" on the lower cone of a pair, "N" on the upper cone
    pair: PairKey
    ray: int
    vector: Vec

    @property
    def label(self) -> str:
        tau, _ = self.pair
        subs = ",".join(str(i + 1) for i in tuple(tau) + (self.ray,))
        return f"{self.kind}[{subs}]"


@dataclass(frozen=True)
class ConeRelations:
    cone: Cone
    ops: tuple[MonodromyOp, ...]
    relations: tuple[tuple[int, ...], ...]  # one coefficient per op

    def render(self) -> list[str]:
        out = []
        for rel in self.relations:
            factors = []
            for op, c in zip(self.ops, rel):
                if c == 1:
                    factors.append(op.label)
                elif c != 0:
                    factors.append(f"{op.label}^{c}")
            out.append(f"on V({cone_key(self.cone)}): {' '.join(factors)} = id")
        return out


@dataclass
class RelationReport:
    entries: tuple[ConeRelations, ...]

    def render_text(self) -> str:
        lines = []
        for e in self.entries:
            ops = " ".join(f"{op.label}~t^{list(op.vector)}" for op in e.ops)
            lines.append(f"V({cone_key(e.cone)}): operators {ops if e.ops else '(none)'}")
            lines.extend("  " + s for s in e.render())
        return "\n".join(lines)


def relation_report(fan: Fan) -> RelationReport:
    """Per cone, the monodromy operators of adjacent covering pairs and one
    identity per generating lattice relation among their ray vectors."""
    entries = []
    for tau in fan.cone_list():
        ops: list[MonodromyOp] = []
        for i in tau:
            below = tuple(x for x in tau if x != i)
            ops.append(MonodromyOp("N", (below, tau), i, fan.rays[i]))
        for i in range(len(fan.rays)):
            if i in tau:
                continue
            sigma = tuple(sorted(tau + (i,)))
            if fan.is_cone(sigma):
                ops.append(MonodromyOp("M", (tau, sigma), i, fan.rays[i]))
        ops.sort(key=lambda op: (op.kind == "M", op.ray))
        if not ops:
            entries.append(ConeRelations(tau, (), ()))
            continue
        mat = IntMatrix.from_columns([op.vector for op in ops], rows=fan.rank)
        rels = hnf_rows(kernel_basis(mat))
        entries.append(ConeRelations(tau, tuple(ops), tuple(rels)))
    return RelationReport(tuple(entries))


def check_relations(m: DiagramModule, report: RelationReport | None = None) -> Report:
    """Verify every reported operator identity on a valid module, computing
    the operators from the arrows rather than from the torus matrices."""
    fan = m.fan
    if report is None:
        report = relation_report(fan)
    rep = Report()
    for entry in report.entries:
        d = m.dims[entry.cone]
        mats = []
        for op in entry.ops:
            tau, sigma = op.pair
            uu = m.u[(tau, sigma)]
            vv = m.v[(tau, sigma)]
            if op.kind == "M":
                mats.append(QMat.identity(d) + vv @ uu)
            else:
                mats.append(QMat.identity(d) + uu @ vv)
        for rel in entry.relations:
            acc = QMat.identity(d)
            for mat, c in zip(mats, rel):
                if c:
                    acc = acc @ mat.pow_int(c)
            if not acc.is_identity():
                labels = " ".join(op.label for op, c in zip(entry.ops, rel) if c)
                rep.add("relation", f"V({cone_key(entry.cone)})", f"{labels} = id fails")
    return rep


# ---------------------------------------------------------------------------
# module constructors


def point_module(fan: Fan, cone: Sequence[int], char: Sequence[Fraction] | None = None) -> DiagramModule:
    """One-dimensional space at a single cone, zero elsewhere.

    The torus scalars must kill the monodromy of every ray of the cone; the
    default takes all scalars equal to one.
    """
    c = fan.require_cone(cone)
    char = tuple(map(_frac, (1,) * fan.rank if char is None else char))
    if any(x == 0 for x in char):
        raise ValueError("torus scalars must be nonzero")
    # the monodromy must die on the cone's own rays and on the new rays of
    # every cone covering it, because all arrows factor through zero spaces
    constrained = set(c)
    for i in range(len(fan.rays)):
        if i not in c and fan.is_cone(tuple(sorted(c + (i,)))):
            constrained.add(i)
    for i in sorted(constrained):
        val = Fraction(1)
        for x, k in zip(char, fan.rays[i]):
            val *= x**k
        if val != 1:
            raise ValueError(f"scalars do not fix the monodromy of ray {i}")
    dims = {c: 1}
    torus = {c: tuple(QMat([[x]]) for x in char)}
    return DiagramModule(fan, dims, torus, {}, {})


def character_module(fan: Fan, values: Sequence[Fraction]) -> DiagramModule:
    """All spaces one-dimensional: v arrows are 1, u arrows chi(ray) - 1,
    torus scalars given by the character chi."""
    values = tuple(map(_frac, values))
    if len(values) != fan.rank or any(x == 0 for x in values):
        raise ValueError("need one nonzero scalar per lattice coordinate")

    def chi(w: Vec) -> Fraction:
        out = Fraction(1)
        for x, k in zip(values, w):
            out *= x**k
        return out

    dims = {c: 1 for c in fan.cones}
    torus = {c: tuple(QMat([[x]]) for x in values) for c in fan.cones}
    u = {}
    v = {}
    for tau, sigma, ray in covering_pairs(fan):
        u[(tau, sigma)] = QMat([[chi(fan.rays[ray]) - 1]])
        v[(tau, sigma)] = QMat([[Fraction(1)]])
    return DiagramModule(fan, dims, torus, u, v)


def one_ray_module(u0: QMat, v0: QMat, fan: Fan | None = None) -> DiagramModule:
    """Module on the one-ray fan from an arrow pair with id + v u invertible;
    the torus matrices are then forced."""
    if fan is None:
        fan = standard_fan(1)
    if len(fan.rays) != 1 or fan.rank != 1:
        raise ValueError("expected a one-ray fan of rank one")
    ray = fan.rays[0]
    lower = QMat.identity(v0.m) + v0 @ u0
    upper = QMat.identity(u0.m) + u0 @ v0
    if not lower.is_invertible():
        raise ValueError("id + v u must be invertible")
    # the ray is (1) or (-1); monodromy of the ray equals S^(ray)
    s_lower = lower if ray[0] == 1 else lower.inverse()
    s_upper = upper if ray[0] == 1 else upper.inverse()
    dims = {(): v0.m, (0,): u0.m}
    torus = {(): (s_lower,), (0,): (s_upper,)}
    return DiagramModule(fan, dims, torus, {((), (0,)): u0}, {((), (0,)): v0})


def tensor_module(m1: DiagramModule, m2: DiagramModule) -> DiagramModule:
    """External tensor product over the product fan of the factors."""
    f1, f2 = m1.fan, m2.fan
    fan = product_fan(f1, f2)
    off = len(f1.rays)

    def split(c: Cone) -> tuple[Cone, Cone]:
        return tuple(i for i in c if i < off), tuple(i - off for i in c if i >= off)

    dims = {}
    torus = {}
    for c in fan.cones:
        c1, c2 = split(c)
        dims[c] = m1.dims[c1] * m2.dims[c2]
        torus[c] = tuple(kron(s, QMat.identity(m2.dims[c2])) for s in m1.torus[c1]) + tuple(
            kron(QMat.identity(m1.dims[c1]), s) for s in m2.torus[c2]
        )
    u = {}
    v = {}
    for tau, sigma, ray in covering_pairs(fan):
        t1, t2 = split(tau)
        s1, s2 = split(sigma)
        if ray < off:
            u[(tau, sigma)] = kron(m1.u[(t1, s1)], QMat.identity(m2.dims[t2]))
            v[(tau, sigma)] = kron(m1.v[(t1, s1)], QMat.identity(m2.dims[t2]))
        else:
            u[(tau, sigma)] = kron(QMat.identity(m1.dims[t1]), m2.u[(t2, s2)])
            v[(tau, sigma)] = kron(QMat.identity(m1.dims[t1]), m2.v[(t2, s2)])
    return DiagramModule(fan, dims, torus, u, v)


def direct_sum(a: DiagramModule, b: DiagramModule) -> DiagramModule:
    if a.fan != b.fan or a.nt != b.nt:
        raise ValueError("fan mismatch")
    dims = {c: a.dims[c] + b.dims[c] for c in a.fan.cones}
    torus = {c: tuple(block_diag([sa, sb]) for sa, sb in zip(a.torus[c], b.torus[c])) for c in a.fan.cones}
    u = {}
    v = {}
    for key in a.u:
        u[key] = block_diag([a.u[key], b.u[key]])
        v[key] = block_diag([a.v[key], b.v[key]])
    return DiagramModule(a.fan, dims, torus, u, v, nt=a.nt)


def conjugate(m: DiagramModule, gs: Mapping[Cone, QMat]) -> DiagramModule:
    """Base change by invertible blocks per cone; validity is preserved."""
    full = {}
    for c in m.fan.cones:
        g = gs.get(c, QMat.identity(m.dims[c]))
        if g.m != m.dims[c] or not g.is_invertible():
            raise ValueError(f"bad base change at ({cone_key(c)})")
        full[c] = g
    torus = {c: tuple(full[c] @ s @ full[c].inverse() for s in m.torus[c]) for c in m.fan.cones}
    u = {}
    v = {}
    for (tau, sigma), mat in m.u.items():
        u[(tau, sigma)] = full[sigma] @ mat @ full[tau].inverse()
    for (tau, sigma), mat in m.v.items():
        v[(tau, sigma)] = full[tau] @ mat @ full[sigma].inverse()
    return DiagramModule(m.fan, dict(m.dims), torus, u, v, nt=m.nt)


# ---------------------------------------------------------------------------
# hom spaces


@dataclass(frozen=True)
class BlockMap:
    source: DiagramModule
    target: DiagramModule
    blocks: Mapping[Cone, QMat]

    def block(self, cone: Cone) -> QMat:
        return self.blocks[tuple(sorted(cone))]

    def is_isomorphism(self) -> bool:
        return all(b.is_square() and b.is_invertible() for b in self.blocks.values())

    def is_identity(self) -> bool:
        return all(b.is_identity() for b in self.blocks.values())


def identity_map(m: DiagramModule) -> BlockMap:
    return BlockMap(m, m, {c: QMat.identity(m.dims[c]) for c in m.fan.cones})


def _intertwining(ma: DiagramModule, mb: DiagramModule):
    """The equations f_x a = b f_y on a map f from ma to mb, as (x, y, a, b):
    the torus matrices per cone, then u and v per covering pair."""
    for c in ma.fan.cone_list():
        for sa, sb in zip(ma.torus[c], mb.torus[c]):
            yield c, c, sa, sb
    for tau, sigma in ma.u:
        yield sigma, tau, ma.u[(tau, sigma)], mb.u[(tau, sigma)]
        yield tau, sigma, ma.v[(tau, sigma)], mb.v[(tau, sigma)]


def is_morphism(f: BlockMap) -> bool:
    """Blocks intertwine torus matrices and both arrow families."""
    return all(f.blocks[x] @ a == b @ f.blocks[y] for x, y, a, b in _intertwining(f.source, f.target))


def hom(ma: DiagramModule, mb: DiagramModule) -> tuple[int, list[BlockMap]]:
    """Exact solution space of the intertwining equations."""
    if ma.fan != mb.fan or ma.nt != mb.nt:
        raise ValueError("fan mismatch")
    fan = ma.fan
    cones = fan.cone_list()
    offs = {}
    pos = 0
    for c in cones:
        offs[c] = pos
        pos += mb.dims[c] * ma.dims[c]
    nvars = pos
    rows: list[list[Fraction]] = []

    def var(c: Cone, p: int, q: int) -> int:
        # entry (p, q) of the block at cone c, block shape (dims_b, dims_a)
        return offs[c] + p * ma.dims[c] + q

    for x, y, a, b in _intertwining(ma, mb):
        for p in range(mb.dims[x]):
            for q in range(ma.dims[y]):
                row = [Fraction(0)] * nvars
                for r in range(ma.dims[x]):
                    row[var(x, p, r)] += a.rows[r][q]
                for r in range(mb.dims[y]):
                    row[var(y, r, q)] -= b.rows[p][r]
                rows.append(row)

    basis = nullspace(QMat._of(tuple(map(tuple, rows)), len(rows), nvars))
    maps = []
    for vec in basis:
        blocks = {}
        for c in cones:
            db, da = mb.dims[c], ma.dims[c]
            blocks[c] = QMat._of(tuple(tuple(vec[var(c, p, q)] for q in range(da)) for p in range(db)), db, da)
        maps.append(BlockMap(ma, mb, blocks))
    return len(maps), maps


# ---------------------------------------------------------------------------
# the corrected-relation counterexample


@dataclass
class DupontOutcome:
    module: DiagramModule
    n1: QMat
    corrected_ok: bool
    dupont_ok: bool
    lines: list[str]

    @property
    def ok(self) -> bool:
        return self.corrected_ok and not self.dupont_ok

    def render(self) -> str:
        return "\n".join(self.lines)


def dupont_demo(seed: int = 0) -> DupontOutcome:
    """A valid module on the projective plane fan where the monodromy product
    around a ray needs the upper-cone factor: M12 M13 N1 = id holds while the
    shorter identity M12 M13 = id fails.

    The module is found by seeded random search over one-dimensional diagrams
    with nonzero first arrow pair; validity is certified by `validate`.
    """
    from fanalg.fan import projective_plane_fan

    fan = projective_plane_fan()
    rng = random.Random(seed)
    module = None
    for _ in range(200):
        a = Fraction(rng.choice([2, 3, -2, 5]), rng.choice([1, 2]))
        b = Fraction(rng.choice([2, 3, -2, 5]), rng.choice([1, 2]))
        if a == 1 or b == 1 or a * b == 1:
            continue
        cand = character_module(fan, (a, b))
        gs = {c: random_invertible(1, rng) for c in fan.cones}
        cand = conjugate(cand, gs)
        if not validate(cand).ok:
            continue
        uu = cand.u[((), (0,))]
        vv = cand.v[((), (0,))]
        n1 = QMat.identity(1) + uu @ vv
        if uu.is_zero() or vv.is_zero() or n1.is_identity():
            continue  # a degenerate module proves nothing
        module = cand
        break
    if module is None:
        raise AssertionError("search for a nondegenerate module failed")

    def mono_m(tau: Cone, sigma: Cone) -> QMat:
        return QMat.identity(module.dims[tau]) + module.v[(tau, sigma)] @ module.u[(tau, sigma)]

    def mono_n(tau: Cone, sigma: Cone) -> QMat:
        return QMat.identity(module.dims[sigma]) + module.u[(tau, sigma)] @ module.v[(tau, sigma)]

    m12 = mono_m((0,), (0, 1))
    m13 = mono_m((0,), (0, 2))
    n1 = mono_n((), (0,))
    corrected = (m12 @ m13 @ n1).is_identity()
    dupont = (m12 @ m13).is_identity()
    lines = [
        "validated module on the projective plane fan, all spaces one-dimensional",
        f"N1 = {n1.rows[0][0]} (not the identity)",
        f"corrected relation: {'PASS' if corrected else 'FAIL'} (M12 M13 N1 = id)",
        f"Dupont relation M12*M13 = id: {'FAIL' if not dupont else 'PASS'}",
    ]
    return DupontOutcome(module, n1, corrected, dupont, lines)
