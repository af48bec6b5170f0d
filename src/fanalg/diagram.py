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
from math import lcm
from operator import index, matmul
from types import MappingProxyType
from typing import Mapping, Sequence

from fanalg.algebra import AlgebraElement, _product_terms, covering_chain, random_member
from fanalg.fan import Cone, Fan, cone_key, covering_pairs, product_fan
from fanalg.lattice import Vec, hnf_rows
from fanalg.laurent import LaurentPoly
from fanalg.linalg import QMat, _columns, _combination, _echelon, _frac, _is_product, _over_pivot, _primitive_kernel, _products_equal, _rows_times, block_diag, kron, random_invertible
from fanalg.report import Report

PairKey = tuple[Cone, Cone]  # (tau, sigma) with tau one ray short of sigma


def _pair_label(tau: Cone, sigma: Cone) -> str:
    return f"({cone_key(tau)})<({cone_key(sigma)})"


def _square_label(tau: Cone, sigma: Cone) -> str:
    return f"square {_pair_label(tau, sigma)}"


class DiagramModule:
    """Spaces, torus matrices and u/v arrows indexed by the cones of a fan.

    `nt` is the number of torus matrices per cone; it equals the fan rank
    for plain modules and the quotient rank for equivariant ones.  A cone
    with no torus matrices given gets identities, and a covering pair with
    no arrow given gets a zero one; these are built only for a missing key,
    so a module read from a file that lists every arrow builds none.

    `monodromy(cone, w)` takes a vector w of the fan's lattice and returns
    the product of the torus powers k_j, where k = `_exponent(w)` is w in the
    coordinates of the torus matrices: w itself here, and a subclass that
    reads its torus matrices in other coordinates overrides `_exponent`.
    Every reader of monodromies, `axiom_report`, `evaluate` and `rep_check`
    through `_sum` and its scalar path `_scalar_sum` among them, goes
    through that one hook.

    A module is immutable, so it owns four tables for its lifetime, each
    empty at construction and filled on first use:
    - `_powers`, torus powers keyed by (cone, j, k);
    - `_paths`, path products keyed by cone pair (`_path`), along the one
      canonical choice of covering chains;
    - `_monodromies`, monodromies keyed by (cone, w), read and filled by
      `_sum`: a matrix on a space of dimension 2 or more, and on a
      1-dimensional space an integer pair (num, den) (`_scalar_sum`);
    - `_cofactors`, s(D) of the binomial product D of a term's cofactor
      rays, keyed by (cone, rays) in a table of its own, so its keys never
      meet the (cone, w) keys of the monodromies; `rep_check` reads and
      fills it (`_evaluate_product`).
    The monodromy table holds one entry per distinct (cone, w) that an
    evaluation of the module has read: the exponents of the members
    `evaluate` was given, and for `rep_check` those of the factors and of
    the cofactors of each term of a product, not those of the expanded
    product.  Over the 48 modules of a seed-11 `rep_zoo` run after 40
    passes, the monodromy tables hold 2,061 entries, 882 of them matrices,
    and the cofactor tables 2,117.
    It also keeps its verdict, `_valid`, set by `validate` when the module
    passes with no findings and no skips, so that each later `validate` of
    it, and so each `rep_check`, skips the axioms.
    A module that fails keeps no verdict and is decided again on every call.
    Every derived module is a new instance with empty tables and no
    verdict; `==` ignores the tables and the verdict.
    """

    __slots__ = ("fan", "nt", "dims", "torus", "u", "v", "_powers", "_paths", "_monodromies", "_cofactors", "_valid")

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
            uu, vv = u.get(key), v.get(key)
            full_u[key] = QMat.zero(full_dims[sigma], full_dims[tau]) if uu is None else uu
            full_v[key] = QMat.zero(full_dims[tau], full_dims[sigma]) if vv is None else vv
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "nt", nt)
        object.__setattr__(self, "dims", MappingProxyType(full_dims))
        object.__setattr__(self, "torus", MappingProxyType(full_torus))
        object.__setattr__(self, "u", MappingProxyType(full_u))
        object.__setattr__(self, "v", MappingProxyType(full_v))
        object.__setattr__(self, "_powers", {})
        object.__setattr__(self, "_paths", {})
        object.__setattr__(self, "_monodromies", {})
        object.__setattr__(self, "_cofactors", {})
        object.__setattr__(self, "_valid", False)

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

    def _exponent(self, w: Vec) -> Vec:
        """The lattice vector w in the coordinates of the torus matrices."""
        return w

    def monodromy(self, cone: Cone, w: Vec) -> QMat:
        """Torus action of the lattice vector w on the space of a cone, as a
        product of cached torus powers."""
        factors = [self._power(cone, j, k) for j, k in enumerate(self._exponent(w)) if k]
        return reduce(matmul, factors) if factors else QMat.identity(self.dims[cone])

    def _scalar_sum(self, cone: Cone, coeffs: Mapping[Vec, int]) -> tuple[int, int]:
        """The sum of c * monodromy(cone, w) over the integer coefficients c at
        lattice vectors w, on a 1-dimensional space, as an integer over a
        positive integer, not reduced: s of a polynomial on such a space
        (`_sum`), for `evaluate` and for each factor and cofactor of a term
        in `rep_check`.  Each monodromy is an integer pair (num, den) read
        from, or built once into, the module's table (`_scalar_monodromy`),
        so no `QMat` is built but the one cached inverse of a torus scalar.
        The terms are summed in one pass over the lcm of their denominators
        so far."""
        table = self._monodromies
        acc, den = 0, 1
        for w, c in coeffs.items():
            mono = table.get((cone, w))
            if mono is None:
                mono = table[(cone, w)] = self._scalar_monodromy(cone, w)
            num, d = mono
            if d == den:
                acc += c * num
            else:
                g = lcm(den, d)
                acc, den = acc * (g // den) + c * num * (g // d), g
        return acc, den

    def _scalar_monodromy(self, cone: Cone, w: Vec) -> tuple[int, int]:
        """monodromy(cone, w) on a 1-dimensional space as an integer over a
        positive integer, not reduced: the product of the torus scalars'
        powers at `_exponent(w)`, a negative power read from the one cached
        inverse (`_power`)."""
        num, den = 1, 1
        for j, k in enumerate(self._exponent(w)):
            if k:
                t = self._power(cone, j, 1 if k > 0 else -1)
                num *= t.num[0][0] ** abs(k)
                den *= t.den ** abs(k)
        return num, den

    def _sum(self, cone: Cone, y: LaurentPoly) -> tuple[int | list[list[int]], int]:
        """s(y), the Laurent polynomial y evaluated on the space of a cone of
        dimension 1 or more: the sum of c * monodromy(cone, e) over the
        terms of y, over y.den, not reduced.  On a 1-dimensional space it is
        an integer over a positive integer, from `_scalar_sum`; on a wider
        one it is integer rows over a positive integer, the
        `linalg._combination` of monodromies read from, or built once into,
        the module's table."""
        if self.dims[cone] == 1:
            acc, den = self._scalar_sum(cone, y.num)
            return acc, den * y.den
        table = self._monodromies
        terms = []
        for e, c in y.num.items():
            mono = table.get((cone, e))
            if mono is None:
                mono = table[(cone, e)] = self.monodromy(cone, e)
            terms.append((c, mono.num, mono.den))
        rows, den = _combination(terms)
        return rows, den * y.den

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

    def _path(self, sigma: Cone, tau: Cone) -> QMat:
        """The path product P(sigma, tau) = u-chain @ v-chain: the v arrows
        down from tau to the meet of the two cones, then the u arrows up to
        sigma, along the covering chains that add rays in increasing index
        order.  It is cached by cone pair."""
        key = (sigma, tau)
        out = self._paths.get(key)
        if out is None:
            meet = tuple(sorted(set(sigma) & set(tau)))
            ups = covering_chain(self.fan, meet, sigma)
            downs = covering_chain(self.fan, meet, tau)
            arrows = [self.u[pair] for pair in reversed(ups)] + [self.v[pair] for pair in downs]
            out = self._paths[key] = reduce(matmul, arrows) if arrows else QMat.identity(self.dims[meet])
        return out


# ---------------------------------------------------------------------------
# validation


def axiom_report(m: DiagramModule) -> Report:
    """Check A1 to A4; dimension problems and singular torus matrices
    short-circuit the checks after them.  Products are compared without
    being built (`linalg._products_equal`, `linalg._is_product`), and a
    location is built only for a finding."""
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
                if not _products_equal(mats[j], mats[k], mats[k], mats[j]):
                    rep.add("A1", cone_key(c), f"torus matrices {j + 1} and {k + 1} do not commute")

    for tau, sigma, _ in covering_pairs(fan):
        uu = m.u[(tau, sigma)]
        vv = m.v[(tau, sigma)]
        for j in range(m.nt):
            if not _products_equal(uu, m.torus[tau][j], m.torus[sigma][j], uu):
                rep.add("A2", _pair_label(tau, sigma), f"u does not intertwine torus matrix {j + 1}")
            if not _products_equal(vv, m.torus[sigma][j], m.torus[tau][j], vv):
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
                if not _products_equal(m.u[(rho, sigma)], m.u[(tau, rho)], m.u[(rho2, sigma)], m.u[(tau, rho2)]):
                    rep.add("A3", _square_label(tau, sigma), "u square does not commute")
                if not _products_equal(m.v[(tau, rho)], m.v[(rho, sigma)], m.v[(tau, rho2)], m.v[(rho2, sigma)]):
                    rep.add("A3", _square_label(tau, sigma), "v square does not commute")
                if not _products_equal(m.v[(rho, sigma)], m.u[(rho2, sigma)], m.u[(tau, rho)], m.v[(tau, rho2)]):
                    rep.add("A3", _square_label(tau, sigma), "mixed square does not commute")
                if not _products_equal(m.v[(rho2, sigma)], m.u[(rho, sigma)], m.u[(tau, rho2)], m.v[(tau, rho)]):
                    rep.add("A3", _square_label(tau, sigma), "mixed square does not commute (other orientation)")

    for tau, sigma, ray in covering_pairs(fan):
        w = fan.rays[ray]
        uu = m.u[(tau, sigma)]
        vv = m.v[(tau, sigma)]
        lower_ok = _is_product(m.monodromy(tau, w), vv, uu, plus_identity=True)
        upper_ok = _is_product(m.monodromy(sigma, w), uu, vv, plus_identity=True)
        if not lower_ok:
            rep.add("A4", _pair_label(tau, sigma), "monodromy of the new ray is not id + v u on the lower cone")
        if not upper_ok:
            rep.add("A4", _pair_label(tau, sigma), "monodromy of the new ray is not id + u v on the upper cone")
        # a side that passes A4 is a product of torus powers, invertible by A1;
        # id + v u and id + u v are built only for a side that fails
        lower_inv = lower_ok or (QMat.identity(m.dims[tau]) + vv @ uu).is_invertible()
        upper_inv = upper_ok or (QMat.identity(m.dims[sigma]) + uu @ vv).is_invertible()
        if not (lower_inv and upper_inv):
            rep.add("A4-inv", _pair_label(tau, sigma), "id + v u or id + u v is singular")
    return rep


def validate(m: DiagramModule) -> Report:
    """The A1 to A4 report of a plain module; a module that is not plain
    raises.  A module that passes keeps that verdict for its lifetime, so a
    later call returns a new empty report without checking the axioms again;
    a module that fails is checked again on every call."""
    if m.nt != m.fan.rank:
        raise ValueError("expected a plain module with one torus matrix per lattice coordinate")
    if m._valid:
        return Report()
    rep = axiom_report(m)
    if rep.ok and not rep.skipped:
        object.__setattr__(m, "_valid", True)
    return rep


# ---------------------------------------------------------------------------
# evaluation and the representation check


def evaluate(x: AlgebraElement, m: DiagramModule) -> QMat:
    """Total matrix of an algebra element on the direct sum of the spaces.

    Entry (sigma, tau) with quotient y maps to (sum of c * M(e)) @ P / y.den,
    summed over the integer coefficients c of y at exponents e, where M(e)
    is the monodromy of e on sigma and P = `m._path(sigma, tau)` is the
    u-chain @ v-chain product from the meet of the two cones.  On a valid
    module the result does not depend on the choice of the chains, by the
    commuting squares of A3.

    The module owns the path products, the torus powers and the monodromies
    for its lifetime, so a later call on the same module, of `evaluate` or
    of `rep_check`, builds none of them again.  The sum of c * M(e) is
    `DiagramModule._sum`: on a 1-dimensional sigma an integer over an
    integer from the module's table of scalar monodromies
    (`DiagramModule._scalar_sum`), which scales the path's one row; on a
    wider one the integer kernel `linalg._combination` on the module's
    table of monodromies, multiplied into the path once
    (`linalg._rows_times`, in `_images`).  Neither builds a matrix or makes
    a gcd pass; `_total` places the blocks over the lcm of their
    denominators and reduces once, by one `QMat._reduced` for the total.
    `rep_check` builds the blocks of the image of a product of members from
    the terms of the product through the same two kernels
    (`_evaluate_product`) and the same `_images`, and compares blocks
    without placing a total.
    """
    if x.fan != m.fan:
        raise ValueError("fan mismatch")
    if m.nt != m.fan.rank:
        raise ValueError("evaluation needs a plain module; inflate equivariant modules first")
    return _total(m, _sums(x, m))


def _sums(x: AlgebraElement, m: DiagramModule) -> dict[PairKey, tuple]:
    """s(y) of each entry (sigma, tau) of x with quotient y and no empty side
    (`DiagramModule._sum`), keyed like the entries."""
    dims = m.dims
    return {(sigma, tau): m._sum(sigma, y) for (sigma, tau), y in x.quotients.items() if dims[sigma] and dims[tau]}


def _evaluate_product(a: AlgebraElement, b: AlgebraElement, m: DiagramModule, sums: dict[PairKey, tuple]) -> dict[PairKey, tuple]:
    """The sums of `evaluate(a * b, m)` on a module that passes A1, keyed
    like `_sums(a * b, m)`, built from the terms of the product
    (`algebra._product_terms`), which is never expanded; `_total` of them is
    the image of a * b.  `sums` is `_sums(a, m)`, which `rep_check` also
    takes as the image of a; it gains s(y1) of each entry of a whose space
    at rho alone is 0, a block that `_images` skips.

    A1 makes the torus matrices of each cone invertible and commuting, so s
    (`DiagramModule._sum`) is a ring map on each space into a commutative
    algebra, and block (sigma, tau) of the image is the sum of
    s(y1) s(y2) s(D) over the terms (sigma, rho, tau, y1, y2, rays), times
    P(sigma, tau), with D the binomial product of the rays.  s(y1) is read
    from `sums`, and s(D) from the module's table of cofactors, keyed by
    (sigma, rays) and filled on first use; a term with no rays multiplies
    by no s(D).  On a 1-dimensional space the factors are integers over
    integers; on a wider one each multiplication is one integer product
    (`linalg._rows_times`).  Each block sum meets its path once, in
    `_images`, as in `evaluate`.

    The terms are not grouped by their rays before multiplying by s(D):
    on the modules of the bench zoo nearly every group has one term, and
    grouping was slower on every one of them."""
    dims = m.dims
    cofactors = m._cofactors  # s(D), as columns on a wider space
    blocks: dict[PairKey, list[tuple]] = {}
    for sigma, rho, tau, y1, y2, rays in _product_terms(a, b):
        if not (dims[sigma] and dims[tau]):
            continue
        wide = dims[sigma] > 1
        s1 = sums.get((sigma, rho))
        if s1 is None:
            s1 = sums[(sigma, rho)] = m._sum(sigma, y1)
        x1, d1 = s1
        x, d = m._sum(sigma, y2)
        x, d = (_rows_times(x1, list(zip(*x))) if wide else x1 * x), d1 * d
        if rays:
            cof = cofactors.get((sigma, rays))
            if cof is None:
                xd, dd = m._sum(sigma, m.fan.binomial_product(rays))
                cof = cofactors[(sigma, rays)] = (list(zip(*xd)) if wide else xd), dd
            x, d = (_rows_times(x, cof[0]) if wide else x * cof[0]), d * cof[1]
        blocks.setdefault((sigma, tau), []).append((x, d))
    totals = {}
    for (sigma, tau), terms in blocks.items():
        if dims[sigma] == 1:
            den = lcm(*[d for _, d in terms])
            totals[(sigma, tau)] = sum([x * (den // d) for x, d in terms]), den
        else:
            totals[(sigma, tau)] = _combination([(1, x, d) for x, d in terms])
    return totals


def _images(m: DiagramModule, sums: Mapping[PairKey, tuple]) -> dict[PairKey, tuple]:
    """The image blocks of the sums: for each (x, den) in sums at (sigma,
    tau) whose space at tau is not 0, the block x @ P(sigma, tau) / den as
    (block, den * P.den).  x is an integer on a 1-dimensional sigma, which
    scales the path's one row, and integer rows on a wider one.  A block
    between two 1-dimensional spaces is an integer, and any other block is
    its integer rows."""
    dims = m.dims
    out = {}
    for key, (x, d) in sums.items():
        sigma, tau = key
        dt = dims[tau]
        if not dt:
            continue
        path = m._path(sigma, tau)
        if dims[sigma] == 1:
            row = path.num[0]
            out[key] = (x * row[0] if dt == 1 else [[x * p for p in row]]), d * path.den
        else:
            out[key] = _rows_times(x, _columns(path)), d * path.den
    return out


def _total(m: DiagramModule, sums: Mapping[PairKey, tuple]) -> QMat:
    """The total matrix of the image blocks of the sums (`_images`).  The
    blocks are integers or integer rows over their denominators, placed
    over the lcm of those and reduced once, by one `QMat._reduced`, so that
    no matrix is built and no gcd pass made per block.  The blocks are on
    distinct cone pairs, so they do not overlap and are placed in any
    order."""
    blocks = _images(m, sums)
    offs = m.offsets()
    n = m.total_dim()
    den = lcm(*(d for _, d in blocks.values()))
    total = [[0] * n for _ in range(n)]
    for (sigma, tau), (x, d) in blocks.items():
        f = den // d
        r0, c0 = offs[sigma], offs[tau]
        if type(x) is int:
            total[r0][c0] = f * x
        else:
            for i, row in enumerate(x):
                total[r0 + i][c0 : c0 + len(row)] = [f * v for v in row]
    return QMat._reduced(tuple(map(tuple, total)), den, n, n)


def _is_block_product(x: Mapping[PairKey, tuple], a: Mapping[PairKey, tuple], b: Mapping[PairKey, tuple]) -> bool:
    """x == a @ b for block matrices keyed by cone pair, as `_images` gives
    them, decided block by block without placing a total: block (sigma,
    tau) of x is compared with the sum over rho of a(sigma, rho) @ b(rho,
    tau), cross-multiplied by the denominators.  A block on one side only
    is compared with zero.  A product of two integer blocks is an integer,
    and a 1 x 1 product of rows is read as one, so a block between two
    1-dimensional spaces is compared as integers on both sides."""
    by_row: dict[Cone, list[tuple]] = {}  # the blocks of b by row, as columns
    for (rho, tau), (xb, db) in b.items():
        by_row.setdefault(rho, []).append((tau, xb if type(xb) is int else list(zip(*xb)), db))
    products: dict[PairKey, list[tuple]] = {}
    for (sigma, rho), (xa, da) in a.items():
        for tau, xb, db in by_row.get(rho, ()):
            if type(xa) is int and type(xb) is int:
                p = xa * xb
            else:
                p = _rows_times([[xa]] if type(xa) is int else xa, [(xb,)] if type(xb) is int else xb)
                if len(p) == 1 and len(p[0]) == 1:
                    p = p[0][0]
            products.setdefault((sigma, tau), []).append((p, da * db))
    for key, terms in products.items():
        xc, dc = x.get(key, (0, 1))  # a block that x lacks is zero
        if type(terms[0][0]) is int:
            den = lcm(*[d for _, d in terms])
            if sum([p * (den // d) for p, d in terms]) * dc != xc * den:
                return False
            continue
        rows, den = _combination([(1, p, d) for p, d in terms])
        if type(xc) is int:  # the zero of a block that x lacks
            if any(map(any, rows)):
                return False
        elif any(u * dc != v * den for ru, rx in zip(rows, xc) for u, v in zip(ru, rx)):
            return False
    for key, (xc, _) in x.items():
        if key not in products and (xc if type(xc) is int else any(map(any, xc))):
            return False
    return True


@dataclass
class RepCheck(Report):
    """A representation-check report with the number of trials run."""

    trials: int = 0

    @property
    def failure(self) -> str | None:
        return self.findings[0].detail if self.findings else None


def rep_check(m: DiagramModule, trials: int = 100, seed: int = 0) -> RepCheck:
    """Evaluate random member pairs and compare the image of each product
    with the product of the images; the first failing trial is the one
    finding.  A count of trials below 1 raises ValueError: a check that ran
    no trial would pass having checked nothing.

    The module is checked once per module, by `validate`, which raises on a
    module that is not plain: a module that passes keeps the verdict, so
    later calls on it check no axiom, and one that fails raises on every
    call.  The members are drawn on the module's fan, so the evaluations are
    not checked again.  The images are compared block by cone pair
    (`_is_block_product`), and no total matrix is placed: the image of a * b
    is built from the terms of the product by `_evaluate_product`, exact on
    a module that passes A1, so no product of members is expanded; it reads
    s(y) of the entries of a from the sums whose blocks are the image of a.
    The evaluations read and fill the tables the module owns, of
    monodromies, of the cofactors s(D) and of paths, and the fan's table of
    the cofactor rays of each term, so a value built by one call is read by
    every later call on the module.  Sums are not compared: evaluation is
    linear by construction, a property the tests assert."""
    if trials < 1:
        raise ValueError(f"expected at least 1 trial, got {trials}")
    validate(m).require("invalid module")
    rng = random.Random(seed)
    rep = RepCheck()
    for k in range(trials):
        rep.trials = k + 1
        a = random_member(m.fan, rng)
        b = random_member(m.fan, rng)
        sums = _sums(a, m)
        product = _evaluate_product(a, b, m, sums)
        if not _is_block_product(_images(m, product), _images(m, sums), _images(m, _sums(b, m))):
            rep.add("repcheck", "module", f"trial {k}: evaluate(a*b) != evaluate(a) @ evaluate(b) for a={a}, b={b}")
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
        # the rows of the Hermite form of [M^T | I] that vanish on M^T are the
        # Hermite form of the integer kernel of M, whose columns are the vectors
        rows = [op.vector + tuple(int(i == j) for j in range(len(ops))) for i, op in enumerate(ops)]
        rels = [r[fan.rank :] for r in hnf_rows(rows) if not any(r[: fan.rank])]
        entries.append(ConeRelations(tau, tuple(ops), tuple(rels)))
    return RelationReport(tuple(entries))


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
    """Base change by invertible blocks per cone; validity is preserved.
    Each block is inverted once, which is also its check: a singular or
    non-square block is a bad base change."""
    full, inverses = {}, {}
    for c in m.fan.cones:
        g = gs.get(c)
        if g is None:
            full[c] = inverses[c] = QMat.identity(m.dims[c])
            continue
        if g.m != m.dims[c]:
            raise ValueError(f"bad base change at ({cone_key(c)})")
        try:
            inverses[c] = g.inverse()
        except ValueError:
            raise ValueError(f"bad base change at ({cone_key(c)})") from None
        full[c] = g
    return _conjugated(m, full, inverses)


def _conjugated(m: DiagramModule, gs: Mapping[Cone, QMat], inverses: Mapping[Cone, QMat]) -> DiagramModule:
    """The base change of m by a block gs[c] on every cone, given with its
    inverse; nothing is checked."""
    torus = {c: tuple(gs[c] @ s @ inverses[c] for s in m.torus[c]) for c in m.fan.cones}
    u = {}
    v = {}
    for (tau, sigma), mat in m.u.items():
        u[(tau, sigma)] = gs[sigma] @ mat @ inverses[tau]
    for (tau, sigma), mat in m.v.items():
        v[(tau, sigma)] = gs[tau] @ mat @ inverses[sigma]
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

    def is_identity(self) -> bool:
        return all(b.is_identity() for b in self.blocks.values())


def _torus_commutant(sas: Sequence[QMat], sbs: Sequence[QMat], db: int, da: int) -> list[list[int]]:
    """Stage 1 of `hom` on one cone: a primitive integer basis of the db x da
    blocks f with f a = b f for each pair (a, b) of torus matrices, each
    block read row-major as a vector.  A 1x1 block commutes with scalars
    exactly when they are equal, with no elimination."""
    if db * da == 0:
        return []
    if db == da == 1:
        return [[1]] if all(a == b for a, b in zip(sas, sbs)) else []
    rows = []
    for a, b in zip(sas, sbs):
        # f a - b f = 0, times lcm(a.den, b.den) so that each equation is one integer row
        d = lcm(a.den, b.den)
        fa, fb = d // a.den, d // b.den
        for p in range(db):
            for q in range(da):
                row = [0] * (db * da)
                for r in range(da):
                    row[p * da + r] += fa * a.num[r][q]
                for r in range(db):
                    row[r * da + q] -= fb * b.num[p][r]
                rows.append(row)
    return _primitive_kernel(rows, db * da)


def hom(ma: DiagramModule, mb: DiagramModule) -> tuple[int, list[BlockMap]]:
    """Exact solution space of the intertwining equations, in stages.

    A map is one block f_c of shape dims_b x dims_a per cone.  Stage 1 takes,
    on each cone alone, a basis of the blocks that commute with the torus
    matrices.  Stage 2 writes the u and v equations in the coordinates of
    those bases and takes their nullspace.  Stage 3 maps the solutions back
    and brings them to the basis `linalg.nullspace` gives for the whole
    system: the reduced echelon form in reversed column order, in which each
    vector has its last nonzero entry, a 1, at a free column and a zero at
    every other free column.  That basis is unique, so it does not depend on
    the stages.  One elimination over all unknowns keeps one common pivot
    value, so the minors of cones that do not interact multiply into every
    later row; in stages each cone's minors stay in its own elimination, and
    the bases of stages 1 and 2 are primitive integer vectors, so the next
    stage starts from small integer entries."""
    if ma.fan != mb.fan or ma.nt != mb.nt:
        raise ValueError("fan mismatch")
    cones = ma.fan.cone_list()
    shape = {c: (mb.dims[c], ma.dims[c]) for c in cones}
    commutants = {c: _torus_commutant(ma.torus[c], mb.torus[c], *shape[c]) for c in cones}

    # stage 2: f_x a - b f_y = 0 for each arrow, with f_c = sum of y_i * commutants[c][i]
    offs = {}
    nvars = 0
    for c in cones:
        offs[c] = nvars
        nvars += len(commutants[c])
    rows: list[list[int]] = []
    for key in ma.u:
        tau, sigma = key
        for x, y, a, b in ((sigma, tau, ma.u[key], mb.u[key]), (tau, sigma, ma.v[key], mb.v[key])):
            (dbx, dax), (dby, day) = shape[x], shape[y]
            d = lcm(a.den, b.den)
            fa, fb = d // a.den, d // b.den
            eqs = [[0] * nvars for _ in range(dbx * day)]
            for i, k in enumerate(commutants[x]):
                # entry (p, q) of f a for the basis block k
                for p in range(dbx):
                    for q in range(day):
                        eqs[p * day + q][offs[x] + i] += fa * sum(k[p * dax + r] * a.num[r][q] for r in range(dax))
            for i, k in enumerate(commutants[y]):
                # entry (p, q) of b f for the basis block k
                for p in range(dbx):
                    for q in range(day):
                        eqs[p * day + q][offs[y] + i] -= fb * sum(b.num[p][r] * k[r * day + q] for r in range(dby))
            rows += eqs
    solutions = _primitive_kernel(rows, nvars)

    # stage 3: the solutions over all block entries, columns reversed, in reduced echelon form
    width = sum(db * da for db, da in shape.values())
    maps_back = []
    for sol in solutions:
        vec = []
        for c in cones:
            entries = [0] * (shape[c][0] * shape[c][1])
            for coeff, k in zip(sol[offs[c] : offs[c] + len(commutants[c])], commutants[c]):
                if coeff:
                    entries = [e + coeff * x for e, x in zip(entries, k)]
            vec += entries
        maps_back.append(vec[::-1])
    held, d = _echelon(maps_back)
    maps = []
    for pivot in sorted(held, reverse=True):  # increasing free column
        row = held[pivot]
        vec = [row.get(width - 1 - j, 0) for j in range(width)]
        blocks = {}
        pos = 0
        for c in cones:
            db, da = shape[c]
            blocks[c] = _over_pivot((vec[pos + p * da : pos + (p + 1) * da] for p in range(db)), d, db, da)
            pos += db * da
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
        f"N1 = {n1[0, 0]} (not the identity)",
        f"corrected relation: {'PASS' if corrected else 'FAIL'} (M12 M13 N1 = id)",
        f"Dupont relation M12*M13 = id: {'FAIL' if not dupont else 'PASS'}",
    ]
    return DupontOutcome(module, n1, corrected, dupont, lines)
