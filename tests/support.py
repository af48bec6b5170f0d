"""Helpers that only the tests use: a random valid module generator, the
one-ray module, the rays of a cone, the expansion of a factorized word, the
unit of an equivariant structure, maps of modules and the isomorphism test
on them, relation and chart checks, an isomorphism search, an independent structure-constant oracle, a term-by-term product
oracle, covering chains shuffled by an rng, an entry-by-entry evaluation
oracle with its `linear_combination`,
the intertwining equations of the generators' images as a hom oracle, the
single-pass `hom` over all unknowns as an oracle for the staged one, the
cocycle check that computes every ordering of each pair and triple on its own
as an oracle for `descent.check_cocycle`, the factors of a tensor word with a
product-based `mu` oracle, the Fraction-based reader of matrix entries as an
oracle for `serialize`, the `randrange` sampler of random members as an
oracle for `algebra.random_member`, the pivoting Smith form `snf_by_pivots`
with the `elementary_divisors` and `kernel_basis` read from it and the
textbook `hnf_rows_textbook`, as oracles for the lattice kernel, and a call
counter."""

import random
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import matmul
from typing import Sequence

from fanalg import serialize
from fanalg.algebra import (
    AlgebraElement,
    TensorWord,
    Word,
    _unit_quotient,
    central,
    cofactor_rays,
    covering_chain,
    generators,
    matrix_unit,
    required_divisor,
    required_rays,
)
from fanalg.descent import DescentDatum, _block_at, _overlap_cones, _pair_at
from fanalg.diagram import (
    BlockMap,
    DiagramModule,
    RelationReport,
    character_module,
    conjugate,
    direct_sum,
    evaluate,
    hom,
    point_module,
    relation_report,
    validate,
)
from fanalg.equivariant import EqStructure
from fanalg.fan import Cone, Fan, cone_key, covering_pairs, standard_fan
from fanalg.lattice import IntMatrix, Vec, _vec, complete_to_basis
from fanalg.laurent import LaurentPoly, divide_by_product
from fanalg.linalg import QMat, _is_product, _products_equal, block_diag, nullspace, random_invertible
from fanalg.report import Report


def random_valid_module(fan: Fan, rng: random.Random, summands: int | None = None, conjugated: bool = True) -> DiagramModule:
    """Direct sum of random character and point modules, base-changed by
    random invertibles.  Built constructively, never by rejection on raw data."""
    cones = fan.cone_list()
    if summands is None:
        summands = rng.randint(1, 3)
    parts = []
    for _ in range(summands):
        if rng.randrange(10) < 3:
            parts.append(point_module(fan, cones[rng.randrange(len(cones))]))
        else:
            values = [Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2])) for _ in range(fan.rank)]
            parts.append(character_module(fan, values))
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum(out, p)
    if conjugated:
        gs = {c: random_invertible(out.dims[c], rng) for c in fan.cones}
        out = conjugate(out, gs)
    rep = validate(out)
    assert rep.ok, rep.render()
    return out


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


def ray_vectors(fan: Fan, cone) -> list[Vec]:
    """The rays of a cone, in its canonical (sorted index) order."""
    return [fan.rays[i] for i in sorted(cone)]


def expand(w: Word, fan: Fan) -> AlgebraElement:
    """The product of a factorized word: its central scalar, then the
    u-generators up, then the v-generators down."""
    out = central(fan, w.scalar)
    # u-generators step from the meet up to the row cone; the algebra
    # product therefore takes the chain pairs from the top down
    for tau, sigma in reversed(w.u_chain):
        out = out * _unit_quotient(fan, sigma, tau)
    # v-generators compose E(meet,c1) E(c1,c2) ... = E(meet, col)
    for low, high in w.v_chain:
        out = out * _unit_quotient(fan, low, high)
    if not w.u_chain and not w.v_chain:
        out = out * _unit_quotient(fan, w.row, w.col)
    return out


def unit_element(s: EqStructure) -> dict[tuple[Cone, Cone], LaurentPoly]:
    """The unit of an equivariant structure, in the f basis."""
    one = LaurentPoly.one(s.quotient.target_rank)
    return {(c, c): one for c in s.fan.cones}


def is_isomorphism(f: BlockMap) -> bool:
    """Every block of a module map is square and invertible."""
    return all(b.is_square() and b.is_invertible() for b in f.blocks.values())


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


def hom_single_pass(ma: DiagramModule, mb: DiagramModule) -> tuple[int, list[BlockMap]]:
    """The oracle for the staged `diagram.hom`: every intertwining equation
    over all sum of dim_a * dim_b unknowns, in one integer system, and the
    basis `nullspace` reads off its one echelon form."""
    if ma.fan != mb.fan or ma.nt != mb.nt:
        raise ValueError("fan mismatch")
    cones = ma.fan.cone_list()
    offs = {}
    pos = 0
    for c in cones:
        offs[c] = pos
        pos += mb.dims[c] * ma.dims[c]
    nvars = pos
    rows: list[list[int]] = []

    def var(c: Cone, p: int, q: int) -> int:
        # entry (p, q) of the block at cone c, block shape (dims_b, dims_a)
        return offs[c] + p * ma.dims[c] + q

    for x, y, a, b in _intertwining(ma, mb):
        # f_x a - b f_y = 0, times lcm(a.den, b.den) so that each equation is one integer row
        d = lcm(a.den, b.den)
        fa, fb = d // a.den, d // b.den
        for p in range(mb.dims[x]):
            for q in range(ma.dims[y]):
                row = [0] * nvars
                for r in range(ma.dims[x]):
                    row[var(x, p, r)] += fa * a.num[r][q]
                for r in range(mb.dims[y]):
                    row[var(y, r, q)] -= fb * b.num[p][r]
                rows.append(row)

    basis = nullspace(QMat._of(tuple(map(tuple, rows)), 1, len(rows), nvars))
    maps = []
    for vec in basis:
        blocks = {}
        for c in cones:
            db, da = mb.dims[c], ma.dims[c]
            blocks[c] = QMat._of_fractions([[vec[var(c, p, q)] for q in range(da)] for p in range(db)], db, da)
        maps.append(BlockMap(ma, mb, blocks))
    return len(maps), maps


def check_cocycle_each_ordering(d: DescentDatum) -> Report:
    """The oracle for `descent.check_cocycle`: the same checks, in the same
    report order, with every ordering of each pair and triple of charts
    computed on its own."""
    rep = Report()
    fan = d.fan
    maxc = list(fan.maximal)
    for sigma in maxc:
        if sigma not in d.charts:
            rep.add("chart", f"({cone_key(sigma)})", "missing chart module")
    if not rep.ok:
        return rep
    for sigma in maxc:
        chart_rep = validate(d.charts[sigma])
        for f in chart_rep.findings:
            rep.add("chart", f"({cone_key(sigma)}):{f.location}", f"{f.code}: {f.detail}")

    for sigma in maxc:
        for tau in maxc:
            if sigma == tau:
                continue
            if (sigma, tau) not in d.glue_maps:
                rep.add("glue", f"({cone_key(sigma)})->({cone_key(tau)})", "missing gluing map")
                continue
            blocks = d.glue_maps[(sigma, tau)]
            for rho in _overlap_cones(fan, sigma, tau):
                if rho not in blocks:
                    rep.add("glue", _block_at(sigma, tau, rho), "missing block")
                    continue
                b = blocks[rho]
                ds = d.charts[sigma].dims[rho]
                dt = d.charts[tau].dims[rho]
                if (b.m, b.n) != (dt, ds):
                    rep.add("shape", _block_at(sigma, tau, rho), f"block is {b.m}x{b.n}, expected {dt}x{ds}")
                elif not b.is_invertible():
                    rep.add("invertible", _block_at(sigma, tau, rho), "block is singular")
    if not rep.ok:
        return rep

    for sigma in maxc:
        for tau in maxc:
            if sigma == tau:
                continue
            ms, mt = d.charts[sigma], d.charts[tau]
            common = _overlap_cones(fan, sigma, tau)
            oset = set(common)
            for rho in common:
                phi = d.glue_block(sigma, tau, rho)
                for j in range(ms.nt):
                    if not _products_equal(phi, ms.torus[rho][j], mt.torus[rho][j], phi):
                        rep.add("intertwine", _block_at(sigma, tau, rho), f"torus matrix {j + 1} not intertwined")
            for (lo, hi) in ms.u:
                if lo in oset and hi in oset:
                    if not _products_equal(d.glue_block(sigma, tau, hi), ms.u[(lo, hi)], mt.u[(lo, hi)], d.glue_block(sigma, tau, lo)):
                        rep.add("intertwine", _pair_at(sigma, tau, lo, hi), "u arrow not intertwined")
                    if not _products_equal(d.glue_block(sigma, tau, lo), ms.v[(lo, hi)], mt.v[(lo, hi)], d.glue_block(sigma, tau, hi)):
                        rep.add("intertwine", _pair_at(sigma, tau, lo, hi), "v arrow not intertwined")

    for sigma in maxc:
        for tau in maxc:
            if sigma >= tau:
                continue
            for rho in _overlap_cones(fan, sigma, tau):
                fwd = d.glue_block(sigma, tau, rho)
                bwd = d.glue_block(tau, sigma, rho)
                if not _is_product(QMat.identity(fwd.n), bwd, fwd):
                    rep.add("inverse", f"({cone_key(sigma)})<->({cone_key(tau)}) at ({cone_key(rho)})", "maps are not mutually inverse")

    for sigma in maxc:
        for tau in maxc:
            for omega in maxc:
                if len({sigma, tau, omega}) < 3:
                    continue
                for rho in _overlap_cones(fan, sigma, tau, omega):
                    direct = d.glue_block(sigma, omega, rho)
                    if not _is_product(direct, d.glue_block(tau, omega, rho), d.glue_block(sigma, tau, rho)):
                        rep.add(
                            "cocycle",
                            f"({cone_key(sigma)})->({cone_key(tau)})->({cone_key(omega)}) at ({cone_key(rho)})",
                            "triple composition disagrees with the direct map",
                        )
    return rep


def glue_from_charts(d: DescentDatum, chart_of: dict[Cone, Cone]) -> DiagramModule:
    """The oracle for `descent.glue`, unchecked: each cone rho takes its
    space from chart chart_of[rho], any maximal cone that contains it, and
    each arrow is transported into those charts through the gluing maps.
    With the least containing chart for every cone it is `glue`; with any
    other choice, the gluing maps between the two choices are an isomorphism
    onto it."""
    fan = d.fan
    u = {}
    v = {}
    for tau, sigma, _ in covering_pairs(fan):
        a = chart_of[tau]
        b = chart_of[sigma]
        u[(tau, sigma)] = d.charts[b].u[(tau, sigma)] @ d.glue_block(a, b, tau)
        v[(tau, sigma)] = d.glue_block(b, a, tau) @ d.charts[b].v[(tau, sigma)]
    dims = {rho: d.charts[chart_of[rho]].dims[rho] for rho in fan.cones}
    torus = {rho: d.charts[chart_of[rho]].torus[rho] for rho in fan.cones}
    return DiagramModule(fan, dims, torus, u, v)


def is_morphism(f: BlockMap) -> bool:
    """Blocks intertwine torus matrices and both arrow families."""
    return all(f.blocks[x] @ a == b @ f.blocks[y] for x, y, a, b in _intertwining(f.source, f.target))


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


def chart_normalization(fan: Fan, cone) -> IntMatrix:
    """Unimodular matrix sending the cone's rays to the first basis vectors,
    rays taken in the cone's canonical (sorted index) order."""
    return complete_to_basis(ray_vectors(fan, fan.require_cone(cone)), rank=fan.rank).inverse()


def find_isomorphism(ma: DiagramModule, mb: DiagramModule, seed: int = 0, attempts: int = 40) -> BlockMap | None:
    """Invertible intertwiner from seeded rational combinations of a hom basis."""
    if any(ma.dims[c] != mb.dims[c] for c in ma.fan.cones):
        return None
    dim, basis = hom(ma, mb)
    if dim == 0:
        return None if ma.total_dim() else identity_map(ma)
    for f in basis:
        if is_isomorphism(f):
            return f
    rng = random.Random(seed)
    cones = ma.fan.cone_list()
    for _ in range(attempts):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in basis]
        blocks = {}
        for c in cones:
            acc = QMat.zero(mb.dims[c], ma.dims[c])
            for x, f in zip(coeffs, basis):
                if x:
                    acc = acc + f.blocks[c].scale(x)
            blocks[c] = acc
        cand = BlockMap(ma, mb, blocks)
        if is_isomorphism(cand):
            return cand
    return None


def structure_against_algebra(fan: Fan, sigma: Cone, tau: Cone, rho: Cone) -> LaurentPoly:
    """Independent computation of one structure constant by multiplying the
    basis elements inside the plain algebra and dividing off the target basis
    polynomial.  Used to cross-check ag_structure and cofactor_rays."""
    left = matrix_unit(fan, sigma, tau, required_divisor(fan, sigma, tau))
    right = matrix_unit(fan, tau, rho, required_divisor(fan, tau, rho))
    poly = (left * right).entry(sigma, rho)
    out = divide_by_product(poly, [fan.rays[i] for i in required_rays(sigma, rho)])
    assert out is not None
    return out


def mul_by_terms(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The oracle for `AlgebraElement.__mul__`, in LaurentPoly arithmetic term
    by term: through each middle cone rho, the quotient y1 * y2 * cofactor of
    E(sigma, rho) y1 times E(rho, tau) y2, summed by cone pair."""
    fan = a.fan
    out: dict[tuple[Cone, Cone], LaurentPoly] = {}
    for (sigma, rho), y1 in a.quotients.items():
        for (rho2, tau), y2 in b.quotients.items():
            if rho2 != rho:
                continue
            y = y1 * y2 * fan.binomial_product(cofactor_rays(sigma, rho, tau))
            out[(sigma, tau)] = out[(sigma, tau)] + y if (sigma, tau) in out else y
    return AlgebraElement._divided(fan, out)


def generator_equations(ma: DiagramModule, mb: DiagramModule) -> QMat:
    """The equations X evaluate(g, ma) = evaluate(g, mb) X over the generators
    g of the algebra, on a total matrix X of shape dim mb x dim ma whose entry
    (p, q) is unknown p * dim ma + q, one integer row per entry of each
    equation.  By the module-algebra equivalence their solutions are the
    module maps, a hom oracle from the algebra side."""
    na, nb = ma.total_dim(), mb.total_dim()
    rows = []
    for g in generators(ma.fan):
        a, b = evaluate(g.element, ma), evaluate(g.element, mb)
        d = lcm(a.den, b.den)
        fa, fb = d // a.den, d // b.den
        for p in range(nb):
            for q in range(na):
                row = [0] * (nb * na)
                for r in range(na):
                    row[p * na + r] += fa * a.num[r][q]
                for r in range(nb):
                    row[r * na + q] -= fb * b.num[p][r]
                rows.append(row)
    return QMat._of(tuple(map(tuple, rows)), 1, len(rows), nb * na)


def total_matrix(f: BlockMap) -> QMat:
    """The blocks of a module map placed on the diagonal of one total matrix,
    rows of the target and columns of the source in cone order."""
    cones = f.source.fan.cone_list()
    return block_diag([f.blocks[c] for c in cones])


def left_factor(w: TensorWord, i: int) -> AlgebraElement:
    """E(alpha, alpha & beta) with quotient y, for term i = (alpha, beta, y)."""
    alpha, beta, y = w.terms[i]
    meet = tuple(sorted(set(alpha) & set(beta)))
    return AlgebraElement._divided(w.fan, {(alpha, meet): y})


def right_factor(w: TensorWord, i: int) -> AlgebraElement:
    """E(alpha & beta, beta) with quotient 1, for term i = (alpha, beta, y)."""
    alpha, beta, _ = w.terms[i]
    meet = tuple(sorted(set(alpha) & set(beta)))
    return _unit_quotient(w.fan, meet, beta)


def mu_by_products(w: TensorWord) -> AlgebraElement:
    """The oracle for `algebra.mu`: the sum over the terms of the algebra
    product of the left factor and the right factor."""
    total: dict[tuple[Cone, Cone], LaurentPoly] = {}
    for i in range(len(w.terms)):
        prod = left_factor(w, i) * right_factor(w, i)
        for k, y in prod.quotients.items():
            total[k] = total[k] + y if k in total else y
    return AlgebraElement._divided(w.fan, total)


def linear_combination(terms: Sequence[tuple[Fraction | int, QMat]], m: int, n: int, over: int = 1) -> QMat:
    """The m x n sum of c * a over the terms, divided by the positive
    integer `over`, accumulated as integers over `over` times the lcm of the
    terms' denominators and reduced by one gcd pass."""
    if any((a.m, a.n) != (m, n) for _, a in terms):
        raise ValueError(f"every term must be {m}x{n}")
    den = lcm(*(c.denominator * a.den for c, a in terms))
    acc = [[0] * n for _ in range(m)]
    for c, a in terms:
        f = c.numerator * (den // (c.denominator * a.den))
        for out, row in zip(acc, a.num):
            for j, x in enumerate(row):
                out[j] += f * x
    return QMat._reduced(tuple(map(tuple, acc)), over * den, m, n)


def shuffled_chain(fan: Fan, lower: Cone, upper: Cone, rng: random.Random | None) -> list[tuple[Cone, Cone]]:
    """A chain of covering pairs from a face up to a cone, like
    `algebra.covering_chain`, that adds the new rays in an order shuffled by
    `rng`; with `rng` None, the chain of `covering_chain` itself."""
    if rng is None:
        return covering_chain(fan, lower, upper)
    new = sorted(set(upper) - set(lower))
    rng.shuffle(new)
    chain = []
    cur = tuple(sorted(lower))
    for i in new:
        nxt = tuple(sorted(cur + (i,)))
        chain.append((cur, nxt))
        cur = nxt
    return chain


def evaluate_by_entries(x: AlgebraElement, m: DiagramModule, rng: random.Random | None = None) -> QMat:
    """The oracle for `diagram.evaluate`, in QMat arithmetic entry by entry:
    entry (sigma, tau) with quotient y is linear_combination(c, M(e)) / y.den
    @ u-chain @ v-chain, with one monodromy per term and chains from
    `shuffled_chain`: the canonical ones, or with `rng` shuffled ones, which
    give the same matrix only on a valid module."""
    if x.fan != m.fan:
        raise ValueError("fan mismatch")
    offs = m.offsets()
    blocks = []
    for (sigma, tau), y in sorted(x.quotients.items()):
        meet = tuple(sorted(set(sigma) & set(tau)))
        ups = [m.u[pair] for pair in reversed(shuffled_chain(m.fan, meet, sigma, rng))]
        downs = [m.v[pair] for pair in shuffled_chain(m.fan, meet, tau, rng)]
        up = reduce(matmul, ups) if ups else QMat.identity(m.dims[meet])
        down = reduce(matmul, downs) if downs else QMat.identity(m.dims[meet])
        d = m.dims[sigma]
        scal = linear_combination([(c, m.monodromy(sigma, e)) for e, c in y.num.items()], d, d, y.den)
        blocks.append((offs[sigma], offs[tau], scal @ up @ down))
    n = m.total_dim()
    den = lcm(*(b.den for _, _, b in blocks))
    total = [[0] * n for _ in range(n)]
    for r0, c0, block in blocks:
        f = den // block.den
        for i, row in enumerate(block.num):
            total[r0 + i][c0 : c0 + block.n] = [f * a for a in row]
    return QMat._of(tuple(map(tuple, total)), den, n, n)


def mat_from_data_by_fractions(flat, rows: int, cols: int, path: str) -> QMat:
    """The oracle for `serialize._mat_from_data`: the reader that makes one
    Fraction per entry through `serialize._rational` and places them over the
    lcm of their denominators; every entry is checked before the count."""
    es = [serialize._rational(x, path, i) for i, x in enumerate(serialize._list(flat, path))]
    if len(es) != rows * cols:
        raise ValueError(f"{path}: a {rows}x{cols} matrix cannot have {len(es)} entries")
    return QMat._of_fractions([es[i * cols : (i + 1) * cols] for i in range(rows)], rows, cols)


def random_poly_by_randrange(rank: int, rng: random.Random, terms: int = 2, emax: int = 1, cmax: int = 3) -> LaurentPoly:
    """The oracle for `algebra.random_poly`: every draw is one
    `rng.randrange(n)`, in the order the sampler makes them."""
    choices = [x for x in range(-cmax, cmax + 1) if x]
    draw = rng.randrange
    width = 2 * emax + 1
    num: dict[Vec, int] = {}
    for _ in range(draw(terms) + 1):
        e = tuple(draw(width) - emax for _ in range(rank))
        c = choices[draw(len(choices))] * (2 // (draw(2) + 1))
        num[e] = num.get(e, 0) + c
    return LaurentPoly._reduced(rank, {e: c for e, c in num.items() if c}, 2)


def random_member_by_randrange(
    fan: Fan,
    rng: random.Random,
    row_cone: Cone | None = None,
    col_cone: Cone | None = None,
    density_pct: int = 35,
    terms: int = 2,
    emax: int = 1,
) -> AlgebraElement:
    """The oracle for `algebra.random_member`, drawing through
    `rng.randrange` and `random_poly_by_randrange`."""
    rows = fan.cone_list() if row_cone is None else fan.faces_of(row_cone)
    cols = fan.cone_list() if col_cone is None else fan.faces_of(col_cone)
    quotients = {}
    pairs = [(s, t) for s in rows for t in cols]
    for pair in pairs:
        if rng.randrange(100) >= density_pct:
            continue
        y = random_poly_by_randrange(fan.rank, rng, terms=terms, emax=emax)
        if not y.is_zero():
            quotients[pair] = y
    if not quotients:
        quotients[pairs[rng.randrange(len(pairs))]] = LaurentPoly.one(fan.rank)
    return AlgebraElement._divided(fan, quotients)


def snf_by_pivots(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form (U, D, V) by textbook pivoting, with no control of
    the size of the transforms: an oracle for `lattice.snf` on small inputs.
    The pivot is always the nonzero entry of minimal absolute value in the
    remaining block, ties broken by row then column."""
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
            a[k], a[i] = a[i], a[k]
            u[k], u[i] = u[i], u[k]
            for row in a + v:
                row[k], row[j] = row[j], row[k]
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]
                u[k] = [-x for x in u[k]]
            dirty = False
            for i in range(k + 1, r):
                q = a[i][k] // a[k][k]
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                u[i] = [x - q * y for x, y in zip(u[i], u[k])]
                dirty = dirty or a[i][k] != 0
            for j in range(k + 1, c):
                q = a[k][j] // a[k][k]
                for row in a + v:
                    row[j] -= q * row[k]
                dirty = dirty or a[k][j] != 0
            if dirty:
                continue
            # enforce the divisibility chain before moving on
            bad = next((i for i in range(k + 1, r) if any(a[i][j] % a[k][k] for j in range(k + 1, c))), None)
            if bad is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
            u[k] = [x + y for x, y in zip(u[k], u[bad])]
    return IntMatrix(u, shape=(r, r)), IntMatrix(a, shape=(r, c)), IntMatrix(v, shape=(c, c))


def elementary_divisors(m: IntMatrix) -> list[int]:
    """The diagonal of the Smith form of m, from the pivoting oracle: the
    divisors that decide a cone."""
    _, d, _ = snf_by_pivots(m)
    return [d[i, i] for i in range(min(m.rows, m.cols))]


def kernel_basis(m: IntMatrix) -> list[Vec]:
    """Basis of the integer kernel {x : m @ x = 0}, from the pivoting oracle."""
    _, d, v = snf_by_pivots(m)
    rank = sum(1 for i in range(min(m.rows, m.cols)) if d[i, i] != 0)
    return [v.column(j) for j in range(rank, m.cols)]


def hnf_rows_textbook(rows: Sequence[Sequence[int]]) -> list[Vec]:
    """Row Hermite normal form by textbook elimination, with no control of
    the size of the entries: an oracle for `lattice.hnf_rows` on small inputs."""
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


def count_calls(monkeypatch, name, *modules):
    """Route `name` in every given module through one call counter."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls
