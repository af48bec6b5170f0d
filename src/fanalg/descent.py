"""Descent data over the affine chart cover of a fan.

A descent datum assigns to every maximal cone a diagram module over its
face fan and to every ordered pair of maximal cones a gluing isomorphism on
the blocks of the overlap, subject to the cocycle condition on triples.
Gluing picks one chart representative per cone and transports all arrows
into the chosen representatives; the cocycle condition makes the result
independent of the choice up to isomorphism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from fanalg.diagram import DiagramModule, _axiom_findings, _dim_findings, _require_plain, _singular_findings, validate
from fanalg.fan import Cone, Fan, cone_key, covering_pairs
from fanalg.linalg import QMat, _is_product, _products_equal, random_invertible
from fanalg.report import Report


def restrict(m: DiagramModule, cone) -> DiagramModule:
    """Sub-diagram on the faces of one cone, over the face fan."""
    c = m.fan.require_cone(cone)
    sub = m.fan.subfan(c)
    faces = set(sub.cones)
    dims = {f: m.dims[f] for f in faces}
    torus = {f: m.torus[f] for f in faces}
    u = {k: mat for k, mat in m.u.items() if k[1] in faces}
    v = {k: mat for k, mat in m.v.items() if k[1] in faces}
    return DiagramModule(sub, dims, torus, u, v, nt=m.nt)


@dataclass(frozen=True)
class DescentDatum:
    """Chart modules by maximal cone, and gluing maps by ordered pair of
    maximal cones, each a block per common face.

    The datum owns one table for its lifetime, `_holders`: the maximal cones
    that hold each cone of the fan.  It is built by the first `check_cocycle`
    or `glue` of the datum, which both read it, and `==` ignores it."""

    fan: Fan
    charts: Mapping[Cone, DiagramModule]
    glue_maps: Mapping[tuple[Cone, Cone], Mapping[Cone, QMat]]

    def glue_block(self, sigma: Cone, tau: Cone, rho: Cone) -> QMat:
        """Block of phi from chart sigma to chart tau at a common face rho."""
        if sigma == tau:
            return QMat.identity(self.charts[sigma].dims[rho])
        return self.glue_maps[(sigma, tau)][rho]

    @cached_property
    def _holders(self) -> dict[Cone, tuple[Cone, ...]]:
        """The maximal cones that contain each cone, in sorted order, by cone
        in the fan's order.  The first is the cone's representative chart,
        the least maximal cone that contains it."""
        maximal = [(sigma, set(sigma)) for sigma in self.fan.maximal]
        out = {}
        for rho in self.fan.cone_list():
            out[rho] = tuple(sigma for sigma, rays in maximal if rays.issuperset(rho))
            if not out[rho]:
                raise ValueError(f"cone ({cone_key(rho)}) lies in no maximal cone")
        return out


def _overlap_cones(fan: Fan, *charts: Cone) -> list[Cone]:
    """The faces of the cone common to the charts; none when their common
    rays span no cone of the fan."""
    common = tuple(sorted(set(charts[0]).intersection(*charts[1:])))
    return fan.faces_of(common) if fan.is_cone(common) else []


def _block_at(sigma: Cone, tau: Cone, rho: Cone) -> str:
    """The location of the block at rho of the gluing map from chart sigma
    to chart tau."""
    return f"({cone_key(sigma)})->({cone_key(tau)}) at ({cone_key(rho)})"


def _pair_at(sigma: Cone, tau: Cone, lo: Cone, hi: Cone) -> str:
    """The location of the covering pair lo < hi on the overlap of charts
    sigma and tau."""
    return f"({cone_key(sigma)})->({cone_key(tau)}) pair ({cone_key(lo)})<({cone_key(hi)})"


def _cocycle_through_representatives(d: DescentDatum) -> bool:
    """The cocycle on each cone rho with representative chart c, as one
    identity per pair sigma < tau of the other charts that hold rho:
    phi(sigma, tau) = phi(c, tau) phi(sigma, c).  With mutually inverse
    pairs of maps it holds exactly when every ordered triple does."""
    maps = d.glue_maps
    for rho, (c, *others) in d._holders.items():
        for i, sigma in enumerate(others):
            into = maps[(sigma, c)][rho]
            for tau in others[i + 1:]:
                if not _is_product(maps[(sigma, tau)][rho], maps[(c, tau)][rho], into):
                    return False
    return True


def _intertwined_through_representatives(d: DescentDatum) -> bool:
    """The intertwining of the maps out of representative charts: at each
    cone rho, phi(c(rho), sigma) with the torus matrices, and at each
    covering pair lo < hi, phi(c(hi), sigma) with the arrows, for every other
    chart sigma that holds rho or hi.  With mutually inverse maps that pass
    the cocycle, every other map is a product of these and their inverses,
    so it holds exactly when every ordering of every pair does."""
    maps, charts, holders = d.glue_maps, d.charts, d._holders
    for rho, (c, *others) in holders.items():
        mc = charts[c]
        for sigma in others:
            phi = maps[(c, sigma)][rho]
            if not all(_products_equal(phi, s, t, phi) for s, t in zip(mc.torus[rho], charts[sigma].torus[rho])):
                return False
    for lo, hi, _ in covering_pairs(d.fan):
        c, *others = holders[hi]
        mc = charts[c]
        for sigma in others:
            phi, ms = maps[(c, sigma)], charts[sigma]
            pair = (lo, hi)
            if not (
                _products_equal(phi[hi], mc.u[pair], ms.u[pair], phi[lo])
                and _products_equal(phi[lo], mc.v[pair], ms.v[pair], phi[hi])
            ):
                return False
    return True


def _axioms_through_representatives(d: DescentDatum) -> bool:
    """Whether every axiom instance of the fan holds in the representative
    chart of its top cone: A1 on each cone, A2 and A4 on each covering pair,
    and A3 on each square, each decided once, in a chart that keeps no
    verdict.  Invertibility comes first, on every chart, since A4 inverts
    torus matrices of cones that other charts represent.  Once the maps
    pass, every other chart that holds an instance is a base change of the
    representative on the faces of its top cone, through intertwining,
    invertible maps, so it has the same verdict."""
    holders = d._holders
    cones = {sigma: [] for sigma in d.fan.maximal}
    pairs = {sigma: [] for sigma in d.fan.maximal}
    for rho, hs in holders.items():
        cones[hs[0]].append(rho)
    for pair in covering_pairs(d.fan):
        pairs[holders[pair[1]][0]].append(pair)
    todo = [(d.charts[sigma], cones[sigma], pairs[sigma]) for sigma in d.fan.maximal if not d.charts[sigma]._valid]
    rep = Report()
    for m, cs, _ in todo:
        _singular_findings(m, cs, rep)
    if rep.ok:
        for m, cs, ps in todo:
            _axiom_findings(m, cs, ps, rep)
    return rep.ok


def _inverse_pairs_pass(d: DescentDatum, maxc: list[Cone], overlap, eye: dict[int, QMat]) -> bool:
    """The pass path of the block checks: whether every gluing map has a
    block at each common face, each block is square of the face's dimension
    in both charts, and the two blocks of each unordered pair of charts are
    mutually inverse.  Then no block has a finding; on False the blocks are
    checked one by one for their findings.  `eye` holds the identity of each
    dimension for the call."""
    maps = d.glue_maps
    for i, sigma in enumerate(maxc):
        ds = d.charts[sigma].dims
        for tau in maxc[i + 1:]:
            fwd, bwd = maps.get((sigma, tau)), maps.get((tau, sigma))
            if fwd is None or bwd is None:
                return False
            dt = d.charts[tau].dims
            for rho in overlap(sigma, tau):
                f, b = fwd.get(rho), bwd.get(rho)
                n = ds[rho]
                if f is None or b is None or dt[rho] != n or not f.m == f.n == b.m == b.n == n:
                    return False
                if n not in eye:
                    eye[n] = QMat.identity(n)
                if not _is_product(eye[n], b, f):
                    return False
    return True


def check_cocycle(d: DescentDatum) -> Report:
    """Well-formedness, intertwining, inverse pairs, the triple condition and
    the axioms of every chart; products are compared without being built,
    and a location is built only for a finding.

    Each cone has a representative chart, the least maximal cone that
    contains it, which `glue` takes the cone's space from.  The table of the
    charts that hold each cone, representative first, is owned by the datum
    for its lifetime (`DescentDatum._holders`); the first `check_cocycle` or
    `glue` of the datum builds it.

    The shapes of every chart and glue block are decided first, with the
    inverse pairs, which also decide invertibility: a square block whose
    pair holds has a left inverse, so it is invertible, and `is_invertible`
    runs only on the other blocks.  The pass path (`_inverse_pairs_pass`)
    reads each unordered pair of charts once; a block that is missing,
    misshapen or not inverted by its pair sends the blocks to the check of
    each ordering, for their findings.  When every inverse pair holds, the
    cocycle, then the intertwining, then the chart axioms are decided
    through the representatives (`_cocycle_through_representatives`,
    `_intertwined_through_representatives`,
    `_axioms_through_representatives`): each cocycle identity, map and axiom
    instance of the fan once, however many charts hold it.  A chart that
    keeps a verdict is not read, and on a pass every chart keeps one.

    A section whose check fails this way, or cannot be made so, is computed
    as if no verdict were shared across charts: the chart axioms by
    `validate` on every chart, and each map check for every ordering, with
    one verdict per unordered pair or triple of charts when the inverse
    pairs hold.  So the findings, in content and order, are those of every
    ordering computed on its own.  The faces common to each pair and each
    triple of charts are listed at most once per call."""
    rep = Report()
    fan = d.fan
    maxc = list(fan.maximal)
    faces: dict[frozenset, list[Cone]] = {}

    def overlap(*charts: Cone) -> list[Cone]:
        key = frozenset(charts)
        if key not in faces:
            faces[key] = _overlap_cones(fan, *charts)
        return faces[key]

    for sigma in maxc:
        if sigma not in d.charts:
            rep.add("chart", f"({cone_key(sigma)})", "missing chart module")
    if not rep.ok:
        return rep
    shaped = Report()
    for sigma in maxc:
        _require_plain(d.charts[sigma])
        if not d.charts[sigma]._valid:
            _dim_findings(d.charts[sigma], shaped)

    eye: dict[int, QMat] = {}
    blocks = Report()
    not_inverse: list[tuple[Cone, Cone, Cone]] = []
    if not _inverse_pairs_pass(d, maxc, overlap, eye):
        # the verdict of each inverse pair (min, max, rho) of square blocks, in
        # the order of the pairs sigma < tau
        inverse: dict[tuple[Cone, Cone, Cone], bool] = {}

        def invertible(sigma: Cone, tau: Cone, rho: Cone, b: QMat) -> bool:
            key = (min(sigma, tau), max(sigma, tau), rho)
            if b.m == b.n and key not in inverse:
                fwd, bwd = (d.glue_maps.get(pair, {}).get(rho) for pair in (key[:2], key[1::-1]))
                if fwd is not None and bwd is not None and fwd.m == fwd.n == bwd.m == bwd.n:
                    if fwd.n not in eye:
                        eye[fwd.n] = QMat.identity(fwd.n)
                    inverse[key] = _is_product(eye[fwd.n], bwd, fwd)
            return inverse.get(key, False) or b.is_invertible()

        for sigma in maxc:
            for tau in maxc:
                if sigma == tau:
                    continue
                if (sigma, tau) not in d.glue_maps:
                    blocks.add("glue", f"({cone_key(sigma)})->({cone_key(tau)})", "missing gluing map")
                    continue
                phi = d.glue_maps[(sigma, tau)]
                for rho in overlap(sigma, tau):
                    if rho not in phi:
                        blocks.add("glue", _block_at(sigma, tau, rho), "missing block")
                        continue
                    b = phi[rho]
                    ds = d.charts[sigma].dims[rho]
                    dt = d.charts[tau].dims[rho]
                    if (b.m, b.n) != (dt, ds):
                        blocks.add("shape", _block_at(sigma, tau, rho), f"block is {b.m}x{b.n}, expected {dt}x{ds}")
                    elif not invertible(sigma, tau, rho, b):
                        blocks.add("invertible", _block_at(sigma, tau, rho), "block is singular")
        not_inverse = [key for key, held in inverse.items() if not held]

    # the verdicts of each unordered pair or triple, in report order, are
    # shared by its orderings only when every pair of maps is mutually inverse
    shared = shaped.ok and blocks.ok and not not_inverse
    cocycle = shared and _cocycle_through_representatives(d)
    intertwined = cocycle and _intertwined_through_representatives(d)
    if intertwined and _axioms_through_representatives(d):
        for sigma in maxc:
            object.__setattr__(d.charts[sigma], "_valid", True)
    else:
        for sigma in maxc:
            for f in validate(d.charts[sigma]).findings:
                rep.add("chart", f"({cone_key(sigma)}):{f.location}", f"{f.code}: {f.detail}")
    rep.extend(blocks)
    if not rep.ok:
        return rep
    verdicts: dict[frozenset, list[bool]] = {}
    # the orderings of each map check that did not pass through the representatives
    pairs = [] if intertwined else [(s, t) for s in maxc for t in maxc if s != t]
    triples = [] if cocycle else [(s, t, w) for s in maxc for t in maxc for w in maxc if len({s, t, w}) == 3]

    # intertwining: each phi is a morphism of the restricted modules; the
    # covering pairs of both charts are in the fan's order, so the items of
    # both orderings of a pair come in one order
    for sigma, tau in pairs:
        ms, mt = d.charts[sigma], d.charts[tau]
        common = overlap(sigma, tau)
        oset = set(common)
        arrows = [(lo, hi) for (lo, hi) in ms.u if lo in oset and hi in oset]
        pair = frozenset((sigma, tau))
        got = verdicts.get(pair) if shared else None
        if got is None:
            phi = d.glue_maps[(sigma, tau)]
            got = []
            for rho in common:
                got += [_products_equal(phi[rho], s, t, phi[rho]) for s, t in zip(ms.torus[rho], mt.torus[rho])]
            for key in arrows:
                lo, hi = key
                got.append(_products_equal(phi[hi], ms.u[key], mt.u[key], phi[lo]))
                got.append(_products_equal(phi[lo], ms.v[key], mt.v[key], phi[hi]))
            verdicts[pair] = got
        if all(got):
            continue
        ok = iter(got)
        for rho in common:
            for j in range(ms.nt):
                if not next(ok):
                    rep.add("intertwine", _block_at(sigma, tau, rho), f"torus matrix {j + 1} not intertwined")
        for lo, hi in arrows:
            if not next(ok):
                rep.add("intertwine", _pair_at(sigma, tau, lo, hi), "u arrow not intertwined")
            if not next(ok):
                rep.add("intertwine", _pair_at(sigma, tau, lo, hi), "v arrow not intertwined")

    for sigma, tau, rho in not_inverse:
        rep.add("inverse", f"({cone_key(sigma)})<->({cone_key(tau)}) at ({cone_key(rho)})", "maps are not mutually inverse")

    # cocycle on ordered triples
    for sigma, tau, omega in triples:
        common = overlap(sigma, tau, omega)
        triple = frozenset((sigma, tau, omega))
        got = verdicts.get(triple) if shared else None
        if got is None:
            direct, second, first = d.glue_maps[(sigma, omega)], d.glue_maps[(tau, omega)], d.glue_maps[(sigma, tau)]
            got = verdicts[triple] = [_is_product(direct[rho], second[rho], first[rho]) for rho in common]
        for rho, ok in zip(common, got):
            if not ok:
                rep.add(
                    "cocycle",
                    f"({cone_key(sigma)})->({cone_key(tau)})->({cone_key(omega)}) at ({cone_key(rho)})",
                    "triple composition disagrees with the direct map",
                )
    return rep


def glue(d: DescentDatum) -> DiagramModule:
    """Glue a cocycle-passing datum into a global module.

    Every cone takes its space from its representative chart, the least
    maximal cone that contains it, read from the datum's table of holders
    (`DescentDatum._holders`), which the `check_cocycle` made here builds
    and the datum keeps for its lifetime; arrows are transported into those
    representatives through the gluing maps, and an arrow whose two cones
    have one representative is taken as it stands.  The datum is checked once,
    here (Rejected carries the `check_cocycle` report), and the output is
    not checked again: valid charts whose gluing maps pass the cocycle check
    glue to a valid module that restricts to each chart, a theorem the
    tests assert as a property.
    """
    check_cocycle(d).require("descent datum rejected")
    fan = d.fan
    chart_of = {rho: hs[0] for rho, hs in d._holders.items()}
    dims = {rho: d.charts[chart_of[rho]].dims[rho] for rho in fan.cones}
    torus = {rho: d.charts[chart_of[rho]].torus[rho] for rho in fan.cones}
    u = {}
    v = {}
    for tau, sigma, _ in covering_pairs(fan):
        a = chart_of[tau]
        b = chart_of[sigma]
        uu, vv = d.charts[b].u[(tau, sigma)], d.charts[b].v[(tau, sigma)]
        if a != b:  # chart a and chart b both contain tau
            uu, vv = uu @ d.glue_maps[(a, b)][tau], d.glue_maps[(b, a)][tau] @ vv
        u[(tau, sigma)], v[(tau, sigma)] = uu, vv
    return DiagramModule(fan, dims, torus, u, v)


def tautological_datum(m: DiagramModule) -> DescentDatum:
    """Restrictions to the maximal cones with identity gluing maps."""
    fan = m.fan
    charts = {sigma: restrict(m, sigma) for sigma in fan.maximal}
    glue_maps = {}
    for sigma in fan.maximal:
        for tau in fan.maximal:
            if sigma == tau:
                continue
            blocks = {}
            for rho in _overlap_cones(fan, sigma, tau):
                blocks[rho] = QMat.identity(m.dims[rho])
            glue_maps[(sigma, tau)] = blocks
    return DescentDatum(fan, charts, glue_maps)


def twisted_datum(m: DiagramModule, rng: random.Random) -> DescentDatum:
    """Tautological datum conjugated chartwise by random invertibles; the
    gluing maps compensate, so the datum still glues to a module isomorphic
    to the original.  Each twist is inverted once."""
    from fanalg.diagram import _conjugated

    fan = m.fan
    twists: dict[Cone, dict[Cone, QMat]] = {}
    for sigma in fan.maximal:
        twists[sigma] = {rho: random_invertible(m.dims[rho], rng) for rho in fan.subfan(sigma).cones}
    untwists = {sigma: {rho: g.inverse() for rho, g in gs.items()} for sigma, gs in twists.items()}
    charts = {}
    for sigma in fan.maximal:
        charts[sigma] = _conjugated(restrict(m, sigma), twists[sigma], untwists[sigma])
    glue_maps = {}
    for sigma in fan.maximal:
        for tau in fan.maximal:
            if sigma == tau:
                continue
            blocks = {}
            for rho in _overlap_cones(fan, sigma, tau):
                blocks[rho] = twists[tau][rho] @ untwists[sigma][rho]
            glue_maps[(sigma, tau)] = blocks
    return DescentDatum(fan, charts, glue_maps)
