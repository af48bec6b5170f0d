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


def _inverse_pairs_pass(d: DescentDatum, maxc: list[Cone]) -> bool:
    """The block checks of the pass path: whether every gluing map has a
    block at each common face, each block is square of the face's dimension
    in both charts, and the two blocks of each unordered pair of charts are
    mutually inverse, which makes both invertible.  Then no block has a
    finding."""
    maps = d.glue_maps
    eye: dict[int, QMat] = {}
    for i, sigma in enumerate(maxc):
        ds = d.charts[sigma].dims
        for tau in maxc[i + 1:]:
            fwd, bwd = maps.get((sigma, tau)), maps.get((tau, sigma))
            if fwd is None or bwd is None:
                return False
            dt = d.charts[tau].dims
            for rho in _overlap_cones(d.fan, sigma, tau):
                f, b = fwd.get(rho), bwd.get(rho)
                n = ds[rho]
                if f is None or b is None or dt[rho] != n or not f.m == f.n == b.m == b.n == n:
                    return False
                if n not in eye:
                    eye[n] = QMat.identity(n)
                if not _is_product(eye[n], b, f):
                    return False
    return True


def _findings_each_ordering(d: DescentDatum, maxc: list[Cone]) -> Report:
    """The findings of a datum that fails the pass path, each ordering of
    each pair and triple of charts computed on its own: every chart by
    `validate`, then the blocks of each map, and only when both pass, the
    intertwining of each map, the inverse pairs and the cocycle of each
    ordered triple."""
    rep = Report()
    fan, maps = d.fan, d.glue_maps
    for sigma in maxc:
        for f in validate(d.charts[sigma]).findings:
            rep.add("chart", f"({cone_key(sigma)}):{f.location}", f"{f.code}: {f.detail}")
    orderings = [(s, t) for s in maxc for t in maxc if s != t]
    for sigma, tau in orderings:
        if (sigma, tau) not in maps:
            rep.add("glue", f"({cone_key(sigma)})->({cone_key(tau)})", "missing gluing map")
            continue
        phi = maps[(sigma, tau)]
        for rho in _overlap_cones(fan, sigma, tau):
            if rho not in phi:
                rep.add("glue", _block_at(sigma, tau, rho), "missing block")
                continue
            b = phi[rho]
            ds = d.charts[sigma].dims[rho]
            dt = d.charts[tau].dims[rho]
            if (b.m, b.n) != (dt, ds):
                rep.add("shape", _block_at(sigma, tau, rho), f"block is {b.m}x{b.n}, expected {dt}x{ds}")
            elif not b.is_invertible():
                rep.add("invertible", _block_at(sigma, tau, rho), "block is singular")
    if not rep.ok:
        return rep

    for sigma, tau in orderings:
        ms, mt, phi = d.charts[sigma], d.charts[tau], maps[(sigma, tau)]
        common = _overlap_cones(fan, sigma, tau)
        for rho in common:
            for j, (s, t) in enumerate(zip(ms.torus[rho], mt.torus[rho])):
                if not _products_equal(phi[rho], s, t, phi[rho]):
                    rep.add("intertwine", _block_at(sigma, tau, rho), f"torus matrix {j + 1} not intertwined")
        oset = set(common)
        for key in ms.u:
            lo, hi = key
            if lo in oset and hi in oset:
                if not _products_equal(phi[hi], ms.u[key], mt.u[key], phi[lo]):
                    rep.add("intertwine", _pair_at(sigma, tau, lo, hi), "u arrow not intertwined")
                if not _products_equal(phi[lo], ms.v[key], mt.v[key], phi[hi]):
                    rep.add("intertwine", _pair_at(sigma, tau, lo, hi), "v arrow not intertwined")

    for sigma, tau in orderings:
        if sigma < tau:
            fwd, bwd = maps[(sigma, tau)], maps[(tau, sigma)]
            for rho in _overlap_cones(fan, sigma, tau):
                if not _is_product(QMat.identity(fwd[rho].n), bwd[rho], fwd[rho]):
                    rep.add("inverse", f"({cone_key(sigma)})<->({cone_key(tau)}) at ({cone_key(rho)})", "maps are not mutually inverse")

    for sigma, tau in orderings:
        first = maps[(sigma, tau)]
        for omega in maxc:
            if omega == sigma or omega == tau:
                continue
            direct, second = maps[(sigma, omega)], maps[(tau, omega)]
            for rho in _overlap_cones(fan, sigma, tau, omega):
                if not _is_product(direct[rho], second[rho], first[rho]):
                    rep.add(
                        "cocycle",
                        f"({cone_key(sigma)})->({cone_key(tau)})->({cone_key(omega)}) at ({cone_key(rho)})",
                        "triple composition disagrees with the direct map",
                    )
    return rep


def check_cocycle(d: DescentDatum) -> Report:
    """Well-formedness, intertwining, inverse pairs, the triple condition and
    the axioms of every chart, by one of two paths; products are compared
    without being built.

    Each cone has a representative chart, the least maximal cone that
    contains it, which `glue` takes the cone's space from.  The table of the
    charts that hold each cone, representative first, is owned by the datum
    for its lifetime (`DescentDatum._holders`); the first `check_cocycle` or
    `glue` of the datum builds it.

    The pass path decides whether the datum passes, building no location.
    It decides the shapes of every chart that keeps no verdict, then the
    blocks with their inverse pairs (`_inverse_pairs_pass`), then the
    cocycle, the intertwining and the chart axioms through the
    representatives (`_cocycle_through_representatives`,
    `_intertwined_through_representatives`,
    `_axioms_through_representatives`): each cocycle identity, map and axiom
    instance of the fan once, however many charts hold it.  On a pass every
    chart keeps its verdict and the report is empty.

    A datum that fails any of these takes the findings path
    (`_findings_each_ordering`) once, which computes every ordering of each
    pair and triple of charts on its own, so the findings, in content and
    order, are those of the oracle that shares no verdict."""
    rep = Report()
    maxc = list(d.fan.maximal)
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
    if not (
        shaped.ok
        and _inverse_pairs_pass(d, maxc)
        and _cocycle_through_representatives(d)
        and _intertwined_through_representatives(d)
        and _axioms_through_representatives(d)
    ):
        return _findings_each_ordering(d, maxc)
    for sigma in maxc:
        object.__setattr__(d.charts[sigma], "_valid", True)
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
