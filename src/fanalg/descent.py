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
from typing import Mapping

from fanalg.diagram import DiagramModule, validate
from fanalg.fan import Cone, Fan, cone_key, covering_pairs
from fanalg.linalg import QMat, _is_product, _products_equal, random_invertible
from fanalg.report import Finding, Report


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
    fan: Fan
    charts: Mapping[Cone, DiagramModule]
    glue_maps: Mapping[tuple[Cone, Cone], Mapping[Cone, QMat]]

    def glue_block(self, sigma: Cone, tau: Cone, rho: Cone) -> QMat:
        """Block of phi from chart sigma to chart tau at a common face rho."""
        if sigma == tau:
            return QMat.identity(self.charts[sigma].dims[rho])
        return self.glue_maps[(sigma, tau)][rho]


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


def check_cocycle(d: DescentDatum) -> Report:
    """Well-formedness, intertwining, inverse pairs, and the triple condition;
    products are compared without being built, a location is built only for a
    finding, and the faces common to each pair and each triple of charts are
    listed once per call.

    Each verdict is computed once per unordered pair and triple of charts.
    The inverse pairs are decided first and reported in their place, after
    the intertwining.  When they all hold, every block is square and
    invertible with phi(tau, sigma) the inverse of phi(sigma, tau), so
    phi(tau, sigma) passes each intertwining item exactly when
    phi(sigma, tau) does, and the six orderings of a triple state one cocycle
    condition: the verdict of the first ordering is reused for the others,
    and the findings of every ordering are still reported, in the same order
    as when each is computed.  When an inverse pair fails, every ordering is
    computed on its own.

    The inverse pairs also decide invertibility: a square block whose pair
    holds is invertible, so `is_invertible` runs only on non-square blocks,
    on the blocks of a failing pair, and on every block when a chart fails
    or a map or block is missing or misshapen.  The findings come in the
    same order either way."""
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
    for sigma in maxc:
        chart_rep = validate(d.charts[sigma])
        for f in chart_rep.findings:
            rep.add("chart", f"({cone_key(sigma)}):{f.location}", f"{f.code}: {f.detail}")

    # blocks whose invertibility is open, each with its place in the report
    owed = []
    for sigma in maxc:
        for tau in maxc:
            if sigma == tau:
                continue
            if (sigma, tau) not in d.glue_maps:
                rep.add("glue", f"({cone_key(sigma)})->({cone_key(tau)})", "missing gluing map")
                continue
            blocks = d.glue_maps[(sigma, tau)]
            for rho in overlap(sigma, tau):
                if rho not in blocks:
                    rep.add("glue", _block_at(sigma, tau, rho), "missing block")
                    continue
                b = blocks[rho]
                ds = d.charts[sigma].dims[rho]
                dt = d.charts[tau].dims[rho]
                if (b.m, b.n) != (dt, ds):
                    rep.add("shape", _block_at(sigma, tau, rho), f"block is {b.m}x{b.n}, expected {dt}x{ds}")
                else:
                    owed.append((len(rep.findings), sigma, tau, rho, b))

    # inverse pairs, decided first when every chart passes and every block is
    # present and well shaped, and reported after the intertwining; a square
    # block of a pair that holds is invertible, so only the other blocks are
    # tested
    not_inverse = []
    held = set()
    if rep.ok:
        for sigma in maxc:
            for tau in maxc:
                if sigma >= tau:
                    continue
                fwds, bwds = d.glue_maps[(sigma, tau)], d.glue_maps[(tau, sigma)]
                for rho in overlap(sigma, tau):
                    fwd = fwds[rho]
                    if _is_product(QMat.identity(fwd.n), bwds[rho], fwd):
                        held.add((sigma, tau, rho))
                    else:
                        not_inverse.append((sigma, tau, rho))
    singular = [
        (pos, sigma, tau, rho)
        for pos, sigma, tau, rho, b in owed
        if not (b.m == b.n and (min(sigma, tau), max(sigma, tau), rho) in held) and not b.is_invertible()
    ]
    for k, (pos, sigma, tau, rho) in enumerate(singular):
        rep.findings.insert(pos + k, Finding("invertible", _block_at(sigma, tau, rho), "block is singular"))
    if not rep.ok:
        return rep

    # the verdicts of each unordered pair or triple, in report order, are
    # shared by its orderings only when every pair of maps is mutually inverse
    shared = not not_inverse
    verdicts: dict[frozenset, list[bool]] = {}

    # intertwining: each phi is a morphism of the restricted modules; the
    # covering pairs of both charts are in the fan's order, so the items of
    # both orderings of a pair come in one order
    for sigma in maxc:
        for tau in maxc:
            if sigma == tau:
                continue
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
    for sigma in maxc:
        for tau in maxc:
            for omega in maxc:
                if len({sigma, tau, omega}) < 3:
                    continue
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


def _chart_of(fan: Fan, rho: Cone) -> Cone:
    """The least maximal cone, in sorted order, that contains rho."""
    holders = [s for s in fan.maximal if set(rho) <= set(s)]
    if not holders:
        raise ValueError(f"cone ({cone_key(rho)}) lies in no maximal cone")
    return min(holders)


def glue(d: DescentDatum) -> DiagramModule:
    """Glue a cocycle-passing datum into a global module.

    Every cone takes its space from the least maximal cone that contains it
    (`_chart_of`); arrows are transported into those representatives through
    the gluing maps.  The datum is checked once, here (Rejected carries the
    `check_cocycle` report), and the output is not checked again: valid
    charts whose gluing maps pass the cocycle check glue to a valid module
    that restricts to each chart, a theorem the tests assert as a property.
    """
    check_cocycle(d).require("descent datum rejected")
    fan = d.fan
    chart_of = {rho: _chart_of(fan, rho) for rho in fan.cones}
    dims = {rho: d.charts[chart_of[rho]].dims[rho] for rho in fan.cones}
    torus = {rho: d.charts[chart_of[rho]].torus[rho] for rho in fan.cones}
    u = {}
    v = {}
    for tau, sigma, _ in covering_pairs(fan):
        a = chart_of[tau]
        b = chart_of[sigma]
        move = d.glue_block(a, b, tau)  # chart a and chart b both contain tau
        back = d.glue_block(b, a, tau)
        u[(tau, sigma)] = d.charts[b].u[(tau, sigma)] @ move
        v[(tau, sigma)] = back @ d.charts[b].v[(tau, sigma)]
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
