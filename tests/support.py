"""Helpers that only the tests use: a random valid module generator, the
one-ray module, maps of modules, relation and chart checks, an isomorphism
search, an independent structure-constant oracle, and a call counter."""

import random
from fractions import Fraction

from fanalg.algebra import matrix_unit, required_divisor, required_rays
from fanalg.diagram import (
    BlockMap,
    DiagramModule,
    RelationReport,
    _intertwining,
    character_module,
    conjugate,
    direct_sum,
    hom,
    point_module,
    relation_report,
    validate,
)
from fanalg.fan import Cone, Fan, cone_key, standard_fan
from fanalg.lattice import IntMatrix, complete_to_basis
from fanalg.laurent import LaurentPoly, divide_by_product
from fanalg.linalg import QMat, random_invertible
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


def identity_map(m: DiagramModule) -> BlockMap:
    return BlockMap(m, m, {c: QMat.identity(m.dims[c]) for c in m.fan.cones})


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
    return complete_to_basis(fan.ray_vectors(fan.require_cone(cone)), rank=fan.rank).inverse()


def find_isomorphism(ma: DiagramModule, mb: DiagramModule, seed: int = 0, attempts: int = 40) -> BlockMap | None:
    """Invertible intertwiner from seeded rational combinations of a hom basis."""
    if any(ma.dims[c] != mb.dims[c] for c in ma.fan.cones):
        return None
    dim, basis = hom(ma, mb)
    if dim == 0:
        return None if ma.total_dim() else identity_map(ma)
    for f in basis:
        if f.is_isomorphism():
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
        if cand.is_isomorphism():
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
