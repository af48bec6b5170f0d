"""Helpers that only the tests use: a random valid module generator, an
isomorphism search, an independent structure-constant oracle, and a call
counter."""

import random
from fractions import Fraction

from fanalg.algebra import matrix_unit, required_divisor, required_rays
from fanalg.diagram import (
    BlockMap,
    DiagramModule,
    character_module,
    conjugate,
    direct_sum,
    hom,
    identity_map,
    point_module,
    validate,
)
from fanalg.fan import Cone, Fan
from fanalg.laurent import LaurentPoly, divide_by_product
from fanalg.linalg import QMat, random_invertible


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
    polynomial.  Used to cross-check structure_rays."""
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
