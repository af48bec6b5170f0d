"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a single pass/fail line; run with -v (or -s) to see them.
All randomness is seeded, so the suite is reproducible bit for bit.
"""

import random
from fractions import Fraction

from fanalg.algebra import (
    central,
    delta,
    matrix_unit,
    membership_report,
    mu,
    random_member,
    required_divisor,
    unit,
)
from fanalg.descent import check_cocycle, glue, tautological_datum, twisted_datum, DescentDatum
from fanalg.diagram import (
    dupont_demo,
    relation_report,
    rep_check,
    validate,
)
from fanalg.equivariant import (
    EqDiagramModule,
    ag_structure,
    associativity_report,
    inflate,
    quotient_presentation,
    validate_equivariant,
)
from fanalg.fan import (
    hirzebruch_fan,
    product_fan,
    projective_line_fan,
    projective_plane_fan,
    standard_fan,
)
from fanalg.laurent import (
    LaurentPoly,
    binomial,
    divide_by_binomial,
    monomial_map,
)
from fanalg.lattice import IntMatrix, snf
from fanalg.linalg import QMat

from conftest import module_zoo
from support import check_relations, find_isomorphism, is_isomorphism, random_valid_module


def announce(num: int, text: str, ok: bool) -> None:
    print(f"[criterion {num}] {text}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_one_ray_fixture(c_fan):
    e1 = matrix_unit(c_fan, (), ())
    e2 = matrix_unit(c_fan, (0,), (0,))
    u = matrix_unit(c_fan, (0,), (), binomial((1,)))
    v = matrix_unit(c_fan, (), (0,))
    one = unit(c_fan)
    ok = e1 + e2 == one
    ok = ok and e1 * e1 == e1 and e2 * e2 == e2
    ok = ok and e2 * u == u and u * e1 == u
    ok = ok and e1 * v == v and v * e2 == v
    s = one + v * u + u * v
    t_scalar = central(c_fan, LaurentPoly.monomial((1,)))
    ok = ok and s == t_scalar
    ok = ok and all(p.is_unit() for p in s.entries.values())
    ok = ok and s * central(c_fan, LaurentPoly.monomial((-1,))) == one
    announce(1, "one-ray fixture, generator images and s -> t*1", ok)
    assert ok


def test_criterion_2_projective_line_pattern(p1_fan):
    one = LaurentPoly.one(1)
    cones = p1_fan.cone_list()
    base = {(s, t): required_divisor(p1_fan, s, t) for s in cones for t in cones}
    ok = membership_report(p1_fan, base).ok
    constrained = [k for k, d in base.items() if d != one]
    ok = ok and sorted(constrained) == [((0,), ()), ((0,), (1,)), ((1,), ()), ((1,), (0,))]
    for slot in constrained:
        perturbed = dict(base)
        perturbed[slot] = one  # constant 1 is never divisible by the binomial
        rep = membership_report(p1_fan, perturbed)
        sigma, tau = slot
        want = f"({','.join(str(i) for i in sigma)})x({','.join(str(i) for i in tau)})"
        ok = ok and not rep.ok and len(rep.findings) == 1 and rep.findings[0].location == want
    announce(2, "projective line divisibility pattern with witnesses", ok)
    assert ok


def test_criterion_3_mu_delta_round_trip():
    fans = {
        "C2": standard_fan(2),
        "P2": projective_plane_fan(),
        "P1xP1": product_fan(projective_line_fan(), projective_line_fan()),
        "F1": hirzebruch_fan(1),
    }
    rng = random.Random(2024)
    failures = 0
    checked = 0
    for name, fan in sorted(fans.items()):
        for sigma in fan.maximal:
            for tau in fan.maximal:
                for _ in range(100):
                    x = random_member(fan, rng, row_cone=sigma, col_cone=tau)
                    if mu(delta(x, sigma, tau)) != x:
                        failures += 1
                    checked += 1
    ok = failures == 0 and checked == (1 + 9 + 16 + 16) * 100
    announce(3, f"mu after delta is the identity on {checked} corner members", ok)
    assert ok


def test_criterion_4_representation_property(c_fan, c2_fan, p1_fan, p2_fan):
    rng = random.Random(7)
    failures = []
    modules = 0
    for fan in (c_fan, c2_fan, p1_fan, p2_fan):
        zoo = module_zoo(fan, rng)
        assert len(zoo) >= 5
        for i, m in enumerate(zoo):
            out = rep_check(m, trials=100, seed=1000 + modules)
            if not out.ok:
                failures.append((fan.rank, i, out.failure))
            modules += 1
    ok = not failures
    announce(4, f"evaluate multiplicative on {modules} modules x 100 pairs (linearity is a property test)", ok)
    assert ok, failures


def test_criterion_5_corrected_relations(p2_fan):
    report = relation_report(p2_fan)
    by_cone = {e.cone: e for e in report.entries}
    zero = by_cone[()]
    ok = [op.label for op in zero.ops] == ["M[1]", "M[2]", "M[3]"] and zero.relations == ((1, 1, 1),)
    expected = {
        (0,): ["N[1]", "M[1,2]", "M[1,3]"],
        (1,): ["N[2]", "M[2,1]", "M[2,3]"],
        (2,): ["N[3]", "M[3,1]", "M[3,2]"],
    }
    for cone, labels in expected.items():
        entry = by_cone[cone]
        ok = ok and [op.label for op in entry.ops] == labels and entry.relations == ((1, 1, 1),)
    # no other cone carries a relation
    for cone, entry in by_cone.items():
        if cone not in expected and cone != ():
            ok = ok and entry.relations == ()
    rng = random.Random(8)
    for m in module_zoo(p2_fan, rng):
        ok = ok and check_relations(m, report).ok
    announce(5, "projective plane relation report and operator identities", ok)
    assert ok


def test_criterion_6_dupont_counterexample():
    out = dupont_demo(seed=0)
    ok = validate(out.module).ok
    ok = ok and not out.n1.is_identity()
    ok = ok and not out.module.u[((), (0,))].is_zero()
    ok = ok and not out.module.v[((), (0,))].is_zero()
    ok = ok and out.corrected_ok and not out.dupont_ok
    announce(6, "validated module where M12 M13 N1 = id but M12 M13 != id", ok)
    assert ok


def test_criterion_7_equivariant_fixtures(c_fan):
    # (a) connected subgroup: the quotient kills the arrows
    q0 = quotient_presentation(characters=[], rank=1)
    s0 = ag_structure(c_fan, q0)
    ok = s0.constant((0,), (), (0,)).is_zero() and s0.constant((), (0,), ()).is_zero()
    bad = EqDiagramModule(
        c_fan, q0, {(): 1, (0,): 1}, {(): (), (0,): ()},
        {((), (0,)): QMat([[1]])}, {((), (0,)): QMat([[1]])},
    )
    good = EqDiagramModule(
        c_fan, q0, {(): 1, (0,): 1}, {(): (), (0,): ()},
        {((), (0,)): QMat([[0]])}, {((), (0,)): QMat([[0]])},
    )
    ok = ok and not validate_equivariant(bad).ok and validate_equivariant(good).ok

    # (b) cyclic subgroup of order p: validity iff the scalar is a p-th root
    for p in (2, 3):
        qp = quotient_presentation(q=[[p]])
        for u_val, v_val in ((3, 1), (1, 1), (7, 1)):
            mono = Fraction(1 + v_val * u_val)
            for s in (Fraction(n, d) for n in range(-6, 7) if n for d in (1, 2)):
                m = EqDiagramModule(
                    c_fan, qp, {(): 1, (0,): 1},
                    {(): (QMat([[s]]),), (0,): (QMat([[s]]),)},
                    {((), (0,)): QMat([[u_val]])}, {((), (0,)): QMat([[v_val]])},
                )
                ok = ok and validate_equivariant(m).ok == (s**p == mono)

    # (c) inflation always lands in valid plain modules
    inflated = 0
    for p in (2, 3):
        qp = quotient_presentation(q=[[p]])
        for s in (Fraction(2), Fraction(-2), Fraction(3)):
            u_val = Fraction(2)
            v_val = (s**p - 1) / u_val
            m = EqDiagramModule(
                c_fan, qp, {(): 1, (0,): 1},
                {(): (QMat([[s]]),), (0,): (QMat([[s]]),)},
                {((), (0,)): QMat([[u_val]])}, {((), (0,)): QMat([[v_val]])},
            )
            assert validate_equivariant(m).ok
            plain = inflate(m)
            ok = ok and validate(plain).ok and plain.torus[()][0] == QMat([[s**p]])
            inflated += 1
    ok = ok and validate(inflate(good)).ok and inflate(good).torus[()][0].is_identity()

    # (d) exhaustive associativity on every fan with at most seven cones
    fans = (standard_fan(1), standard_fan(2), projective_line_fan(), projective_plane_fan())
    for fan in fans:
        assert len(fan.cones) <= 7
        for qd in (
            quotient_presentation(q=IntMatrix.identity(fan.rank)),
            quotient_presentation(characters=[], rank=fan.rank),
            quotient_presentation(q=[[2] + [0] * (fan.rank - 1)]),
        ):
            s = ag_structure(fan, qd)
            ok = ok and associativity_report(s, samples=None).ok
    announce(7, f"equivariant fixtures incl. {inflated + 1} inflations and exhaustive associativity", ok)
    assert ok


def test_criterion_8_descent_round_trip(p1_fan, p2_fan):
    ok = True
    count = 0
    for fan, base_seed in ((p1_fan, 100), (p2_fan, 200)):
        for k in range(20):
            m = random_valid_module(fan, random.Random(base_seed + k))
            datum = tautological_datum(m)
            ok = ok and check_cocycle(datum).ok
            glued = glue(datum)
            iso = find_isomorphism(glued, m, seed=k)
            ok = ok and iso is not None and is_isomorphism(iso)
            count += 1
        # a twisted datum must still glue back up to isomorphism
        m = random_valid_module(fan, random.Random(base_seed + 50))
        twisted = twisted_datum(m, random.Random(base_seed + 51))
        glued = glue(twisted)
        iso = find_isomorphism(glued, m)
        ok = ok and iso is not None and is_isomorphism(iso)

    # cocycle violations carry the offending triple
    m = random_valid_module(p2_fan, random.Random(300), summands=2, conjugated=False)
    d = tautological_datum(m)
    bad_maps = {k: dict(v) for k, v in d.glue_maps.items()}
    key = ((0, 1), (0, 2))
    bad_maps[key] = dict(bad_maps[key])
    bad_maps[key][()] = bad_maps[key][()].scale(2)
    rep = check_cocycle(DescentDatum(p2_fan, d.charts, bad_maps))
    witnesses = [f for f in rep.findings if f.code == "cocycle"]
    ok = ok and bool(witnesses)
    ok = ok and any("(0,1)" in f.location and "(0,2)" in f.location and "(1,2)" in f.location for f in witnesses)
    announce(8, f"restrict-then-glue isomorphism on {count} modules plus violation witnesses", ok)
    assert ok


def test_criterion_9_kernel_properties():
    rng = random.Random(13)
    ok = True
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
        u, d, v = snf(m)
        ok = ok and u @ m @ v == d
        ok = ok and abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [d[i, i] for i in range(min(rows, cols))]
        ok = ok and all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            ok = ok and (b % a == 0 if a else b == 0)

    dirs = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 2)]
    for _ in range(500):
        g = LaurentPoly(
            2,
            [
                (
                    (rng.randint(-2, 2), rng.randint(-2, 2)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                )
                for _ in range(3)
            ],
        )
        v = dirs[rng.randrange(len(dirs))]
        ok = ok and divide_by_binomial(binomial(v) * g, v) == g

    q = IntMatrix([[1, -1], [2, 1], [0, 3]])
    for _ in range(200):
        f = LaurentPoly(2, [((rng.randint(-2, 2), rng.randint(-2, 2)), Fraction(rng.randint(-4, 4))) for _ in range(3)])
        g = LaurentPoly(2, [((rng.randint(-2, 2), rng.randint(-2, 2)), Fraction(rng.randint(-4, 4))) for _ in range(3)])
        ok = ok and monomial_map(f * g, q) == monomial_map(f, q) * monomial_map(g, q)
    announce(9, "500 Smith forms, 500 division round trips, 200 monomial maps", ok)
    assert ok
