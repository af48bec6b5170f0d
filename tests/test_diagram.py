import random
from fractions import Fraction

import pytest

from fanalg import diagram
from fanalg.algebra import central, matrix_unit, random_member, required_divisor, unit
from fanalg.descent import glue, restrict, tautological_datum
from fanalg.diagram import (
    DiagramModule,
    character_module,
    conjugate,
    direct_sum,
    dupont_demo,
    evaluate,
    hom,
    point_module,
    relation_report,
    rep_check,
    tensor_module,
    validate,
)
from fanalg.equivariant import EqDiagramModule, inflate, quotient_presentation
from fanalg.fan import standard_fan
from fanalg.laurent import LaurentPoly, binomial
from fanalg.linalg import QMat, random_invertible
from fanalg.report import Report

from conftest import module_zoo, random_one_ray
from support import check_relations, evaluate_by_entries, find_isomorphism, identity_map, is_isomorphism, is_morphism, one_ray_module, random_valid_module


def simple_c_module():
    return one_ray_module(QMat([[1]]), QMat([[1]]))


class TestValidate:
    def test_point_module(self, p2_fan):
        m = point_module(p2_fan, (0, 1))
        assert validate(m).ok
        assert m.torus[(0, 1)][0].is_identity()

    def test_one_ray_module(self):
        m = simple_c_module()
        assert validate(m).ok
        assert m.torus[()][0] == QMat([[2]])

    def test_broken_monodromy(self, c_fan):
        m = DiagramModule(
            c_fan,
            {(): 1, (0,): 1},
            {(): (QMat([[1]]),), (0,): (QMat([[2]]),)},
            {((), (0,)): QMat([[1]])},
            {((), (0,)): QMat([[1]])},
        )
        rep = validate(m)
        assert not rep.ok
        assert any(f.code == "A4" for f in rep.findings)

    def test_singular_id_plus_vu_fails_a4_and_its_guard(self, c_fan):
        # id + v u = 0: A4 fails on both sides, so the guard tests both for invertibility
        m = DiagramModule(
            c_fan,
            {(): 1, (0,): 1},
            {(): (QMat([[2]]),), (0,): (QMat([[2]]),)},
            {((), (0,)): QMat([[-1]])},
            {((), (0,)): QMat([[1]])},
        )
        assert validate(m).render().splitlines() == [
            "A4\t()<(0)\tmonodromy of the new ray is not id + v u on the lower cone",
            "A4\t()<(0)\tmonodromy of the new ray is not id + u v on the upper cone",
            "A4-inv\t()<(0)\tid + v u or id + u v is singular",
            "SUMMARY: fail (3 findings)",
        ]

    def test_a_square_through_a_zero_space_is_compared(self, c2_fan):
        # u is 1 on ()<(1)<(0,1) but passes through V(0) = 0 the other way round,
        # so one side of the u square is a product over a zero-dimensional middle space
        one = QMat([[1]])
        m = DiagramModule(
            c2_fan,
            {(): 1, (0,): 0, (1,): 1, (0, 1): 1},
            {},
            {((), (1,)): one, ((1,), (0, 1)): one},
            {},
        )
        assert validate(m).render().splitlines() == [
            "A3\tsquare ()<(0,1)\tu square does not commute",
            "SUMMARY: fail (1 finding)",
        ]

    def test_dim_reported_separately(self, c_fan):
        m = DiagramModule(
            c_fan,
            {(): 1, (0,): 1},
            {(): (QMat([[1]]),), (0,): (QMat([[1]]),)},
            {((), (0,)): QMat([[1, 1]])},
            {},
        )
        rep = validate(m)
        assert {f.code for f in rep.findings} == {"dim"}

    def test_singular_torus_matrix(self, c_fan):
        m = DiagramModule(
            c_fan,
            {(): 1, (0,): 0},
            {(): (QMat([[0]]),), (0,): ()},
            {},
            {},
        )
        m2 = DiagramModule(c_fan, m.dims, {(): (QMat([[0]]),), (0,): (QMat.zero(0, 0),)}, {}, {})
        rep = validate(m2)
        assert any(f.code == "A1" for f in rep.findings)

    def test_torus_matrices_that_do_not_commute(self, c2_fan):
        # on a plane, two invertible shears that do not commute; a line has
        # scalars only, which commute
        dims = {c: 2 if c == () else 0 for c in c2_fan.cones}
        shears = (QMat([[1, 1], [0, 1]]), QMat([[1, 0], [1, 1]]))
        m = DiagramModule(c2_fan, dims, {(): shears}, {}, {})
        assert "A1\t\ttorus matrices 1 and 2 do not commute" in [f.line() for f in validate(m).findings]
        m = DiagramModule(c2_fan, dims, {(): (shears[0], shears[0] @ shears[0])}, {}, {})
        assert not any(f.code == "A1" for f in validate(m).findings)

    def test_an_arrow_that_does_not_commute_with_one_torus_matrix_of_both_cones(self, c_fan):
        # the two planes have the same torus matrix, which u does not
        # intertwine; only on two lines does one scalar intertwine every arrow
        t = QMat([[2, 0], [0, 3]])
        m = DiagramModule(c_fan, {(): 2, (0,): 2}, {(): (t,), (0,): (t,)}, {((), (0,)): QMat([[0, 1], [0, 0]])}, {})
        a2 = [f.detail for f in validate(m).findings if f.code == "A2"]
        assert a2 == ["u does not intertwine torus matrix 1"]

    def test_singular_torus_matrix_stops_before_a4(self, p1_fan):
        # A4 inverts the zero-cone torus matrix for the ray (-1,)
        m = character_module(p1_fan, (Fraction(2),))
        m = DiagramModule(p1_fan, m.dims, {**m.torus, (): (QMat([[0]]),)}, m.u, m.v)
        rep = validate(m)
        assert [f.line() for f in rep.findings] == ["A1\t\ttorus matrix 1 is singular"]

    def test_zoo_validity(self, c_fan, c2_fan, p1_fan, p2_fan):
        rng = random.Random(0)
        for fan in (c_fan, c2_fan, p1_fan, p2_fan):
            for m in module_zoo(fan, rng):
                assert validate(m).ok


class TestEvaluate:
    def test_unit_is_identity(self, p2_fan):
        m = random_valid_module(p2_fan, random.Random(1))
        assert evaluate(unit(p2_fan), m).is_identity()

    def test_generator_image(self, c_fan):
        m = simple_c_module()
        img = evaluate(matrix_unit(c_fan, (0,), (), binomial((1,))), m)
        assert img == QMat([[0, 0], [1, 0]])

    def test_central_scalar(self, c_fan):
        m = simple_c_module()
        img = evaluate(central(c_fan, LaurentPoly.monomial((1,))), m)
        assert img == QMat([[2, 0], [0, 2]])

    def test_idempotent_is_projection(self, p2_fan):
        from fanalg.algebra import idempotent

        m = random_valid_module(p2_fan, random.Random(3))
        e = idempotent(p2_fan, (0, 1))
        img = evaluate(e, m)
        assert img @ img == img
        offs = m.offsets()
        covered = set()
        for rho in p2_fan.subfan((0, 1)).cone_list():
            covered.update(range(offs[rho], offs[rho] + m.dims[rho]))
        for i in range(m.total_dim()):
            assert img[i, i] == (1 if i in covered else 0)

    def test_linear(self, p1_fan):
        m = random_valid_module(p1_fan, random.Random(4))
        rng = random.Random(5)
        a = random_member(p1_fan, rng)
        b = random_member(p1_fan, rng)
        assert evaluate(a + b, m) == evaluate(a, m) + evaluate(b, m)

    def test_chain_choice_irrelevant(self, p2_fan):
        m = random_valid_module(p2_fan, random.Random(6))
        x = random_member(p2_fan, random.Random(7))
        base = evaluate(x, m)
        for seed in range(3):
            assert evaluate_by_entries(x, m, random.Random(seed)) == base

    @pytest.mark.parametrize("seed", range(3))
    def test_multiplicative_on_wide_members(self, seed, c2_fan, p1_fan):
        # larger exponents and denser support than the default sampler uses
        for fan in (c2_fan, p1_fan):
            m = random_valid_module(fan, random.Random(40 + seed))
            rng = random.Random(50 + seed)
            a = random_member(fan, rng, density_pct=70, terms=3, emax=2)
            b = random_member(fan, rng, density_pct=70, terms=3, emax=2)
            assert evaluate(a * b, m) == evaluate(a, m) @ evaluate(b, m)

    def test_fan_mismatch(self, c_fan, p1_fan):
        with pytest.raises(ValueError, match="fan mismatch"):
            evaluate(unit(p1_fan), simple_c_module())

    def test_non_member_rejected(self, c_fan):
        # evaluate reads the quotients, so a non-member must fail before it
        from fanalg.algebra import AlgebraElement

        with pytest.raises(ValueError, match="not a member"):
            AlgebraElement(c_fan, {((0,), ()): LaurentPoly.one(1)})


class TestRepCheck:
    def test_one_ray(self):
        assert rep_check(simple_c_module(), trials=30).ok

    def test_point_module(self, p2_fan):
        assert rep_check(point_module(p2_fan, (0, 1)), trials=30).ok

    def test_invalid_module_rejected(self, c_fan):
        m = DiagramModule(
            c_fan,
            {(): 1, (0,): 1},
            {(): (QMat([[1]]),), (0,): (QMat([[2]]),)},
            {((), (0,)): QMat([[1]])},
            {((), (0,)): QMat([[1]])},
        )
        with pytest.raises(ValueError, match="invalid module"):
            rep_check(m)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_no_trial_is_an_error(self, trials):
        # a check that ran no trial would pass having checked nothing
        with pytest.raises(ValueError, match="at least 1 trial"):
            rep_check(simple_c_module(), trials=trials)

    def test_result_is_a_report(self, p2_fan):
        out = rep_check(point_module(p2_fan, (0, 1)), trials=3)
        assert isinstance(out, Report) and out.ok
        assert (out.trials, out.failure, out.skipped) == (3, None, [])

    def test_first_failing_trial_is_the_finding(self, c_fan, monkeypatch):
        # an evaluation that is not multiplicative: the k-th image gives k * id
        # in blocks; the images of a, of b and of the product built from its
        # terms are all taken by `_images`, so the first trial fails whatever
        # order they are taken in
        calls = iter(range(1, 1000))

        def scaled_identity(m, sums):
            k = next(calls)
            return {(c, c): (k, 1) for c in m.fan.cones}

        monkeypatch.setattr(diagram, "_images", scaled_identity)
        out = rep_check(simple_c_module(), trials=5)
        assert not out.ok and out.trials == 1
        assert [(f.code, f.location) for f in out.findings] == [("repcheck", "module")]
        assert out.failure.startswith("trial 0: evaluate(a*b) != evaluate(a) @ evaluate(b)")


class TestModuleCaches:
    def test_corrupted_copy_of_an_evaluated_module_is_rejected(self, p2_fan):
        rng = random.Random(6)
        chars = [character_module(p2_fan, (Fraction(2), Fraction(3))), character_module(p2_fan, (Fraction(-1), Fraction(1, 2)))]
        m = conjugate(direct_sum(*chars), {c: random_invertible(2, rng) for c in p2_fan.cones})
        assert rep_check(m, trials=3).ok  # fills the caches of m
        key = next(k for k in sorted(m.u) if not (m.v[k] @ m.u[k]).is_zero())
        tau, sigma = key
        x = matrix_unit(p2_fan, sigma, tau, required_divisor(p2_fan, sigma, tau))  # evaluates to the u arrow
        before = evaluate(x, m)
        u = dict(m.u)
        u[key] = u[key].scale(2)
        bad = DiagramModule(m.fan, m.dims, m.torus, u, m.v)
        assert evaluate(x, bad) == before.scale(2) != before
        with pytest.raises(ValueError, match="invalid module"):
            rep_check(bad, trials=3)

    def test_derived_modules_start_with_an_empty_monodromy_table(self, p2_fan):
        rng = random.Random(4)
        m = random_valid_module(p2_fan, rng, summands=2)
        eq = EqDiagramModule(p2_fan, quotient_presentation(q=[[1, 0], [0, 1]]), m.dims, m.torus, m.u, m.v)
        d = tautological_datum(m)
        warm = (m, eq, *d.charts.values())
        for n in warm:
            evaluate(random_member(n.fan, rng, density_pct=100), n)
        assert rep_check(m, trials=5).ok  # fills the table of cofactors s(D) too
        assert all(n._monodromies for n in warm) and m._cofactors  # each module's own tables
        copy = DiagramModule(m.fan, m.dims, m.torus, m.u, m.v)
        derived = [
            conjugate(m, {c: random_invertible(m.dims[c], rng) for c in p2_fan.cones}),
            direct_sum(m, m),
            restrict(m, p2_fan.maximal[0]),
            glue(d),
            inflate(eq),
            copy,
        ]
        assert [(n._monodromies, n._cofactors) for n in derived] == [({}, {})] * len(derived)
        assert copy == m and copy._monodromies != m._monodromies  # == ignores the tables

    def test_a_module_of_1_dimensional_spaces_keeps_integer_monodromies(self, p2_fan, monkeypatch):
        # a 1-dimensional space reads each monodromy as an integer pair from
        # the module's table, and never builds the monodromy matrix
        m = character_module(p2_fan, [2, "-1/3"])
        assert validate(m).ok

        def forbidden(*args):
            raise AssertionError("a 1-dimensional space built a monodromy matrix")

        monkeypatch.setattr(DiagramModule, "monodromy", forbidden)
        assert rep_check(m, trials=20).ok
        evaluate(random_member(p2_fan, random.Random(5), density_pct=100, terms=3, emax=2), m)
        monkeypatch.undo()
        assert m._monodromies
        for (cone, w), (num, den) in m._monodromies.items():
            assert type(num) is type(den) is int and den > 0
            assert QMat([[Fraction(num, den)]]) == m.monodromy(cone, w)

    def test_module_data_is_read_only(self, p2_fan):
        m = point_module(p2_fan, (0, 1))
        for mapping in (m.dims, m.torus, m.u, m.v):
            with pytest.raises(TypeError):
                mapping[()] = None


class TestRelations:
    def test_projective_plane_structure(self, p2_fan):
        report = relation_report(p2_fan)
        by_cone = {e.cone: e for e in report.entries}
        zero = by_cone[()]
        assert [op.label for op in zero.ops] == ["M[1]", "M[2]", "M[3]"]
        assert zero.relations == ((1, 1, 1),)
        for i in range(3):
            entry = by_cone[(i,)]
            labels = [op.label for op in entry.ops]
            assert labels[0] == f"N[{i + 1}]"
            assert all(lab.startswith("M[") for lab in labels[1:])
            assert entry.relations == ((1, 1, 1),)
        for c in by_cone:
            if len(c) == 2:
                assert by_cone[c].relations == ()

    def test_affine_fans_have_no_relations(self, c2_fan):
        report = relation_report(c2_fan)
        assert all(e.relations == () for e in report.entries)

    def test_relations_hold_on_modules(self, p2_fan, p1_fan):
        rng = random.Random(8)
        for fan in (p1_fan, p2_fan):
            for m in module_zoo(fan, rng):
                assert check_relations(m).ok

    def test_hirzebruch_relations_hold(self, f1_fan):
        rng = random.Random(9)
        m = random_valid_module(f1_fan, rng)
        assert check_relations(m).ok


class TestDupont:
    def test_outcome(self):
        out = dupont_demo(seed=0)
        assert out.ok
        assert validate(out.module).ok
        assert not out.n1.is_identity()
        assert not out.module.u[((), (0,))].is_zero()
        assert not out.module.v[((), (0,))].is_zero()
        assert "corrected relation: PASS" in out.render()
        assert "Dupont relation" in out.render() and "FAIL" in out.render()

    def test_seed_stability(self):
        assert dupont_demo(seed=0).module == dupont_demo(seed=0).module


class TestHom:
    def test_contains_identity(self, p2_fan):
        m = random_valid_module(p2_fan, random.Random(10))
        dim, basis = hom(m, m)
        assert dim >= 1
        assert all(is_morphism(f) for f in basis)
        assert find_isomorphism(m, m) is not None
        assert is_morphism(identity_map(m))

    def test_disjoint_point_modules(self, p2_fan):
        a = point_module(p2_fan, (0, 1))
        b = point_module(p2_fan, (1, 2))
        assert hom(a, b)[0] == 0

    def test_disjoint_supports_on_one_ray_fan(self, c_fan):
        sheaf = point_module(c_fan, ())
        point = point_module(c_fan, (0,))
        assert hom(sheaf, point)[0] == 0

    def test_fan_mismatch(self, c_fan, p1_fan):
        with pytest.raises(ValueError, match="fan mismatch"):
            hom(point_module(c_fan, ()), point_module(p1_fan, ()))

    def test_conjugation_gives_isomorphism(self, p1_fan):
        m = random_valid_module(p1_fan, random.Random(11))
        rng = random.Random(12)
        g = {c: random_invertible(m.dims[c], rng) for c in p1_fan.cones}
        m2 = conjugate(m, g)
        iso = find_isomorphism(m, m2)
        assert iso is not None and is_isomorphism(iso) and is_morphism(iso)

    def test_endomorphisms_of_a_double_sum(self, p2_fan):
        # both summands have scalar endomorphisms only, so End is 2x2 matrices
        for part in (point_module(p2_fan, (0, 1)), character_module(p2_fan, (Fraction(2), Fraction(3)))):
            double = direct_sum(part, part)
            assert hom(double, double)[0] == 4
            assert hom(part, double)[0] == 2

    def test_no_maps_between_distinct_characters(self, p2_fan):
        a = character_module(p2_fan, (Fraction(2), Fraction(3)))
        b = character_module(p2_fan, (Fraction(5), Fraction(3)))
        assert hom(a, b)[0] == 0


class TestConstructors:
    def test_direct_sum_dims(self, p2_fan):
        a = point_module(p2_fan, (0, 1))
        b = character_module(p2_fan, (Fraction(2), Fraction(3)))
        s = direct_sum(a, b)
        assert validate(s).ok
        assert all(s.dims[c] == a.dims[c] + b.dims[c] for c in p2_fan.cones)

    def test_direct_sum_with_zero(self, p2_fan):
        zero = DiagramModule(p2_fan, {}, {}, {}, {})
        m = character_module(p2_fan, (Fraction(2), Fraction(3)))
        assert direct_sum(m, zero) == m

    def test_tensor_of_one_ray_modules(self):
        rng = random.Random(13)
        t = tensor_module(random_one_ray(rng, 1, 2), random_one_ray(rng, 2, 1))
        assert t.fan == standard_fan(2)
        assert validate(t).ok
        assert rep_check(t, trials=15).ok

    def test_point_module_char_constraint(self, p2_fan):
        with pytest.raises(ValueError, match="scalars do not fix"):
            point_module(p2_fan, (0,), char=(Fraction(2), Fraction(1)))
        # on a complete fan every adjacent ray is constrained too
        with pytest.raises(ValueError, match="scalars do not fix"):
            point_module(p2_fan, (0,), char=(Fraction(1), Fraction(5)))
        # a chart with a free torus direction admits nontrivial scalars
        half_fan = standard_fan(2, k=1)
        m = point_module(half_fan, (0,), char=(Fraction(1), Fraction(5)))
        assert validate(m).ok

    def test_one_ray_module_requires_invertibility(self):
        with pytest.raises(ValueError, match="invertible"):
            one_ray_module(QMat([[1]]), QMat([[-1]]))

    def test_negative_ray_chart(self):
        from fanalg.fan import build_fan

        cneg = build_fan(1, [(-1,)], [(0,)])
        m = one_ray_module(QMat([[1]]), QMat([[1]]), fan=cneg)
        assert validate(m).ok
        assert m.torus[()][0] == QMat([[Fraction(1, 2)]])
