import random
from fractions import Fraction

import pytest

from fanalg.algebra import cofactor_rays
from fanalg.diagram import validate
from fanalg.equivariant import (
    EqDiagramModule,
    ag_structure,
    associativity_report,
    inflate,
    quotient_presentation,
    validate_equivariant,
)
from fanalg.lattice import IntMatrix
from fanalg.laurent import LaurentPoly, binomial
from fanalg.linalg import QMat

from support import structure_against_algebra


class TestQuotientPresentation:
    def test_cyclic_subgroup(self):
        q = quotient_presentation(characters=[[5]])
        assert q.q == IntMatrix([[5]])
        assert q.d == (5,)

    def test_whole_torus(self):
        q = quotient_presentation(characters=[], rank=2)
        assert q.q.rows == 0 and q.q.cols == 2
        assert q.d == ()

    def test_trivial_subgroup(self):
        q = quotient_presentation(characters=[[1, 0], [0, 1]])
        assert q.q == IntMatrix.identity(2)
        assert q.d == (1, 1)

    def test_direct_matrix(self):
        q = quotient_presentation(q=[[2, 0], [0, 3]])
        assert q.d == (1, 6)
        assert q.row_transform @ q.q @ q.col_transform == IntMatrix([[1, 0], [0, 6]])

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            quotient_presentation(q=[[0]])
        with pytest.raises(ValueError, match="rank-deficient"):
            quotient_presentation(q=[[1, 1], [2, 2]])

    def test_mixed_subgroup_characters(self):
        # subgroup cut out by t1^2 t2^2 = 1: one circle factor and a 2-torsion part
        q = quotient_presentation(characters=[[2, 2]])
        assert q.q.rows == 1
        assert q.d == (2,)
        assert q.q.apply((1, -1)) == (0,)

    def test_smith_presentation_invariants(self):
        q = quotient_presentation(q=[[4, 6], [2, 2]])
        assert len(q.d) == 2 and all(x >= 1 for x in q.d)
        assert q.d[1] % q.d[0] == 0


class TestStructure:
    def test_connected_group_kills_arrows(self, c_fan):
        q = quotient_presentation(characters=[], rank=1)
        s = ag_structure(c_fan, q)
        assert s.constant((0,), (), (0,)).is_zero()
        assert s.constant((), (0,), ()).is_zero()

    def test_cyclic_group_root(self, c_fan):
        for p in (2, 3):
            q = quotient_presentation(q=[[p]])
            s = ag_structure(c_fan, q)
            assert s.constant((0,), (), (0,)) == binomial((p,))

    def test_identity_quotient_matches_plain_algebra(self, c_fan, p1_fan):
        for fan in (c_fan, p1_fan):
            q = quotient_presentation(q=IntMatrix.identity(fan.rank))
            s = ag_structure(fan, q)
            for sigma in fan.cone_list():
                for tau in fan.cone_list():
                    for rho in fan.cone_list():
                        direct = structure_against_algebra(fan, sigma, tau, rho)
                        assert s.constant(sigma, tau, rho) == direct

    def test_structure_rays_formula(self):
        # structure constants read the plain algebra's cofactor rays, tau the
        # middle cone: (sigma&rho minus tau) plus (tau minus sigma|rho)
        assert cofactor_rays((0, 1), (0,), (0, 2)) == ()
        assert cofactor_rays((0, 1), (1,), (1, 2)) == ()
        assert cofactor_rays((0, 1), (0,), (0, 1)) == (1,)
        assert cofactor_rays((0, 1), (), (0, 1)) == (0, 1)
        assert cofactor_rays((0,), (), (0,)) == (0,)
        assert cofactor_rays((), (0,), ()) == (0,)

    def test_associativity_exhaustive_small_fans(self, c_fan, c2_fan, p1_fan, p2_fan):
        for fan in (c_fan, c2_fan, p1_fan, p2_fan):
            for qd in (
                quotient_presentation(q=IntMatrix.identity(fan.rank)),
                quotient_presentation(characters=[], rank=fan.rank),
                quotient_presentation(q=[[2] + [0] * (fan.rank - 1)]),
            ):
                s = ag_structure(fan, qd)
                assert associativity_report(s, samples=None).ok

    def test_mixed_rank_two_quotient(self, c2_fan):
        qd = quotient_presentation(q=[[1, 1], [0, 2]])
        assert qd.d == (1, 2)
        s = ag_structure(c2_fan, qd)
        # monodromy images: column j of Q gives the exponent of the j-th loop
        assert s.constant((0,), (), (0,)) == binomial((1, 0))
        assert s.constant((1,), (), (1,)) == binomial((1, 2))
        assert s.constant((0, 1), (), (0, 1)) == binomial((1, 0)) * binomial((1, 2))

    def test_sampled_associativity_on_larger_fan(self, f1_fan):
        # nine cones: the report samples quadruples
        qd = quotient_presentation(q=[[2, 0], [0, 1]])
        s = ag_structure(f1_fan, qd)
        assert associativity_report(s, samples=150).ok

    def test_sampling_is_recorded_as_a_skip(self, p2_fan, f1_fan):
        qd = quotient_presentation(q=[[1, 2]])
        sampled = associativity_report(ag_structure(f1_fan, qd), samples=20)
        assert sampled.ok and sampled.skipped == ["associativity checked on 20 sampled basis 4-tuples of 6561"]
        assert associativity_report(ag_structure(p2_fan, qd), samples=None).skipped == []

    def test_multiply_in_basis(self, c_fan):
        q = quotient_presentation(q=[[2]])
        s = ag_structure(c_fan, q)
        one = s.unit_element()
        x = {((0,), ()): LaurentPoly.one(1)}
        assert s.multiply(one, x) == x
        assert s.multiply(x, s.unit_element()) == x
        # f(r|0) f(0|r) = (s^2 - 1) f(r|r)
        y = {((), (0,)): LaurentPoly.one(1)}
        assert s.multiply(x, y) == {((0,), (0,)): binomial((2,))}


def eq_module(fan, qd, s_val, u_val, v_val):
    return EqDiagramModule(
        fan,
        qd,
        {(): 1, (0,): 1},
        {(): (QMat([[s_val]]),), (0,): (QMat([[s_val]]),)},
        {((), (0,)): QMat([[u_val]])},
        {((), (0,)): QMat([[v_val]])},
    )


class TestValidateEquivariant:
    @pytest.mark.parametrize("p", [2, 3])
    def test_root_of_monodromy(self, c_fan, p):
        qd = quotient_presentation(q=[[p]])
        # u = 3, v = 1: monodromy 4; valid exactly when s^p = 4
        good = [s for s in (Fraction(2), Fraction(-2)) if s**p == 4]
        for s in good:
            assert validate_equivariant(eq_module(c_fan, qd, s, 3, 1)).ok
        bad = eq_module(c_fan, qd, Fraction(3), 3, 1)
        rep = validate_equivariant(bad)
        assert not rep.ok and any(f.code == "A4" for f in rep.findings)

    def test_connected_group_forces_zero(self, c_fan):
        qd = quotient_presentation(characters=[], rank=1)
        bad = EqDiagramModule(c_fan, qd, {(): 1, (0,): 1}, {(): (), (0,): ()}, {((), (0,)): QMat([[1]])}, {((), (0,)): QMat([[1]])})
        assert not validate_equivariant(bad).ok
        good = EqDiagramModule(c_fan, qd, {(): 1, (0,): 1}, {(): (), (0,): ()}, {((), (0,)): QMat([[0]])}, {((), (0,)): QMat([[0]])})
        assert validate_equivariant(good).ok

    def test_identity_quotient_matches_plain(self, c_fan):
        qd = quotient_presentation(q=IntMatrix.identity(1))
        m = eq_module(c_fan, qd, Fraction(2), 1, 1)
        assert validate_equivariant(m).ok
        plain = inflate(m)
        assert validate(plain).ok
        assert plain.torus[()][0] == QMat([[2]])

    def test_wrong_torus_count_reported(self, c_fan):
        qd = quotient_presentation(characters=[], rank=1)
        m = EqDiagramModule(c_fan, qd, {(): 1, (0,): 1}, {(): (), (0,): ()}, {}, {})
        hacked = EqDiagramModule(
            c_fan, qd, {(): 1, (0,): 1}, {(): (QMat([[1]]),), (0,): ()}, {}, {}
        )
        rep = validate_equivariant(hacked)
        assert any(f.code == "dim" for f in rep.findings)


class TestInflate:
    def test_square_root_composite(self, c_fan):
        qd = quotient_presentation(q=[[2]])
        m = eq_module(c_fan, qd, Fraction(2), 3, 1)
        plain = inflate(m)
        assert validate(plain).ok
        assert plain.torus[()][0] == QMat([[4]])
        assert plain.torus[(0,)][0] == QMat([[4]])

    def test_connected_group_trivial_monodromy(self, c_fan):
        qd = quotient_presentation(characters=[], rank=1)
        m = EqDiagramModule(c_fan, qd, {(): 1, (0,): 1}, {(): (), (0,): ()}, {}, {})
        plain = inflate(m)
        assert plain.torus[()][0].is_identity()
        assert validate(plain).ok

    def test_matrix_case(self, c_fan):
        qd = quotient_presentation(q=[[2]])
        u = QMat.diagonal([3, 1])
        v = QMat.diagonal([1, 0])
        s = QMat.diagonal([2, 1])  # s^2 = id + vu = id + uv = diag(4, 1)
        m = EqDiagramModule(
            c_fan,
            qd,
            {(): 2, (0,): 2},
            {(): (s,), (0,): (s,)},
            {((), (0,)): u},
            {((), (0,)): v},
        )
        rep = validate_equivariant(m)
        assert rep.ok, rep.render()
        plain = inflate(m)
        assert validate(plain).ok
        assert plain.torus[()][0] == QMat.diagonal([4, 1])

    def test_invalid_input_rejected(self, c_fan):
        qd = quotient_presentation(q=[[2]])
        bad = eq_module(c_fan, qd, Fraction(3), 3, 1)
        with pytest.raises(ValueError, match="invalid equivariant module"):
            inflate(bad)

    def test_inflate_random_modules_pass_validate(self, c_fan):
        rng = random.Random(0)
        qd = quotient_presentation(q=[[3]])
        for _ in range(10):
            u = Fraction(rng.randint(1, 4))
            s = Fraction(rng.choice([2, -2, 3]))
            v = (s**3 - 1) / u
            m = eq_module(c_fan, qd, s, u, v)
            assert validate_equivariant(m).ok
            assert validate(inflate(m)).ok
