import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fanalg.algebra import (
    AlgebraElement,
    central,
    covering_chain,
    delta,
    factorize,
    generators,
    idempotent,
    matrix_unit,
    membership_report,
    mu,
    random_member,
    required_divisor,
    transport,
    unit,
)
from fanalg.fan import build_fan, hirzebruch_fan, product_fan, projective_line_fan, projective_plane_fan, standard_fan
from fanalg.laurent import LaurentPoly, binomial
from fanalg.lattice import IntMatrix

from support import expand, left_factor, right_factor, shuffled_chain


class TestMembership:
    def test_projective_line_pattern(self, p1_fan):
        entries = {}
        for sigma in p1_fan.cone_list():
            for tau in p1_fan.cone_list():
                entries[(sigma, tau)] = required_divisor(p1_fan, sigma, tau)
        assert membership_report(p1_fan, entries).ok

    def test_projective_line_constrained_slots(self, p1_fan):
        # exactly the four off-corner slots carry a forced divisor
        one = LaurentPoly.one(1)
        constrained = {
            (sigma, tau)
            for sigma in p1_fan.cone_list()
            for tau in p1_fan.cone_list()
            if required_divisor(p1_fan, sigma, tau) != one
        }
        assert constrained == {((0,), ()), ((0,), (1,)), ((1,), ()), ((1,), (0,))}
        for slot in constrained:
            rep = membership_report(p1_fan, {slot: one})
            assert not rep.ok
            assert f"({','.join(str(i) for i in slot[0])})" in rep.findings[0].location

    def test_one_ray_fan_bad_slot(self, c_fan):
        rep = membership_report(c_fan, {((0,), ()): LaurentPoly.one(1)})
        assert not rep.ok

    def test_zero_matrix(self, p1_fan):
        assert membership_report(p1_fan, {}).ok

    def test_malformed_cone_keys(self, c_fan):
        with pytest.raises(ValueError, match="malformed cone keys"):
            membership_report(c_fan, {((5,), ()): LaurentPoly.one(1)})


class TestArithmetic:
    def test_idempotent(self, p2_fan):
        e = idempotent(p2_fan, (0, 1))
        assert e * e == e
        assert len(e.entries) == 4

    def test_matrix_unit_products(self, c_fan):
        a = matrix_unit(c_fan, (0,), (), binomial((1,)))
        b = matrix_unit(c_fan, (), (0,))
        assert a * b == matrix_unit(c_fan, (0,), (0,), binomial((1,)))
        assert b * a == matrix_unit(c_fan, (), (), binomial((1,)))

    def test_unit_pattern(self, p2_fan):
        one = unit(p2_fan)
        assert len(one.entries) == 7
        assert all(sigma == tau for sigma, tau in one.entries)
        assert one * one == one

    def test_membership_enforced_on_construction(self, c_fan):
        with pytest.raises(ValueError, match="not a member"):
            matrix_unit(c_fan, (0,), (), 1)

    def test_keys_naming_one_cone_pair_twice_are_rejected(self, p2_fan):
        # (1, 0) and (0, 1) both sort to the cone (0,1)
        one = LaurentPoly.one(2)
        with pytest.raises(ValueError, match=r"repeated cone pair \(0,1\)x\(0,1\)"):
            AlgebraElement(p2_fan, {((1, 0), (0, 1)): one, ((0, 1), (0, 1)): one})

    def test_entries_are_the_divisors_times_the_quotients(self, p2_fan):
        y = LaurentPoly(2, {(1, 0): Fraction(2), (0, -1): Fraction(-1)})
        entry = y * binomial((1, 0)) * binomial((0, 1))
        x = matrix_unit(p2_fan, (0, 1), (), entry)
        assert x.quotients == {((0, 1), ()): y}
        assert x.entries == {((0, 1), ()): entry} and x.entry((1, 0), ()) == entry

    def test_fan_mismatch(self, c_fan, p1_fan):
        with pytest.raises(ValueError, match="fan mismatch"):
            unit(c_fan) * unit(p1_fan)

    @pytest.mark.parametrize("fan_name", ["c2_fan", "p1_fan", "p2_fan"])
    def test_closure_on_random_products(self, fan_name, request):
        # closure: products of members are members, though not checked on construction
        fan = request.getfixturevalue(fan_name)
        rng = random.Random(0)
        for _ in range(200):
            a = random_member(fan, rng, density_pct=25)
            b = random_member(fan, rng, density_pct=25)
            assert membership_report(fan, (a * b).entries).ok

    def test_center_commutes(self, p2_fan):
        rng = random.Random(1)
        z = central(p2_fan, LaurentPoly((2), {(1, 0): Fraction(2), (0, -1): Fraction(-1, 3)}))
        for _ in range(20):
            x = random_member(p2_fan, rng)
            assert z * x == x * z

    def test_generators_commute_with_centrals(self, p2_fan):
        gens = generators(p2_fan)
        centrals = [g.element for g in gens if g.kind == "central"]
        for g in gens:
            for z in centrals:
                assert z * g.element == g.element * z


class TestGenerators:
    def test_one_ray_fan_list(self, c_fan):
        gens = generators(c_fan)
        kinds = sorted(g.kind for g in gens)
        assert kinds == ["central", "central", "idempotent", "idempotent", "u", "v"]
        u = next(g for g in gens if g.kind == "u")
        assert u.element == matrix_unit(c_fan, (0,), (), binomial((1,)))
        v = next(g for g in gens if g.kind == "v")
        assert v.element == matrix_unit(c_fan, (), (0,))

    def test_zero_cone_only_fan(self):
        f = standard_fan(2, k=0)
        kinds = [g.kind for g in generators(f)]
        assert "u" not in kinds and "v" not in kinds
        assert kinds.count("idempotent") == 1
        assert kinds.count("central") == 4

    def test_projective_line_counts(self, p1_fan):
        gens = generators(p1_fan)
        kinds = [g.kind for g in gens]
        assert kinds.count("idempotent") == 3
        assert kinds.count("central") == 2
        assert kinds.count("u") == 2
        assert kinds.count("v") == 2


class TestFactorize:
    def test_idempotent_words(self, p2_fan):
        words = factorize(idempotent(p2_fan, (0, 1)))
        assert all(w.u_chain == () and w.v_chain == () for w in words)
        assert all(w.scalar == LaurentPoly.one(2) for w in words)

    def test_scalar_extraction(self, c_fan):
        poly = LaurentPoly(1, {(2,): Fraction(1), (1,): Fraction(-1)})  # t^2 - t = t (t - 1)
        w = factorize(matrix_unit(c_fan, (0,), (), poly))[0]
        assert w.scalar == LaurentPoly.monomial((1,))
        assert len(w.u_chain) == 1

    def test_chain_independence(self, p2_fan):
        f12 = binomial((1, 0)) * binomial((0, 1))
        x = matrix_unit(p2_fan, (0, 1), (), f12)
        (w,) = factorize(x)
        expansions = set()
        for seed in range(4):
            rng = random.Random(seed)
            shuffled = replace(w, u_chain=tuple(shuffled_chain(p2_fan, (), (0, 1), rng)), v_chain=())
            expansions.add(str(expand(shuffled, p2_fan)))
        assert expansions == {str(expand(w, p2_fan))}

    def test_two_u_chains_multiply_equal(self, p2_fan):
        # chain independence as an identity between generator products
        g1 = matrix_unit(p2_fan, (0,), (), binomial((1, 0)))
        g2 = matrix_unit(p2_fan, (0, 1), (0,), binomial((0, 1)))
        h1 = matrix_unit(p2_fan, (1,), (), binomial((0, 1)))
        h2 = matrix_unit(p2_fan, (0, 1), (1,), binomial((1, 0)))
        assert g2 * g1 == h2 * h1

    def test_non_member_rejected(self, c_fan):
        # factorize reads the quotients, so a non-member must fail before it
        with pytest.raises(ValueError, match="not a member"):
            AlgebraElement(c_fan, {((0,), ()): LaurentPoly.one(1)})

    def test_covering_chain_validates(self, p2_fan):
        with pytest.raises(ValueError):
            covering_chain(p2_fan, (0,), (1, 2))


class TestMuDelta:
    def test_diagonal_unit(self, p2_fan):
        x = matrix_unit(p2_fan, (), ())
        w = delta(x, (0, 1), (0, 2))
        assert w.terms == (((), (), LaurentPoly.one(2)),)
        assert mu(w) == x

    def test_displayed_rule(self, p2_fan):
        # alpha = (0,1), beta = (0,): the meet is (0,), so the split is
        # n E(alpha, beta&alpha) (x) E(beta&alpha, beta) with both cones (0,)
        x = matrix_unit(p2_fan, (0, 1), (0,), binomial((0, 1)))
        w = delta(x, (0, 1), (0, 2))
        (alpha, beta, poly), = w.terms
        assert alpha == (0, 1) and beta == (0,)
        assert left_factor(w, 0) == x
        assert right_factor(w, 0) == matrix_unit(p2_fan, (0,), (0,))

    def test_support_violation(self, p2_fan):
        x = matrix_unit(p2_fan, (1, 2), (1, 2))
        with pytest.raises(ValueError, match="support violation"):
            delta(x, (0, 1), (0, 2))

    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_all_cone_pairs(self, seed, c2_fan, p1_fan):
        rng = random.Random(seed)
        for fan in (c2_fan, p1_fan):
            for sigma in fan.cone_list():
                for tau in fan.cone_list():
                    x = random_member(fan, rng, row_cone=sigma, col_cone=tau)
                    assert mu(delta(x, sigma, tau)) == x

    def test_normal_form_fixed_by_split(self, p2_fan):
        # words in the image of the splitting map are re-split to themselves
        rng = random.Random(17)
        for sigma in p2_fan.maximal:
            for tau in p2_fan.maximal:
                w = delta(random_member(p2_fan, rng, row_cone=sigma, col_cone=tau), sigma, tau)
                assert delta(mu(w), sigma, tau) == w


class TestTransport:
    def test_identity(self, p2_fan):
        rng = random.Random(2)
        x = random_member(p2_fan, rng)
        assert transport(x, IntMatrix.identity(2), p2_fan) == x

    def test_flip_chart(self, c_fan):
        cneg = build_fan(1, [(-1,)], [(0,)])
        x = matrix_unit(cneg, (0,), (), binomial((-1,)))
        y = transport(x, IntMatrix([[-1]]), c_fan)
        assert y == matrix_unit(c_fan, (0,), (), binomial((1,)))

    def test_multiplicative(self, c2_fan):
        # rotate the standard cone onto the cone on (0,1),(-1,0)
        target = build_fan(2, [(0, 1), (-1, 0)], [(0, 1)])
        beta = IntMatrix([[0, -1], [1, 0]])
        rng = random.Random(4)
        for _ in range(15):
            a = random_member(c2_fan, rng)
            b = random_member(c2_fan, rng)
            assert transport(a * b, beta, target) == transport(a, beta, target) * transport(b, beta, target)

    def test_bad_map_rejected(self, c2_fan, p2_fan):
        with pytest.raises(ValueError):
            transport(unit(c2_fan), IntMatrix([[1, 1], [0, 1]]), p2_fan)

    def test_non_unimodular_rejected(self, c2_fan):
        with pytest.raises(ValueError, match="unimodular"):
            transport(unit(c2_fan), IntMatrix([[2, 0], [0, 1]]), c2_fan)


class TestOneRayFixture:
    """Generator images on the one-ray fan, under the t - 1 sign convention."""

    def test_relations(self, c_fan):
        e1 = matrix_unit(c_fan, (), ())
        e2 = matrix_unit(c_fan, (0,), (0,))
        u = matrix_unit(c_fan, (0,), (), binomial((1,)))
        v = matrix_unit(c_fan, (), (0,))
        one = unit(c_fan)
        assert e1 + e2 == one
        assert e1 * e1 == e1 and e2 * e2 == e2
        assert e2 * u == u == u * e1
        assert e1 * v == v == v * e2
        s = one + v * u + u * v
        assert s == central(c_fan, LaurentPoly.monomial((1,)))
        assert all(p.is_unit() for p in s.entries.values())
        # the inverse lies in the algebra, so s maps to a unit
        s_inv = central(c_fan, LaurentPoly.monomial((-1,)))
        assert s * s_inv == one


class TestRandomMember:
    # sha256 of the draws below, written with the code that drew through
    # `randint`, `choice` and `subfan`; a faster sampler must draw the same
    # members and leave the generator in the same state
    DRAWS_SHA256 = "536b8b8013bc23423aaf3e315acd9fd871fd601c189f0f18282f2e668d51a25c"

    def test_draws_are_pinned(self):
        p1 = projective_line_fan()
        fans = [standard_fan(1), standard_fan(2), p1, projective_plane_fan(), hirzebruch_fan(1), product_fan(p1, p1),
                product_fan(projective_plane_fan(), p1)]
        h = hashlib.sha256()
        for i, fan in enumerate(fans):
            rng = random.Random(i)
            draws = [random_member(fan, rng) for _ in range(20)]
            draws += [random_member(fan, rng, row_cone=sigma, col_cone=tau, density_pct=100, terms=3, emax=2)
                      for sigma in fan.maximal for tau in fan.maximal]
            for x in draws:
                h.update(repr(sorted((k, sorted(y.num.items()), y.den) for k, y in x.quotients.items())).encode())
            h.update(repr(("next", rng.getrandbits(64))).encode())
        assert h.hexdigest() == self.DRAWS_SHA256
