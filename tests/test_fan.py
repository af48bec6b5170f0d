import pytest

from fanalg.fan import (
    build_fan,
    cone_key,
    covering_pairs,
    fan_report,
    hirzebruch_fan,
    parse_cone_key,
    product_fan,
    projective_line_fan,
    projective_plane_fan,
    standard_fan,
)
from fanalg.lattice import IntMatrix
from fanalg.report import Report

from support import chart_normalization, ray_vectors


class TestBuild:
    def test_projective_line(self, p1_fan):
        assert len(p1_fan.cones) == 3
        assert p1_fan.maximal == ((0,), (1,))

    def test_projective_plane(self, p2_fan):
        assert len(p2_fan.cones) == 7
        assert sum(1 for c in p2_fan.cones if len(c) == 1) == 3

    def test_non_regular_rejected(self):
        with pytest.raises(ValueError, match="fails SNF test"):
            build_fan(2, [(1, 0), (1, 2)], [(0, 1)])

    def test_non_primitive_ray_rejected(self):
        with pytest.raises(ValueError, match="not primitive"):
            build_fan(2, [(2, 0)], [(0,)])

    def test_duplicate_rays_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_fan(1, [(1,), (1,)], [(0,)])

    def test_face_closure_idempotent(self, p2_fan):
        again = build_fan(p2_fan.rank, p2_fan.rays, p2_fan.maximal)
        assert again.cones == p2_fan.cones

    def test_zero_cone_only(self):
        f = standard_fan(2, k=0)
        assert f.cones == frozenset({()})
        assert f.maximal == ((),)

    def test_empty_generator_list(self):
        f = build_fan(2, [], [])
        assert f.cones == frozenset({()})
        assert f.maximal == ((),)


class TestIsFan:
    def test_projective_plane(self, p2_fan):
        rep = fan_report(p2_fan)
        assert rep.ok and rep.skipped == []

    def test_single_chart(self, c_fan):
        assert fan_report(c_fan).ok

    def test_overlapping_cones(self):
        # the second cone sits inside the first; regular but not a fan
        bad = build_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
        rep = fan_report(bad)
        assert not rep.ok
        assert rep.findings[0].location == "(0,1)&(0,2)"

    def test_cones_meeting_only_at_origin(self):
        # no shared ray: the cones still meet along a common face (the origin)
        f = build_fan(2, [(1, 0), (0, 1), (1, -1), (0, -1)], [(0, 1), (2, 3)])
        assert fan_report(f).ok

    def test_boundary_overlap_without_shared_ray(self):
        # the ray (1,0) of the first cone pierces the interior of the second
        bad = build_fan(2, [(1, 0), (0, 1), (0, -1), (1, 1)], [(0, 1), (2, 3)])
        rep = fan_report(bad)
        assert not rep.ok and rep.findings[0].location == "(0,1)&(2,3)"

    def test_shared_ray_proper_fan(self):
        f = build_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
        assert fan_report(f).ok

    def test_products(self, p1xp1_fan, f1_fan):
        assert fan_report(p1xp1_fan).ok and fan_report(f1_fan).ok

    def test_large_fan_passes_with_the_skip_recorded(self):
        rep = fan_report(standard_fan(5))
        assert isinstance(rep, Report) and rep.ok and rep.findings == []
        assert rep.skipped == ["pairwise cone intersections not fully verified at this size"]


class TestCoveringPairs:
    def test_projective_line(self, p1_fan):
        assert covering_pairs(p1_fan) == [((), (0,), 0), ((), (1,), 1)]

    def test_projective_plane_count(self, p2_fan):
        pairs = covering_pairs(p2_fan)
        assert len(pairs) == 9
        for tau, sigma, ray in pairs:
            assert set(sigma) - set(tau) == {ray}

    def test_zero_cone_only(self):
        assert covering_pairs(standard_fan(2, k=0)) == []


class TestChartNormalization:
    def test_standard_cone(self, c2_fan):
        assert chart_normalization(c2_fan, (0, 1)) == IntMatrix.identity(2)

    def test_swap(self):
        f = build_fan(2, [(0, 1)], [(0,)])
        beta = chart_normalization(f, (0,))
        assert beta.apply((0, 1)) == (1, 0)
        assert abs(beta.det()) == 1

    def test_slanted_cone(self):
        f = build_fan(2, [(1, 1), (0, 1)], [(0, 1)])
        beta = chart_normalization(f, (0, 1))
        assert beta.apply((1, 1)) == (1, 0)
        assert beta.apply((0, 1)) == (0, 1)

    def test_every_projective_plane_cone(self, p2_fan):
        for c in p2_fan.cone_list():
            beta = chart_normalization(p2_fan, c)
            assert abs(beta.det()) == 1
            for j, v in enumerate(ray_vectors(p2_fan, c)):
                assert beta.apply(v) == tuple(1 if i == j else 0 for i in range(2))


class TestKeysAndSubfans:
    def test_cone_key_round_trip(self, p2_fan):
        for c in p2_fan.cone_list():
            assert parse_cone_key(cone_key(c)) == c
        assert cone_key(()) == ""

    def test_subfan(self, p2_fan):
        sub = p2_fan.subfan((0, 1))
        assert sub.cones == frozenset({(), (0,), (1,), (0, 1)})
        assert sub.maximal == ((0, 1),)

    @pytest.mark.parametrize(
        "fan",
        [standard_fan(1), standard_fan(2), projective_line_fan(), projective_plane_fan(), hirzebruch_fan(1),
         product_fan(projective_line_fan(), projective_line_fan()), product_fan(projective_plane_fan(), projective_line_fan())],
        ids=["C1", "C2", "P1", "P2", "F1", "P1xP1", "P2xP1"],
    )
    def test_faces_are_listed_in_the_order_of_the_subfan(self, fan):
        # readers that only list the faces of a cone use faces_of, which builds no Fan
        for c in fan.cone_list():
            assert fan.faces_of(c) == fan.subfan(c).cone_list()

    def test_unknown_cone(self, p2_fan):
        with pytest.raises(ValueError, match="unknown cone"):
            p2_fan.subfan((0, 1, 2))

    def test_product_fan(self):
        f = product_fan(projective_line_fan(), projective_line_fan())
        assert len(f.cones) == 9
        assert len(f.maximal) == 4
        assert standard_fan(2) == product_fan(standard_fan(1), standard_fan(1))
