import random
from fractions import Fraction

import pytest

from fanalg.descent import (
    DescentDatum,
    check_cocycle,
    glue,
    restrict,
    tautological_datum,
    twisted_datum,
)
from fanalg.diagram import (
    DiagramModule,
    character_module,
    point_module,
    validate,
)
from fanalg.fan import projective_line_fan
from fanalg.linalg import QMat

from support import find_isomorphism, glue_from_charts, is_isomorphism, random_valid_module


class TestRestrict:
    def test_point_module_restricts_to_zero(self, p2_fan):
        m = point_module(p2_fan, (0, 1))
        sub = restrict(m, (1, 2))
        assert sub.total_dim() == 0
        assert validate(sub).ok

    def test_single_chart_identity(self, c2_fan):
        m = character_module(c2_fan, (Fraction(2), Fraction(3)))
        assert restrict(m, (0, 1)) == m

    def test_unknown_cone(self, p2_fan):
        with pytest.raises(ValueError, match="unknown cone"):
            restrict(point_module(p2_fan, ()), (0, 1, 2))

    @pytest.mark.parametrize("seed", range(3))
    def test_validity_preserved(self, seed, p2_fan):
        m = random_valid_module(p2_fan, random.Random(seed))
        for sigma in p2_fan.maximal:
            assert validate(restrict(m, sigma)).ok


class TestCocycle:
    def test_tautological_passes(self, p1_fan, p2_fan):
        for fan in (p1_fan, p2_fan):
            m = random_valid_module(fan, random.Random(1))
            assert check_cocycle(tautological_datum(m)).ok

    def test_single_chart_vacuous(self, c2_fan):
        m = character_module(c2_fan, (Fraction(2), Fraction(3)))
        assert check_cocycle(tautological_datum(m)).ok

    def test_scaled_block_detected_with_triple(self, p2_fan):
        m = random_valid_module(p2_fan, random.Random(2), summands=2, conjugated=False)
        d = tautological_datum(m)
        bad_maps = {k: dict(v) for k, v in d.glue_maps.items()}
        key = ((0, 1), (0, 2))
        bad_maps[key] = dict(bad_maps[key])
        bad_maps[key][()] = bad_maps[key][()].scale(2)
        bad = DescentDatum(p2_fan, d.charts, bad_maps)
        rep = check_cocycle(bad)
        assert not rep.ok
        cocycle_findings = [f for f in rep.findings if f.code == "cocycle"]
        assert cocycle_findings
        assert any("(0,1)" in f.location and "(0,2)" in f.location for f in cocycle_findings)

    def test_conjugation_invariance(self, p2_fan):
        # twisting every chart by invertibles leaves the checker satisfied
        m = random_valid_module(p2_fan, random.Random(3))
        for seed in range(3):
            assert check_cocycle(twisted_datum(m, random.Random(seed))).ok


class TestGlue:
    def test_single_chart(self, c2_fan):
        m = character_module(c2_fan, (Fraction(2), Fraction(3)))
        assert glue(tautological_datum(m)) == m

    def test_tautological_round_trip_is_equality(self, p2_fan):
        m = random_valid_module(p2_fan, random.Random(4))
        assert glue(tautological_datum(m)) == m

    def test_twisted_round_trip_up_to_isomorphism(self, p1_fan, p2_fan):
        for fan, seed in ((p1_fan, 5), (p2_fan, 6)):
            m = random_valid_module(fan, random.Random(seed))
            g = glue(twisted_datum(m, random.Random(seed + 1)))
            assert validate(g).ok
            iso = find_isomorphism(g, m)
            assert iso is not None and is_isomorphism(iso)

    def test_chart_choice_independence(self, p2_fan):
        # each cone taken from its greatest containing chart, not its least
        m = random_valid_module(p2_fan, random.Random(7))
        d = twisted_datum(m, random.Random(8))
        greatest = {rho: max(s for s in p2_fan.maximal if set(rho) <= set(s)) for rho in p2_fan.cones}
        assert find_isomorphism(glue(d), glue_from_charts(d, greatest)) is not None

    def test_rejects_cocycle_failure(self, p2_fan):
        m = random_valid_module(p2_fan, random.Random(9), summands=2, conjugated=False)
        d = tautological_datum(m)
        bad_maps = {k: dict(v) for k, v in d.glue_maps.items()}
        key = ((0, 1), (1, 2))
        bad_maps[key] = dict(bad_maps[key])
        bad_maps[key][(1,)] = bad_maps[key][(1,)].scale(3)
        with pytest.raises(ValueError, match="descent datum rejected"):
            glue(DescentDatum(p2_fan, d.charts, bad_maps))

    def test_incompatible_chart_dimensions(self, p1_fan):
        m = random_valid_module(p1_fan, random.Random(10), summands=1, conjugated=False)
        d = tautological_datum(m)
        other = point_module(p1_fan, (1,))
        charts = dict(d.charts)
        charts[(1,)] = restrict(other, (1,))
        bad = DescentDatum(p1_fan, charts, d.glue_maps)
        rep = check_cocycle(bad)
        assert not rep.ok
        with pytest.raises(ValueError):
            glue(bad)


class TestZeroBlocks:
    def test_point_module_round_trip(self, p2_fan):
        m = point_module(p2_fan, (0, 1))
        assert glue(tautological_datum(m)) == m
        g = glue(twisted_datum(m, random.Random(0)))
        iso = find_isomorphism(g, m)
        assert iso is not None and is_isomorphism(iso)

    def test_missing_glue_block_reported(self, p2_fan):
        m = point_module(p2_fan, (0, 1))
        d = tautological_datum(m)
        maps = {k: dict(v) for k, v in d.glue_maps.items()}
        key = ((0, 1), (0, 2))
        maps[key] = dict(maps[key])
        del maps[key][(0,)]
        rep = check_cocycle(DescentDatum(p2_fan, d.charts, maps))
        assert not rep.ok
        assert any(f.code == "glue" and "missing block" in f.detail for f in rep.findings)

    def test_missing_pair_reported(self, p2_fan):
        m = point_module(p2_fan, (0, 1))
        d = tautological_datum(m)
        maps = {k: v for k, v in d.glue_maps.items() if k != ((0, 1), (0, 2))}
        rep = check_cocycle(DescentDatum(p2_fan, d.charts, maps))
        assert not rep.ok
        assert any(f.code == "glue" and "missing gluing map" in f.detail for f in rep.findings)


class TestTwoChartFixture:
    """Two one-ray charts over the complete rank-one fan, glued along the
    torus block: the glued monodromies are forced to be mutually inverse."""

    def build(self):
        p1 = projective_line_fan()
        plus = DiagramModule(
            p1.subfan((0,)),
            {(): 1, (0,): 1},
            {(): (QMat([[2]]),), (0,): (QMat([[2]]),)},
            {((), (0,)): QMat([[1]])},
            {((), (0,)): QMat([[1]])},
        )
        minus = DiagramModule(
            p1.subfan((1,)),
            {(): 1, (1,): 1},
            {(): (QMat([[2]]),), (1,): (QMat([[2]]),)},
            {((), (1,)): QMat([[1]])},
            {((), (1,)): QMat([[Fraction(-1, 2)]])},
        )
        datum = DescentDatum(
            p1,
            {(0,): plus, (1,): minus},
            {((0,), (1,)): {(): QMat.identity(1)}, ((1,), (0,)): {(): QMat.identity(1)}},
        )
        return p1, datum

    def test_charts_valid_and_cocycle(self):
        _, datum = self.build()
        for chart in datum.charts.values():
            assert validate(chart).ok
        assert check_cocycle(datum).ok

    def test_glued_monodromies_inverse(self):
        p1, datum = self.build()
        g = glue(datum)
        assert validate(g).ok
        m_plus = QMat.identity(1) + g.v[((), (0,))] @ g.u[((), (0,))]
        m_minus = QMat.identity(1) + g.v[((), (1,))] @ g.u[((), (1,))]
        assert m_plus == m_minus.inverse()

    def test_mismatched_torus_blocks_fail(self):
        # a chart that carries the inverse scalar cannot glue along the identity
        p1 = projective_line_fan()
        plus = DiagramModule(
            p1.subfan((0,)),
            {(): 1, (0,): 1},
            {(): (QMat([[2]]),), (0,): (QMat([[2]]),)},
            {((), (0,)): QMat([[1]])},
            {((), (0,)): QMat([[1]])},
        )
        minus = DiagramModule(
            p1.subfan((1,)),
            {(): 1, (1,): 1},
            {(): (QMat([[Fraction(1, 2)]]),), (1,): (QMat([[Fraction(1, 2)]]),)},
            {((), (1,)): QMat([[1]])},
            {((), (1,)): QMat([[1]])},
        )
        datum = DescentDatum(
            p1,
            {(0,): plus, (1,): minus},
            {((0,), (1,)): {(): QMat.identity(1)}, ((1,), (0,)): {(): QMat.identity(1)}},
        )
        assert validate(plus).ok and validate(minus).ok
        rep = check_cocycle(datum)
        assert not rep.ok
        assert any(f.code == "intertwine" for f in rep.findings)
