import json
import random
from fractions import Fraction

import pytest

from fanalg import serialize
from fanalg.algebra import random_member
from fanalg.descent import twisted_datum
from fanalg.equivariant import EqDiagramModule, quotient_presentation
from fanalg.laurent import LaurentPoly
from fanalg.linalg import QMat

from support import elementary_divisors, random_valid_module


class TestFanFormat:
    def test_round_trip(self, p2_fan, f1_fan):
        for fan in (p2_fan, f1_fan):
            data = serialize.fan_to_data(fan)
            assert serialize.fan_from_data(data) == fan
            # canonical forms survive a JSON round trip too
            assert serialize.fan_from_data(json.loads(json.dumps(data))) == fan


class TestElementFormat:
    def test_round_trip(self, p2_fan):
        rng = random.Random(0)
        for _ in range(10):
            x = random_member(p2_fan, rng)
            data = serialize.element_to_data(x)
            back = serialize.element_from_data(json.loads(json.dumps(data)), p2_fan)
            assert back == x

    def test_entries_sorted(self, p2_fan):
        x = random_member(p2_fan, random.Random(1))
        data = serialize.element_to_data(x)
        keys = [(rec["row"], rec["col"]) for rec in data["entries"]]
        assert keys == sorted(keys)

    def test_coefficients_accept_integers_floats_and_strings(self, p2_fan):
        poly = [{"c": 4, "e": [0, 1]}, {"c": 0.5, "e": [0, 0]}, {"c": "-2/3", "e": [1, 0]}]
        x = serialize.element_from_data({"entries": [{"row": "", "col": "", "poly": poly}]}, p2_fan)
        assert x.entry((), ()) == LaurentPoly(2, {(0, 1): Fraction(4), (0, 0): Fraction(1, 2), (1, 0): Fraction(-2, 3)})


class TestModuleFormat:
    def test_round_trip(self, p1_fan, p2_fan):
        for fan, seed in ((p1_fan, 2), (p2_fan, 3)):
            m = random_valid_module(fan, random.Random(seed))
            data = serialize.module_to_data(m)
            back = serialize.module_from_data(json.loads(json.dumps(data)), fan)
            assert back == m

    def test_zero_dimensional_blocks(self, p2_fan):
        from fanalg.diagram import point_module

        m = point_module(p2_fan, (0, 1))
        data = serialize.module_to_data(m)
        assert data["spaces"][""] == 0
        back = serialize.module_from_data(json.loads(json.dumps(data)), p2_fan)
        assert back == m

    def test_entries_accept_integers_floats_and_strings(self, c_fan):
        data = {"spaces": {"": 1, "0": 1}, "torus": {"": [[2]], "0": [[0.5]]}, "u": {"|0": ["-3/4"]}, "v": {"0|": ["1.5"]}}
        m = serialize.module_from_data(data, c_fan)
        got = (m.torus[()][0], m.torus[(0,)][0], m.u[((), (0,))], m.v[((), (0,))])
        assert got == (QMat([[2]]), QMat([["1/2"]]), QMat([["-3/4"]]), QMat([["3/2"]]))

    def test_a_bad_entry_is_reported_before_the_entry_count(self, c_fan):
        # u at the pair ()<(0) is 0x1 here, so one entry is one too many
        for entry, message in ((None, '$.u["|0"][0]: expected a rational, got NoneType'), ("1", '$.u["|0"]: a 0x1 matrix cannot have 1 entries')):
            with pytest.raises(ValueError) as err:
                serialize.module_from_data({"spaces": {"": 1, "0": 0}, "u": {"|0": [entry]}}, c_fan)
            assert str(err.value) == message

    def test_matrices_are_rational_strings(self, p1_fan):
        m = random_valid_module(p1_fan, random.Random(4))
        data = serialize.module_to_data(m)
        for key, mats in data["torus"].items():
            for flat in mats:
                assert all(isinstance(x, str) for x in flat)


class TestQuotientFormat:
    def test_matrix_round_trip(self):
        q = quotient_presentation(q=[[2, 0], [1, 3]])
        back = serialize.quotient_from_data(json.loads(json.dumps(serialize.quotient_to_data(q))))
        assert back.q == q.q and elementary_divisors(back.q) == elementary_divisors(q.q) == [1, 6]

    def test_characters_form(self):
        q = serialize.quotient_from_data({"characters": [[4]]})
        assert elementary_divisors(q.q) == [4]

    def test_empty_q_needs_rank(self):
        with pytest.raises(ValueError, match="rank"):
            serialize.quotient_from_data({"Q": []})
        q = serialize.quotient_from_data({"Q": [], "rank": 2})
        assert q.q.rows == 0 and q.q.cols == 2


class TestEqModuleFormat:
    def test_round_trip(self, c_fan):
        qd = quotient_presentation(q=[[2]])
        m = EqDiagramModule(
            c_fan,
            qd,
            {(): 1, (0,): 1},
            {(): (QMat([[2]]),), (0,): (QMat([[2]]),)},
            {((), (0,)): QMat([[3]])},
            {((), (0,)): QMat([[1]])},
        )
        data = serialize.eq_module_to_data(m)
        back = serialize.eq_module_from_data(json.loads(json.dumps(data)), c_fan)
        assert back == m and back.quotient.q == qd.q


class TestDescentFormat:
    def test_round_trip(self, p2_fan):
        m = random_valid_module(p2_fan, random.Random(5))
        d = twisted_datum(m, random.Random(6))
        data = serialize.descent_to_data(d)
        back = serialize.descent_from_data(json.loads(json.dumps(data)), p2_fan)
        assert back.charts == dict(d.charts)
        assert back.glue_maps == {k: dict(v) for k, v in d.glue_maps.items()}


class TestPublicApi:
    def test_all_exports_resolve(self):
        import fanalg

        for name in fanalg.__all__:
            assert getattr(fanalg, name) is not None
