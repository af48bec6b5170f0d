import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import fanalg
from fanalg import cli, descent, equivariant, serialize
from fanalg.algebra import matrix_unit, random_member
from fanalg.cli import main
from fanalg.descent import tautological_datum, twisted_datum
from fanalg.diagram import DiagramModule, character_module
from fanalg.equivariant import EqDiagramModule, quotient_presentation
from fanalg.fan import standard_fan
from fanalg.laurent import binomial
from fanalg.linalg import QMat

from support import count_calls, find_isomorphism, random_valid_module


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def write_json(path, data):
    path.write_text(json.dumps(data, sort_keys=True, indent=2), encoding="utf-8")
    return str(path)


@pytest.fixture
def p2_file(tmp_path, p2_fan):
    return write_json(tmp_path / "p2.json", serialize.fan_to_data(p2_fan))


class TestFanCommands:
    def test_check_pass(self, p2_file):
        code, out = run(["fan", "check", p2_file])
        assert code == 0 and "SUMMARY: pass" in out

    def test_check_rejects_irregular(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"rank": 2, "rays": [[1, 0], [1, 2]], "max_cones": [[0, 1]]})
        code, out = run(["fan", "check", path])
        assert code == 1 and "SNF" in out

    def test_check_detects_overlap(self, tmp_path):
        path = write_json(
            tmp_path / "overlap.json",
            {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1], [0, 2]]},
        )
        code, out = run(["fan", "check", path])
        assert code == 1 and "common face" in out

    def test_faces(self, p2_file):
        code, out = run(["fan", "faces", p2_file])
        assert code == 0
        assert out.count("covering") == 9
        assert "cone (0,1) dim 2 max" in out

    def test_missing_file_is_input_error(self):
        code, out = run(["fan", "check", "no-such-file.json"])
        assert code == 2 and "input error" in out

    def test_large_rank_accepted_with_warning(self, tmp_path):
        fan = standard_fan(5)
        path = write_json(tmp_path / "big.json", serialize.fan_to_data(fan))
        code, out = run(["fan", "check", path])
        assert code == 0
        assert "not fully verified" in out


class TestAlgebraCommands:
    def test_member_pass_and_fail(self, tmp_path, p2_fan, p2_file):
        x = matrix_unit(p2_fan, (0, 1), (0,), binomial((0, 1)))
        good = write_json(tmp_path / "x.json", serialize.element_to_data(x, fan_data="p2.json"))
        code, out = run(["alg", "member", p2_file, good])
        assert code == 0
        bad_data = serialize.element_to_data(x, fan_data="p2.json")
        bad_data["entries"][0]["poly"] = [{"c": "1", "e": [0, 0]}]
        bad = write_json(tmp_path / "bad.json", bad_data)
        code, out = run(["alg", "member", p2_file, bad])
        assert code == 1 and "membership" in out and "(0,1)x(0)" in out

    def test_mul_writes_product(self, tmp_path, p2_fan, p2_file):
        rng = random.Random(0)
        a = random_member(p2_fan, rng)
        b = random_member(p2_fan, rng)
        fa = write_json(tmp_path / "a.json", serialize.element_to_data(a))
        fb = write_json(tmp_path / "b.json", serialize.element_to_data(b))
        out_path = tmp_path / "prod.json"
        code, _ = run(["alg", "mul", p2_file, fa, fb, "-o", str(out_path)])
        assert code == 0
        prod = serialize.element_from_data(json.loads(out_path.read_text()), p2_fan)
        assert prod == a * b

    def test_mudelta(self, p2_file):
        code, out = run(["--trials", "5", "alg", "mudelta", p2_file])
        assert code == 0
        assert "checked 45 members over 9 ordered maximal cone pairs" in out

    def test_mudelta_trailing_flags(self, p2_file):
        code, out = run(["alg", "mudelta", p2_file, "--trials", "2", "--seed", "5"])
        assert code == 0
        assert "checked 18 members" in out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_trial_count_below_one_is_an_input_error(self, tmp_path, p2_fan, p2_file, count, capsys):
        # a check that ran no trial used to pass, having checked nothing
        module = write_json(tmp_path / "m.json", serialize.module_to_data(character_module(p2_fan, (Fraction(2), Fraction(3)))))
        for argv in (
            ["--trials", count, "mod", "repcheck", module],
            ["mod", "repcheck", module, "--trials", count],
            ["--trials", count, "alg", "mudelta", p2_file],
            ["alg", "mudelta", p2_file, "--trials", count],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and f"--trials: must be at least 1, got {count}" in captured.err

    def test_mul_rejects_non_member_input(self, tmp_path, p2_fan, p2_file):
        # checked where it enters, even though its product with zero is a member
        bad = {"fan": "p2.json", "entries": [{"row": "0,1", "col": "0", "poly": [{"c": "1", "e": [0, 0]}]}]}
        fb = write_json(tmp_path / "bad.json", bad)
        zero = write_json(tmp_path / "zero.json", {"fan": "p2.json", "entries": []})
        code, out = run(["alg", "mul", p2_file, fb, zero, "-o", str(tmp_path / "out.json")])
        assert code == 2 and "not a member" in out

    @pytest.mark.parametrize("order", ["divisible_last", "constant_last"])
    def test_repeated_cone_pair_is_an_input_error(self, tmp_path, p2_file, order):
        # the verdict used to follow whichever record came last: exit 0 or 1
        records = [
            {"row": "0", "col": "", "poly": [{"c": "1", "e": [1, 0]}, {"c": "-1", "e": [0, 0]}]},
            {"row": "0", "col": "", "poly": [{"c": "1", "e": [0, 0]}]},
        ]
        if order == "divisible_last":
            records.reverse()
        element = write_json(tmp_path / "x.json", {"fan": "p2.json", "entries": records})
        env = dict(os.environ, PYTHONPATH=str(Path(fanalg.__file__).parents[1]))
        argv = [sys.executable, "-m", "fanalg.cli", "alg", "member", p2_file, element]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2, (proc.stdout, proc.stderr)
        assert proc.stdout.splitlines()[0] == "ERROR\tinput\t$.entries[1]: repeated cone pair (0)x()"
        assert "Traceback" not in proc.stderr

    def test_verify_flag_is_gone(self, tmp_path, p2_file, capsys):
        zero = write_json(tmp_path / "zero.json", {"fan": "p2.json", "entries": []})
        with pytest.raises(SystemExit) as exc:
            main(["--verify", "full", "alg", "mul", p2_file, zero, zero])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "fanalg: error:" in err and "Traceback" not in err


class TestModuleCommands:
    def test_validate_and_repcheck(self, tmp_path, p2_fan):
        m = random_valid_module(p2_fan, random.Random(1))
        path = write_json(tmp_path / "m.json", serialize.module_to_data(m))
        code, out = run(["mod", "validate", path])
        assert code == 0 and "SUMMARY: pass" in out
        code, out = run(["--trials", "3", "mod", "repcheck", path])
        assert code == 0 and "checked 3 random element pairs" in out

    def test_singular_torus_matrix_is_an_a1_finding(self, tmp_path, p1_fan):
        m = character_module(p1_fan, (Fraction(2),))
        m = DiagramModule(p1_fan, m.dims, {**m.torus, (): (QMat([[0]]),)}, m.u, m.v)
        path = write_json(tmp_path / "singular.json", serialize.module_to_data(m))
        code, out = run(["mod", "validate", path])
        assert (code, out) == (1, "A1\t\ttorus matrix 1 is singular\nmod validate: SUMMARY: fail (1 finding)\n")

    def test_validate_failure(self, tmp_path, c_fan):
        m = DiagramModule(
            c_fan,
            {(): 1, (0,): 1},
            {(): (QMat([[1]]),), (0,): (QMat([[2]]),)},
            {((), (0,)): QMat([[1]])},
            {((), (0,)): QMat([[1]])},
        )
        path = write_json(tmp_path / "bad.json", serialize.module_to_data(m))
        code, out = run(["mod", "validate", path])
        assert code == 1 and "A4" in out

    def test_relations(self, p2_file):
        code, out = run(["mod", "relations", p2_file])
        assert code == 0
        assert "on V(): M[1] M[2] M[3] = id" in out
        assert "on V(0): N[1] M[1,2] M[1,3] = id" in out

    def test_hom(self, tmp_path, p1_fan):
        m = random_valid_module(p1_fan, random.Random(2))
        pa = write_json(tmp_path / "a.json", serialize.module_to_data(m))
        pb = write_json(tmp_path / "b.json", serialize.module_to_data(m))
        code, out = run(["mod", "hom", pa, pb])
        assert code == 0 and "hom dimension" in out


class TestDescentCommands:
    def test_check_and_glue(self, tmp_path, p2_fan):
        m = random_valid_module(p2_fan, random.Random(3))
        d = twisted_datum(m, random.Random(4))
        path = write_json(tmp_path / "d.json", serialize.descent_to_data(d))
        code, out = run(["desc", "check", path])
        assert code == 0
        out_path = tmp_path / "glued.json"
        code, _ = run(["desc", "glue", path, "-o", str(out_path)])
        assert code == 0
        glued = serialize.module_from_data(json.loads(out_path.read_text()), p2_fan)
        assert find_isomorphism(glued, m) is not None

    def test_glue_checks_cocycle_once(self, tmp_path, p2_fan, monkeypatch):
        m = random_valid_module(p2_fan, random.Random(3))
        path = write_json(tmp_path / "d.json", serialize.descent_to_data(tautological_datum(m)))
        calls = count_calls(monkeypatch, "check_cocycle", descent, cli)
        code, _ = run(["desc", "glue", path, "-o", str(tmp_path / "glued.json")])
        assert code == 0 and len(calls) == 1

    def test_glue_reports_cocycle_failure(self, tmp_path, p2_fan, monkeypatch):
        m = random_valid_module(p2_fan, random.Random(5), summands=2, conjugated=False)
        data = serialize.descent_to_data(tautological_datum(m))
        key = next(iter(data["glue"]))
        rho = next(iter(data["glue"][key]))
        data["glue"][key][rho] = [str(2 * Fraction(x)) for x in data["glue"][key][rho]]
        path = write_json(tmp_path / "bad.json", data)
        code, checked = run(["desc", "check", path])
        assert code == 1
        calls = count_calls(monkeypatch, "check_cocycle", descent, cli)
        out_path = tmp_path / "glued.json"
        code, glued = run(["desc", "glue", path, "-o", str(out_path)])
        assert code == 1 and len(calls) == 1 and not out_path.exists()
        assert glued == checked.replace("desc check:", "desc glue:")
        assert "SUMMARY: fail" in glued

    def test_check_reports_violation(self, tmp_path, p2_fan):
        m = random_valid_module(p2_fan, random.Random(5), summands=2, conjugated=False)
        d = tautological_datum(m)
        data = serialize.descent_to_data(d)
        key = next(iter(data["glue"]))
        rho = next(iter(data["glue"][key]))
        data["glue"][key][rho] = ["2" if x == "1" else x for x in data["glue"][key][rho]]
        path = write_json(tmp_path / "bad.json", data)
        code, out = run(["desc", "check", path])
        assert code == 1


class TestEquivariantCommands:
    def test_present(self, tmp_path):
        path = write_json(tmp_path / "q.json", {"characters": [[2, 0], [0, 3]]})
        code, out = run(["equi", "present", path])
        assert code == 0 and "invariant factors d_i: 1 6" in out

    def test_structure(self, tmp_path, c_fan):
        fan_path = write_json(tmp_path / "c.json", serialize.fan_to_data(c_fan))
        q_path = write_json(tmp_path / "q.json", {"Q": [[2]]})
        code, out = run(["equi", "structure", fan_path, q_path])
        assert code == 0
        assert "f(0|) f(|0) = [t^2 - 1] f(0|0)" in out

    def test_validate_and_inflate(self, tmp_path, c_fan):
        qd = quotient_presentation(q=[[2]])
        m = EqDiagramModule(
            c_fan,
            qd,
            {(): 1, (0,): 1},
            {(): (QMat([[2]]),), (0,): (QMat([[2]]),)},
            {((), (0,)): QMat([[3]])},
            {((), (0,)): QMat([[1]])},
        )
        path = write_json(tmp_path / "eq.json", serialize.eq_module_to_data(m))
        code, out = run(["equi", "validate", path])
        assert code == 0
        out_path = tmp_path / "plain.json"
        code, _ = run(["equi", "inflate", path, "-o", str(out_path)])
        assert code == 0
        plain = serialize.module_from_data(json.loads(out_path.read_text()), c_fan)
        assert plain.torus[()][0] == QMat([[4]])

    def test_inflate_validates_once(self, tmp_path, c_fan, monkeypatch):
        qd = quotient_presentation(q=[[2]])
        m = EqDiagramModule(
            c_fan,
            qd,
            {(): 1, (0,): 1},
            {(): (QMat([[2]]),), (0,): (QMat([[2]]),)},
            {((), (0,)): QMat([[3]])},
            {((), (0,)): QMat([[1]])},
        )
        path = write_json(tmp_path / "eq.json", serialize.eq_module_to_data(m))
        calls = count_calls(monkeypatch, "validate_equivariant", equivariant, cli)
        code, _ = run(["equi", "inflate", path, "-o", str(tmp_path / "plain.json")])
        assert code == 0 and len(calls) == 1

    def test_inflate_rejects_invalid_module(self, tmp_path, c_fan, monkeypatch):
        # the scalar 3 is not a square root of 1 + v u = 4
        qd = quotient_presentation(q=[[2]])
        m = EqDiagramModule(
            c_fan,
            qd,
            {(): 1, (0,): 1},
            {(): (QMat([[3]]),), (0,): (QMat([[3]]),)},
            {((), (0,)): QMat([[3]])},
            {((), (0,)): QMat([[1]])},
        )
        path = write_json(tmp_path / "eq.json", serialize.eq_module_to_data(m))
        code, validated = run(["equi", "validate", path])
        assert code == 1
        calls = count_calls(monkeypatch, "validate_equivariant", equivariant, cli)
        out_path = tmp_path / "plain.json"
        code, inflated = run(["equi", "inflate", path, "-o", str(out_path)])
        assert code == 1 and len(calls) == 1 and not out_path.exists()
        assert inflated == validated.replace("equi validate:", "equi inflate:")


class TestDemos:
    def test_c1(self):
        code, out = run(["demo", "c1"])
        assert code == 0
        assert "s = 1 + vu + uv -> t*1: unit: PASS" in out

    def test_p1(self):
        code, out = run(["demo", "p1"])
        assert code == 0
        assert out.count("rejected with witness") == 4

    def test_dupont(self):
        code, out = run(["demo", "dupont"])
        assert code == 0
        assert "corrected relation: PASS" in out
        assert "Dupont relation" in out and "FAIL" in out


class TestDeterminism:
    def test_byte_stable_reports(self, tmp_path, p2_fan, p2_file):
        m = random_valid_module(p2_fan, random.Random(6))
        path = write_json(tmp_path / "m.json", serialize.module_to_data(m))
        runs = [run(["--trials", "4", "--seed", "11", "mod", "repcheck", path]) for _ in range(2)]
        assert runs[0] == runs[1]
        runs = [run(["--trials", "4", "alg", "mudelta", p2_file]) for _ in range(2)]
        assert runs[0] == runs[1]
        assert run(["demo", "dupont"]) == run(["demo", "dupont"])


class TestMalformedInput:
    FAN = {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
    ENTRY = {"row": "0", "col": "", "poly": [{"c": "1", "e": [1, 0]}]}
    FANS = {
        "$.rays": dict(FAN, rays=5),
        "$.rays[1]": dict(FAN, rays=[[1, 0], 7]),
        "$.rays[0][1]": dict(FAN, rays=[[1, None], [0, 1]]),
        "$.max_cones": dict(FAN, max_cones={"0": [0, 1]}),
        "$.rank": dict(FAN, rank=[2]),
        "$: expected an object": [FAN],
    }
    ELEMENTS = {
        "$: expected an object": [ENTRY],
        "$.entries": {"entries": 5},
        "$.entries[0]": {"entries": [[ENTRY]]},
        "$.entries[0].row": {"entries": [dict(ENTRY, row=0)]},
        "$.entries[0].poly": {"entries": [dict(ENTRY, poly={"c": "1"})]},
        "$.entries[0].poly[0].e": {"entries": [dict(ENTRY, poly=[{"c": "1", "e": 1}])]},
    }

    MODULE = {"fan": FAN, "spaces": {"": 1}}
    MODULES = {
        "$: expected an object": [MODULE],
        "$: missing field 'fan'": {"spaces": {"": 1}},
        "$.fan": dict(MODULE, fan=5),
        "$.spaces": dict(MODULE, spaces=5),
        '$.spaces[""]': dict(MODULE, spaces={"": "1"}),
        '$.spaces[""]: expected a nonnegative integer': dict(MODULE, spaces={"": -1}),
        '$.torus[""]': dict(MODULE, torus={"": 5}),
        '$.torus[""][0]': dict(MODULE, torus={"": [5, ["1"]]}),
        '$.u["0"]': dict(MODULE, u={"0": []}),
        '$.v["0,1|0|"]': dict(MODULE, v={"0,1|0|": []}),
        '$.u["|0"]': dict(MODULE, u={"|0": "1"}),
    }
    DATUM = {"fan": FAN, "charts": {"0,1": {"spaces": {"": 1}}}}
    DATA = {
        "$: expected an object": [DATUM],
        "$: missing field 'charts'": {"fan": FAN},
        "$.charts": dict(DATUM, charts=[]),
        '$.charts["0,1"]': dict(DATUM, charts={"0,1": 5}),
        '$.charts["0,1"].spaces': dict(DATUM, charts={"0,1": {"spaces": 5}}),
        "$.glue": dict(DATUM, glue=[]),
        '$.glue["0,1"]': dict(DATUM, glue={"0,1": {}}),
        '$.glue["0,1|0"]': dict(DATUM, glue={"0,1|0": {}}),
        '$.glue["0,1|0,1"]': dict(DATUM, glue={"0,1|0,1": 5}),
        '$.glue["0,1|0,1"][""]': dict(DATUM, glue={"0,1|0,1": {"": 5}}),
    }
    EQMODULE = dict(MODULE, quotient={"Q": [[1, 0], [0, 1]]})
    EQMODULES = {
        "$: expected an object": [EQMODULE],
        "$: missing field 'quotient'": MODULE,
        "$.quotient": dict(EQMODULE, quotient=5),
        "$.quotient.Q": dict(EQMODULE, quotient={"Q": 5}),
        "$.quotient.Q[0][1]": dict(EQMODULE, quotient={"Q": [[1, None]]}),
        "$.quotient.rank": dict(EQMODULE, quotient={"Q": [], "rank": "2"}),
        "$.quotient.characters[0]": dict(EQMODULE, quotient={"characters": [5]}),
        '$.u["0,1"]': dict(EQMODULE, u={"0,1": []}),
    }

    def test_exit_2_without_traceback(self, tmp_path):
        # a subprocess, so that an uncaught exception would show on stderr
        env = dict(os.environ, PYTHONPATH=str(Path(fanalg.__file__).parents[1]))
        good = write_json(tmp_path / "fan.json", self.FAN)
        cases = [(path, ["fan", "check"], data) for path, data in self.FANS.items()]
        cases += [(path, ["alg", "member", good], data) for path, data in self.ELEMENTS.items()]
        cases += [(path, ["mod", "validate"], data) for path, data in self.MODULES.items()]
        cases += [(path, ["desc", "check"], data) for path, data in self.DATA.items()]
        cases += [(path, ["equi", "validate"], data) for path, data in self.EQMODULES.items()]
        for i, (path, cmd, data) in enumerate(cases):
            argv = [sys.executable, "-m", "fanalg.cli", *cmd, write_json(tmp_path / f"case{i}.json", data)]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 2, (path, proc.stdout, proc.stderr)
            assert "Traceback" not in proc.stderr
            assert proc.stdout.startswith(f"ERROR\tinput\t{path}"), proc.stdout

    NESTED = {
        "$.fan.rays: expected a list, got int": (["mod", "validate"], dict(MODULE, fan=dict(FAN, rays=5))),
        "$.fan.max_cones[0]: expected a list, got int": (["equi", "validate"], dict(EQMODULE, fan=dict(FAN, max_cones=[5]))),
        '$.u["|0"][0]: expected a rational, got NoneType': (["mod", "validate"], dict(MODULE, u={"|0": [None]})),
        '$.torus[""][0][0]: expected a rational, got bool': (["mod", "validate"], dict(MODULE, torus={"": [[True], ["1"]]})),
        '$.torus[""][1][0]: expected a rational, got list': (["mod", "validate"], dict(MODULE, torus={"": [["1"], [["1"]]]})),
        '$.torus[""][0][0]: expected a rational, got dict': (["mod", "validate"], dict(MODULE, torus={"": [[{"p": 1}], ["1"]]})),
        "$.torus[\"\"][0][0]: expected a rational, got '1/x'": (["mod", "validate"], dict(MODULE, torus={"": [["1/x"], ["1"]]})),
        "$.torus[\"\"][1][0]: expected a rational, got '1/0'": (["mod", "validate"], dict(MODULE, torus={"": [["1"], ["1/0"]]})),
        '$.glue["0,1|0,1"][""][0]: expected a rational, got NoneType': (["desc", "check"], dict(DATUM, glue={"0,1|0,1": {"": [None]}})),
        "$.entries[0].poly[0].c: expected a rational, got NoneType": (
            ["alg", "member", None],
            {"entries": [dict(ENTRY, poly=[{"c": None, "e": [1, 0]}])]},
        ),
        "$.entries[0].poly[0]: missing field 'c'": (["alg", "member", None], {"entries": [dict(ENTRY, poly=[{"e": [1, 0]}])]}),
    }

    def test_nested_paths_and_rational_entries(self, tmp_path):
        good = write_json(tmp_path / "fan.json", self.FAN)
        for i, (message, (cmd, data)) in enumerate(self.NESTED.items()):
            argv = [good if arg is None else arg for arg in cmd] + [write_json(tmp_path / f"case{i}.json", data)]
            code, out = run(argv)
            assert code == 2 and out.splitlines()[0] == f"ERROR\tinput\t{message}", out

