import ast
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import fanalg
from fanalg import cli, descent, equivariant, serialize
from fanalg.algebra import matrix_unit, random_member
from fanalg.cli import main
from fanalg.descent import tautological_datum, twisted_datum
from fanalg.diagram import DiagramModule, character_module, conjugate, direct_sum
from fanalg.equivariant import EqDiagramModule, quotient_presentation
from fanalg.fan import projective_plane_fan, standard_fan
from fanalg.lattice import IntMatrix
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

    # arrows of the golden P2 data keyed by a cone pair that is not a covering
    # pair: the swapped key of an arrow, and an arrow that skips a dimension.
    # Neither is an arrow of the module; a reader that dropped them read the
    # swapped arrow as zero (exit 1) and passed the extra one (exit 0).
    OFF_COVER = [
        ("u", "0|0,1", "0,1|0", '"facet|cone", but (0,1) is not a facet of (0)'),
        ("u", None, "|0,1", '"facet|cone", but () is not a facet of (0,1)'),
        ("v", "0,1|0", "0|0,1", '"cone|facet", but (0,1) is not a facet of (0)'),
        ("v", None, "0,1|", '"cone|facet", but () is not a facet of (0,1)'),
    ]

    @pytest.mark.parametrize(("field", "old", "new", "detail"), OFF_COVER)
    @pytest.mark.parametrize("kind", ["mod", "desc"])
    def test_an_arrow_off_a_covering_pair_is_an_input_error(self, tmp_path, kind, field, old, new, detail):
        golden = Path(__file__).parent / "golden"
        data = json.loads((golden / f"{'module' if kind == 'mod' else 'descent'}_p2.json").read_text(encoding="utf-8"))
        data["fan"] = json.loads((golden / data["fan"]).read_text(encoding="utf-8"))
        body, at = (data, "$") if kind == "mod" else (data["charts"]["0,1"], '$.charts["0,1"]')
        arrows, spaces = body[field], body["spaces"]
        arrows[new] = arrows.pop(old) if old else ["0"] * (spaces[""] * spaces["0,1"])
        path = write_json(tmp_path / "x.json", data)
        argv = ["mod", "validate", path] if kind == "mod" else ["desc", "check", path]
        message = f'{at}.{field}["{new}"]: expected a covering pair {detail}'
        assert run(argv) == (2, f"ERROR\tinput\t{message}\nSUMMARY: input error\n")

    def test_an_arrow_key_with_unsorted_rays_is_that_arrow(self, tmp_path):
        golden = Path(__file__).parent / "golden"
        data = json.loads((golden / "module_p2.json").read_text(encoding="utf-8"))
        data["fan"] = json.loads((golden / data["fan"]).read_text(encoding="utf-8"))
        data["u"]["0|1,0"], data["v"]["1,0|0"] = data["u"].pop("0|0,1"), data["v"].pop("0,1|0")
        path = write_json(tmp_path / "x.json", data)
        assert run(["mod", "validate", path]) == (0, "mod validate: SUMMARY: pass\n")

    @pytest.mark.parametrize(("field", "old", "new"), [("u", "|0", "0|"), ("v", "0|", "|0")])
    def test_a_swapped_arrow_of_an_equivariant_module_is_an_input_error(self, tmp_path, field, old, new):
        data = json.loads((Path(__file__).parent / "golden" / "eqmodule_c1.json").read_text(encoding="utf-8"))
        data[field][new] = data[field].pop(old)
        path = write_json(tmp_path / "x.json", data)
        form = '"facet|cone"' if field == "u" else '"cone|facet"'
        message = f'$.{field}["{new}"]: expected a covering pair {form}, but (0) is not a facet of ()'
        assert run(["equi", "validate", path]) == (2, f"ERROR\tinput\t{message}\nSUMMARY: input error\n")

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

    @pytest.mark.parametrize("fan_of_b, builds", [("the same relative path", 1), ("an absolute path", 1), ("an object", 2)])
    def test_hom_builds_a_fan_both_files_name_once(self, tmp_path, monkeypatch, fan_of_b, builds):
        golden = Path(__file__).parent / "golden"
        b = golden / "module_p2_other.json"
        if fan_of_b != "the same relative path":
            data = json.loads(b.read_text(encoding="utf-8"))
            fan_file = golden / data["fan"]
            data["fan"] = str(fan_file) if fan_of_b == "an absolute path" else json.loads(fan_file.read_text(encoding="utf-8"))
            b = write_json(tmp_path / "b.json", data)
        built = count_calls(monkeypatch, "build_fan", serialize)
        code, out = run(["mod", "hom", str(golden / "module_p2.json"), str(b)])
        assert (code, len(built)) == (0, builds)
        assert out == (golden / "mod_hom.stdout").read_text(encoding="utf-8")


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

    # additions to the golden P2 datum that no check reads: a chart on a ray,
    # a gluing map from a chart to itself, and a block on a cone outside the
    # overlap of the two charts
    IGNORED = {
        '$.charts["0"]: expected a maximal cone, got (0)': ("charts", "0", {"spaces": {"": 1, "0": 1}}),
        '$.glue["0,1|0,1"]: glues a chart to itself': (
            "glue", "0,1|0,1", {"": ["7"] * 4, "0": ["7"], "1": ["7"], "0,1": ["7"]},
        ),
        '$.glue["0,1|0,2"]["0,1"]: expected a face of both charts, got (0,1)': ("glue", "0,1|0,2", {"0,1": []}),
    }

    @pytest.mark.parametrize("message", sorted(IGNORED))
    def test_data_that_no_check_reads_is_an_input_error(self, tmp_path, message):
        field, key, value = self.IGNORED[message]
        golden = Path(__file__).parent / "golden"
        data = json.loads((golden / "descent_p2.json").read_text(encoding="utf-8"))
        data["fan"] = json.loads((golden / data["fan"]).read_text(encoding="utf-8"))
        data[field][key] = {**data[field].get(key, {}), **value}
        path = write_json(tmp_path / "d.json", data)
        for argv in (["desc", "check", path], ["desc", "glue", path, "-o", str(tmp_path / "glued.json")]):
            code, out = run(argv)
            assert code == 2 and out.splitlines()[0] == f"ERROR\tinput\t{message}", out[:200]


class TestEquivariantCommands:
    def test_present(self, tmp_path):
        path = write_json(tmp_path / "q.json", {"characters": [[2, 0], [0, 3]]})
        code, out = run(["equi", "present", path])
        assert code == 0 and "invariant factors d_i: 1 6" in out

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="the integer string limit needs Python 3.11")
    def test_present_prints_no_partial_report(self, tmp_path, monkeypatch):
        # a last entry of V past the interpreter's limit for printing an
        # integer: the command fails before it prints any line of its report
        rng = random.Random(20)
        path = write_json(tmp_path / "q.json", {"Q": [[rng.randint(-1024, 1024) for _ in range(20)] for _ in range(20)]})
        real = cli.snf

        def wide_snf(q):
            u, d, v = real(q)
            rows = [list(row) for row in v.entries]
            rows[-1][-1] = 10**700
            return u, d, IntMatrix(rows)

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        monkeypatch.setattr(cli, "snf", wide_snf)
        try:
            code, out = run(["equi", "present", path])
        finally:
            sys.set_int_max_str_digits(limit)
            monkeypatch.undo()
        assert code == 2 and out.startswith("ERROR\tinput\t"), out[:200]
        assert not any(line.startswith("Q ") for line in out.splitlines())
        code, out = run(["equi", "present", path])
        assert code == 0 and out.count("\nQ ") == 20

    @pytest.mark.parametrize(("field", "size"), [("Q", 48), ("characters", 32)])
    def test_present_on_large_random_input(self, tmp_path, field, size):
        # entries up to the coordinate bound: with the smallest entry as each
        # pivot, the transforms of the 48 x 48 Q passed the interpreter's limit
        # for printing an integer, and the 32 x 32 characters did not finish
        rng = random.Random(size)
        path = write_json(tmp_path / "q.json", {field: [[rng.randint(-1024, 1024) for _ in range(size)] for _ in range(size)]})
        env = dict(os.environ, PYTHONPATH=str(Path(fanalg.__file__).parents[1]))
        argv = [sys.executable, "-m", "fanalg.cli", "equi", "present", path]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stdout[:200]
        assert proc.stdout.count("\nQ ") == size
        assert max(len(w.lstrip("-")) for w in proc.stdout.split() if w.lstrip("-").isdigit()) <= 1000

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

    def test_one_parser_per_process_keeps_no_parsed_state(self, p2_file):
        # the parser is built once; flags given to one call must not reach the next
        assert cli.build_parser() is cli.build_parser()
        code, out = run(["alg", "mudelta", p2_file, "--trials", "2", "--seed", "5"])
        assert code == 0 and "checked 18 members" in out
        code, out = run(["alg", "mudelta", p2_file])
        env = dict(os.environ, PYTHONPATH=str(Path(fanalg.__file__).parents[1]))
        argv = [sys.executable, "-m", "fanalg.cli", "alg", "mudelta", p2_file]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert (code, out) == (proc.returncode, proc.stdout)
        assert code == 0 and "checked 900 members" in out


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

    def cases(self, tmp_path):
        good = write_json(tmp_path / "fan.json", self.FAN)
        cases = [(path, ["fan", "check"], data) for path, data in self.FANS.items()]
        cases += [(path, ["alg", "member", good], data) for path, data in self.ELEMENTS.items()]
        cases += [(path, ["mod", "validate"], data) for path, data in self.MODULES.items()]
        cases += [(path, ["desc", "check"], data) for path, data in self.DATA.items()]
        cases += [(path, ["equi", "validate"], data) for path, data in self.EQMODULES.items()]
        return [(path, [*cmd, write_json(tmp_path / f"case{i}.json", data)]) for i, (path, cmd, data) in enumerate(cases)]

    def test_exit_2_without_traceback(self, tmp_path):
        # in process: an exception escaping main would fail the case here
        for path, argv in self.cases(tmp_path):
            try:
                code, out = run(argv)
            except BaseException as e:
                pytest.fail(f"{path}: {e!r} escaped main")
            assert code == 2, (path, out)
            assert out.startswith(f"ERROR\tinput\t{path}"), out

    def test_exit_2_from_the_entry_point(self, tmp_path):
        # a subprocess, so that an uncaught exception would show on stderr
        env = dict(os.environ, PYTHONPATH=str(Path(fanalg.__file__).parents[1]))
        path, argv = self.cases(tmp_path)[0]
        proc = subprocess.run([sys.executable, "-m", "fanalg.cli", *argv], capture_output=True, text=True, env=env, timeout=60)
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


class TestInputBoundary:
    """A file is an input error only where the CLI reads it (`cli._read`), and
    `main` maps every outcome to its exit code once."""

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_an_error_past_the_readers_is_internal(self, monkeypatch, error):
        # a fault of the library is not reported as a bad file
        def broken(m):
            raise error("boom")

        monkeypatch.setattr(cli, "validate", broken)
        code, out = run(["mod", "validate", str(Path(__file__).parent / "golden" / "module_p2.json")])
        detail = str(error("boom"))
        assert (code, out) == (3, f"ERROR\tinternal\t{error.__name__}: {detail}\nSUMMARY: internal error\n")

    def test_an_internal_error_prints_no_traceback(self):
        # a subprocess, so that an escaping exception would show on stderr
        env = dict(os.environ, PYTHONPATH=str(Path(fanalg.__file__).parents[1]))
        code = ("import sys; from fanalg import cli; "
                "cli.validate = lambda m: {}['missing']; sys.exit(cli.main(sys.argv[1:]))")
        golden = Path(__file__).parent / "golden"
        proc = subprocess.run([sys.executable, "-c", code, "mod", "validate", str(golden / "module_p2.json")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3, (proc.stdout, proc.stderr)
        assert proc.stdout == "ERROR\tinternal\tKeyError: 'missing'\nSUMMARY: internal error\n"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("where", ["mod validate", "mod hom", "desc glue -o"])
    def test_a_nul_byte_in_a_path_is_an_input_error(self, tmp_path, where):
        # open raises ValueError on such a path: the fan file a module names,
        # or the file a command writes
        golden = Path(__file__).parent / "golden"
        data = json.loads((golden / "module_p2.json").read_text(encoding="utf-8"))
        bad = write_json(tmp_path / "m.json", dict(data, fan="fan\u0000p2.json"))
        argv = {
            "mod validate": ["mod", "validate", bad],
            "mod hom": ["mod", "hom", bad, str(golden / "module_p2.json")],
            "desc glue -o": ["desc", "glue", str(golden / "descent_p2.json"), "-o", str(tmp_path / "out\u0000.json")],
        }[where]
        assert run(argv) == (2, "ERROR\tinput\tembedded null byte\nSUMMARY: input error\n")

    def test_a_quotient_of_the_wrong_width_is_an_input_error(self, tmp_path, p2_file, monkeypatch):
        # checked by the command before any structure constant is built
        tables = count_calls(monkeypatch, "ag_structure", cli)
        q = write_json(tmp_path / "q.json", {"Q": [[1, 0, 0]]})
        code, out = run(["equi", "structure", p2_file, q])
        assert (code, out) == (2, "ERROR\tinput\tquotient matrix does not act on the fan lattice\nSUMMARY: input error\n")
        assert tables == []

    def test_only_main_maps_outcomes_to_exit_codes(self):
        # no command catches Rejected, InputError or OSError, and no clause catches KeyError
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        caught = {}
        for fn in tree.body:
            for node in ast.walk(fn):
                if isinstance(node, ast.ExceptHandler):
                    names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    for name in names:
                        caught.setdefault(ast.unparse(name), []).append(getattr(fn, "name", None))
        assert {k: v for k, v in caught.items() if k != "ValueError"} == {
            "Rejected": ["main"], "InputError": ["main"], "OSError": ["main"], "Exception": ["main"],
        }
        assert sorted(caught["ValueError"]) == ["_fan_source", "_read", "_trial_count", "cmd_fan_check"]


class TestSizeBounds:
    """Exponents, ray coordinates, fan ranks and faces, and module dimensions
    are bounded where files enter, so that a small file cannot ask for
    unbounded work."""

    FAN = {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
    # a unimodular cone whose first ray has one coordinate past the limit
    WIDE_FAN = {"rank": 2, "rays": [[1025, 1], [1, 0]], "max_cones": [[0, 1]]}
    # seventeen one-ray cones and the zero cone, 228 dimensions each
    RAYS = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1], [1, 2], [2, 1],
            [-1, 2], [2, -1], [1, -2], [-2, 1], [-1, -2], [-2, -1], [1, 3]]
    MANY_CONES = {"rank": 2, "rays": RAYS, "max_cones": [[i] for i in range(len(RAYS))]}

    def element(self, exponents):
        poly = [{"c": "1", "e": exponents}, {"c": "-1", "e": [0, 0]}]
        return {"entries": [{"row": "0", "col": "", "poly": poly}]}

    def rejects(self, tmp_path, argv, data, message):
        code, out = run([*argv, write_json(tmp_path / "case.json", data)])
        assert code == 2 and out.splitlines()[0] == f"ERROR\tinput\t{message}", out

    @pytest.mark.parametrize("limit", ["640", "1000", "default", "0"])
    @pytest.mark.parametrize(("entry", "digits"), [("7" * 2000, 2000), ("7" * 5001, 5001), ("1e2000000", 2000001)],
                             ids=["numeral", "long numeral", "exponent"])
    def test_a_rational_past_the_digit_bound_is_an_input_error_under_any_limit(self, tmp_path, entry, digits, limit):
        # one u entry of the golden P2 module replaced: a numeral of more
        # digits than a limit used to be an input error that echoed it
        # under that limit and a finding (exit 1) with no limit, as the
        # 2,000-digit one was under 640 and 1000 while the bound was 4000
        # digits; and the 664-byte file with "1e2000000" was read into a
        # 2,000,001-digit integer
        golden = Path(__file__).parent / "golden"
        data = json.loads((golden / "module_p2.json").read_text(encoding="utf-8"))
        data["fan"] = json.loads((golden / data["fan"]).read_text(encoding="utf-8"))
        data["u"]["0|0,1"] = [entry]
        env = dict(os.environ, PYTHONPATH=str(Path(fanalg.__file__).parents[1]))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit != "default":
            env["PYTHONINTMAXSTRDIGITS"] = limit
        argv = [sys.executable, "-m", "fanalg.cli", "mod", "validate", write_json(tmp_path / "module.json", data)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        message = f'$.u["0|0,1"][0]: expected a rational of at most {serialize.MAX_DIGITS} digits, got {digits} digits'
        assert (proc.returncode, proc.stdout.splitlines()[0]) == (2, f"ERROR\tinput\t{message}"), proc.stdout[:200]
        assert "7" * 100 not in proc.stdout and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("limit", ["640", "default", "0"])
    def test_a_json_integer_past_the_digit_bound_is_an_input_error_under_any_limit(self, tmp_path, limit):
        # a bare integer literal: under 640 the JSON parser used to refuse it
        # with the interpreter's message, which names no path
        golden = Path(__file__).parent / "golden"
        data = json.loads((golden / "module_p2.json").read_text(encoding="utf-8"))
        data["fan"] = json.loads((golden / data["fan"]).read_text(encoding="utf-8"))
        data["u"]["0|0,1"] = ["LITERAL"]
        path = tmp_path / "module.json"
        path.write_text(json.dumps(data).replace('"LITERAL"', "7" * 2000), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(fanalg.__file__).parents[1]))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit != "default":
            env["PYTHONINTMAXSTRDIGITS"] = limit
        argv = [sys.executable, "-m", "fanalg.cli", "mod", "validate", str(path)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        message = f'$.u["0|0,1"][0]: expected a rational of at most {serialize.MAX_DIGITS} digits, got 2000 digits'
        assert (proc.returncode, proc.stdout) == (2, f"ERROR\tinput\t{message}\nSUMMARY: input error\n"), proc.stdout[:200]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("limit", ["640", "default", "0"])
    def test_a_json_integer_past_the_digit_bound_in_an_integer_field_names_the_bound(self, tmp_path, limit):
        # a 700-digit rank literal reaches the readers as its numeral, and was
        # refused as "expected an integer, got str"; a JSON string still is
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({**self.FAN, "rank": "LITERAL"}).replace('"LITERAL"', "7" * 700), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(fanalg.__file__).parents[1]))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit != "default":
            env["PYTHONINTMAXSTRDIGITS"] = limit
        argv = [sys.executable, "-m", "fanalg.cli", "fan", "check", str(path)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        message = f"$.rank: expected an integer of at most {serialize.MAX_DIGITS} digits, got 700 digits"
        assert (proc.returncode, proc.stdout) == (2, f"ERROR\tinput\t{message}\nSUMMARY: input error\n"), proc.stdout[:200]
        assert "Traceback" not in proc.stderr
        self.rejects(tmp_path, ["fan", "check"], {**self.FAN, "rank": "3"}, "$.rank: expected an integer, got str")

    def test_a_coefficient_past_the_digit_bound_is_an_input_error(self, tmp_path):
        fan = write_json(tmp_path / "fan.json", self.FAN)
        element = {"entries": [{"row": "", "col": "", "poly": [{"c": "2e640", "e": [0, 0]}]}]}
        self.rejects(tmp_path, ["alg", "member", fan], element,
                     f"$.entries[0].poly[0].c: expected a rational of at most {serialize.MAX_DIGITS} digits, got 641 digits")
        element["entries"][0]["poly"][0]["c"] = "2e639"
        code, out = run(["alg", "member", fan, write_json(tmp_path / "edge.json", element)])
        assert code == 0, out

    def test_exponents_past_the_limit_are_input_errors(self, tmp_path):
        fan = write_json(tmp_path / "fan.json", self.FAN)
        at = "$.entries[0].poly[0].e"
        self.rejects(tmp_path, ["alg", "member", fan], self.element([1025, 0]),
                     f"{at}[0]: expected an integer of absolute value at most 1024, got 1025")
        self.rejects(tmp_path, ["alg", "mul", fan, write_json(tmp_path / "b.json", self.element([1, 0]))],
                     self.element([0, -3000000]), f"{at}[1]: expected an integer of absolute value at most 1024, got -3000000")
        code, out = run(["alg", "member", fan, write_json(tmp_path / "edge.json", self.element([1024, 0]))])
        assert code == 0, out

    def test_ray_coordinates_past_the_limit_are_input_errors(self, tmp_path):
        message = "rays[0][0]: expected an integer of absolute value at most 1024, got 1025"
        self.rejects(tmp_path, ["fan", "check"], self.WIDE_FAN, f"$.{message}")
        module = {"fan": self.WIDE_FAN, "spaces": {"": 1}, "torus": {"": [["2"], ["1"]]}}
        self.rejects(tmp_path, ["mod", "validate"], module, f"$.fan.{message}")
        edge = dict(self.WIDE_FAN, rays=[[1024, 1], [1, 0]])
        code, out = run(["fan", "check", write_json(tmp_path / "edge.json", edge)])
        assert code == 0, out

    def test_space_dimensions_past_the_limit_are_input_errors(self, tmp_path):
        message = '.spaces[""]: expected a dimension of at most 256, got 257'
        self.rejects(tmp_path, ["mod", "validate"], {"fan": self.FAN, "spaces": {"": 257}}, "$" + message)
        equi = {"fan": self.FAN, "spaces": {"": 257}, "quotient": {"Q": [[1, 0], [0, 1]]}}
        self.rejects(tmp_path, ["equi", "validate"], equi, "$" + message)
        datum = {"fan": self.FAN, "charts": {"0,1": {"spaces": {"": 257}}}}
        self.rejects(tmp_path, ["desc", "check"], datum, '$.charts["0,1"]' + message)
        edge = serialize.module_from_data({"spaces": {"": 256}}, serialize.fan_from_data(self.FAN))
        assert edge.dims[()] == 256

    def test_total_dimension_past_the_limit_is_an_input_error(self, tmp_path):
        spaces = {serialize.cone_key(c): 228 for c in [[]] + self.MANY_CONES["max_cones"]}
        # the torus field is malformed too: the bound is checked before any matrix is read
        module = {"fan": self.MANY_CONES, "spaces": spaces, "torus": {"": 5}}
        self.rejects(tmp_path, ["mod", "validate"], module, "$.spaces: expected a total dimension of at most 4096, got 4104")

    @staticmethod
    def unit_fan(rank, *cones):
        """The given cones over the unit vectors of the lattice."""
        return {"rank": rank, "rays": [[int(i == j) for i in range(rank)] for j in range(rank)], "max_cones": list(cones)}

    def test_fan_ranks_past_the_limit_are_input_errors(self, tmp_path):
        # a negative rank was a finding "cone () has more rays than the rank", with exit 1
        self.rejects(tmp_path, ["fan", "check"], {"rank": -1, "rays": [], "max_cones": [[]]},
                     "$.rank: expected a rank from 0 to 256, got -1")
        self.rejects(tmp_path, ["fan", "check"], self.unit_fan(257, [0]), "$.rank: expected a rank from 0 to 256, got 257")
        self.rejects(tmp_path, ["mod", "validate"], {"fan": self.unit_fan(257, [0]), "spaces": {"": 1}},
                     "$.fan.rank: expected a rank from 0 to 256, got 257")
        code, out = run(["fan", "check", write_json(tmp_path / "edge.json", self.unit_fan(256, [0]))])
        assert code == 0, out

    def test_face_closures_past_the_limit_are_input_errors(self, tmp_path, monkeypatch):
        # a cone of k rays has 2^k faces, counted per generating cone before the closure is built
        builds = count_calls(monkeypatch, "build_fan", serialize, cli)
        message = "expected at most 256 faces over the generating cones, got more up to this cone"
        self.rejects(tmp_path, ["fan", "check"], self.unit_fan(18, list(range(18))), f"$.max_cones[0]: {message}")
        self.rejects(tmp_path, ["fan", "check"], self.unit_fan(8, list(range(7)), list(range(1, 8)), [0]),
                     f"$.max_cones[2]: {message}")
        self.rejects(tmp_path, ["desc", "check"], {"fan": self.unit_fan(9, list(range(9))), "charts": {}},
                     f"$.fan.max_cones[0]: {message}")
        assert builds == []
        for fan in (self.unit_fan(8, list(range(8))), self.unit_fan(8, list(range(7)), list(range(1, 8)))):
            code, out = run(["fan", "check", write_json(tmp_path / "edge.json", fan)])
            assert code == 0, out

    def test_structure_tables_past_the_limit_are_input_errors(self, tmp_path, monkeypatch):
        # the table has cones^3 entries; one rank-6 cone has 64 cones, rank 5 has 32
        tables = count_calls(monkeypatch, "ag_structure", cli)
        self.rejects(tmp_path, ["equi", "structure", write_json(tmp_path / "fan.json", self.unit_fan(6, list(range(6))))],
                     {"Q": [[1, 2, 3, 4, 5, 6]]},
                     "$.max_cones: expected at most 32 cones for a table of cones^3 structure constants, got 64")
        assert tables == []
        edge = write_json(tmp_path / "edge.json", self.unit_fan(5, list(range(5))))
        code, out = run(["equi", "structure", edge, write_json(tmp_path / "q5.json", {"Q": [[1, 2, 3, 4, 5]]})])
        assert code == 0 and len(out.splitlines()) == 32**3 + 2, out[-500:]

    def test_mudelta_runs_past_the_limit_are_input_errors(self, tmp_path, monkeypatch):
        # a trial on maximal cones (sigma, tau) fills 2^|sigma| * 2^|tau| slots; an 8-ray
        # cone has 256 faces, so 100 trials fill 6,553,600 slots and 4 trials 262,144
        members = count_calls(monkeypatch, "random_member", cli)
        message = "expected at most 262144 member slots, trials times the squared face count of the maximal cones"
        cone8 = self.unit_fan(8, list(range(8)))
        self.rejects(tmp_path, ["alg", "mudelta"], cone8, f"--trials 100: {message}, got 6553600")
        self.rejects(tmp_path, ["--trials", "5", "alg", "mudelta"], cone8, f"--trials 5: {message}, got 327680")
        assert members == []
        # a real run at the limit takes about 5 s, so its members are stubbed here
        monkeypatch.setattr(cli, "random_member", lambda *a, **k: None)
        monkeypatch.setattr(cli, "delta", lambda x, sigma, tau: x)
        monkeypatch.setattr(cli, "mu", lambda y: y)
        code, out = run(["--trials", "4", "alg", "mudelta", write_json(tmp_path / "edge.json", cone8)])
        assert (code, out.splitlines()[0]) == (0, "checked 4 members over 1 ordered maximal cone pairs"), out

    def test_hom_systems_past_the_limit_are_input_errors(self, tmp_path, monkeypatch):
        # hom solves for sum over cones of dim_a * dim_b unknowns: 2 * 12^2 = 288 here
        homs = count_calls(monkeypatch, "hom", cli)
        one_ray = {"rank": 1, "rays": [[1]], "max_cones": [[0]]}

        def module(name, spaces):
            return write_json(tmp_path / name, {"fan": one_ray, "spaces": spaces})

        a = module("a.json", {"": 12, "0": 12})
        b = module("b.json", {"": 12, "0": 12})
        code, out = run(["mod", "hom", a, b])
        assert code == 2, out
        assert out.splitlines()[0] == (f"ERROR\tinput\t{a} and {b}: expected at most 256 unknowns for hom, "
                                       "the sum over cones of dim_a * dim_b, got 288")
        assert homs == []
        edge = module("edge.json", {"": 16})
        code, out = run(["mod", "hom", edge, edge])
        assert (code, out.splitlines()[0]) == (0, "hom dimension 256"), out[:500]

    def test_quotient_entries_past_the_limit_are_input_errors(self, tmp_path):
        # a ray's monodromy is a torus power T^(Q w), so an entry of Q is an exponent
        one_ray = {"rank": 1, "rays": [[1]], "max_cones": [[0]]}
        torus = {"": [["2"]], "0": [["2"]]}
        equi = {"fan": one_ray, "quotient": {"Q": [[30000000]]}, "spaces": {"": 1, "0": 1}, "torus": torus}
        self.rejects(tmp_path, ["equi", "validate"], equi,
                     "$.quotient.Q[0][0]: expected an integer of absolute value at most 1024, got 30000000")
        self.rejects(tmp_path, ["equi", "present"], {"characters": [[1, 0], [0, -1025]]},
                     "$.characters[1][1]: expected an integer of absolute value at most 1024, got -1025")
        edge = dict(equi, quotient={"Q": [[1024]]}, torus={"": [["1"]], "0": [["1"]]}, v={"0|": ["1"]})
        code, out = run(["equi", "validate", write_json(tmp_path / "edge.json", edge)])
        assert code == 0, out
        code, out = run(["equi", "present", write_json(tmp_path / "chars.json", {"characters": [[1024, -1024]]})])
        assert code == 0, out

    def test_a_large_quotient_is_read_in_well_under_a_second(self, tmp_path):
        # reading Q checks its rank by fraction-free elimination and builds no
        # Smith transforms, whose entries grow to thousands of digits on a
        # random Q of this size; with them, this read took over 30 s
        rng = random.Random(64)
        q = [[rng.randint(-1024, 1024) for _ in range(64)] for _ in range(64)]
        eq = {"fan": {"rank": 64, "rays": [], "max_cones": [[]]}, "quotient": {"Q": q},
              "spaces": {"": 1}, "torus": {"": [["1"]] * 64}}
        path = write_json(tmp_path / "eq.json", eq)
        start = time.perf_counter()
        assert run(["equi", "validate", path]) == (0, "equi validate: SUMMARY: pass\n")
        assert time.perf_counter() - start < 1.0

    def test_hom_of_a_module_with_large_entries_is_solved_in_stages(self, tmp_path):
        # three characters on P2, so dimension 3 on every cone and 63 unknowns,
        # conjugated on every cone by an integer matrix with 50-digit entries:
        # one elimination over all unknowns carries the minors of every cone
        # into every row and took about 10 s; in stages each cone's torus
        # equations are solved alone
        fan = projective_plane_fan()
        rng = random.Random(50)
        m = character_module(fan, (2, 3))
        for values in ((-1, "1/2"), (3, -2)):
            m = direct_sum(m, character_module(fan, values))
        gs = {c: QMat([[rng.choice((-1, 1)) * rng.randint(10**49, 10**50 - 1) for _ in range(3)] for _ in range(3)]) for c in fan.cones}
        m = conjugate(m, gs)
        path = write_json(tmp_path / "big.json", serialize.module_to_data(m))
        start = time.perf_counter()
        code, out = run(["mod", "hom", path, path])
        assert time.perf_counter() - start < 3.0
        assert code == 0 and out.startswith("hom dimension 3\n")

    def test_relations_of_a_fan_with_large_rays_are_found_in_well_under_a_second(self, tmp_path):
        # thirteen one-ray cones on random primitive rays of rank 4, so the zero
        # cone has a kernel of rank 9 among 13 ray vectors with coordinates up to
        # 1024; on a 2-vCPU host a Hermite form that did not reduce its entries
        # after each step took 4.4 s on this fan, and over 40 s on two others
        # of the same shape
        rng = random.Random(3)
        rays = []
        while len(rays) < 13:
            v = [rng.randint(-1024, 1024) for _ in range(4)]
            g = math.gcd(*v)
            if g and [x // g for x in v] not in rays:
                rays.append([x // g for x in v])
        path = write_json(tmp_path / "fan.json", {"rank": 4, "rays": rays, "max_cones": [[i] for i in range(13)]})
        start = time.perf_counter()
        code, out = run(["mod", "relations", path])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out.count("\n  on V(): ") == 9, out[:500]

    def test_quotient_ranks_past_the_limit_are_input_errors(self, tmp_path):
        # the Smith form of an r x n matrix builds r x r and n x n transforms
        self.rejects(tmp_path, ["equi", "present"], {"Q": [], "rank": 257}, "$.rank: expected a rank from 0 to 256, got 257")
        self.rejects(tmp_path, ["equi", "present"], {"characters": [], "rank": -1}, "$.rank: expected a rank from 0 to 256, got -1")
        self.rejects(tmp_path, ["equi", "present"], {"Q": [[1] + [0] * 256]}, "$.Q[0]: expected at most 256 entries, got 257")
        self.rejects(tmp_path, ["equi", "present"], {"characters": [[1]] * 257}, "$.characters: expected at most 256 rows, got 257")
        for spec in ({"Q": [], "rank": 256}, {"Q": [[1] + [0] * 255]}, {"characters": [[2]] * 256}):
            code, out = run(["equi", "present", write_json(tmp_path / "edge.json", spec)])
            assert code == 0, out
