"""CLI stdout and exit codes on fixed inputs, compared byte for byte.

golden/ holds the input files and, per case in cases.json, the argv, the exit
code and the stdout, recorded before the code they pin was changed: the alg
cases before algebra elements were kept in divided form, the `mod relations`
cases before matrix files were read straight into integers and fans kept
their cone tables, the `characters` structure case before a quotient stopped
carrying its Smith data, the non-regular `fan check` case before regularity
was read from a Hermite form, the others before every check result became a
Report.  The two `equi present` cases print Smith transforms, and were
re-pinned when the Smith form came to alternate Hermite forms and the
`characters` path to take Q as their Hermite form.  Arguments ending in
.json name files in golden/.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fanalg.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(name, *extra):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in CASES[name]["argv"]] + list(extra)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def recorded(name):
    return CASES[name]["code"], (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(n for n in CASES if n != "equi_structure_f1"))
def test_stdout_is_byte_identical(name):
    assert run_case(name) == recorded(name)


def test_sampled_structure_adds_one_warning():
    # F1 has nine cones, so `equi structure` samples the basis 4-tuples
    code, out = recorded("equi_structure_f1")
    warning = "warning: associativity checked on 200 sampled basis 4-tuples of 6561\n"
    assert run_case("equi_structure_f1") == (code, out + warning)


def test_written_product_is_the_recorded_json(tmp_path):
    # `alg mul` without -o prints the product; with -o it writes the same bytes
    code, out = recorded("alg_mul")
    summary = "alg mul: SUMMARY: pass\n"
    assert run_case("alg_mul", "-o", str(tmp_path / "product")) == (code, summary)
    assert (tmp_path / "product").read_text(encoding="utf-8") + summary == out
