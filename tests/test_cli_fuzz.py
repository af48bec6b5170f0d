"""The CLI contract on mutated input files: exit 0, 1 or 2, never an internal
error (exit 3) or a traceback, in bounded time.

Each case starts from a golden input file, with a fan given by path read
into the file, and applies one to three mutations at nodes of its JSON tree:
drop a field or an entry, change a value's type, put a huge or negative
integer in its place, give a member a bad cone key, or turn an object into a
list and a list into an object.  `cli.main` runs in process, so an exception
escaping it fails the case here.  The module file is run through both
`mod validate`, `mod repcheck`, which evaluates algebra elements on it, and
`mod hom`, as either of its two files; the fan file through `fan check`,
`fan faces`, `alg mudelta`, which splits and multiplies back members of its
corners, `alg member` and `alg mul`, as their fan, and `equi structure`; an
algebra element through `alg member` and as the first factor of `alg mul`;
the F1 fan file through `mod relations`; the descent datum through `desc
check` and `desc glue`; the equivariant module through `equi validate` and
`equi inflate`, which write a module; and a quotient, given by Q or by
cutting characters, through `equi present`, and by Q as the second file of
`equi structure`.
"""

import copy
import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanalg.cli import main

GOLDEN = Path(__file__).parent / "golden"
# case id: the golden file that is mutated and the command run on it, in
# which FILE stands for the mutated file, OUT for a file the command writes
# and another .json name for a golden file
FILE, OUT = "FILE", "OUT"
CASES = {
    "fan_p2.json": ("fan_p2.json", ["fan", "check", FILE]),
    "fan_p2.json-faces": ("fan_p2.json", ["fan", "faces", FILE]),
    "fan_p2.json-mudelta": ("fan_p2.json", ["--trials", "1", "alg", "mudelta", FILE]),
    "fan_p2.json-member": ("fan_p2.json", ["alg", "member", FILE, "element_p2_a.json"]),
    "fan_p2.json-mul": ("fan_p2.json", ["alg", "mul", FILE, "element_p2_a.json", "element_p2_b.json"]),
    "element_p2_a.json-member": ("element_p2_a.json", ["alg", "member", "fan_p2.json", FILE]),
    "element_p2_a.json-mul": ("element_p2_a.json", ["alg", "mul", "fan_p2.json", FILE, "element_p2_b.json"]),
    "fan_f1.json-relations": ("fan_f1.json", ["mod", "relations", FILE]),
    "module_p2.json": ("module_p2.json", ["mod", "validate", FILE]),
    "module_p2.json-repcheck": ("module_p2.json", ["--trials", "1", "mod", "repcheck", FILE]),
    "module_p2.json-hom-source": ("module_p2.json", ["mod", "hom", FILE, "module_p2_other.json"]),
    "module_p2.json-hom-target": ("module_p2.json", ["mod", "hom", "module_p2_other.json", FILE]),
    "descent_p2.json": ("descent_p2.json", ["desc", "check", FILE]),
    "descent_p2.json-glue": ("descent_p2.json", ["desc", "glue", FILE, "-o", OUT]),
    "eqmodule_c1.json": ("eqmodule_c1.json", ["equi", "validate", FILE]),
    "eqmodule_c1.json-inflate": ("eqmodule_c1.json", ["equi", "inflate", FILE, "-o", OUT]),
    "fan_p2.json-structure": ("fan_p2.json", ["equi", "structure", FILE, "quotient.json"]),
    "quotient.json": ("quotient.json", ["equi", "present", FILE]),
    "quotient.json-structure": ("quotient.json", ["equi", "structure", "fan_p2.json", FILE]),
    "quotient_characters.json": ("quotient_characters.json", ["equi", "present", FILE]),
}
SECONDS_PER_CASE = 5.0

NUMBERS = [-1, 0, 2, 257, 1025, 4097, 2**31, -(2**63), 10**30]
VALUES = [None, True, "x", "1/0", "", 0.5, 1e300, [], {}, [[]], [None], {"": None}, "2/4", "+3", "3/-2", "-0"]
CONE_KEYS = ["9", "-1", "a", "0,0", "1,0", "0,1,2", " 0", "0|", "|", "0|1|2", "00", ","]


def load(name):
    data = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    if isinstance(data.get("fan"), str):
        data["fan"] = json.loads((GOLDEN / data["fan"]).read_text(encoding="utf-8"))
    return data


def nodes(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from nodes(value, path + (key,))


def mutate(doc, path, kind, data):
    """The document with one mutation of the given kind at `path`."""
    if not path:
        return copy.deepcopy(data.draw(st.sampled_from(VALUES)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    node = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
    elif kind == "number":
        parent[key] = data.draw(st.sampled_from(NUMBERS))
    elif kind == "cone_key" and isinstance(parent, dict):
        parent[data.draw(st.sampled_from(CONE_KEYS))] = parent.pop(key)
    elif kind == "reshape" and isinstance(node, dict):
        parent[key] = list(node.values())
    elif kind == "reshape" and isinstance(node, list):
        parent[key] = {str(i): x for i, x in enumerate(node)}
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("case", sorted(CASES))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_mutated_files_keep_the_exit_code_contract(workdir, case, data):
    name, argv = CASES[case]
    doc = copy.deepcopy(load(name))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(list(nodes(doc))), label="path")
        kind = data.draw(st.sampled_from(["drop", "retype", "number", "cone_key", "reshape"]), label="kind")
        doc = mutate(doc, path, kind, data)
    target = workdir / name
    target.write_text(json.dumps(doc), encoding="utf-8")
    paths = {FILE: target, OUT: workdir / "out.json"}
    argv = [str(paths.get(a, GOLDEN / a if a.endswith(".json") else a)) for a in argv]
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = main(argv)
    except BaseException as e:
        pytest.fail(f"{e!r} escaped main on {json.dumps(doc)[:2000]}")
    elapsed = time.perf_counter() - start
    out = buf.getvalue()
    assert code in (0, 1, 2), out
    assert code != 2 or out.startswith("ERROR\tinput\t"), out
    assert elapsed < SECONDS_PER_CASE, f"{elapsed:.1f} s on {json.dumps(doc)[:2000]}"
