"""The check policy: each property is checked once, where data enters."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import fanalg
from fanalg import algebra, diagram, lattice, laurent, linalg, serialize
from fanalg.algebra import AlgebraElement, central, delta, factorize, mu, random_member, required_rays
from fanalg.diagram import evaluate, hom
from fanalg.lattice import IntMatrix, primitive
from fanalg.laurent import LaurentPoly, binomial, divide_by_binomial, divide_by_product, monomial_map
from fanalg.linalg import QMat, block_diag, kron, nullspace, rref

from support import count_calls, random_valid_module


@pytest.fixture
def membership_calls(monkeypatch):
    return count_calls(monkeypatch, "membership_report", algebra)


def test_products_of_members_are_not_checked_again(p2_fan, membership_calls):
    rng = random.Random(0)
    a = random_member(p2_fan, rng)
    b = random_member(p2_fan, rng)
    derived = [a * b, a + b, -a, 3 * a, a.scale(2)]
    assert all(isinstance(x, AlgebraElement) for x in derived)
    assert membership_calls == []


def test_mu_delta_checks_nothing(p2_fan, membership_calls):
    rng = random.Random(1)
    for sigma in p2_fan.maximal:
        for tau in p2_fan.maximal:
            x = random_member(p2_fan, rng, row_cone=sigma, col_cone=tau)
            assert mu(delta(x, sigma, tau)) == x
    assert membership_calls == []


def test_entries_passed_in_are_still_checked(c_fan, membership_calls):
    bad = {((0,), ()): LaurentPoly.one(1)}
    with pytest.raises(ValueError, match="not a member"):
        AlgebraElement(c_fan, bad)
    data = {"entries": [{"row": "0", "col": "", "poly": [{"c": "1", "e": [0]}]}]}
    with pytest.raises(ValueError, match="not a member"):
        serialize.element_from_data(data, c_fan)
    assert len(membership_calls) == 2


def test_divided_form_is_not_divided_again(p2_fan, monkeypatch):
    # elements keep the quotients of their entries, so only the boundary divides
    rng = random.Random(6)
    m = random_valid_module(p2_fan, rng, summands=2)
    a = random_member(p2_fan, rng)
    b = random_member(p2_fan, rng)
    sigma, tau = p2_fan.maximal[0], p2_fan.maximal[1]
    corner = random_member(p2_fan, rng, row_cone=sigma, col_cone=tau)
    divisions = count_calls(monkeypatch, "divide_by_binomial", laurent)
    uses = {
        "evaluate": lambda: evaluate(a, m),
        "factorize": lambda: factorize(a),
        "AlgebraElement.__mul__": lambda: a * b,
        "+": lambda: a + b,
        "mu(delta(x))": lambda: mu(delta(corner, sigma, tau)),
    }
    counts = {}
    for name, use in uses.items():
        divisions.clear()
        use()
        counts[name] = len(divisions)
    assert counts == dict.fromkeys(uses, 0)
    AlgebraElement(p2_fan, a.entries)  # the boundary does divide
    assert divisions


def test_division_makes_no_lattice_calls(p2_fan, f1_fan, monkeypatch):
    counters = [
        count_calls(monkeypatch, "snf", lattice),
        count_calls(monkeypatch, "complete_to_basis", lattice),
        count_calls(monkeypatch, "inverse", IntMatrix),
        count_calls(monkeypatch, "monomial_map", laurent),
    ]
    divided = 0
    for fan, seed in ((p2_fan, 2), (f1_fan, 3)):
        x = random_member(fan, random.Random(seed), density_pct=100)
        for (sigma, tau), poly in x.entries.items():
            rays = [fan.rays[i] for i in required_rays(sigma, tau)]
            assert divide_by_product(poly, rays) is not None
            divided += len(rays)
    assert divided > 0
    assert sum(counters, []) == []


def test_second_evaluate_reads_the_module_caches(p2_fan, monkeypatch):
    m = random_valid_module(p2_fan, random.Random(4), summands=2)
    higher_powers = LaurentPoly(2, {(2, -3): Fraction(1), (-2, 0): Fraction(3)})
    x = random_member(p2_fan, random.Random(5), density_pct=100) + central(p2_fan, higher_powers)
    inverses = count_calls(monkeypatch, "inverse", QMat)
    powers = count_calls(monkeypatch, "pow_int", QMat)
    first = evaluate(x, m)
    assert inverses and powers  # the first call fills the caches
    inverses.clear()
    powers.clear()
    assert evaluate(x, m) == first
    assert (inverses, powers) == ([], [])


def test_every_elimination_is_one_echelon_call(monkeypatch):
    calls = count_calls(monkeypatch, "_echelon", linalg)
    a = QMat([[2, 1, 0], [1, 1, 0], [0, 3, 1]])
    unimodular = IntMatrix([[2, 1, 0], [1, 1, 0], [0, 3, 1]])
    uses = {
        "QMat.det": a.det,
        "QMat.inverse": a.inverse,
        "rref": lambda: rref(a),
        "nullspace": lambda: nullspace(a),
        "IntMatrix.det": unimodular.det,
        "IntMatrix.inverse": unimodular.inverse,
    }
    counts = {}
    for name, use in uses.items():
        calls.clear()
        use()
        counts[name] = len(calls)
    assert counts == dict.fromkeys(uses, 1)


def test_result_guards_are_not_assert_statements():
    # python -O strips assert statements; guards must raise explicitly
    src = Path(fanalg.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


@pytest.fixture
def coercions(monkeypatch):
    # laurent and diagram import the one rational coercion from linalg
    return count_calls(monkeypatch, "_frac", linalg, laurent, diagram)


def test_built_numbers_are_not_coerced_again(p2_fan, coercions):
    rng = random.Random(7)
    m = random_valid_module(p2_fan, rng, summands=2)
    x = random_member(p2_fan, rng)
    a = QMat([["1/2", 3], [-1, "2/5"]])
    b = QMat([[2, 0], [1, 1]])
    f = LaurentPoly(2, {(1, 0): 2, (0, -1): "1/3"})
    g = LaurentPoly(2, {(0, 1): -1, (2, 1): 5})
    t = LaurentPoly.monomial((1, 1))
    uses = {
        "@": lambda: a @ b,
        "+": lambda: a + b,
        "-": lambda: a - b,
        "scale": lambda: a.scale(Fraction(3, 2)),
        "inverse": a.inverse,
        "nullspace": lambda: nullspace(a),
        "block_diag": lambda: block_diag([a, b]),
        "kron": lambda: kron(a, b),
        "evaluate": lambda: evaluate(x, m),
        "hom": lambda: hom(m, m),
        "LaurentPoly.one": lambda: LaurentPoly.one(2),
        "binomial": lambda: binomial((1, 2)),
        "LaurentPoly arithmetic": lambda: ((f + g) * f - 3 * g) ** 2 * t ** -1,
        "divide_by_binomial": lambda: divide_by_binomial(binomial((1, 2)) * f, (1, 2)),
        "monomial_map": lambda: monomial_map(f, IntMatrix([[1, 1], [0, 1], [2, 1]])),
    }
    counts = {}
    for name, use in uses.items():
        coercions.clear()
        use()
        counts[name] = len(coercions)
    assert counts == dict.fromkeys(uses, 0)


def test_public_constructors_and_files_still_coerce(p2_fan, coercions):
    m = random_valid_module(p2_fan, random.Random(8), summands=2)
    data = serialize.module_to_data(m)
    uses = {
        "QMat": lambda: QMat([["1/2", 3]]),
        "QMat.from_flat": lambda: QMat.from_flat(1, 2, ["1/2", 3]),
        "QMat.diagonal": lambda: QMat.diagonal([1, "2/3"]),
        "LaurentPoly": lambda: LaurentPoly(1, [((1,), "1/2")]),
        "module file": lambda: serialize.module_from_data(data, p2_fan),
    }
    for name, use in uses.items():
        coercions.clear()
        use()
        assert coercions, name
    assert QMat([["1/2", 3]]).rows == ((Fraction(1, 2), Fraction(3)),)
    assert QMat.from_flat(1, 2, ["1/2", 3]) == QMat([["1/2", 3]])
    assert serialize.module_from_data(data, p2_fan) == m


def test_public_constructors_reject_ragged_and_float_input():
    mis_shaped = (
        lambda: QMat([[1, 2], [3]]),
        lambda: QMat([[1]], shape=(2, 1)),
        lambda: QMat.from_flat(2, 2, [1, 2, 3]),
        lambda: QMat.from_flat(-1, -1, [1]),
    )
    for ragged in mis_shaped:
        with pytest.raises(ValueError):
            ragged()
    floats = (
        lambda: QMat([[0.5]]),
        lambda: QMat.from_flat(1, 1, [0.5]),
        lambda: QMat.diagonal([0.5]),
        lambda: QMat.identity(1).scale(0.5),
        lambda: LaurentPoly(1, [((1,), 0.5)]),
    )
    for rejected in floats:
        with pytest.raises(TypeError):
            rejected()


def test_integer_boundaries_reject_floats_instead_of_truncating():
    cases = (
        lambda: IntMatrix([[1.5, 2.9]]),
        lambda: LaurentPoly(1, [((1.5,), 1)]),
        lambda: primitive((2.5, 1)),
        lambda: binomial((1.7,)),
    )
    for truncated in cases:
        with pytest.raises(TypeError):
            truncated()
