"""The check policy: each property is checked once, where data enters."""

import ast
import io
import json
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import fanalg
from fanalg import algebra, cli, descent, diagram, equivariant, lattice, laurent, linalg, serialize
from fanalg import fan as fanmod
from fanalg.algebra import AlgebraElement, central, delta, factorize, mu, random_member, required_divisor, required_rays
from fanalg.descent import check_cocycle, glue, twisted_datum
from fanalg.diagram import DiagramModule, character_module, conjugate, direct_sum, evaluate, hom, rep_check, validate
from fanalg.equivariant import EqDiagramModule, inflate, quotient_presentation
from fanalg.fan import projective_plane_fan
from fanalg.lattice import IntMatrix, primitive
from fanalg.laurent import LaurentPoly, binomial, divide_by_binomial, divide_by_product, monomial_map
from fanalg.linalg import QMat, block_diag, kron, nullspace, random_invertible, rref

from support import count_calls, mul_by_terms, random_valid_module

GOLDEN = Path(__file__).parent / "golden"


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


def test_mu_builds_one_element_and_multiplies_nothing(p2_fan, monkeypatch):
    # the factors of a normal-form term multiply to its own quotient, so mu
    # sums the quotients and builds only its result
    sigma, tau = p2_fan.maximal[0], p2_fan.maximal[1]
    corner = random_member(p2_fan, random.Random(13), row_cone=sigma, col_cone=tau, density_pct=100)
    products = count_calls(monkeypatch, "__mul__", AlgebraElement)
    poly_products = count_calls(monkeypatch, "__mul__", LaurentPoly)
    built = count_calls(monkeypatch, "_divided", AlgebraElement)
    y = mu(delta(corner, sigma, tau))
    assert (len(products), len(poly_products), len(built)) == (0, 0, 1)
    assert y == corner


def test_glue_decides_each_monodromy_axiom_once_and_not_its_output(p2_fan, monkeypatch):
    rng = random.Random(8)
    d = twisted_datum(random_valid_module(p2_fan, rng, summands=2), rng)
    monodromies = count_calls(monkeypatch, "monodromy", DiagramModule)
    glue(d)
    # A4 of each covering pair of the fan, once, inside check_cocycle; a check
    # of the output would read as many again
    assert len(monodromies) == 2 * len(fanmod.covering_pairs(p2_fan)) == 18


def test_inflate_checks_its_module_once_and_not_its_output(c_fan, monkeypatch):
    s = QMat([[2]])  # s^2 = 1 + v u
    m = EqDiagramModule(
        c_fan, quotient_presentation(q=[[2]]), {(): 1, (0,): 1}, {(): (s,), (0,): (s,)},
        {((), (0,)): QMat([[3]])}, {((), (0,)): QMat([[1]])},
    )
    # validate_equivariant reads axiom_report from equivariant, validate from diagram
    axioms = count_calls(monkeypatch, "axiom_report", equivariant, diagram)
    inflate(m)
    assert len(axioms) == 1


@pytest.mark.parametrize("fan_name", ["c2_fan", "p1xp1_fan"])
def test_a_passing_validate_builds_no_product(fan_name, request, monkeypatch):
    # the axioms compare products on the integer rows; these fans' rays are
    # unit vectors, so no monodromy is a product of torus powers either
    m = random_valid_module(request.getfixturevalue(fan_name), random.Random(9), summands=3)
    products = count_calls(monkeypatch, "__matmul__", QMat)
    assert validate(m).ok
    assert products == []


def test_a_passing_cocycle_check_builds_no_product(p1xp1_fan, monkeypatch):
    rng = random.Random(10)
    d = twisted_datum(random_valid_module(p1xp1_fan, rng, summands=2), rng)
    products = count_calls(monkeypatch, "__matmul__", QMat)
    assert check_cocycle(d).ok
    assert products == []


def test_a_cocycle_check_takes_the_findings_path_only_for_a_failing_datum(p2_fan, monkeypatch):
    # a clean datum is decided on the pass path alone; a failing one is
    # computed ordering by ordering once, whichever check failed first
    d = twisted_datum(random_valid_module(p2_fan, random.Random(16)), random.Random(17))
    sigma, tau = p2_fan.maximal[:2]
    scaled = {**d.glue_maps, (sigma, tau): {rho: b.scale(2) for rho, b in d.glue_maps[(sigma, tau)].items()}}
    passes = count_calls(monkeypatch, "_findings_each_ordering", descent)
    assert check_cocycle(d).ok and check_cocycle(d).ok
    assert passes == []
    for maps in (scaled, {k: v for k, v in d.glue_maps.items() if k != (sigma, tau)}):
        assert not check_cocycle(descent.DescentDatum(p2_fan, d.charts, maps)).ok
    assert len(passes) == 2


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


def count_monodromies(monkeypatch):
    """Record the (cone, w) of every monodromy a module builds."""
    built = []
    real = diagram.DiagramModule.monodromy

    def counted(self, cone, w):
        built.append((cone, tuple(w)))
        return real(self, cone, w)

    monkeypatch.setattr(diagram.DiagramModule, "monodromy", counted)
    return built


def wide_table(m):
    """The keys of the module's table of monodromies on spaces of dimension
    2 or more, which hold matrices; a 1-dimensional space holds integer
    pairs."""
    return {(cone, w) for cone, w in m._monodromies if m.dims[cone] > 1}


def wide_keys(x, m):
    """The (sigma, e) of the blocks of x on m that read a monodromy matrix:
    the space at sigma has dimension 2 or more, and the one at tau is not 0."""
    return {(sigma, e) for (sigma, tau), y in x.quotients.items() if m.dims[sigma] > 1 and m.dims[tau] for e in y.num}


def test_evaluate_walks_no_chain_and_reduces_once(p2_fan, monkeypatch):
    # the module owns its monodromies: a cold module builds each (cone,
    # exponent) of a wide block once and none for a 1-dimensional space; a
    # warm one walks no chain, builds no monodromy, and places the blocks as
    # integer rows, reduced once
    m = random_valid_module(p2_fan, random.Random(4), summands=2)
    assert {m.dims[c] for c in p2_fan.cones} == {1, 2}
    x = random_member(p2_fan, random.Random(5), density_pct=100)
    built = count_monodromies(monkeypatch)
    first = evaluate(x, m)
    wide = wide_keys(x, m)
    assert len(wide) < sum(len(y.num) for (sigma, _), y in x.quotients.items() if m.dims[sigma] > 1)  # some repeat
    assert len(built) == len(set(built)) and set(built) == wide == wide_table(m)
    built.clear()
    chains = count_calls(monkeypatch, "covering_chain", algebra, diagram)
    reductions = count_calls(monkeypatch, "_reduced", QMat)
    reducing_products = []
    matmul = QMat.__matmul__

    def counted(a, b):
        reducing_products.append((a.m, a.n, b.n) != (1, 1, 1))  # a 1x1 product reduces by one gcd of its own
        return matmul(a, b)

    monkeypatch.setattr(QMat, "__matmul__", counted)
    assert evaluate(x, m) == first
    counts = (len(chains), len(built), len(reductions) - sum(reducing_products))
    assert counts == (0, 0, 1)


def product_keys(a, b, m):
    """The (sigma, e) that the image of a * b on m reads from the terms of the
    product, not from its expansion: on a block whose space at sigma has
    dimension 2 or more and whose space at tau is not 0, each exponent of
    the factors y1 and y2 and of the binomial product of the cofactor rays."""
    keys = set()
    for (sigma, rho), y1 in a.quotients.items():
        for (rho2, tau), y2 in b.quotients.items():
            if rho2 == rho and m.dims[sigma] > 1 and m.dims[tau]:
                cofactor = m.fan.binomial_product(algebra.cofactor_rays(sigma, rho, tau))
                keys |= {(sigma, e) for y in (y1, y2, cofactor) for e in y.num}
    return keys


def test_rep_check_builds_each_monodromy_once_per_module(p2_fan, monkeypatch):
    m = random_valid_module(p2_fan, random.Random(4), summands=2)
    built = count_monodromies(monkeypatch)
    # random_valid_module validated m, which keeps that verdict, so rep_check
    # checks no axiom and builds monodromies only for its evaluations
    assert rep_check(m, trials=20, seed=3).ok
    assert len(built) == len(set(built))
    # the members rep_check draws, replayed: a table per call or per
    # evaluation would build a monodromy once per call or per element, and
    # an expanded product would read the exponents of a * b
    rng = random.Random(3)
    keys, expanded = [], set()
    for _ in range(20):
        a, b = random_member(p2_fan, rng), random_member(p2_fan, rng)
        keys += [wide_keys(a, m), wide_keys(b, m), product_keys(a, b, m)]
        expanded |= wide_keys(a * b, m)
    assert set(built) == set().union(*keys) == wide_table(m)
    assert not expanded <= set(built)
    assert len(built) < sum(map(len, keys))
    assert all(m.dims[cone] > 1 for cone, _ in built)  # a 1x1 block builds none
    # the module is warm: the same trials build nothing, and other trials
    # build only the keys the table does not hold yet
    built.clear()
    assert rep_check(m, trials=20, seed=3).ok
    assert built == []
    held = wide_table(m)
    assert rep_check(m, trials=20, seed=4).ok
    assert len(built) == len(set(built)) and held.isdisjoint(built)
    assert wide_table(m) == held | set(built)


def test_rep_check_multiplies_no_members(p2_fan, monkeypatch):
    # the image of a * b is built from the terms of the product, so neither
    # the algebra product nor a polynomial product is taken
    m = random_valid_module(p2_fan, random.Random(4), summands=2)
    products = count_calls(monkeypatch, "__mul__", AlgebraElement)
    sums = count_calls(monkeypatch, "_sum_of_products", algebra)
    assert rep_check(m, trials=20, seed=3).ok
    assert (products, sums) == ([], [])
    # the fan builds each binomial product of cofactor rays once, as
    # LaurentPoly products, and the same trials on the warm fan build none
    poly_products = count_calls(monkeypatch, "__mul__", LaurentPoly)
    assert rep_check(m, trials=20, seed=3).ok
    assert (products, poly_products, sums) == ([], [], [])


def module_tables(m):
    """The keys of every table a module and its fan own."""
    tables = (m._powers, m._paths, m._monodromies, m._cofactors, m.fan._ray_sets, m.fan._products)
    return [set(t) for t in tables]


@pytest.mark.parametrize("kind", ["characters", "dimensions 1 and 2", "four characters"])
def test_rep_check_fills_tables_that_belong_to_the_module_and_its_fan(kind, monkeypatch):
    # each table starts empty and fills on first use: a second pass of the
    # same trials adds no entry to any of them, and builds no matrix
    fan = projective_plane_fan()
    rng = random.Random(8)
    if kind == "characters":
        m = character_module(fan, [2, "-1/3"])
    elif kind == "dimensions 1 and 2":
        m = random_valid_module(fan, rng, summands=2)
    else:
        m = character_module(fan, [2, 3])
        for values in ([-1, "1/2"], [3, -2], ["1/3", 2]):
            m = direct_sum(m, character_module(fan, values))
        m = conjugate(m, {c: random_invertible(4, rng) for c in fan.cones})
    assert module_tables(m)[2:5] == [set(), set(), set()]
    assert rep_check(m, trials=30, seed=5).ok
    warm = module_tables(m)
    assert warm[3] and warm[4]  # cofactors s(D) and ray sets are held
    built = count_calls(monkeypatch, "_of", QMat)
    assert rep_check(m, trials=30, seed=5).ok
    assert module_tables(m) == warm and built == []

    # the ray-set table holds each cone's bitmask and each ray set's rays:
    # one entry per cone and one per distinct ray set, the cofactor rays of
    # the terms of the products
    table = m.fan._ray_sets
    cones = {k for k in table if type(k) is tuple}
    masks = {k for k in table if type(k) is int}
    assert cones | masks == set(table) and cones <= fan.cones
    assert all(table[c] == sum(1 << i for i in c) for c in cones)
    assert all(table[k] == tuple(i for i in range(len(fan.rays)) if k >> i & 1) for k in masks)
    rng = random.Random(5)
    rays = set()
    for _ in range(30):
        a, b = random_member(fan, rng), random_member(fan, rng)
        for sigma, rho, tau, _, _, got in algebra._product_terms(a, b):
            assert got == algebra.cofactor_rays(sigma, rho, tau)
            rays.add(got)
    assert {table[k] for k in masks} == rays


def test_a_module_keeps_its_verdict_and_a_failing_one_is_decided_again(p2_fan, monkeypatch):
    m = direct_sum(character_module(p2_fan, [2, 3]), character_module(p2_fan, ["1/2", -1]))
    axioms = count_calls(monkeypatch, "axiom_report", diagram)
    for seed in range(3):
        assert rep_check(m, trials=2, seed=seed).ok
    assert len(axioms) == 1  # the first call decides, the later ones read the verdict
    first, second = validate(m), validate(m)
    assert first is not second and (first.findings, first.skipped) == (second.findings, second.skipped) == ([], [])
    first.add("x", "y", "a caller may change its report")
    assert validate(m).ok and len(axioms) == 1

    # a corrupted copy is decided again on every call
    key = next(k for k in sorted(m.u) if not (m.v[k] @ m.u[k]).is_zero())
    bad = DiagramModule(p2_fan, m.dims, m.torus, {**m.u, key: m.u[key].scale(2)}, m.v)
    assert bad == bad and bad != m
    axioms.clear()
    for seed in range(3):
        with pytest.raises(ValueError, match="invalid module"):
            rep_check(bad, trials=1, seed=seed)
    assert len(axioms) == 3

    # derived modules start without a verdict, and == ignores it
    derived = [
        DiagramModule(p2_fan, m.dims, m.torus, m.u, m.v),
        conjugate(m, {}),
        direct_sum(m, m),
        descent.restrict(m, p2_fan.maximal[0]),
        glue(twisted_datum(m, random.Random(2))),
    ]
    assert derived[0] == derived[1] == m
    axioms.clear()
    assert all(validate(x).ok for x in derived)
    assert len(axioms) == len(derived)

    # the plain-module check comes first, verdict or not
    eq = EqDiagramModule(p2_fan, quotient_presentation(q=[[1, 0]]), {}, {}, {}, {})
    object.__setattr__(eq, "_valid", True)
    with pytest.raises(ValueError, match="plain module"):
        validate(eq)


def test_a_clean_cocycle_check_tests_no_glue_block_for_invertibility(p2_fan, f1_fan, monkeypatch):
    # a square block whose inverse pair holds is invertible; the charts keep
    # the verdict of a first validate, so a clean check makes no elimination
    for fan in (p2_fan, f1_fan):
        m = direct_sum(character_module(fan, [2, 3]), character_module(fan, ["1/2", -1]))
        d = twisted_datum(m, random.Random(15))
        assert all(validate(chart).ok for chart in d.charts.values())
        echelons = count_calls(monkeypatch, "_echelon", linalg)
        assert check_cocycle(d).ok
        assert echelons == []
        monkeypatch.undo()


def test_slots_set_by_descriptor_stay_immutable():
    for x, name in ((QMat.identity(2), "den"), (QMat([[1, 2]]), "num"), (LaurentPoly.one(2), "den"), (LaurentPoly(1, {(1,): 2}), "rank")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, 3)


def test_a_product_multiplies_no_polynomial(p2_fan, monkeypatch):
    # the terms of each cone pair are summed as integers over one denominator
    rng = random.Random(12)
    a, b = (random_member(p2_fan, rng, density_pct=100, terms=3, emax=2) for _ in range(2))
    want = mul_by_terms(a, b)  # also fills the fan's table of cofactors
    products = count_calls(monkeypatch, "__mul__", LaurentPoly)
    reductions = count_calls(monkeypatch, "_reduced", LaurentPoly)
    got = a * b
    assert products == []
    assert len(reductions) == len(got.quotients) == len(want.quotients)
    assert got == want


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


def test_one_by_one_matrices_take_the_scalar_path(monkeypatch):
    # a rank-one block is compared, multiplied, inverted and read as one number:
    # no columns, no elimination and no gcd pass over rows
    def general_path(*args):
        raise AssertionError("a 1x1 operand took the general path")

    monkeypatch.setattr(linalg, "_columns", general_path)
    monkeypatch.setattr(linalg, "_rows_times", general_path)
    monkeypatch.setattr(linalg, "_echelon", general_path)
    monkeypatch.setattr(QMat, "_reduced", general_path)
    a, b, zero = QMat([["-2/3"]]), QMat([["-3/2"]]), QMat([[0]])
    assert serialize._mat_from_data(["-2/3"], 1, 1, "$.m") == a
    assert a @ b == QMat.identity(1) and a @ zero == zero
    assert linalg._products_equal(a, b, b, a) and not linalg._products_equal(a, a, b, b)
    assert linalg._is_product(QMat.identity(1), a, b) and linalg._is_product(QMat([[2]]), b, a, plus_identity=True)
    assert a.is_invertible() and not zero.is_invertible()
    assert a.inverse() == b
    with pytest.raises(ValueError, match="singular"):
        zero.inverse()


def test_two_by_two_operands_take_the_closed_forms(monkeypatch):
    # a block of a sum of two characters is multiplied through the one
    # product kernel and compared in closed form, with no column list; a
    # 3x3 comparison still reads its columns, and a 3x3 product reads them
    # inside the kernel
    columns = count_calls(monkeypatch, "_columns", linalg)
    products = count_calls(monkeypatch, "_rows_times", linalg)

    def uses(a, b):
        ab, one = a @ b, QMat.identity(a.m)
        assert linalg._products_equal(a, b, a.scale(2), b.scale(Fraction(1, 2)))
        assert not linalg._products_equal(a, b, b, a)
        assert linalg._is_product(ab, a, b) and not linalg._is_product(one, a, b)
        assert linalg._is_product(one + ab, a, b, plus_identity=True)
        assert not linalg._is_product(ab, a, b, plus_identity=True)

    uses(QMat([[1, "-2/3"], [0, 3]]), QMat([[2, 1], ["1/2", 0]]))
    assert columns == [] and len(products) == 1
    uses(QMat([[1, "-2/3", 0], [0, 3, 1], [2, 0, 1]]), QMat([[2, 1, 0], ["1/2", 0, 0], [0, 0, 1]]))
    assert len(columns) == 8  # two per `_products_equal`, one per `_is_product`
    assert len(products) == 2


def test_evaluate_and_rep_check_build_no_column_list(p2_fan, monkeypatch):
    # the integer product kernel reads both operands as rows, so evaluating
    # on 2-dimensional spaces transposes no block: on a sum of two characters
    # (every space 2-dimensional, checked cold) and on a module with spaces
    # of dimensions 1 and 2 (which keeps its verdict)
    columns = count_calls(monkeypatch, "_columns", linalg)
    products = count_calls(monkeypatch, "_rows_times", linalg, diagram)
    pair = direct_sum(character_module(p2_fan, [2, 3]), character_module(p2_fan, ["1/2", -1]))
    mixed = random_valid_module(p2_fan, random.Random(4), summands=2)
    assert {pair.dims[c] for c in p2_fan.cones} == {2} and {mixed.dims[c] for c in p2_fan.cones} == {1, 2}
    columns.clear()  # validating `mixed` compared its 2x1 and 1x2 arrows, which read columns
    x = random_member(p2_fan, random.Random(5), density_pct=100)
    for m in (pair, mixed):
        evaluate(x, m)
        assert rep_check(m, trials=5, seed=3).ok
    assert columns == [] and products


def test_echelon_on_integer_rows_holds_only_ints():
    # the elimination is fraction-free: integer rows stay integers, pivots that are not 1 included
    cases = (
        [[2, 1, 0], [1, 1, 0], [0, 3, 1]],
        [[-2, 1], [1, 1]],
        [[6, 4, 2], [3, 2, 1], [1, 5, 7]],
        [[3, 1], [-6, -2], [1, -5]],
        [[10**30, 7, 0], [3, 10**20, 5]],
        [[2, 4, 3, 0], [1, 3, 0, 3]],  # [num | den I] as `inverse` eliminates it
    )
    for rows in cases:
        held, d = linalg._echelon(rows)
        assert type(d) is int and d != 0
        assert all(type(x) is int for row in held.values() for x in row.values()), rows
        assert all(row[c] == d for c, row in held.items()), rows


def test_hom_reads_one_echelon_form_per_stage_and_pads_no_rref(p2_fan, monkeypatch):
    # stage 1 eliminates the torus equations of each cone alone, and compares
    # the scalars of a 1x1 block instead; stage 2 eliminates the arrow
    # equations of all cones, and stage 3 brings the solutions to the
    # canonical basis
    m = random_valid_module(p2_fan, random.Random(9), summands=2)
    rrefs = count_calls(monkeypatch, "rref", linalg)
    echelons = count_calls(monkeypatch, "_echelon", linalg, diagram)
    dim, _ = hom(m, m)
    assert dim >= 2
    wide = sum(m.dims[c] > 1 for c in p2_fan.cones)
    assert 0 < wide < len(p2_fan.cones)
    assert (len(rrefs), len(echelons)) == (0, wide + 2)


def test_each_base_change_is_inverted_once(p2_fan, monkeypatch):
    # conjugate inverts each block once, which is also its invertibility
    # check, and twisted_datum each of its twists once; the 2x2 blocks of a
    # sum of two characters are inverted in closed form, so the inversions
    # are counted, and no block is tested for invertibility on its own
    m = direct_sum(character_module(p2_fan, [2, 3]), character_module(p2_fan, ["1/2", -1]))
    rng = random.Random(14)
    gs = {c: random_invertible(2, rng) for c in p2_fan.cones}
    inversions = count_calls(monkeypatch, "inverse", QMat)
    tests = count_calls(monkeypatch, "is_invertible", QMat)
    moved = conjugate(m, gs)
    assert len(inversions) == len(p2_fan.cones)
    inversions.clear()
    twisted_datum(moved, rng)
    assert len(inversions) == sum(len(p2_fan.subfan(sigma).cones) for sigma in p2_fan.maximal)
    assert tests == []
    with pytest.raises(ValueError, match=r"bad base change at \(0\)"):
        conjugate(m, {(0,): QMat([[1, 2], [2, 4]])})
    with pytest.raises(ValueError, match=r"bad base change at \(0,1\)"):
        conjugate(m, {(0, 1): QMat([[1, 0, 0], [0, 1, 0]])})


def test_matrix_arithmetic_reads_no_fraction_view(p2_fan, monkeypatch):
    # QMat keeps integers over one denominator; `rows` builds Fractions for callers outside
    rng = random.Random(10)
    m = random_valid_module(p2_fan, rng, summands=2)
    x = random_member(p2_fan, rng)
    datum = twisted_datum(m, rng)
    a = QMat([["1/2", 3], [-1, "2/5"]])
    b = QMat([[2, 0], [1, 1]])
    reads = []
    view = QMat.rows

    def counted(mat):
        reads.append(mat)
        return view.fget(mat)

    monkeypatch.setattr(QMat, "rows", property(counted))
    assert a.rows == view.fget(a) and len(reads) == 1  # the wrapped view is what is counted
    uses = {
        "@": lambda: a @ b,
        "+": lambda: a + b,
        "==": lambda: a == b,
        "is_identity": lambda: (a @ a.inverse()).is_identity(),
        "validate": lambda: validate(m),
        "evaluate": lambda: evaluate(x, m),
        "check_cocycle": lambda: check_cocycle(datum),
        "hom": lambda: hom(m, m),
    }
    counts = {}
    for name, use in uses.items():
        reads.clear()
        use()
        counts[name] = len(reads)
    assert counts == dict.fromkeys(uses, 0)


def test_polynomial_arithmetic_reads_no_fraction_view(p2_fan, monkeypatch):
    # LaurentPoly keeps integers over one denominator; `terms` builds Fractions for callers outside
    rng = random.Random(11)
    m = random_valid_module(p2_fan, rng, summands=2)
    a = random_member(p2_fan, rng)
    b = random_member(p2_fan, rng)
    sigma, tau = p2_fan.maximal[0], p2_fan.maximal[1]
    corner = random_member(p2_fan, rng, row_cone=sigma, col_cone=tau)
    entries = a.entries
    f = LaurentPoly(2, {(1, 0): "1/2", (0, 1): "1/2", (2, -1): 3})
    reads = []
    view = LaurentPoly.terms

    def counted(poly):
        reads.append(poly)
        return view.fget(poly)

    monkeypatch.setattr(LaurentPoly, "terms", property(counted))
    assert f.terms == view.fget(f) and len(reads) == 1  # the wrapped view is what is counted
    uses = {
        "mu(delta(x))": lambda: mu(delta(corner, sigma, tau)),
        "a * b": lambda: a * b,
        "evaluate": lambda: evaluate(a, m),
        "membership_report": lambda: algebra.membership_report(p2_fan, entries),
        "divide_by_binomial": lambda: divide_by_binomial(binomial((1, 2)) * f, (1, 2)),
        "monomial_map": lambda: monomial_map(f, IntMatrix([[1, 1], [0, 1]])),
    }
    counts = {}
    for name, use in uses.items():
        reads.clear()
        use()
        counts[name] = len(reads)
    assert counts == dict.fromkeys(uses, 0)


def test_a_second_read_of_entries_builds_no_binomial(monkeypatch):
    # the fan owns its table of binomial products; a fresh fan starts with it empty
    fan = projective_plane_fan()
    x = random_member(fan, random.Random(12), density_pct=100)
    binomials = count_calls(monkeypatch, "binomial", fanmod)
    first = x.entries
    assert binomials  # the first read fills the table
    binomials.clear()
    assert x.entries == first
    assert binomials == []


def test_the_divisor_table_is_not_part_of_a_fans_identity():
    # nor is the table of ray sets, and a subfan starts with both empty
    fan, other = projective_plane_fan(), projective_plane_fan()
    before = hash(other)
    assert required_divisor(fan, (0, 1), ()) == binomial(fan.rays[0]) * binomial(fan.rays[1])
    x = random_member(fan, random.Random(3), density_pct=100)
    assert list(algebra._product_terms(x, x))
    assert fan._products and fan._ray_sets and not other._products and not other._ray_sets
    assert fan == other and hash(fan) == hash(other) == before
    sub = fan.subfan(fan.maximal[0])
    assert (sub._products, sub._ray_sets) == ({}, {}) and sub == other.subfan(other.maximal[0])


def test_repeated_validates_sort_the_covering_pairs_once(monkeypatch):
    # the fan owns its cone order and covering pairs; a module and each
    # validate of it read them from the fan's tables
    fan = projective_plane_fan()
    sorts = []

    def counted(items, **kwargs):
        items = list(items)
        first = items[0] if items else None
        if isinstance(first, tuple):
            sorts.append("pairs" if first and isinstance(first[0], tuple) else "cones")
        return sorted(items, **kwargs)

    monkeypatch.setattr(fanmod, "sorted", counted, raising=False)
    m = random_valid_module(fan, random.Random(9), summands=2)
    for _ in range(3):
        assert validate(m).ok
    assert (sorts.count("cones"), sorts.count("pairs")) == (1, 1)


def test_the_cone_tables_are_not_part_of_a_fans_identity():
    fan, other = projective_plane_fan(), projective_plane_fan()
    before = hash(other)
    cones, pairs = fan.cone_list(), fanmod.covering_pairs(fan)
    assert fan.cone_of_key("0,1") == (0, 1)
    assert None not in (fan._order, fan._pairs, fan._by_key)
    assert (other._order, other._pairs, other._by_key) == (None, None, None)
    assert fan == other and hash(fan) == hash(other) == before
    # readers get fresh lists, so a caller cannot change the tables
    cones.clear()
    pairs.clear()
    assert fan.cone_list() == other.cone_list() and fanmod.covering_pairs(fan) == fanmod.covering_pairs(other)
    sub = fan.subfan((0, 1))
    assert (sub._order, sub._pairs, sub._by_key) == (None, None, None)
    assert sub.cone_list() == [(), (0,), (1,), (0, 1)]
    assert fanmod.covering_pairs(sub) == [((), (0,), 0), ((), (1,), 1), ((0,), (0, 1), 1), ((1,), (0, 1), 0)]
    with pytest.raises(ValueError, match="unknown cone"):
        sub.cone_of_key("2")


def test_a_clean_cocycle_check_decides_each_axiom_instance_of_the_fan_once(p2_fan, f1_fan, monkeypatch):
    # each cone's A1 and each covering pair's A4 is decided in one chart, the
    # representative of its top cone, however many charts hold it: one
    # invertibility test per torus matrix of the fan and two monodromies per
    # covering pair, where deciding every chart in full takes 24, 32 and 144
    # monodromies
    p2xp1 = fanmod.product_fan(p2_fan, fanmod.projective_line_fan())
    for fan, want in ((p2_fan, 18), (f1_fan, 24), (p2xp1, 82)):
        d = twisted_datum(random_valid_module(fan, random.Random(3)), random.Random(4))
        monodromies = count_calls(monkeypatch, "monodromy", DiagramModule)
        inversions = count_calls(monkeypatch, "is_invertible", QMat)
        assert check_cocycle(d).ok
        assert len(monodromies) == 2 * len(fanmod.covering_pairs(fan)) == want
        assert len(inversions) == fan.rank * len(fan.cones)
        monkeypatch.undo()


def test_only_equi_present_builds_smith_data(tmp_path, monkeypatch):
    # a quotient is its full-row-rank Q: reading one checks the rank by
    # elimination, and only `equi present` builds the Smith form it prints
    data = json.loads((GOLDEN / "eqmodule_c1.json").read_text(encoding="utf-8"))
    fan = serialize.fan_from_data(data["fan"])
    calls = count_calls(monkeypatch, "snf", lattice, cli)
    spec = {"Q": [[2, 0, 1], [1, 3, 0]]}
    assert serialize.quotient_from_data(spec).q == IntMatrix([[2, 0, 1], [1, 3, 0]])
    # the characters path takes Q as the Hermite form of the characters
    assert serialize.quotient_from_data({"characters": [[2, 4, 0], [0, 3, 3]]}).q == IntMatrix([[2, 1, -3], [0, 3, 3]])
    assert serialize.eq_module_from_data(data, fan).quotient.q == IntMatrix([[2]])
    assert calls == []
    path = tmp_path / "q.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["equi", "present", str(path)]) == 0
    assert calls == ["snf"]
    assert "invariant factors d_i: 1 1\n" in out.getvalue()


def test_regular_fans_and_relations_build_no_smith_data(f1_fan, monkeypatch):
    # a cone is regular when the Hermite form of the rows of its ray matrix is
    # the identity, and the relations among ray vectors are read from the
    # Hermite form of [M^T | I]; only a cone that fails has divisors to print
    calls = count_calls(monkeypatch, "snf", lattice, fanmod)
    p2xp1 = fanmod.product_fan(projective_plane_fan(), fanmod.projective_line_fan())
    assert len(p2xp1.maximal) == 6
    assert diagram.relation_report(p2xp1).entries and diagram.relation_report(f1_fan).entries
    assert calls == []


def test_result_guards_are_not_assert_statements():
    # python -O strips assert statements; guards must raise explicitly
    src = Path(fanalg.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_the_runtime_imports_only_the_standard_library():
    # every import in the package, top-level or inside a function, names
    # fanalg itself (relative imports included) or a standard-library module
    src = Path(fanalg.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["fanalg" if node.level else node.module]
            else:
                continue
            top = {name.split(".")[0] for name in names}
            found += [f"{path.name}:{node.lineno} {t}" for t in sorted(top - {"fanalg"} - sys.stdlib_module_names)]
    assert found == []


# example constructors and writers that only tests and bench/ use; they move
# to tests/support.py once the bench harness stops importing them from src/
BENCH_ONLY = {
    "point_module", "tensor_module", "tautological_datum", "twisted_datum",
    "hirzebruch_fan", "eq_module_to_data", "descent_to_data", "rref",
}


# methods of public classes that no code in src/ calls, kept for their readers
UNCALLED_METHODS = {
    "QMat.from_flat": "the README names it as a constructor that coerces its entries",
    "RepCheck.failure": "bench/workloads.py reports it for a failing trial",
}


def identifiers(node):
    """Every name and attribute read under node, once per occurrence."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_top_level_name_is_public_or_used_in_the_package():
    # a function or class of src/ is in fanalg.__all__ or referenced from
    # src/ outside its own definition, and a method of a public class (other
    # than a dunder) is referenced outside its own body or named in
    # UNCALLED_METHODS, so code that only tests call does not grow back into
    # the package
    src = Path(fanalg.__file__).parent
    defined, used = set(), set()
    references, methods = Counter(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        references.update(identifiers(tree))
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            defined |= {own} - {None}
            used |= set(identifiers(top)) - {own}
            if isinstance(top, ast.ClassDef) and not own.startswith("_"):
                methods += [
                    (f"{own}.{node.name}", node) for node in top.body
                    if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__"))
                ]
    assert sorted(defined - set(fanalg.__all__) - used) == sorted(BENCH_ONLY)
    uncalled = [name for name, node in methods if references[node.name] == Counter(identifiers(node))[node.name]]
    assert sorted(uncalled) == sorted(UNCALLED_METHODS)


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
    uses = {
        "QMat": lambda: QMat([["1/2", 3]]),
        "QMat.from_flat": lambda: QMat.from_flat(1, 2, ["1/2", 3]),
        "QMat.diagonal": lambda: QMat.diagonal([1, "2/3"]),
        "LaurentPoly": lambda: LaurentPoly(1, [((1,), "1/2")]),
    }
    for name, use in uses.items():
        coercions.clear()
        use()
        assert coercions, name
    assert QMat([["1/2", 3]]).rows == ((Fraction(1, 2), Fraction(3)),)
    assert QMat.from_flat(1, 2, ["1/2", 3]) == QMat([["1/2", 3]])
    # a file's entries in the form str(Fraction) writes are read straight into
    # integers; any other entry is coerced
    m = random_valid_module(p2_fan, random.Random(8), summands=2)
    data = serialize.module_to_data(m)
    coercions.clear()
    assert serialize.module_from_data(data, p2_fan) == m
    assert coercions == []
    m = character_module(p2_fan, [Fraction(3), Fraction(1, 2)])
    data = serialize.module_to_data(m)
    assert data["torus"][""] == [["3"], ["1/2"]]
    data["torus"][""] = [["+3"], ["2/4"]]
    coercions.clear()
    assert serialize.module_from_data(data, p2_fan) == m
    assert len(coercions) == 2


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
