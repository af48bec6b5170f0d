"""Properties over generated inputs for the theorems the library relies on
instead of checking derived results again: closure of the algebra, arithmetic
on divided-form elements against entry-wise arithmetic on their entries, the
splitting mu(delta(x)) = x, and associativity of the base-changed algebra;
exact division by t^v - 1, against a sympy oracle when sympy is present; the
integer kernel of QMat products; determinants, inverses, rref and nullspaces,
against a sympy oracle when sympy is present; evaluation as a representation
on modules with warm and cold caches; hom between character and point
modules; and the Smith normal form, against a sympy oracle when sympy is
present."""

import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, configuration, example, given, settings
from hypothesis import strategies as st

from fanalg.algebra import AlgebraElement, delta, idempotent, membership_report, mu, random_member, transport, unit
from fanalg.diagram import DiagramModule, character_module, conjugate, direct_sum, evaluate, hom, is_morphism, point_module
from fanalg.equivariant import ag_structure, associativity_report, quotient_presentation
from fanalg.fan import hirzebruch_fan, product_fan, projective_line_fan, projective_plane_fan, standard_fan
from fanalg.lattice import IntMatrix, primitive, snf
from fanalg.laurent import LaurentPoly, binomial, divide_by_binomial
from fanalg.linalg import QMat, nullspace, random_invertible, rref

from support import random_valid_module

# reproducible, and no example database written next to the tests
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=15)

# hypothesis also caches the constants it reads from local source files, at
# collection time, under ./.hypothesis by default; keep that out of the checkout
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "fanalg-hypothesis")

P1xP1 = product_fan(projective_line_fan(), projective_line_fan())
FANS = {"C2": standard_fan(2), "P2": projective_plane_fan(), "P1xP1": P1xP1, "F1": hirzebruch_fan(1)}
SWAP = IntMatrix([[0, 1], [1, 0]])

fan_names = st.sampled_from(sorted(FANS))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
scalars = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero_scalars = scalars.filter(bool)


@pytest.fixture(scope="module")
def sympy():
    """The optional sympy oracle, imported before hypothesis draws any
    example, so that without sympy an oracle test is only a skip."""
    return pytest.importorskip("sympy", reason="the sympy cross-check is optional")


@st.composite
def primitive_vectors(draw):
    """A primitive vector of rank 1-3 with entries in [-3, 3]."""
    v = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    assume(any(v))
    return primitive(v)


def exponents(rank):
    return st.tuples(*[st.integers(-3, 3)] * rank)


def polys(rank):
    return st.dictionaries(exponents(rank), scalars, max_size=5).map(lambda d: LaurentPoly(rank, d))


@SETTINGS
@given(fan_names, seeds, scalars)
def test_closure(name, seed, c):
    fan = FANS[name]
    rng = random.Random(seed)
    a = random_member(fan, rng)
    b = random_member(fan, rng)
    for x in (a + b, a * b, -a, c * a):
        assert membership_report(fan, x.entries).ok


def entrywise_product(fan, a, b):
    """The matrix product of two entry maps, as plain Laurent polynomials."""
    out = {}
    for (sigma, rho), p in a.items():
        for (rho2, tau), q in b.items():
            if rho2 == rho:
                out[(sigma, tau)] = out.get((sigma, tau), LaurentPoly.zero(fan.rank)) + p * q
    return out


def entrywise_sum(fan, a, b):
    return {k: a.get(k, LaurentPoly.zero(fan.rank)) + b.get(k, LaurentPoly.zero(fan.rank)) for k in a.keys() | b.keys()}


def nonzero(entries):
    return {k: p for k, p in entries.items() if not p.is_zero()}


@SETTINGS
@given(fan_names, seeds, scalars)
def test_divided_arithmetic_matches_entrywise_arithmetic(name, seed, c):
    fan = FANS[name]
    rng = random.Random(seed)
    a = random_member(fan, rng)
    b = random_member(fan, rng)
    ea, eb = a.entries, b.entries
    assert AlgebraElement(fan, ea) == a  # the entries divide back to the quotients
    assert (a * b).entries == nonzero(entrywise_product(fan, ea, eb))
    assert (a + b).entries == nonzero(entrywise_sum(fan, ea, eb))
    assert (-a).entries == {k: -p for k, p in ea.items()}
    assert a.scale(c).entries == nonzero({k: p * c for k, p in ea.items()})


@pytest.mark.parametrize("name", sorted(FANS))
def test_units_and_idempotents_are_members(name):
    fan = FANS[name]
    assert membership_report(fan, unit(fan).entries).ok
    for sigma in fan.cone_list():
        assert membership_report(fan, idempotent(fan, sigma).entries).ok


@SETTINGS
@given(seeds)
def test_transport_along_factor_swap(seed):
    x = random_member(P1xP1, random.Random(seed))
    y = transport(x, SWAP, P1xP1)
    assert membership_report(P1xP1, y.entries).ok
    assert transport(y, SWAP, P1xP1) == x


@SETTINGS
@given(fan_names, seeds, st.data())
def test_mu_delta_round_trip(name, seed, data):
    fan = FANS[name]
    sigma = data.draw(st.sampled_from(fan.maximal))
    tau = data.draw(st.sampled_from(fan.maximal))
    x = random_member(fan, random.Random(seed), row_cone=sigma, col_cone=tau)
    w = delta(x, sigma, tau)
    for i in range(len(w.terms)):
        assert membership_report(fan, w.left_factor(i).entries).ok
        assert membership_report(fan, w.right_factor(i).entries).ok
    assert mu(w) == x


@settings(SETTINGS, max_examples=8)
@given(
    st.sampled_from(["C2", "P2"]),
    st.integers(min_value=1, max_value=2),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
def test_structure_constants_associative(name, rows, entries):
    fan = FANS[name]
    q = [entries[2 * i : 2 * i + 2] for i in range(rows)]
    try:
        qd = quotient_presentation(q=q)
    except ValueError:
        assume(False)  # not of full row rank
    assert associativity_report(ag_structure(fan, qd), samples=None).ok


@SETTINGS
@given(primitive_vectors(), st.data())
def test_division_undoes_multiplication(v, data):
    g = data.draw(polys(len(v)))
    assert divide_by_binomial(binomial(v) * g, v) == g


@SETTINGS
@given(primitive_vectors(), st.data())
def test_division_rejects_a_stray_term(v, data):
    g = data.draw(polys(len(v)))
    stray = LaurentPoly.monomial(data.draw(exponents(len(v))), data.draw(nonzero_scalars))
    assert divide_by_binomial(binomial(v) * g + stray, v) is None


@SETTINGS
@given(primitive_vectors(), st.data())
def test_division_agrees_with_sympy(sympy, v, data):
    rank = len(v)
    f = data.draw(polys(rank))
    if data.draw(st.booleans()):
        f = binomial(v) * f
    ts = sympy.symbols(f"t1:{rank + 1}")

    def to_sympy(p: LaurentPoly, shift) -> "sympy.Poly":
        """t^shift * p, which must have no negative exponent, as a sympy polynomial."""
        expr = sympy.Integer(0)
        for e, c in p.terms.items():
            expr += sympy.Rational(c.numerator, c.denominator) * sympy.prod([t ** (a + b) for t, a, b in zip(ts, e, shift)])
        return sympy.Poly(expr, *ts, domain="QQ")

    # t^v - 1 = t^-vminus * (t^vplus - t^vminus); t^m * f has no negative exponent
    vminus = tuple(max(-x, 0) for x in v)
    m = tuple(-min([0] + [e[i] for e in f.terms]) for i in range(rank))
    divisor = to_sympy(LaurentPoly(rank, {tuple(max(x, 0) for x in v): Fraction(1), vminus: Fraction(-1)}), (0,) * rank)
    q, r = sympy.div(to_sympy(f, m), divisor)
    ours = divide_by_binomial(f, v)
    assert r.is_zero == (ours is not None)
    if ours is not None:
        # sympy's quotient is t^(m - vminus) times the Laurent quotient
        assert q == to_sympy(ours, tuple(a - b for a, b in zip(m, vminus)))


def matrices(m, n):
    entries = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=m * n, max_size=m * n)
    return entries.map(lambda flat: QMat.from_flat(m, n, flat))


@st.composite
def matrix_pairs(draw):
    """(a, b) with a.n == b.m, every side 0 to 4."""
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(matrices(m, k)), draw(matrices(k, n))


@SETTINGS
@given(matrix_pairs())
@example((QMat.zero(0, 3), QMat.zero(3, 2)))
@example((QMat.zero(2, 0), QMat.zero(0, 3)))
@example((QMat([["1/2", 3]]), QMat.zero(2, 0)))
@example((QMat([["-2/3"]]), QMat([["9/4"]])))
def test_product_equals_the_fraction_sum(pair):
    a, b = pair
    naive = [[sum((a[i, t] * b[t, j] for t in range(a.n)), Fraction(0)) for j in range(b.n)] for i in range(a.m)]
    out = a @ b
    assert (out.m, out.n) == (a.m, b.n)
    assert out.rows == tuple(tuple(row) for row in naive)
    assert all(type(x) is Fraction for row in out.rows for x in row)


@st.composite
def sparse_matrices(draw, m=None, n=None):
    """Sides 0-5 unless given.  The share of zero entries is drawn per matrix,
    so dense, sparse and rank-deficient matrices all come up."""
    m = draw(st.integers(0, 5)) if m is None else m
    n = draw(st.integers(0, 5)) if n is None else n
    zero_pct = draw(st.sampled_from([0, 40, 80]))
    cells = st.tuples(st.integers(0, 99), st.fractions(min_value=-9, max_value=9, max_denominator=6))
    flat = draw(st.lists(cells, min_size=m * n, max_size=m * n))
    return QMat.from_flat(m, n, [x if roll >= zero_pct else 0 for roll, x in flat])


def square_pairs():
    return st.integers(0, 5).flatmap(lambda k: st.tuples(sparse_matrices(k, k), sparse_matrices(k, k)))


def column(v):
    return QMat([[x] for x in v], shape=(len(v), 1))


@SETTINGS
@given(sparse_matrices())
@example(QMat.zero(0, 3))
@example(QMat.zero(2, 0))
@example(QMat([[1, 2, 3], [2, 4, 6]]))
def test_nullspace_solves_the_system_with_n_minus_rank_vectors(a):
    basis = nullspace(a)
    assert all((a @ column(v)).is_zero() for v in basis)
    # the rank of a, read from the left kernel, so that row and column rank must agree
    rank = a.m - len(nullspace(a.transpose()))
    assert len(basis) == a.n - rank
    # the vectors are independent
    assert len(nullspace(QMat(basis, shape=(len(basis), a.n)))) == a.n - len(basis)


def laplace_det(a: QMat) -> Fraction:
    """Cofactor expansion along the first row: an oracle that eliminates nothing."""
    if a.m == 0:
        return Fraction(1)
    total = Fraction(0)
    for j, x in enumerate(a.rows[0]):
        if x:
            minor = QMat([row[:j] + row[j + 1 :] for row in a.rows[1:]], shape=(a.m - 1, a.m - 1))
            total += (-1) ** j * x * laplace_det(minor)
    return total


@SETTINGS
@given(square_pairs())
@example((QMat.zero(0, 0), QMat.zero(0, 0)))
@example((QMat([[0, 1], [1, 0]]), QMat([[0, 0], [1, 0]])))
@example((QMat([[0, 0, 2], [3, 0, 0], [0, 5, 0]]), QMat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])))
def test_determinant_and_inverse(pair):
    a, b = pair
    assert a.det() == laplace_det(a) and b.det() == laplace_det(b)
    assert (a @ b).det() == a.det() * b.det()
    assert a.transpose().det() == a.det()
    assert a.is_invertible() == (a.det() != 0)
    if a.is_invertible():
        assert (a @ a.inverse()).is_identity() and (a.inverse() @ a).is_identity()
    else:
        with pytest.raises(ValueError, match="singular"):
            a.inverse()


@SETTINGS
@given(st.integers(0, 4), st.data())
def test_integer_inverse_of_a_unimodular_product(n, data):
    """Products of elementary integer matrices: row additions, swaps and sign flips."""
    u = IntMatrix.identity(n)
    for _ in range(data.draw(st.integers(0, 6)) if n else 0):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows = [list(r) for r in u.entries]
        kind = data.draw(st.sampled_from(["add", "swap", "negate"]))
        if kind == "add" and i != j:
            rows[i] = [x + data.draw(st.integers(-3, 3)) * y for x, y in zip(rows[i], rows[j])]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "negate":
            rows[i] = [-x for x in rows[i]]
        u = IntMatrix(rows, shape=(n, n))
    inv = u.inverse()
    assert u @ inv == IntMatrix.identity(n) == inv @ u


@SETTINGS
@given(sparse_matrices())
@example(QMat.zero(0, 0))
@example(QMat.zero(0, 3))
@example(QMat([[1, 2, 3], [2, 4, 6]]))
def test_linalg_agrees_with_sympy(sympy, a):
    def to_sympy(x: Fraction):
        return sympy.Rational(x.numerator, x.denominator)

    theirs = sympy.Matrix(a.m, a.n, [to_sympy(x) for x in a.flat()])
    red, pivots = rref(a)
    their_red, their_pivots = theirs.rref()
    assert [to_sympy(x) for x in red.flat()] == list(their_red) and tuple(pivots) == their_pivots
    assert [[to_sympy(x) for x in v] for v in nullspace(a)] == [list(v) for v in theirs.nullspace()]
    if a.is_square():
        assert to_sympy(a.det()) == theirs.det()
        if a.is_invertible():
            assert [to_sympy(x) for x in a.inverse().flat()] == list(theirs.inv())


def basic_modules(fan):
    """A point module at any cone, or a character with small nonzero values."""
    points = st.sampled_from(fan.cone_list()).map(lambda c: point_module(fan, c))
    values = st.lists(st.sampled_from([1, -1, 2, Fraction(1, 2)]), min_size=fan.rank, max_size=fan.rank)
    return st.one_of(points, values.map(lambda vs: character_module(fan, vs)))


def hom_basis(ma, mb):
    dim, maps = hom(ma, mb)
    assert dim == len(maps) and all(is_morphism(f) for f in maps)
    return maps


@settings(SETTINGS, max_examples=10)
@given(fan_names, st.data())
def test_hom_is_additive_in_the_source(name, data):
    fan = FANS[name]
    m, n, p = (data.draw(basic_modules(fan)) for _ in range(3))
    p = direct_sum(p, data.draw(basic_modules(fan))) if data.draw(st.booleans()) else p
    assert len(hom_basis(direct_sum(m, n), p)) == len(hom_basis(m, p)) + len(hom_basis(n, p))


@settings(SETTINGS, max_examples=10)
@given(fan_names, seeds, st.data())
def test_hom_is_invariant_under_base_change(name, seed, data):
    fan = FANS[name]
    m = direct_sum(data.draw(basic_modules(fan)), data.draw(basic_modules(fan)))
    rng = random.Random(seed)
    moved = conjugate(m, {c: random_invertible(m.dims[c], rng) for c in fan.cones})
    assert len(hom_basis(m, moved)) == len(hom_basis(m, m)) >= 1


@settings(SETTINGS, max_examples=8)
@given(fan_names, seeds)
def test_evaluate_is_a_representation_with_warm_and_cold_caches(name, seed):
    fan = FANS[name]
    rng = random.Random(seed)
    m = random_valid_module(fan, rng, summands=2)
    a = random_member(fan, rng)
    b = random_member(fan, rng)
    ea, eb = evaluate(a, m), evaluate(b, m)
    # m is warm after the first pass; the copy starts with empty caches
    for module in (m, DiagramModule(m.fan, m.dims, m.torus, m.u, m.v)):
        assert evaluate(a * b, module) == ea @ eb
        assert evaluate(a + b, module) == ea + eb
        assert evaluate(a, module, rng=random.Random(seed)) == ea
        assert evaluate(b, module, rng=random.Random(seed + 1)) == eb


@SETTINGS
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_snf_diagonalizes_with_a_divisibility_chain(rows, cols, data):
    flat = data.draw(st.lists(st.integers(-6, 6), min_size=rows * cols, max_size=rows * cols))
    mat = IntMatrix([flat[i * cols : (i + 1) * cols] for i in range(rows)], shape=(rows, cols))
    u, d, v = snf(mat)
    assert u.is_unimodular() and v.is_unimodular()
    assert u @ mat @ v == d
    assert all(d[i, j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diag = [d[i, i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert (y % x == 0) if x else y == 0


@SETTINGS
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_snf_agrees_with_sympy(sympy, rows, cols, data):
    from sympy.matrices.normalforms import smith_normal_form

    flat = data.draw(st.lists(st.integers(-6, 6), min_size=rows * cols, max_size=rows * cols))
    mat = IntMatrix([flat[i * cols : (i + 1) * cols] for i in range(rows)], shape=(rows, cols))
    _, d, _ = snf(mat)
    theirs = smith_normal_form(sympy.Matrix(rows, cols, flat), domain=sympy.ZZ)
    # invariant factors are defined up to sign
    assert [d[i, i] for i in range(min(rows, cols))] == [abs(theirs[i, i]) for i in range(min(rows, cols))]
