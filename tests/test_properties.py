"""Properties over generated inputs for the theorems the library relies on
instead of checking derived results again: closure of the algebra, arithmetic
on divided-form elements against entry-wise arithmetic on their entries, the
splitting mu(delta(x)) = x, the one-pass mu against multiplying out the
factors of every term, on delta outputs and on hand-built words whose terms
repeat a cone pair, cancel to zero or have an empty meet; factorization
words that expand to their entries, on canonical and shuffled chains, and
associativity of the base-changed algebra; gluing of
cocycle-passing descent data to a valid module that restricts to each chart,
isomorphic to the module glued from any other choice of charts,
and inflation of valid equivariant modules to valid plain modules, with
`validate` and `evaluate` reading a square-Q module through Q as `inflate`
does;
the canonical form of every LaurentPoly operation (integers over one
denominator), against arithmetic on Fraction coefficients; exact division by
t^v - 1, against a sympy oracle when sympy is present; the
integer kernel of QMat products; the comparisons of products that the axiom
and cocycle checks make without building them, against QMat arithmetic; the
canonical form of every QMat operation (integers over one denominator),
against plain Fraction arithmetic;
determinants, inverses, rref and nullspaces, against a dense Gauss-Jordan
oracle and a sympy oracle when sympy is present, also on integers up to
10^40, on tall rank-deficient systems like those of `hom` and where the
fraction-free elimination's pivot value is negative; matrix entries read
from files as `Fraction(str(x))` reads them, with the same errors, and
whole matrices read straight into integers against the Fraction-based
reader, with the same errors; matrices written from their integers as
`str(Fraction)` writes them, and a descent file of repeated entries, `1`,
`true`, `1.0` and `"1"` among them, read as the Fraction-based reader reads
each entry;
evaluation as a representation on modules with warm and cold caches, and
against an entry-by-entry QMat oracle on valid and corrupted modules and on
modules with zero-dimensional spaces; linearity of evaluation, on which
`rep_check` relies to compare only products; the image of a product built
from its terms against the image of the expanded product, on modules with
spaces of dimension 0, 1 and 4 and square-Q equivariant modules; the
block-by-block comparison of `rep_check` against the comparison of the
placed totals, also with blocks on one side only and terms that cancel;
algebra products against the
term-by-term LaurentPoly product; hom between character and point modules,
hom as the solution space of the intertwining equations of the
generators' images, and the staged hom against the single-pass oracle, also
on large entries; the cocycle check against the oracle that computes every
ordering of each pair and triple, on twisted data and eight corrupted
copies, two with a torus matrix of a face the charts share scaled;
the Smith and row Hermite normal forms, against
sympy oracles when sympy is present; the Smith form against the pivoting
oracle on zero, rank-deficient, 1 x n and n x 1 matrices; the row Hermite
form against the textbook elimination; the regularity of a cone, and the divisors reported
when it fails, against the Smith form, also on dependent rays; and the
relations among the ray vectors of each cone against the Hermite form of
the Smith kernel."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanalg.algebra import AlgebraElement, TensorWord, central, delta, factorize, idempotent, membership_report, mu, random_member, random_poly, transport, unit
from fanalg.descent import DescentDatum, check_cocycle, glue, restrict, tautological_datum, twisted_datum
from fanalg.diagram import BlockMap, DiagramModule, character_module, conjugate, direct_sum, evaluate, hom, point_module, relation_report, validate
from fanalg.equivariant import EqDiagramModule, ag_structure, associativity_report, inflate, quotient_presentation, validate_equivariant
from fanalg.fan import build_fan, cone_key, covering_pairs, hirzebruch_fan, product_fan, projective_line_fan, projective_plane_fan, standard_fan
from fanalg.lattice import IntMatrix, hnf_rows, primitive, snf
from fanalg.laurent import LaurentPoly, binomial, divide_by_binomial, monomial_map
from fanalg import diagram, linalg, serialize
from fanalg.linalg import QMat, block_diag, kron, nullspace, random_invertible, rref

from support import (
    check_cocycle_each_ordering,
    elementary_divisors,
    hom_single_pass,
    evaluate_by_entries,
    expand,
    generator_equations,
    glue_from_charts,
    hnf_rows_textbook,
    is_isomorphism,
    is_morphism,
    kernel_basis,
    left_factor,
    linear_combination,
    mat_from_data_by_fractions,
    mu_by_products,
    mul_by_terms,
    random_member_by_randrange,
    random_poly_by_randrange,
    random_valid_module,
    right_factor,
    shuffled_chain,
    snf_by_pivots,
    total_matrix,
)

# reproducible, and no example database written next to the tests
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=15)

P1xP1 = product_fan(projective_line_fan(), projective_line_fan())
FANS = {"C2": standard_fan(2), "P2": projective_plane_fan(), "P1xP1": P1xP1, "F1": hirzebruch_fan(1)}
P2xP1 = product_fan(projective_plane_fan(), projective_line_fan())
STOCK_FANS = dict(FANS, C1=standard_fan(1), P1=projective_line_fan(), P2xP1=P2xP1)
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
        assert membership_report(fan, left_factor(w, i).entries).ok
        assert membership_report(fan, right_factor(w, i).entries).ok
    assert mu(w) == x


@pytest.mark.parametrize("name", sorted(STOCK_FANS))
@SETTINGS
@given(seeds, st.data())
def test_mu_equals_the_sum_of_factor_products(name, seed, data):
    # mu sums quotients by cone pair, because the factors of a term
    # E(alpha, m) y (x) E(m, beta), m = alpha & beta, have an empty cofactor
    fan = STOCK_FANS[name]
    rng = random.Random(seed)
    sigma = data.draw(st.sampled_from(fan.maximal))
    tau = data.draw(st.sampled_from(fan.maximal))
    w = delta(random_member(fan, rng, row_cone=sigma, col_cone=tau), sigma, tau)
    assert mu(w) == mu_by_products(w)
    # a hand-built word over any cone pairs: a pair given twice, a pair whose
    # terms cancel to zero and a pair with an empty meet, among random terms
    cones = fan.cone_list()
    pairs = st.tuples(st.sampled_from(cones), st.sampled_from(cones))
    apart = [(a, b) for a in cones for b in cones if not set(a) & set(b)]
    y1, y2, y3, y4 = (random_poly(fan.rank, rng) for _ in range(4))
    twice, cancelled = data.draw(pairs), data.draw(pairs)
    terms = [
        (*twice, y1),
        (*twice, y2),
        (*cancelled, y3),
        (*cancelled, -y3),
        (*data.draw(st.sampled_from(apart)), y4),
        *((*pair, random_poly(fan.rank, rng)) for pair in data.draw(st.lists(pairs, max_size=4))),
    ]
    hand_built = TensorWord(fan, sigma, tau, tuple(data.draw(st.permutations(terms))))
    assert mu(hand_built) == mu_by_products(hand_built)


@pytest.mark.parametrize("name", sorted(STOCK_FANS))
@settings(SETTINGS, max_examples=5)
@given(seeds)
def test_factorization_words_expand_to_their_entries(name, seed):
    fan = STOCK_FANS[name]
    x = random_member(fan, random.Random(seed))
    words = factorize(x)
    assert [(w.row, w.col) for w in words] == sorted(x.quotients)
    rng = random.Random(seed)
    for w in words:
        meet = tuple(sorted(set(w.row) & set(w.col)))
        shuffled = replace(
            w,
            u_chain=tuple(shuffled_chain(fan, meet, w.row, rng)),
            v_chain=tuple(shuffled_chain(fan, meet, w.col, rng)),
        )
        for word in (w, shuffled):  # canonical chains, then shuffled ones
            assert expand(word, fan) == AlgebraElement._divided(fan, {(w.row, w.col): x.quotients[(w.row, w.col)]})


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


def frac_sum(*maps):
    """The sum of Fraction coefficient maps, without zero coefficients."""
    out = {}
    for terms in maps:
        for e, c in terms.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def frac_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def assert_canonical_poly(f: LaurentPoly, name=""):
    """Nonzero integers over a positive denominator with gcd 1, so the zero
    polynomial has den == 1."""
    assert type(f.den) is int and f.den > 0, name
    assert all(type(c) is int and c != 0 for c in f.num.values()), name
    assert all(len(e) == f.rank and all(type(x) is int for x in e) for e in f.num), name
    assert gcd(f.den, *f.num.values()) == 1, name


def poly_pairs():
    return st.integers(1, 3).flatmap(lambda rank: st.tuples(polys(rank), polys(rank)))


@SETTINGS
@given(poly_pairs(), scalars, st.integers(0, 3), nonzero_scalars)
@example((LaurentPoly.constant(1, Fraction(1, 2)), LaurentPoly.constant(1, 2)), Fraction(2), 1, Fraction(1, 2))  # 1/2 * 2
@example((LaurentPoly(1, {(1,): Fraction(1, 2)}), LaurentPoly(1, {(1,): Fraction(1, 2)})), Fraction(0), 0, Fraction(-2, 3))
@example((LaurentPoly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 4)}), LaurentPoly(2, {(1, 0): Fraction(3, 2)})), Fraction(4), 2, Fraction(3))
def test_polynomial_arithmetic_is_canonical_and_matches_fraction_arithmetic(pair, c, k, unit_coeff):
    f, g = pair
    rank = f.rank
    tf, tg = dict(f.terms), dict(g.terms)
    power = {(0,) * rank: Fraction(1)}
    for _ in range(k):
        power = frac_product(power, tf)
    e = next(iter(tf), (1,) * rank)
    unit = LaurentPoly.monomial(e, unit_coeff)
    cases = {
        "+": (f + g, frac_sum(tf, tg)),
        "-": (f - g, frac_sum(tf, {e: -x for e, x in tg.items()})),
        "x - x": (f - f, {}),
        "negation": (-f, {e: -x for e, x in tf.items()}),
        "*": (f * g, frac_product(tf, tg)),
        "scalar *": (f * c, frac_sum({e: c * x for e, x in tf.items()})),
        "* scalar": (c * f, frac_sum({e: c * x for e, x in tf.items()})),
        "**": (f**k, power),
        "negative power of a unit": (unit ** -(k + 1), {tuple(-(k + 1) * x for x in e): 1 / unit_coeff ** (k + 1)}),
        "LaurentPoly(terms)": (LaurentPoly(rank, tf), tf),
    }
    for name, (out, terms) in cases.items():
        assert_canonical_poly(out, name)
        assert dict(out.terms) == terms, name
        assert all(type(x) is Fraction for x in out.terms.values()), name
    outs = [out for out, _ in cases.values()] + [f, g]
    for x in outs:
        for y in outs:
            assert (x == y) == ((x.rank, dict(x.terms)) == (y.rank, dict(y.terms)))
            if x == y:
                assert hash(x) == hash(y)


@st.composite
def colliding_maps(draw):
    """A polynomial and an integer matrix with entries in [-1, 1], which
    sends several exponents to one."""
    rank = draw(st.integers(1, 3))
    f = draw(polys(rank))
    rows = draw(st.lists(st.lists(st.integers(-1, 1), min_size=rank, max_size=rank), max_size=3))
    return f, IntMatrix(rows, shape=(len(rows), rank))


@SETTINGS
@given(colliding_maps())
@example((LaurentPoly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}), IntMatrix([[1, 1]])))  # (t1 + t2)/2 -> s
@example((LaurentPoly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2)}), IntMatrix([[1, 1]])))  # collides to zero
def test_monomial_map_is_canonical_and_matches_fraction_arithmetic(case):
    f, q = case
    out = monomial_map(f, q)
    assert_canonical_poly(out)
    assert out.rank == q.rows
    assert dict(out.terms) == frac_sum(*({q.apply(e): c} for e, c in f.terms.items()))


@SETTINGS
@given(primitive_vectors(), st.data())
def test_division_is_canonical_and_matches_fraction_arithmetic(v, data):
    rank = len(v)
    f = binomial(v) * data.draw(polys(rank))
    stray = data.draw(st.booleans())
    if stray:
        f = f + LaurentPoly.monomial(data.draw(exponents(rank)), data.draw(nonzero_scalars))
    q = divide_by_binomial(f, v)
    assert q is not None or stray
    if q is not None:
        assert_canonical_poly(q)
        assert frac_product(dict(q.terms), dict(binomial(v).terms)) == dict(f.terms)


def matrices(m, n):
    entries = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=m * n, max_size=m * n)
    return entries.map(lambda flat: QMat.from_flat(m, n, flat))


def sides(draw, count, top):
    """`count` sides from 0 to `top`, all 2 when a first draw from 0 to 3 is
    0, so that a fixed share of the (derandomized) examples meets the 2x2
    closed forms of `linalg`."""
    if draw(st.integers(0, 3)) == 0:
        return (2,) * count
    return tuple(draw(st.integers(0, top)) for _ in range(count))


@st.composite
def matrix_pairs(draw):
    """(a, b) with a.n == b.m, every side 0 to 4."""
    m, k, n = sides(draw, 3, 4)
    return draw(matrices(m, k)), draw(matrices(k, n))


@SETTINGS
@given(matrix_pairs())
@example((QMat.zero(0, 3), QMat.zero(3, 2)))
@example((QMat.zero(2, 0), QMat.zero(0, 3)))
@example((QMat([["1/2", 3]]), QMat.zero(2, 0)))
@example((QMat([["-2/3"]]), QMat([["9/4"]])))
@example((QMat([["-1/2", "2/3"], [0, 0]]), QMat([["3/4", -5], ["1/6", "7/2"]])))
def test_product_equals_the_fraction_sum(pair):
    a, b = pair
    naive = [[sum((a[i, t] * b[t, j] for t in range(a.n)), Fraction(0)) for j in range(b.n)] for i in range(a.m)]
    out = a @ b
    assert (out.m, out.n) == (a.m, b.n)
    assert out.rows == tuple(tuple(row) for row in naive)
    assert all(type(x) is Fraction for row in out.rows for x in row)
    with pytest.raises(ValueError, match="shape mismatch"):  # before any closed form
        a @ QMat.zero(a.n + 1, b.n)


def small_matrices(m, n):
    """Entries from -2 to 2 over denominators 1 to 3, often zero."""
    entry = st.one_of(st.just(0), st.fractions(min_value=-2, max_value=2, max_denominator=3))
    return st.lists(entry, min_size=m * n, max_size=m * n).map(lambda flat: QMat.from_flat(m, n, flat))


@st.composite
def product_comparisons(draw):
    """(a, b, c, d, x) with a @ b and c @ d defined and every side 0 to 3, all
    2 in a fixed share (`sides`), so that the 2x2 closed forms are drawn.  c @ d
    is often a @ b rescaled and x often a @ b or I + a @ b, so that equal
    products come up; the outer shapes of c @ d and x sometimes differ."""
    m, k, n, l = sides(draw, 4, 3)
    a, b = draw(small_matrices(m, k)), draw(small_matrices(k, n))
    if draw(st.booleans()):
        s = draw(st.sampled_from([Fraction(2), Fraction(-1, 3), Fraction(3, 2)]))
        c, d = a.scale(s), b.scale(1 / s)
    else:
        c, d = draw(small_matrices(draw(st.sampled_from([m, m, 3 - m])), l)), draw(small_matrices(l, n))
    kind = draw(st.sampled_from(["product", "shifted", "random"]))
    if kind == "product":
        x = a @ b
    elif kind == "shifted" and m == n:
        x = QMat.identity(m) + a @ b
    else:
        x = draw(small_matrices(m, draw(st.sampled_from([n, n, 3 - n]))))
    return a, b, c, d, x


@settings(SETTINGS, max_examples=60)
@given(product_comparisons())
@example((QMat([["1/2"]]), QMat([[2]]), QMat([[1]]), QMat([[1]]), QMat([[2]])))
@example((QMat([[0]]), QMat([["-5/3"]]), QMat([["3/4"]]), QMat([[0]]), QMat([[0]])))
@example((QMat([["-2/3"]]), QMat([["3/2"]]), QMat([[-1]]), QMat([[1]]), QMat([[0]])))  # x == I + a @ b
@example((QMat([[2]]), QMat([[-3]]), QMat([[6]]), QMat([[1]]), QMat([[-5]])))
@example((QMat.zero(1, 0), QMat.zero(0, 1), QMat([[1]]), QMat([[1]]), QMat([[1]])))
# 2x2, with a @ b == [[3, 2], [-1, -1]]: x == I + a @ b, whose identity is on the diagonal only
@example((QMat([[1, 2], [0, -1]]), QMat([[1, 0], [1, 1]]), QMat([[2, 4], [0, -2]]), QMat([["1/2", 0], ["1/2", "1/2"]]), QMat([[4, 2], [-1, 0]])))
# I + a @ b but for one diagonal entry, and but for one off-diagonal entry that gains the identity
@example((QMat([[1, 2], [0, -1]]), QMat([[1, 0], [1, 1]]), QMat([[1, 2], [0, -1]]), QMat([[1, 0], [1, 1]]), QMat([[4, 2], [-1, -1]])))
@example((QMat([[1, 2], [0, -1]]), QMat([[1, 0], [1, 1]]), QMat([[1, 2], [0, -1]]), QMat([[1, 0], [1, 1]]), QMat([[4, 3], [-1, 0]])))
# a zero row in a and in a @ b
@example((QMat([[0, 0], [1, 2]]), QMat([[3, -1], [2, 1]]), QMat([[0, 0], [2, 4]]), QMat([["3/2", "-1/2"], [1, "1/2"]]), QMat([[0, 0], [7, 1]])))
# negative and fractional entries, c @ d the same product rescaled
@example((QMat([["-1/2", "2/3"], ["3/4", -5]]), QMat([["1/6", "-7/2"], [-2, "1/3"]]), QMat([[-1, "4/3"], ["3/2", -10]]), QMat([["1/12", "-7/4"], [-1, "1/6"]]), QMat([["-17/12", "71/36"], ["81/8", "-103/24"]])))
# c @ d and x differ from a @ b == [[1, 5], [2, 1]] in the last entry only
@example((QMat([[1, 1], [2, -1]]), QMat([[1, 2], [0, 3]]), QMat([[1, 1], [2, 0]]), QMat([[1, 2], [0, 3]]), QMat([[1, 5], [2, 2]])))
def test_product_comparisons_equal_the_products(case):
    """The comparisons the checks use decide what QMat arithmetic decides,
    also where a side or the middle space has dimension 0."""
    a, b, c, d, x = case
    equal = a @ b == c @ d
    assert linalg._products_equal(a, b, c, d) == equal
    assert linalg._products_equal(c, d, a, b) == equal
    assert linalg._is_product(x, a, b) == (x == a @ b)
    if a.m == b.n:
        assert linalg._is_product(x, a, b, plus_identity=True) == (x == QMat.identity(a.m) + a @ b)
    else:
        with pytest.raises(ValueError):
            linalg._is_product(x, a, b, plus_identity=True)
    wrong = QMat.zero(a.n + 1, b.n)  # the shape check comes before any closed form
    for args in ((a, wrong, c, d), (c, d, a, wrong)):
        with pytest.raises(ValueError, match="shape mismatch"):
            linalg._products_equal(*args)
    for plus_identity in (False, True):
        with pytest.raises(ValueError, match="shape mismatch"):
            linalg._is_product(x, a, wrong, plus_identity)


def int_rows(m, n):
    return st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=m, max_size=m)


@st.composite
def kernel_operands(draw):
    """(rows, cols, terms) for `linalg._rows_times` and `linalg._combination`:
    m x k integer rows, the n integer columns of a k x n matrix, and one to
    four terms (c, rows, den) of one m x n shape, every side 0 to 4 and all
    2 in a fixed share (`sides`); lone terms are among them."""
    m, k, n = sides(draw, 3, 4)
    rows, cols = draw(int_rows(m, k)), [tuple(col) for col in draw(int_rows(n, k))]
    term = st.tuples(st.integers(-3, 3), int_rows(m, n), st.integers(1, 12))
    terms = draw(st.lists(term, min_size=1, max_size=4))
    return rows, cols, terms


@settings(SETTINGS, max_examples=40)
@given(kernel_operands())
@example(([[1, -2], [0, 3]], [(4, 0), (-1, 5)], [(1, [[1, -2], [0, 3]], 3)]))  # a lone term as it stands
@example(([[0, 0], [2, -1]], [(0, 0), (7, 1)], [(-2, [[0, 0], [5, -1]], 4)]))  # zero rows, a lone scaled term
@example(([[1, 2], [3, 4]], [(5, 6), (7, 8)], [(1, [[1, 2], [3, 4]], 2), (-3, [[0, 1], [-1, 0]], 3), (2, [[5, 0], [0, 5]], 4)]))
@example(([[]] * 2, [()] * 2, [(1, [[], []], 1), (2, [[], []], 5)]))  # two rows of no entries
def test_integer_kernels_equal_the_naive_arithmetic(case):
    """`_rows_times` is the integer product of rows into columns and
    `_combination` the sum of c * rows scaled to the lcm of the
    denominators, on the 2x2 closed forms and on every other shape; a lone
    term with coefficient 1 is returned as it stands."""
    rows, cols, terms = case
    product = linalg._rows_times(rows, cols)
    assert product == [[sum(row[t] * col[t] for t in range(len(row))) for col in cols] for row in rows]
    out, den = linalg._combination(terms)
    assert den == lcm(*[d for _, _, d in terms])
    naive = [[sum(c * t[i][j] * (den // d) for c, t, d in terms) for j in range(len(row))] for i, row in enumerate(terms[0][1])]
    assert [list(row) for row in out] == naive
    if len(terms) == 1 and terms[0][0] == 1:
        assert out is terms[0][1]


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
@example((QMat([[0]]), QMat([["-3/4"]])))
@example((QMat([["-3/4"]]), QMat([["-4/3"]])))
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


def agrees_with_sympy(sympy, a: QMat) -> None:
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


@SETTINGS
@given(sparse_matrices())
@example(QMat.zero(0, 0))
@example(QMat.zero(0, 3))
@example(QMat([[1, 2, 3], [2, 4, 6]]))
def test_linalg_agrees_with_sympy(sympy, a):
    agrees_with_sympy(sympy, a)


def naive_product(x, y, cols):
    """Rows of the product of two row tuples, summed as Fractions."""
    return tuple(tuple(sum((r[t] * y[t][j] for t in range(len(r))), Fraction(0)) for j in range(cols)) for r in x)


def naive_rref(rows, cols):
    """Dense Gauss-Jordan on Fraction rows, pivot by pivot: an oracle that
    shares no code with the sparse echelon form."""
    rows = [list(r) for r in rows]
    pivots = []
    for j in range(cols):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        rows[r] = [x / rows[r][j] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                rows[i] = [x - rows[i][j] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(j)
    return tuple(map(tuple, rows)), pivots


def is_canonical(x: QMat) -> bool:
    entries = [e for row in x.num for e in row]
    shaped = len(x.num) == x.m and all(len(row) == x.n and all(type(e) is int for e in row) for row in x.num)
    return shaped and type(x.den) is int and x.den > 0 and gcd(x.den, *entries) == 1


@SETTINGS
@given(square_pairs(), scalars, st.integers(-2, 3))
@example((QMat([["1/2"]]), QMat([[2]])), Fraction(2), 1)  # a plain product of the denominators is not canonical
@example((QMat([["-3/4"]]), QMat([[0]])), Fraction(-1, 2), -1)
@example((QMat([[0]]), QMat([["-4/3"]])), Fraction(3), 2)
@example((QMat([["1/2", "1/3"]] * 2), QMat([["1/2", "2/3"]] * 2)), Fraction(0), -1)
@example((QMat([["1/2", 0], [0, "1/2"]]), QMat.identity(2)), Fraction(2), -1)  # integer part of the identity
@example((QMat.zero(0, 0), QMat.zero(0, 0)), Fraction(1, 3), -2)
def test_every_matrix_is_canonical_and_its_rows_are_the_fraction_arithmetic(pair, c, k):
    """num / den with gcd(den, *num) == 1 after every operation, so equality
    and hashing on the fields agree with equality of the Fraction rows."""
    a, b = pair
    n = a.n
    ra, rb = a.rows, b.rows
    naive = {
        "QMat(rows)": (QMat(ra, shape=(n, n)), ra),
        "from_flat": (QMat.from_flat(n, n, a.flat()), ra),
        "diagonal": (QMat.diagonal([a[i, i] for i in range(n)]), tuple(tuple(ra[i][j] if i == j else 0 for j in range(n)) for i in range(n))),
        "@": (a @ b, naive_product(ra, rb, n)),
        "+": (a + b, tuple(tuple(x + y for x, y in zip(p, q)) for p, q in zip(ra, rb))),
        "-": (a - b, tuple(tuple(x - y for x, y in zip(p, q)) for p, q in zip(ra, rb))),
        "a - a": (a - a, ((Fraction(0),) * n,) * n),
        "negation": (-a, tuple(tuple(-x for x in p) for p in ra)),
        "scale": (a.scale(c), tuple(tuple(c * x for x in p) for p in ra)),
        "transpose": (a.transpose(), tuple(zip(*ra)) if n else ()),
        "block_diag": (block_diag([a, b]), tuple(p + (0,) * n for p in ra) + tuple((0,) * n + q for q in rb)),
        "kron": (kron(a, b), tuple(tuple(x * y for x in p for y in q) for p in ra for q in rb)),
        "linear_combination": (
            linear_combination([(c, a), (-1, b), (Fraction(1, 2), a)], n, n),
            tuple(tuple(c * x - y + x / 2 for x, y in zip(p, q)) for p, q in zip(ra, rb)),
        ),
    }
    red, pivots = rref(a)
    their_red, their_pivots = naive_rref(ra, n)
    assert pivots == their_pivots
    naive["rref"] = (red, their_red)
    if a.is_invertible():
        inv = a.inverse()
        assert naive_product(ra, inv.rows, n) == naive_product(inv.rows, ra, n) == QMat.identity(n).rows
        naive["inverse"] = (inv, inv.rows)
    else:
        k = abs(k)  # a singular matrix has no negative powers
    power = QMat.identity(n).rows
    for _ in range(abs(k)):
        power = naive_product(power, inv.rows if k < 0 else ra, n)
    naive["pow_int"] = (a.pow_int(k), power)
    for name, (out, rows) in naive.items():
        assert is_canonical(out), name
        assert out.rows == tuple(map(tuple, rows)), name
        assert all(type(x) is Fraction for row in out.rows for x in row), name
        assert out.is_identity() == (out.m == out.n and out.rows == QMat.identity(out.m).rows), name
        assert out.is_zero() == (out.rows == QMat.zero(out.m, out.n).rows), name
    outs = [out for out, _ in naive.values()] + [a, b]
    for x in outs:
        for y in outs:
            assert (x == y) == ((x.m, x.n, x.rows) == (y.m, y.n, y.rows))
            if x == y:
                assert hash(x) == hash(y)


@st.composite
def integer_matrices(draw):
    """Sides 0-5 with integer entries up to 10^40, and a share of zeros drawn
    per matrix."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    zero_pct = draw(st.sampled_from([0, 40, 80]))
    cells = st.tuples(st.integers(0, 99), st.integers(-(10**40), 10**40))
    flat = draw(st.lists(cells, min_size=m * n, max_size=m * n))
    return QMat.from_flat(m, n, [x if roll >= zero_pct else 0 for roll, x in flat])


@st.composite
def tall_systems(draw):
    """40 x 12 integer systems of rank at most 8, sparse like the equations
    of `hom`: a sparse 40 x 8 times an 8 x 12 matrix with small entries."""
    small = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    left = draw(st.lists(small, min_size=40 * 8, max_size=40 * 8))
    right = draw(st.lists(st.integers(-4, 4), min_size=8 * 12, max_size=8 * 12))
    return QMat.from_flat(40, 8, left) @ QMat.from_flat(8, 12, right)


# the fraction-free elimination ends with a negative common pivot D on each
NEGATIVE_PIVOTS = (
    QMat([[-2, 1], [1, 1]]),
    QMat([[0, -3], [2, 0]]),
    QMat([[-1, 2, 3], [2, -4, 1], [1, 1, 1]]),
    QMat([["-1/2", 1, 0], [1, "1/3", 0]]),
    QMat([[3, 1], [-6, -2], [1, -5]]),
)


def test_the_negative_pivot_examples_have_a_negative_pivot():
    assert all(linalg._echelon(a.num)[1] < 0 for a in NEGATIVE_PIVOTS)


def oracle_nullspace(rows, n):
    """The canonical kernel basis read off the dense Gauss-Jordan oracle."""
    red, pivots = naive_rref(rows, n)
    basis = []
    for fc in range(n):
        if fc not in pivots:
            vec = [Fraction(0)] * n
            vec[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -red[r][fc]
            basis.append(tuple(vec))
    return basis


def matches_the_oracles(a: QMat) -> None:
    rows = a.rows
    red, pivots = rref(a)
    assert (red.rows, pivots) == naive_rref(rows, a.n)
    assert nullspace(a) == oracle_nullspace(rows, a.n)
    if a.is_square():
        n = a.n
        assert a.det() == laplace_det(a)
        # the dense oracle on [a | I] gives [I | a^-1] exactly when a is invertible
        their_inv, inv_pivots = naive_rref([r + tuple(Fraction(int(i == j)) for j in range(n)) for i, r in enumerate(rows)], 2 * n)
        invertible = inv_pivots[:n] == list(range(n))
        assert a.is_invertible() == invertible
        if invertible:
            assert a.inverse().rows == tuple(r[n:] for r in their_inv)


def with_negative_pivots(test):
    for a in NEGATIVE_PIVOTS:
        test = example(a)(test)
    return test


@SETTINGS
@given(integer_matrices())
@with_negative_pivots
@example(QMat([[10**40, 10**40 - 1], [10**40 + 1, 10**40]]))
def test_elimination_of_large_integers_matches_the_dense_oracle(a):
    matches_the_oracles(a)


@SETTINGS
@given(integer_matrices())
@with_negative_pivots
def test_elimination_of_large_integers_agrees_with_sympy(sympy, a):
    agrees_with_sympy(sympy, a)


@settings(SETTINGS, max_examples=5)
@given(tall_systems())
def test_tall_rank_deficient_systems_match_the_dense_oracle(a):
    matches_the_oracles(a)
    assert len(rref(a)[1]) <= 8


@settings(SETTINGS, max_examples=5)
@given(tall_systems())
def test_tall_rank_deficient_systems_agree_with_sympy(sympy, a):
    agrees_with_sympy(sympy, a)


# a numeral as `Fraction` parses it: p/q, or a decimal with an exponent
NUMERAL = re.compile(r"\s*[-+]?(?P<num>\d*(?:_\d+)*)(?:/(?P<den>\d+(?:_\d+)*)|(?:\.(?P<dec>\d*(?:_\d+)*))?(?:e(?P<exp>[-+]?\d+(?:_\d+)*))?)\s*\Z", re.I)


def spelled_digits(x) -> int:
    """The digits that a numeral spells for its numerator and denominator:
    those of an int; those of the larger side of p/q; or those of a
    decimal's mantissa plus the absolute value of its exponent.  0 for a
    string that is not a numeral."""
    if isinstance(x, int):
        return len(str(abs(x)))
    match = NUMERAL.match(x)
    if match is None:
        return 0
    digits = {k: sum(c.isdecimal() for c in v or "") for k, v in match.groupdict().items()}
    if match["den"] is not None:
        return max(digits["num"], digits["den"])
    return digits["num"] + digits["dec"] + (abs(int(match["exp"])) if match["exp"] else 0)


def reference_entry(x):
    """A matrix entry as `Fraction(str(x))` reads it, or the end of the
    reader's error message for it: a numeral that spells more than
    `serialize.MAX_DIGITS` digits is refused before it is parsed."""
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        digits = spelled_digits(str(x) if isinstance(x, float) else x)
        if digits > serialize.MAX_DIGITS:
            return f" of at most {serialize.MAX_DIGITS} digits, got {digits} digits"
        try:
            return Fraction(str(x))
        except (ValueError, ZeroDivisionError):
            return f", got {x!r}"
    return f", got {type(x).__name__}"


ENTRY_STRINGS = ("+3", " 3", "1_000", "06/04", "3/0", "1e3", "0.5", "-0", "-0/7", "\u0663", "-\u0663/\u0664", "\u00b3", "3 /4", "1/ 2", "-1/-2", "12/-4", "1/2/3", "", "-", "/2", "nan", "inf")

matrix_entries = st.one_of(
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.sampled_from(ENTRY_STRINGS),
    st.fractions().map(str),
    st.text(alphabet="0123456789-+/_. e\u0663\u00b3", max_size=6),
)


@settings(SETTINGS, max_examples=200)
@given(matrix_entries)
@example(10**30)
@example(2.5e-07)
@example(10**640)  # 641 digits
@example("7" * 640)
@example("1/" + "7" * 641)
@example("1e2000000")
@example("1.5e639")
@example(" -1e9_999 ")
def test_a_matrix_entry_reads_as_the_fraction_of_its_string(x):
    data = {"spaces": {"": 1}, "torus": {"": [[x]]}}
    want = reference_entry(x)
    if isinstance(want, Fraction):
        m = serialize.module_from_data(data, standard_fan(1))
        assert m.torus[()][0][0, 0] == want
    else:
        with pytest.raises(ValueError) as err:
            serialize.module_from_data(data, standard_fan(1))
        assert str(err.value) == f'$.torus[""][0][0]: expected a rational{want}'


LONG = "7" * (serialize.MAX_DIGITS + 1)  # one digit past the readers' digit bound
# entries that Fraction reads but that str(Fraction) does not write, and a
# numeral at the digit limit
READABLE_STRINGS = ("2/4", "+3", "-0", "007", "0/5", "3/1", "-6/4", " 3", "06/04", "1e3", "0.5", "\u0663", LONG[1:], "1/" + LONG[1:])
UNREADABLE = ("1/0", "0/0", "3/-2", "x", "", "nan", LONG, "-" + LONG, "1/" + LONG, True, None, [], {"1": 2})
readable_entries = st.one_of(
    st.integers(),
    st.fractions().map(str),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(READABLE_STRINGS),
)


@st.composite
def flat_matrices(draw):
    """A shape and a row-major list of mostly readable entries, one of which
    may be replaced by any entry, whose length may be one off the shape."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    n = max(0, rows * cols + draw(st.sampled_from((0, 0, 0, -1, 1))))
    flat = draw(st.lists(readable_entries, min_size=n, max_size=n))
    if flat and draw(st.booleans()):
        flat[draw(st.integers(0, n - 1))] = draw(st.one_of(st.sampled_from(UNREADABLE), matrix_entries))
    return flat, rows, cols


def read_or_error(reader, flat, rows, cols):
    try:
        return reader(flat, rows, cols, "$.m")
    except ValueError as e:
        return str(e)


@settings(SETTINGS, max_examples=300)
@given(flat_matrices())
@example((["2/4", "+3", "-0", "3/1"], 2, 2))
@example((["1/2", "1/0"], 1, 2))
@example(([LONG], 1, 1))
@example((["1", "2", "3"], 1, 2))
@example((["-3/4"], 1, 1))
@example(([0], 1, 1))
@example((["2/4"], 1, 1))
@example((["-0"], 1, 1))
@example((["+1"], 1, 1))
@example((["7" * 5001], 1, 1))
@example((["1/2"], 1, 1))
def test_matrices_read_straight_into_integers_match_the_fraction_reader(case):
    got = read_or_error(serialize._mat_from_data, *case)
    assert got == read_or_error(mat_from_data_by_fractions, *case)
    if isinstance(got, QMat):
        assert all(type(x) is int for row in got.num for x in row) and type(got.den) is int


@st.composite
def canonical_matrices(draw):
    """A matrix of up to 3 x 3 rationals in canonical form: the zero matrix,
    integer ones and ones whose entries share a factor with the denominator."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=12))
    flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return QMat._of_fractions([flat[i * cols : (i + 1) * cols] for i in range(rows)], rows, cols)


@settings(SETTINGS, max_examples=200)
@given(canonical_matrices())
@example(QMat.zero(2, 3))
@example(QMat([[-4, 0], [7, -1]]))
@example(QMat([["1/2", "1/3"], ["-5/6", 0]]))  # over 6, the entries 3, 2 and -5 share a factor with it or not
@example(QMat([["-3/4", "1/2"]]))
def test_matrices_are_written_as_fraction_strings(m):
    assert serialize._mat_to_data(m) == [str(x) for x in m.flat()]
    assert serialize._mat_from_data(serialize._mat_to_data(m), m.m, m.n, "$.m") == m


REPEATED_ENTRIES = ("1", 1, True, 1.0, "2/4", "1/2", "-0", "7" * 5001)


def read_descent_or_error(data, fan):
    try:
        return serialize.descent_from_data(data, fan)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("entries", [
    REPEATED_ENTRIES,
    ("1", 1, 1.0, "2/4", "1/2", "-0"),
    ("1/2", "-0", "1", 1.0, 1, "2/4", "1", True),
    ("1", 1, "7" * 5001, True),
], ids=["all", "readable", "bool-last", "numeral-first"])
def test_a_descent_file_of_repeated_entries_reads_as_the_fraction_reader_reads_it(entries, monkeypatch):
    """The entries of one file share a table of canonical strings for the
    read; `1`, `true`, `1.0` and `"1"` are not one key of it, so the file
    gives the datum, or the first error, of a reader that reads each entry
    on its own."""
    fan = projective_plane_fan()
    data = serialize.descent_to_data(tautological_datum(character_module(fan, (Fraction(2), Fraction(1, 3)))))
    flats = [flat for chart in data["charts"].values() for mats in chart["torus"].values() for flat in mats]
    flats += [flat for blocks in data["glue"].values() for flat in blocks.values()]
    assert len(flats) > 2 * len(entries) and all(len(flat) == 1 for flat in flats)
    for i, flat in enumerate(flats):
        flat[0] = entries[i % len(entries)]
    got = read_descent_or_error(data, fan)
    monkeypatch.setattr(serialize, "_mat_from_data", lambda flat, rows, cols, path, table=None: mat_from_data_by_fractions(flat, rows, cols, path))
    assert got == read_descent_or_error(data, fan)
    # `True in entries` would hold for 1 and 1.0 too
    assert isinstance(got, str) == any(x is True or x == "7" * 5001 for x in entries)


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
    # m is valid, so chains shuffled by an rng give the same matrices
    assert evaluate_by_entries(a, m, random.Random(seed)) == ea
    assert evaluate_by_entries(b, m, random.Random(seed + 1)) == eb


def random_arrows(rng, m, n):
    return QMat.from_flat(m, n, [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m * n)])


def random_module_with_zero_spaces(fan, rng):
    """Spaces of dimension 0 to 2, invertible but not commuting torus
    matrices and random arrows: a module evaluate accepts, valid or not,
    with paths through zero-dimensional meets."""
    dims = {c: rng.randint(0, 2) for c in fan.cones}
    torus = {c: tuple(random_invertible(dims[c], rng) for _ in range(fan.rank)) for c in fan.cones}
    u = {(t, s): random_arrows(rng, dims[s], dims[t]) for t, s, _ in covering_pairs(fan)}
    v = {(t, s): random_arrows(rng, dims[t], dims[s]) for t, s, _ in covering_pairs(fan)}
    return DiagramModule(fan, dims, torus, u, v)


@st.composite
def evaluation_cases(draw):
    """A member and a valid module, a copy with one u and one v arrow scaled,
    or a module with zero-dimensional spaces."""
    fan = FANS[draw(fan_names)]
    rng = random.Random(draw(seeds))
    kind = draw(st.sampled_from(["valid", "corrupted", "zero spaces"]))
    if kind == "zero spaces":
        m = random_module_with_zero_spaces(fan, rng)
    else:
        m = random_valid_module(fan, rng, summands=2)
    if kind == "corrupted":
        u, v = dict(m.u), dict(m.v)
        key = rng.choice(sorted(u))
        u[key] = u[key].scale(draw(nonzero_scalars))
        key = rng.choice(sorted(v))
        v[key] = v[key].scale(draw(nonzero_scalars))
        m = DiagramModule(fan, m.dims, m.torus, u, v)
    x = random_member(fan, rng, density_pct=draw(st.sampled_from([35, 100])), terms=3, emax=2)
    return x, m


# the module of test_a_square_through_a_zero_space_is_compared: u is 1 on
# ()<(1)<(0,1), and the chain ()<(0)<(0,1) runs through V(0) = 0
C2 = FANS["C2"]
C2_ZERO_MEET = DiagramModule(
    C2, {(): 1, (0,): 0, (1,): 1, (0, 1): 1}, {}, {((), (1,)): QMat([[1]]), ((1,), (0, 1)): QMat([[1]])}, {}
)


# every space of C3 is 1-dimensional but the zero cone's, so the member's
# first entry is a block with an empty side and its second a 1x1 block
C3 = standard_fan(3)
C3_SCALARS = DiagramModule(
    C3,
    {c: 1 if c else 0 for c in C3.cones},
    {c: (QMat([[2]]), QMat([["3/2"]]), QMat([["-1/3"]])) for c in C3.cones if c},
    {(t, s): QMat([[Fraction(r + 2, len(s) + r)]]) for t, s, r in covering_pairs(C3) if t},
    {(t, s): QMat([[Fraction(-1, r + 2)]]) for t, s, r in covering_pairs(C3) if t},
)
C3_SCALAR_MEMBER = AlgebraElement._divided(
    C3,
    {
        ((), (0, 1)): LaurentPoly(3, {(1, 0, 0): 1}),
        ((0, 1, 2), (0,)): LaurentPoly(3, {(1, 0, 0): "1/2", (0, -1, 2): "3/4", (0, 0, 0): 5}),
    },
)

# every space of P2 is 1-dimensional, so every block takes the scalar path;
# the member's exponents run from -2 to 2, so they reach the inverse powers
P2_SCALARS = conjugate(character_module(FANS["P2"], (3, "-1/2")), {c: QMat([[k + 2]]) for k, c in enumerate(FANS["P2"].cone_list())})
P2_SCALAR_MEMBER = random_member(FANS["P2"], random.Random(1), density_pct=100, terms=3, emax=2)


@settings(SETTINGS, max_examples=60)
@given(evaluation_cases())
@example((unit(C2).scale(0), C2_ZERO_MEET))  # no block: lcm() = 1
@example((C3_SCALAR_MEMBER, C3_SCALARS))  # 1x1 and empty blocks only
@example((P2_SCALAR_MEMBER, P2_SCALARS))  # 1x1 blocks with negative and |k| >= 2 exponents
@example((random_member(C2, random.Random(0), density_pct=100), C2_ZERO_MEET))
@example((central(C2, LaurentPoly(2, {(0, 0): "1/2", (1, 0): "1/2"})), C2_ZERO_MEET))  # den 2, reduced away
def test_evaluate_equals_the_entry_by_entry_oracle(case):
    """evaluate, with the module's path, power and monodromy caches, integer
    scalar blocks and one reduction, gives the matrix of QMat arithmetic
    entry by entry, on cold and warm caches: it evaluates a copy of the
    module, whose caches the oracle has not filled.  Both take the canonical
    chains: the modules may be invalid, and only a valid one gives every
    chain the same path."""
    x, m = case
    want = evaluate_by_entries(x, m)
    cold = DiagramModule(m.fan, m.dims, m.torus, m.u, m.v)
    for _ in range(2):
        got = evaluate(x, cold)
        assert (got.m, got.n) == (m.total_dim(), m.total_dim())
        assert got == want and gcd(got.den, *[a for row in got.num for a in row]) == 1


@settings(SETTINGS, max_examples=30)
@given(fan_names, seeds, st.booleans(), nonzero_scalars)
def test_evaluate_is_linear(name, seed, valid, c):
    """evaluate is linear by construction, each block being a combination of
    the quotient's coefficients, so `rep_check` compares only products: sums,
    scalar multiples and the zero element, on valid modules and on invalid
    ones with zero-dimensional spaces."""
    fan = FANS[name]
    rng = random.Random(seed)
    m = random_valid_module(fan, rng, summands=2) if valid else random_module_with_zero_spaces(fan, rng)
    a = random_member(fan, rng, terms=3, emax=2)
    b = random_member(fan, rng, density_pct=100, terms=3, emax=2)
    ea, eb = evaluate(a, m), evaluate(b, m)
    n = m.total_dim()
    assert evaluate(a + b, m) == ea + eb
    assert evaluate(a - b, m) == ea + eb.scale(-1)
    assert evaluate(c * a, m) == evaluate(a.scale(c), m) == ea.scale(c)
    assert evaluate(a - a, m) == evaluate(a.scale(0), m) == QMat.zero(n, n)


PRODUCT_MODULES = ("point", "characters", "four characters", "random sum", "square Q")


def product_module(kind, fan, rng):
    """A valid plain module of one kind: a point module (spaces of dimension
    0 and one of 1), a base-changed character (all of dimension 1), a
    base-changed sum of four characters (all of dimension 4), or a random
    sum of characters and point modules (dimensions 0 to 3)."""
    if kind == "point":
        return point_module(fan, rng.choice(fan.cone_list()))
    if kind == "random sum":
        return random_valid_module(fan, rng)
    parts = [character_module(fan, [Fraction(rng.choice([2, 3, -1, -2]), rng.choice([1, 2])) for _ in range(fan.rank)])]
    if kind == "four characters":
        parts += [character_module(fan, [Fraction(rng.choice([2, 3, -1, -2]), rng.choice([1, 2])) for _ in range(fan.rank)]) for _ in range(3)]
    m = parts[0]
    for part in parts[1:]:
        m = direct_sum(m, part)
    return conjugate(m, {c: random_invertible(m.dims[c], rng) for c in fan.cones})


@pytest.mark.parametrize("kind", PRODUCT_MODULES)
@settings(SETTINGS, max_examples=10)
@given(seeds, st.data())
def test_the_image_of_a_product_is_built_from_its_terms(kind, seed, data):
    """`diagram._evaluate_product`, whose blocks `rep_check` compares with
    the product of the images, sums s(y1) s(y2) s(D) over the terms of a * b
    and never expands the product; on a valid module its total equals
    `evaluate(a * b)`, with cold and with warm tables.  The modules are those of
    `product_module` on the stock fans, and drawn equivariant modules with a
    square Q; the members have exponents from -2 to 2."""
    rng = random.Random(seed)
    if kind == "square Q":
        name, quotient = data.draw(st.sampled_from(SQUARE_EQ_CASES))
        fan = EQ_FANS[name]
        m = drawn_quotient_module(fan, quotient_presentation(q=QUOTIENTS[fan.rank][quotient]), seed, data)
    else:
        fan = STOCK_FANS[data.draw(st.sampled_from(sorted(STOCK_FANS)))]
        m = product_module(kind, fan, rng)
    assert validate(m).ok
    density = data.draw(st.sampled_from([35, 100] if len(fan.cones) <= 9 else [35]))  # a dense P2xP1 product has 21^3 terms
    a = random_member(fan, rng, density_pct=density, terms=3, emax=2)
    b = random_member(fan, rng, density_pct=density, terms=3, emax=2)
    cold = diagram._total(m, diagram._evaluate_product(a, b, m, diagram._sums(a, m)))
    want = evaluate(a * b, m)
    assert cold == want == diagram._total(m, diagram._evaluate_product(a, b, m, diagram._sums(a, m)))


@pytest.mark.parametrize(("kind", "dims"), [("point", {0, 1}), ("characters", {1}), ("four characters", {4})])
def test_the_product_modules_have_the_dimensions_they_are_drawn_for(kind, dims):
    for name, fan in STOCK_FANS.items():
        assert set(product_module(kind, fan, random.Random(0)).dims.values()) == dims, name


BLOCK_CASES = ("product", "perturbed", "zero blocks", "one side", "cancelling")


def image_block(rows, den):
    """A block in the form `diagram._images` gives: an integer between two
    1-dimensional spaces, integer rows otherwise, with its denominator."""
    return (rows[0][0] if len(rows) == len(rows[0]) == 1 else rows), den


def block_fractions(block):
    x, d = block
    return [[Fraction(v, d) for v in row] for row in ([[x]] if type(x) is int else x)]


def random_image_blocks(rng, cones, dims, zero=False):
    return {
        (s, t): image_block([[0 if zero else rng.randint(-3, 3) for _ in range(dims[t])] for _ in range(dims[s])], rng.randint(1, 4))
        for s in cones
        for t in cones
        if rng.randrange(100) < 40
    }


def block_product_by_fractions(a, b):
    """Block (sigma, tau) of a @ b, in Fractions, for every (sigma, tau)
    with a middle cone rho holding blocks of both, zero or not."""
    out = {}
    for (s, r), blk in a.items():
        for (r2, t), blk2 in b.items():
            if r2 == r:
                fa, fb = block_fractions(blk), block_fractions(blk2)
                p = [[sum(fa[i][k] * fb[k][j] for k in range(len(fb))) for j in range(len(fb[0]))] for i in range(len(fa))]
                acc = out.get((s, t))
                out[(s, t)] = p if acc is None else [[u + v for u, v in zip(ru, rv)] for ru, rv in zip(acc, p)]
    return out


def fraction_block(rows, extra):
    """Fractions as an image block over extra times their lcm, so that the
    comparison must cross-multiply denominators that are not canonical."""
    den = lcm(*[v.denominator for row in rows for v in row]) * extra
    return image_block([[int(v * den) for v in row] for row in rows], den)


def placed(blocks, cones, dims):
    """The total matrix of image blocks, placed by cone in Fractions."""
    offs, pos = {}, 0
    for c in cones:
        offs[c], pos = pos, pos + dims[c]
    total = [[Fraction(0)] * pos for _ in range(pos)]
    for (s, t), blk in blocks.items():
        for i, row in enumerate(block_fractions(blk)):
            total[offs[s] + i][offs[t] : offs[t] + len(row)] = row
    return QMat(total, shape=(pos, pos))


@settings(SETTINGS, max_examples=200)
@given(seeds, st.sampled_from(BLOCK_CASES))
def test_the_block_comparison_decides_as_the_placed_totals(seed, case):
    """`diagram._is_block_product`, which `rep_check` decides each trial
    with, agrees with `linalg._is_product` on the placed totals: on the
    true product over denominators that are not canonical, with one entry
    perturbed, on all-zero blocks, with a block on one side only, and where
    the terms of a block cancel to zero.  The spaces have dimension 0 to 2
    on the cones of P2."""
    rng = random.Random(seed)
    cones = projective_plane_fan().cone_list()
    dims = {c: rng.choice([0, 1, 1, 2]) for c in cones}
    dims[cones[rng.randrange(len(cones))]] = rng.choice([1, 2])
    expect = None
    if case == "cancelling":
        # a(sigma, rho1) b(rho1, tau) + a(sigma, rho2) b(rho2, tau) = 0
        rho1, rho2 = rng.sample(cones, 2)
        dims[rho1] = dims[rho2] = rng.choice([1, 2])
        sigma, tau = (rng.choice([c for c in cones if dims[c]]) for _ in range(2))
        ablk = image_block([[rng.randint(-3, 3) for _ in range(dims[rho1])] for _ in range(dims[sigma])], rng.randint(1, 4))
        bfr = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dims[tau])] for _ in range(dims[rho1])]
        a = {(sigma, rho1): ablk, (sigma, rho2): ablk}
        b = {(rho1, tau): fraction_block(bfr, 1), (rho2, tau): fraction_block([[-v for v in row] for row in bfr], 2)}
        fill = rng.choice([None, 0, 1])
        x = {} if fill is None else {(sigma, tau): image_block([[fill] * dims[tau]] * dims[sigma], 3)}
        expect = not fill
    else:
        zero = case == "zero blocks"
        live = [c for c in cones if dims[c]]
        a, b = random_image_blocks(rng, live, dims, zero), random_image_blocks(rng, live, dims, zero)
        exact = block_product_by_fractions(a, b)
        x = {k: fraction_block(rows, rng.randint(1, 3)) for k, rows in exact.items()}
        nonzero = [k for k, rows in exact.items() if any(map(any, rows))]
        if case in ("product", "zero blocks"):
            expect = True
        elif case == "perturbed" and nonzero:
            k = rng.choice(nonzero)
            blk, den = x[k]
            if type(blk) is int:
                x[k] = blk + 1, den
            else:
                i, j = rng.randrange(len(blk)), rng.randrange(len(blk[0]))
                x[k] = [[v + ((r, c) == (i, j)) for c, v in enumerate(row)] for r, row in enumerate(blk)], den
            expect = False
        elif case == "one side":
            missing = [(s, t) for s in live for t in live if (s, t) not in exact]
            if nonzero and (not missing or rng.randrange(2)):
                del x[rng.choice(nonzero)]  # a nonzero block of a @ b that x lacks
            elif missing:
                s, t = rng.choice(missing)
                x[(s, t)] = image_block([[rng.choice([-1, 1])] * dims[t]] * dims[s], 1)
            expect = not nonzero and not missing
    got = diagram._is_block_product(x, a, b)
    assert got == linalg._is_product(placed(x, cones, dims), placed(a, cones, dims), placed(b, cones, dims))
    if expect is not None:
        assert got == expect


HOM_FANS = {"C1": standard_fan(1), "C2": FANS["C2"], "P1": projective_line_fan(), "P2": FANS["P2"], "F1": FANS["F1"]}


@pytest.mark.parametrize("name", sorted(HOM_FANS))
@settings(SETTINGS, max_examples=8)
@given(seeds, st.sampled_from(["other", "conjugate", "same"]), st.booleans())
def test_hom_is_the_solution_space_of_the_generators_images(name, seed, target, conjugated):
    """By the module-algebra equivalence, a map of total matrices X is a
    module map exactly when X evaluate(g, A) = evaluate(g, B) X for every
    generator g of the algebra; the idempotents make X block-diagonal.  The
    solutions of those equations are the space `hom` reports."""
    fan = HOM_FANS[name]
    rng = random.Random(seed)
    ma = random_valid_module(fan, rng, summands=rng.randint(1, 2), conjugated=conjugated)
    if target == "other":
        mb = random_valid_module(fan, rng, summands=rng.randint(1, 2), conjugated=conjugated)
    elif target == "conjugate":
        mb = conjugate(ma, {c: random_invertible(ma.dims[c], rng) for c in fan.cones})
    else:
        mb = ma
    eqs = generator_equations(ma, mb)
    dim, basis = hom(ma, mb)
    assert len(nullspace(eqs)) == dim
    for f in basis:
        x = total_matrix(f)
        assert (x.m, x.n) == (mb.total_dim(), ma.total_dim())
        assert (eqs @ column(x.flat())).is_zero()


def large_entry_base_change(m, rng, digits):
    """m conjugated on every cone by an integer matrix whose entries have the
    given number of digits."""
    lo = 10 ** (digits - 1)
    while True:
        gs = {c: QMat([[rng.choice((-1, 1)) * rng.randint(lo, 10 * lo - 1) for _ in range(m.dims[c])] for _ in range(m.dims[c])]) for c in m.fan.cones}
        if all(g.is_invertible() for g in gs.values()):
            return conjugate(m, gs)


@pytest.mark.parametrize("digits", [1, 12])
@pytest.mark.parametrize("name", sorted(HOM_FANS))
@settings(SETTINGS, max_examples=8)
@given(seeds, st.sampled_from(["other", "conjugate", "same"]), st.booleans())
def test_staged_hom_equals_the_single_pass_oracle(name, digits, seed, target, conjugated):
    """`hom` in stages gives the basis, bytes included, of one elimination
    over all unknowns: the commutant bases and the reversed reduced echelon
    form of stage 3 do not depend on the order of the equations."""
    fan = HOM_FANS[name]
    rng = random.Random(seed)
    ma = random_valid_module(fan, rng, summands=rng.randint(1, 2), conjugated=conjugated)
    if digits > 1:
        ma = large_entry_base_change(ma, rng, digits)
    if target == "other":
        mb = random_valid_module(fan, rng, summands=rng.randint(1, 2), conjugated=conjugated)
    elif target == "conjugate":
        mb = conjugate(ma, {c: random_invertible(ma.dims[c], rng) for c in fan.cones})
    else:
        mb = ma
    assert hom(ma, mb) == hom_single_pass(ma, mb)


COCYCLE_FANS = {"P2": FANS["P2"], "F1": FANS["F1"], "P1xP1": P1xP1, "P2xP1": P2xP1}
CORRUPTIONS = (
    "none", "one direction", "conjugated pair", "chart arrow", "scaled pair", "scaled pair away from the representative",
    "singular block", "non-square block", "torus in one chart", "torus in both charts",
)


def corrupted_datum(d, kind):
    """A copy of a cocycle datum with one fault: a glue block scaled in one
    direction; both maps of a pair conjugated at a ray cone by twice the
    identity, which intertwines no nonzero arrow; a chart arrow doubled; the
    maps of a pair scaled by 2 and 1/2, which intertwine still, for the first
    pair that shares a ray or for the first pair of charts that are not the
    representative of the zero cone, the least chart, so that only the
    identity of that pair through the representative fails; a glue block
    replaced by zero; one chart replaced by its double, every map into it
    by the stacked [b; b] and every map out of it by [b/2 b/2], which are
    well shaped, but not square, and mutually inverse in one direction; or
    the first torus matrix of the shared ray cone doubled, in the first
    chart of the pair only or in both, a fault on a face that the two
    charts share."""
    fan = d.fan
    maps = {key: dict(blocks) for key, blocks in d.glue_maps.items()}
    charts = dict(d.charts)
    # the first pair of charts that share a ray, and that ray
    sigma, tau = next((s, t) for s in fan.maximal for t in fan.maximal if s < t and set(s) & set(t))
    rho = (min(set(sigma) & set(tau)),)
    if kind == "scaled pair away from the representative":
        sigma, tau = fan.maximal[1:3]
    if kind == "one direction":
        maps[(sigma, tau)][rho] = maps[(sigma, tau)][rho].scale(2)
    elif kind == "conjugated pair":
        maps[(sigma, tau)][rho] = maps[(sigma, tau)][rho].scale(2)
        maps[(tau, sigma)][rho] = maps[(tau, sigma)][rho].scale(Fraction(1, 2))
    elif kind == "chart arrow":
        m = charts[sigma]
        key = next(k for k in sorted(m.u) if not m.u[k].is_zero())
        charts[sigma] = DiagramModule(m.fan, m.dims, m.torus, {**m.u, key: m.u[key].scale(2)}, m.v)
    elif kind.startswith("scaled pair"):
        maps[(sigma, tau)] = {r: b.scale(2) for r, b in maps[(sigma, tau)].items()}
        maps[(tau, sigma)] = {r: b.scale(Fraction(1, 2)) for r, b in maps[(tau, sigma)].items()}
    elif kind == "singular block":
        b = maps[(sigma, tau)][rho]
        maps[(sigma, tau)][rho] = QMat.zero(b.m, b.n)
    elif kind == "non-square block":
        charts[tau] = direct_sum(charts[tau], charts[tau])
        for omega in fan.maximal:
            if omega != tau:
                maps[(omega, tau)] = {r: QMat._of(b.num + b.num, b.den, 2 * b.m, b.n) for r, b in maps[(omega, tau)].items()}
                halves = {r: b.scale(Fraction(1, 2)) for r, b in maps[(tau, omega)].items()}
                maps[(tau, omega)] = {r: QMat._of(tuple(row + row for row in h.num), h.den, h.m, 2 * h.n) for r, h in halves.items()}
    elif kind in ("torus in one chart", "torus in both charts"):
        for omega in (sigma,) if kind == "torus in one chart" else (sigma, tau):
            m = charts[omega]
            first, *rest = m.torus[rho]
            charts[omega] = DiagramModule(m.fan, m.dims, {**m.torus, rho: (first.scale(2), *rest)}, m.u, m.v)
    return DescentDatum(fan, charts, maps), (sigma, tau)


@pytest.mark.parametrize("kind", CORRUPTIONS)
@pytest.mark.parametrize("name", sorted(COCYCLE_FANS))
@settings(SETTINGS, max_examples=4)
@given(seeds)
def test_the_cocycle_check_reports_as_the_oracle_that_computes_every_ordering(name, kind, seed):
    """`check_cocycle` computes one verdict per unordered pair and triple of
    charts when the maps are mutually inverse, and reports the findings of
    every ordering, in the order of the oracle that computes each ordering on
    its own."""
    fan = COCYCLE_FANS[name]
    rng = random.Random(seed)
    values = [Fraction(rng.choice([2, 3, -1, -2]), rng.choice([1, 2])) for _ in range(fan.rank)]
    m = direct_sum(character_module(fan, values), random_valid_module(fan, rng, summands=1, conjugated=False))
    m = conjugate(m, {c: random_invertible(m.dims[c], rng) for c in fan.cones})
    d, (sigma, tau) = corrupted_datum(twisted_datum(m, rng), kind)
    want = check_cocycle_each_ordering(d)
    assert check_cocycle(d).findings == want.findings
    codes = {f.code for f in want.findings}
    if kind == "none":
        assert want.ok
    elif kind == "one direction":
        assert "inverse" in codes
    elif kind == "conjugated pair":
        # the character's v arrows are nonzero, so both orderings fail
        assert "inverse" not in codes and "intertwine" in codes
        at = {f.location.split(" ")[0] for f in want.findings if f.code == "intertwine"}
        assert at == {f"({cone_key(sigma)})->({cone_key(tau)})", f"({cone_key(tau)})->({cone_key(sigma)})"}
    elif kind == "chart arrow":
        assert not want.ok
    elif kind in ("singular block", "non-square block"):
        assert codes == {"invertible"}
    elif kind == "scaled pair away from the representative":
        # the two maps out of the least chart hold, so the failure shows only
        # in the identity of the pair through it, on the zero cone
        assert codes == {"cocycle"} and any(f.location.endswith(" at ()") for f in want.findings)
    elif kind.startswith("torus"):
        # pinned as it stands: each chart that carries the fault reports it
        # from its own axioms, and no check of the glue reports it
        faulty = {sigma} if kind == "torus in one chart" else {sigma, tau}
        assert codes == {"chart"}
        assert {f.location.split(":")[0] for f in want.findings} == {f"({cone_key(c)})" for c in faulty}
    else:
        assert codes == {"cocycle"}


@st.composite
def algebra_elements(draw, fan):
    """A sum of up to four matrix units with random quotients over
    denominators up to 4, or a random member, dense on fans of up to 9
    cones."""
    if draw(st.booleans()):
        density = 100 if len(fan.cones) <= 9 else 35  # a dense P2xP1 product has 21^3 terms
        return random_member(fan, random.Random(draw(seeds)), density_pct=density, terms=3, emax=2)
    cones = fan.cone_list()
    pairs = st.tuples(st.sampled_from(cones), st.sampled_from(cones))
    return AlgebraElement._divided(fan, draw(st.dictionaries(pairs, polys(fan.rank), max_size=4)))


@pytest.mark.parametrize("name", sorted(STOCK_FANS))
@SETTINGS
@given(st.data())
def test_product_equals_the_term_by_term_product(name, data):
    """The product kernel sums the integer coefficients of every term of a cone
    pair over one denominator; it equals LaurentPoly arithmetic term by term,
    canonical form included."""
    fan = STOCK_FANS[name]
    a = data.draw(algebra_elements(fan))
    b = data.draw(algebra_elements(fan))
    got = a * b
    assert got == mul_by_terms(a, b)
    for y in got.quotients.values():
        assert_canonical_poly(y)


@pytest.mark.parametrize("name", sorted(STOCK_FANS))
@SETTINGS
@given(seeds, st.integers(1, 3), st.integers(0, 2), st.sampled_from([0, 35, 100]), st.data())
def test_the_sampler_draws_as_randrange(name, seed, terms, emax, density, data):
    """`random_member` and `random_poly` draw through `getrandbits` by
    CPython's rule for `randrange`: the members, the polynomials and the
    state of the generator afterwards are those of the `randrange` sampler."""
    fan = STOCK_FANS[name]
    cones = st.none() | st.sampled_from(fan.cone_list())
    kwargs = dict(row_cone=data.draw(cones), col_cone=data.draw(cones), density_pct=density, terms=terms, emax=emax)
    got, want = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert random_member(fan, got, **kwargs) == random_member_by_randrange(fan, want, **kwargs)
    assert got.getstate() == want.getstate()
    cmax = data.draw(st.integers(1, 4))
    assert random_poly(fan.rank, got, terms, emax, cmax) == random_poly_by_randrange(fan.rank, want, terms, emax, cmax)
    assert got.getstate() == want.getstate()


@pytest.mark.parametrize("name", sorted(FANS))
@SETTINGS
@given(seeds, st.sampled_from(["valid", "u scaled", "v scaled"]), nonzero_scalars)
def test_validate_reports_a_base_change_as_the_module(name, seed, kind, c):
    """Each axiom holds or fails with its base change: `validate` of
    `conjugate(m, gs)` has the finding codes and locations of `validate(m)`,
    on valid modules and on copies with one arrow scaled."""
    fan = FANS[name]
    rng = random.Random(seed)
    # a character with no value 1, so that v u is nonzero on the pairs of the first ray
    values = [rng.choice([2, 3, -1, -2, Fraction(1, 2), Fraction(-3, 2)]) for _ in range(fan.rank)]
    m = direct_sum(character_module(fan, values), random_valid_module(fan, rng, summands=1))
    if kind != "valid":
        # scaling u or v where v u is nonzero breaks A4 unless c == 1
        u, v = dict(m.u), dict(m.v)
        arrows = u if kind == "u scaled" else v
        key = rng.choice(sorted(k for k in arrows if not (v[k] @ u[k]).is_zero()))
        arrows[key] = arrows[key].scale(c)
        m = DiagramModule(fan, m.dims, m.torus, u, v)
    gs = {cone: random_invertible(m.dims[cone], rng) for cone in fan.cones}
    want = [(f.code, f.location) for f in validate(m).findings]
    assert [(f.code, f.location) for f in validate(conjugate(m, gs)).findings] == want
    assert bool(want) == (kind != "valid" and c != 1)


GLUE_FANS = dict(FANS, P2xP1=P2xP1)


@pytest.mark.parametrize("name", sorted(GLUE_FANS))
@settings(SETTINGS, max_examples=5)
@given(seeds)
def test_a_cocycle_datum_glues_to_a_valid_module_that_restricts_to_each_chart(name, seed):
    fan = GLUE_FANS[name]
    rng = random.Random(seed)
    d = twisted_datum(random_valid_module(fan, rng), rng)
    glued = glue(d)
    assert validate(glued).ok
    # the gluing maps into chart sigma, from the chart each face was taken
    # from, the least that contains it, are an isomorphism of modules from
    # the restriction onto the chart
    chart_of = {rho: min(s for s in fan.maximal if set(rho) <= set(s)) for rho in fan.cones}
    for sigma in fan.maximal:
        sub = restrict(glued, sigma)
        f = BlockMap(sub, d.charts[sigma], {rho: d.glue_block(chart_of[rho], sigma, rho) for rho in sub.fan.cones})
        assert is_isomorphism(f) and is_morphism(f)


@pytest.mark.parametrize("name", sorted(GLUE_FANS))
@settings(SETTINGS, max_examples=5)
@given(seeds)
def test_gluing_from_any_choice_of_charts_gives_an_isomorphic_module(name, seed):
    """glue takes each cone from its least containing chart; taking each from
    any containing chart, drawn at random, glues to a valid module onto which
    the gluing maps between the two choices are an isomorphism."""
    fan = GLUE_FANS[name]
    rng = random.Random(seed)
    d = twisted_datum(random_valid_module(fan, rng), rng)
    glued = glue(d)
    holders = {rho: [s for s in fan.maximal if set(rho) <= set(s)] for rho in fan.cones}
    least = {rho: min(hs) for rho, hs in holders.items()}
    assert glue_from_charts(d, least) == glued
    drawn = {rho: rng.choice(hs) for rho, hs in holders.items()}
    other = glue_from_charts(d, drawn)
    assert validate(other).ok
    f = BlockMap(glued, other, {rho: d.glue_block(least[rho], drawn[rho], rho) for rho in fan.cones})
    assert is_isomorphism(f) and is_morphism(f)


# quotient matrices Q by the rank of the fan they act on: the identity, a
# cyclic quotient, and for rank 2 a quotient whose rows are not its columns
QUOTIENTS = {
    1: {"identity": [[1]], "cyclic": [[3]]},
    2: {"identity": [[1, 0], [0, 1]], "cyclic": [[2, 0], [0, 1]], "mixed": [[1, 1], [0, 2]]},
}
EQ_FANS = {"C1": standard_fan(1), "C2": standard_fan(2), "P2": projective_plane_fan(), "F1": hirzebruch_fan(1)}
EQ_CASES = [(name, q) for name, fan in sorted(EQ_FANS.items()) for q in QUOTIENTS[fan.rank]]


def quotient_character(fan, qd, values):
    """A character of the quotient torus through Q: torus scalars `values`,
    u = chi(Q ray) - 1 and v = 1 on every covering pair."""

    def chi(w):
        out = Fraction(1)
        for x, k in zip(values, qd.q.apply(w)):
            out *= Fraction(x) ** k
        return out

    u = {(tau, sigma): QMat([[chi(fan.rays[ray]) - 1]]) for tau, sigma, ray in covering_pairs(fan)}
    v = {key: QMat([[1]]) for key in u}
    torus = {c: tuple(QMat([[x]]) for x in values) for c in fan.cones}
    return DiagramModule(fan, dict.fromkeys(fan.cones, 1), torus, u, v, nt=qd.target_rank)


def drawn_quotient_module(fan, qd, seed, data):
    """A valid equivariant module: a direct sum of one to three drawn
    quotient characters, base-changed by random invertibles."""
    characters = st.lists(st.sampled_from([2, -1, 3, Fraction(1, 2)]), min_size=qd.target_rank, max_size=qd.target_rank)
    m = quotient_character(fan, qd, data.draw(characters))
    for _ in range(data.draw(st.integers(0, 2))):
        m = direct_sum(m, quotient_character(fan, qd, data.draw(characters)))
    rng = random.Random(seed)
    m = conjugate(m, {c: random_invertible(m.dims[c], rng) for c in fan.cones})
    return EqDiagramModule(fan, qd, m.dims, m.torus, m.u, m.v)


@pytest.mark.parametrize(("name", "quotient"), EQ_CASES)
@settings(SETTINGS, max_examples=5)
@given(seeds, st.data())
def test_inflating_a_valid_equivariant_module_gives_a_valid_module(name, quotient, seed, data):
    fan = EQ_FANS[name]
    qd = quotient_presentation(q=QUOTIENTS[fan.rank][quotient])
    assert validate(inflate(drawn_quotient_module(fan, qd, seed, data))).ok


# a square Q that is not the identity: `validate` and `evaluate` accept such a
# module as it is, since it has one torus matrix per lattice coordinate
SQUARE_EQ_CASES = [("C1", "cyclic"), ("C2", "mixed")]


@pytest.mark.parametrize(("name", "quotient"), SQUARE_EQ_CASES)
@settings(SETTINGS, max_examples=5)
@given(seeds, st.data())
def test_every_reader_of_a_square_quotient_module_pushes_exponents_through_q(name, quotient, seed, data):
    fan = EQ_FANS[name]
    qd = quotient_presentation(q=QUOTIENTS[fan.rank][quotient])
    m = drawn_quotient_module(fan, qd, seed, data)
    # scaling a u arrow whose v u is nonzero breaks A4 on its lower cone
    key = data.draw(st.sampled_from(sorted(k for k in m.u if not (m.v[k] @ m.u[k]).is_zero())))
    bad = EqDiagramModule(fan, qd, m.dims, m.torus, {**m.u, key: m.u[key].scale(2)}, m.v)
    for module, valid in ((m, True), (bad, False)):
        want = [(f.code, f.location, f.detail) for f in validate_equivariant(module).findings]
        assert [(f.code, f.location, f.detail) for f in validate(module).findings] == want
        assert (want == []) == valid
    x = random_member(fan, random.Random(seed))
    assert evaluate(x, m) == evaluate(x, inflate(m))


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


@st.composite
def degenerate_matrices(draw):
    """Zero, rank-deficient, 1 x n and n x 1 integer matrices."""

    def ints(rows, cols):
        flat = draw(st.lists(st.integers(-6, 6), min_size=rows * cols, max_size=rows * cols))
        return IntMatrix([flat[i * cols : (i + 1) * cols] for i in range(rows)], shape=(rows, cols))

    kind = draw(st.sampled_from(("zero", "rank-deficient", "row", "column")))
    n = draw(st.integers(1, 6))
    if kind == "zero":
        return IntMatrix.zero(draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    if kind == "row":
        return ints(1, n)
    if kind == "column":
        return ints(n, 1)
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    k = draw(st.integers(1, min(rows, cols) - 1))
    return ints(rows, k) @ ints(k, cols)


@settings(SETTINGS, max_examples=100)
@example(IntMatrix.zero(0, 3))
@example(IntMatrix.zero(2, 2))
@example(IntMatrix([[0, 4, -6]]))
@example(IntMatrix([[6], [-4], [0]]))
@example(IntMatrix([[2, 4], [3, 6], [-1, -2]]))
@given(degenerate_matrices())
def test_snf_agrees_with_the_pivoting_oracle_on_degenerate_matrices(mat):
    u, d, v = snf(mat)
    assert u @ mat @ v == d
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    assert d == snf_by_pivots(mat)[1]


@SETTINGS
@given(st.integers(0, 6), st.integers(1, 8), st.data())
def test_hnf_rows_agrees_with_sympy(sympy, rows, cols, data):
    # sympy's Hermite form of the transpose has columns spanning the row
    # lattice, and hnf_rows is canonical, so both bases give the same rows
    from sympy.matrices.normalforms import hermite_normal_form

    flat = data.draw(st.lists(st.integers(-1024, 1024), min_size=rows * cols, max_size=rows * cols))
    mat = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
    theirs = hermite_normal_form(sympy.Matrix(rows, cols, flat).T)
    columns = [[int(theirs[i, j]) for i in range(theirs.rows)] for j in range(theirs.cols)]
    assert hnf_rows(mat) == hnf_rows(columns)


@settings(SETTINGS, max_examples=100)
@example(mat=[[2, 4, -6, 1], [3, 6, -9, 0], [1, 2, -3, -1]])
@given(st.integers(1, 6).flatmap(lambda cols: st.lists(st.lists(st.integers(-20, 20), min_size=cols, max_size=cols), max_size=5)))
def test_hnf_rows_equals_the_textbook_oracle(mat):
    # the reduced row Hermite form is unique, so the insertion order and the
    # control of the entries cannot change it; the example has dependent rows
    assert hnf_rows(mat) == hnf_rows_textbook(mat)


@st.composite
def cone_rays(draw):
    """k <= rank distinct primitive rays with entries in [-4, 4]; in about
    half the draws the last ray is a combination of the others, so the rays
    are dependent."""
    rank = draw(st.integers(1, 4))
    k = draw(st.integers(1, rank))
    vectors = st.tuples(*[st.integers(-4, 4)] * rank).filter(any).map(primitive)
    rays = draw(st.lists(vectors, min_size=k, max_size=k, unique=True))
    if k > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=k - 1, max_size=k - 1))
        last = [sum(c * r[j] for c, r in zip(coeffs, rays)) for j in range(rank)]
        assume(any(last) and primitive(last) not in rays[:-1])
        rays[-1] = primitive(last)
    return rank, rays


@settings(SETTINGS, max_examples=200)
@example(cone=(2, [(1, 0), (1, 2)]))
@example(cone=(2, [(1, 0), (-1, 0)]))
@example(cone=(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
@given(cone_rays())
def test_a_cone_is_regular_exactly_when_its_smith_divisors_are_one(cone):
    # build_fan reads regularity from the Hermite form, and the divisors it
    # reports for a cone that fails from alternating Hermite forms
    rank, rays = cone
    divisors = elementary_divisors(IntMatrix.from_columns(rays, rows=rank))
    try:
        build_fan(rank, rays, [range(len(rays))])
    except ValueError as e:
        assert any(d != 1 for d in divisors)
        assert str(e) == f"cone with rays ({cone_key(range(len(rays)))}) fails SNF test: divisors {divisors}"
    else:
        assert divisors == [1] * len(rays)


@settings(SETTINGS, max_examples=50)
@given(st.integers(1, 4), st.data())
def test_relations_are_the_hermite_form_of_the_integer_kernel(rank, data):
    # one-ray cones on random primitive rays, and the regular cones among a
    # few drawn subsets, so that cones carry both N and M operators
    vectors = st.tuples(*[st.integers(-6, 6)] * rank).filter(any).map(primitive)
    rays = data.draw(st.lists(vectors, min_size=1, max_size=7, unique=True))
    subsets = st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=rank, unique=True)
    cones = [[i] for i in range(len(rays))]
    for c in data.draw(st.lists(subsets, max_size=4)):
        try:
            build_fan(rank, rays, [c])
        except ValueError:
            continue
        cones.append(c)
    for e in relation_report(build_fan(rank, rays, cones)).entries:
        assert e.ops or e.relations == ()
        if e.ops:
            m = IntMatrix.from_columns([op.vector for op in e.ops], rows=rank)
            assert list(e.relations) == hnf_rows(kernel_basis(m))
