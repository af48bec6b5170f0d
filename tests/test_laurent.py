import random
from fractions import Fraction

import pytest

from fanalg.lattice import IntMatrix
from fanalg.laurent import (
    LaurentPoly,
    binomial,
    divide_by_binomial,
    divide_by_product,
    monomial_map,
    poly_from_data,
    poly_to_data,
)


def rand_poly(rng, rank, terms=3, emax=2, cmax=4):
    return LaurentPoly(
        rank,
        [
            (tuple(rng.randint(-emax, emax) for _ in range(rank)), Fraction(rng.randint(-cmax, cmax), rng.randint(1, 3)))
            for _ in range(terms)
        ],
    )


class TestRing:
    def test_product_of_binomials(self):
        t = LaurentPoly.monomial((1,))
        one = LaurentPoly.one(1)
        assert (t - one) * (t + one) == t * t - one

    def test_unit(self):
        rng = random.Random(0)
        f = rand_poly(rng, 2)
        assert f * LaurentPoly.one(2) == f

    def test_inverse_monomial(self):
        assert LaurentPoly.monomial((-1,)) * LaurentPoly.monomial((1,)) == LaurentPoly.one(1)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            LaurentPoly.one(1) * LaurentPoly.one(2)

    @pytest.mark.parametrize("seed", range(4))
    def test_ring_axioms(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            f, g, h = (rand_poly(rng, 2) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + g == g + f
            assert f - f == LaurentPoly.zero(2)

    def test_negative_power_of_unit(self):
        m = LaurentPoly.monomial((2, -1), Fraction(3))
        assert m ** (-1) * m == LaurentPoly.one(2)


class TestDivision:
    def test_univariate(self):
        t = LaurentPoly.monomial((1,))
        assert divide_by_binomial(t * t - LaurentPoly.one(1), (1,)) == t + LaurentPoly.one(1)

    def test_diagonal_binomial(self):
        f = LaurentPoly.monomial((1, 1)) - LaurentPoly.one(2)
        assert divide_by_binomial(f, (1, 1)) == LaurentPoly.one(2)

    def test_not_divisible(self):
        f = LaurentPoly.monomial((1,)) - LaurentPoly.constant(1, 2)
        assert divide_by_binomial(f, (1,)) is None

    def test_zero_polynomial(self):
        assert divide_by_binomial(LaurentPoly.zero(2), (1, 0)) == LaurentPoly.zero(2)
        assert divide_by_product(LaurentPoly.zero(2), [(1, 0), (0, 1)]) == LaurentPoly.zero(2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            divide_by_binomial(LaurentPoly.one(2), (0, 0))

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            divide_by_binomial(LaurentPoly.one(2), (2, 0))

    def test_product_examples(self):
        f = binomial((1, 0)) * binomial((0, 1))
        assert divide_by_product(f, [(1, 0), (0, 1)]) == LaurentPoly.one(2)
        assert divide_by_product(binomial((1, 0)), [(1, 0), (0, 1)]) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        dirs = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 2), (0, 0, -1)]
        for _ in range(30):
            g = rand_poly(rng, 3)
            v = dirs[rng.randrange(len(dirs))]
            f = binomial(v) * g
            assert divide_by_binomial(f, v) == g

    def test_order_independence(self):
        rng = random.Random(9)
        vs = [(1, 0), (0, 1), (1, 1)]
        g = rand_poly(rng, 2)
        f = g
        for v in vs:
            f = f * binomial(v)
        results = set()
        for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            q = divide_by_product(f, [vs[i] for i in perm])
            results.add(q)
        assert len(results) == 1
        assert divide_by_product(f, vs) == g

    def test_repeated_vector_rejected(self):
        with pytest.raises(ValueError):
            divide_by_product(LaurentPoly.one(2), [(1, 0), (1, 0)])


class TestMonomialMap:
    def test_double_cover(self):
        f = binomial((1,))
        img = monomial_map(f, IntMatrix([[2]]))
        assert img == binomial((2,))

    def test_collapse_to_zero(self):
        f = binomial((1,))
        assert monomial_map(f, IntMatrix([[0]])) == LaurentPoly.zero(1)

    def test_kernel_direction(self):
        f = LaurentPoly.monomial((1, -1))
        assert monomial_map(f, IntMatrix([[1, 1]])) == LaurentPoly.one(1)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            monomial_map(LaurentPoly.one(2), IntMatrix([[1]]))

    def test_zero_row_matrix(self):
        f = rand_poly(random.Random(1), 2)
        img = monomial_map(f, IntMatrix.zero(0, 2))
        assert img.rank == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_multiplicative(self, seed):
        rng = random.Random(seed)
        q = IntMatrix([[1, 2], [0, -1], [3, 1]])
        for _ in range(20):
            f, g = rand_poly(rng, 2), rand_poly(rng, 2)
            assert monomial_map(f * g, q) == monomial_map(f, q) * monomial_map(g, q)


class TestUnits:
    def test_examples(self):
        assert LaurentPoly.monomial((1, -1), Fraction(3)).is_unit()
        assert not (LaurentPoly.monomial((1,)) - LaurentPoly.constant(1, 2)).is_unit()
        assert not LaurentPoly.zero(1).is_unit()


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(20):
            f = rand_poly(rng, 2)
            assert poly_from_data(poly_to_data(f), 2) == f

    def test_canonical_order(self):
        f = LaurentPoly(1, {(2,): Fraction(1), (-1,): Fraction(1, 2)})
        data = poly_to_data(f)
        assert [rec["e"] for rec in data] == [[-1], [2]]
        assert data[0]["c"] == "1/2"
