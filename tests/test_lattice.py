import random

import pytest

from fanalg.lattice import (
    IntMatrix,
    complete_to_basis,
    hnf_rows,
    primitive,
    snf,
)

from support import elementary_divisors, kernel_basis


def diag_of(d: IntMatrix) -> list[int]:
    return [d[i, i] for i in range(min(d.rows, d.cols))]


class TestSnf:
    def test_diag_2_3(self):
        m = IntMatrix([[2, 0], [0, 3]])
        u, d, v = snf(m)
        assert diag_of(d) == [1, 6]
        assert u @ m @ v == d

    def test_identity(self):
        m = IntMatrix.identity(3)
        u, d, v = snf(m)
        assert d == IntMatrix.identity(3)
        assert u == IntMatrix.identity(3)
        assert v == IntMatrix.identity(3)

    def test_2468(self):
        m = IntMatrix([[2, 4], [6, 8]])
        _, d, _ = snf(m)
        assert diag_of(d) == [2, 4]

    def test_zero_matrix(self):
        m = IntMatrix.zero(2, 3)
        u, d, v = snf(m)
        assert d == m and u.is_unimodular() and v.is_unimodular()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_properties(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntMatrix([[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
            u, d, v = snf(m)
            assert u @ m @ v == d
            assert abs(u.det()) == 1 and abs(v.det()) == 1
            diag = diag_of(d)
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 if a else b == 0
            for i in range(d.rows):
                for j in range(d.cols):
                    if i != j:
                        assert d[i, j] == 0

    def test_deterministic(self):
        m = IntMatrix([[4, 6, 2], [6, 4, 8]])
        assert snf(m) == snf(m)


class TestPrimitive:
    def test_examples(self):
        assert primitive((4, 6)) == (2, 3)
        assert primitive((1, 0, 0)) == (1, 0, 0)
        assert primitive((-4, -6)) == (-2, -3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="no primitive direction"):
            primitive((0, 0))

    def test_scale_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            v = tuple(rng.randint(-9, 9) for _ in range(3))
            if not any(v):
                continue
            c = rng.randint(1, 5)
            assert primitive(tuple(c * x for x in v)) == primitive(v)


class TestCompleteToBasis:
    def test_standard(self):
        w = complete_to_basis([(1, 0)])
        assert w.column(0) == (1, 0) and abs(w.det()) == 1

    def test_2_1(self):
        w = complete_to_basis([(2, 1)])
        assert w.column(0) == (2, 1) and abs(w.det()) == 1

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError, match="not a basis fragment"):
            complete_to_basis([(2, 0)])

    def test_dependent_rejected(self):
        with pytest.raises(ValueError, match="not a basis fragment"):
            complete_to_basis([(1, 0), (2, 0)])

    def test_empty_needs_rank(self):
        assert complete_to_basis([], rank=3) == IntMatrix.identity(3)

    def test_random(self):
        rng = random.Random(11)
        done = 0
        while done < 30:
            n = rng.randint(2, 4)
            k = rng.randint(1, n)
            cols = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
            m = IntMatrix.from_columns(cols, rows=n)
            if any(d != 1 for d in elementary_divisors(m)):
                continue
            w = complete_to_basis(cols)
            assert abs(w.det()) == 1
            assert [w.column(j) for j in range(k)] == cols
            done += 1


class TestApply:
    def test_identity(self):
        assert IntMatrix.identity(2).apply((5, -3)) == (5, -3)

    def test_shear(self):
        assert IntMatrix([[1, 0], [-1, 1]]).apply((1, 1)) == (1, 0)

    def test_swap(self):
        assert IntMatrix([[0, 1], [1, 0]]).apply((1, 0)) == (0, 1)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2).apply((1, 2, 3))


class TestKernelAndHermite:
    def test_kernel_projective_plane_rays(self):
        m = IntMatrix.from_columns([(1, 0), (0, 1), (-1, -1)], rows=2)
        basis = kernel_basis(m)
        assert hnf_rows(basis) == [(1, 1, 1)]

    def test_kernel_independent(self):
        m = IntMatrix.from_columns([(1, 0), (0, 1)], rows=2)
        assert kernel_basis(m) == []

    def test_kernel_membership(self):
        rng = random.Random(3)
        for _ in range(30):
            m = IntMatrix([[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)])
            for vec in kernel_basis(m):
                assert m.apply(vec) == (0, 0)

    def test_hnf_canonical(self):
        rows = [(0, 2), (3, 1)]
        assert hnf_rows(rows) == hnf_rows(list(reversed(rows)))


class TestInverse:
    def test_unimodular_inverse(self):
        m = IntMatrix([[2, 1], [1, 1]])
        assert m @ m.inverse() == IntMatrix.identity(2)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[2, 0], [0, 1]]).inverse()
