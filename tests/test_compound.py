"""Minors, compound/tensor/exterior squares, and their algebraic identities."""

from itertools import combinations

import numpy as np
import pytest

from wedgespec import (
    PairBasis,
    ResourceLimitError,
    ValidationError,
    compound_matrix,
    eigenvalues,
    exterior_apply,
    exterior_square,
    minor,
    multiset_match,
    tensor_square,
    wedge_vector,
)


def det_laplace(m):
    """Independent determinant oracle: first-row Laplace expansion."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        sub = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * det_laplace(sub)
    return total


def compound_by_minors(m, j):
    """Independent compound oracle built entirely from the Laplace expansion."""
    m = np.asarray(m, dtype=float)
    sets = list(combinations(range(m.shape[0]), j))
    out = np.empty((len(sets), len(sets)))
    for a, rows in enumerate(sets):
        for b, cols in enumerate(sets):
            out[a, b] = det_laplace(m[np.ix_(rows, cols)])
    return out


class TestMinor:
    def test_identity_principal(self):
        assert minor(np.eye(3), (0, 1), (0, 1)) == 1.0

    def test_2x2_determinant(self):
        assert minor([[1.0, 2.0], [3.0, 4.0]], (0, 1), (0, 1)) == -2.0

    def test_vandermonde_full(self):
        v = [[1.0, 1.0, 1.0], [1.0, 2.0, 4.0], [1.0, 3.0, 9.0]]
        # (2-1)(3-1)(3-2) = 2, confirmed by the Laplace oracle
        assert det_laplace(v) == 2.0
        assert abs(minor(v, (0, 1, 2), (0, 1, 2)) - 2.0) < 1e-14

    def test_order_four_lu_path_matches_oracle(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((5, 5))
        rows, cols = (0, 1, 3, 4), (0, 2, 3, 4)
        got = minor(m, rows, cols)
        want = det_laplace(m[np.ix_(rows, cols)])
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_ragged_sets_rejected(self):
        with pytest.raises(ValidationError):
            minor(np.eye(3), (0, 1), (0,))

    def test_unsorted_indices_rejected(self):
        with pytest.raises(ValidationError):
            minor(np.eye(3), (1, 0), (0, 1))


class TestCompound:
    def test_identity_second_compound(self):
        np.testing.assert_array_equal(compound_matrix(np.eye(3), 2), np.eye(3))

    def test_diagonal_pair_products(self):
        got = compound_matrix(np.diag([1.0, 2.0, 3.0]), 2)
        np.testing.assert_allclose(got, np.diag([2.0, 3.0, 6.0]))

    def test_order_one_is_the_matrix(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(compound_matrix(m, 1), m)

    def test_top_order_is_determinant(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4))
        got = compound_matrix(m, 4)
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - det_laplace(m)) <= 1e-11

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("j", [2, 3])
    def test_cauchy_binet(self, seed, j):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(max(j + 1, 4), 7))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        lhs = compound_matrix(a @ b, j)
        rhs = compound_matrix(a, j) @ compound_matrix(b, j)
        scale = max(1.0, np.abs(lhs).max())
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * scale)

    def test_cauchy_binet_against_laplace_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        want = compound_by_minors(a @ b, 2)
        got = compound_matrix(a, 2) @ compound_matrix(b, 2)
        np.testing.assert_allclose(got, want, atol=1e-10 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_transpose_commutes(self, j):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((5, 5))
        np.testing.assert_allclose(
            compound_matrix(m.T, j), compound_matrix(m, j).T, atol=1e-12
        )

    def test_order_out_of_range(self):
        with pytest.raises(ValidationError):
            compound_matrix(np.eye(3), 4)
        with pytest.raises(ValidationError):
            compound_matrix(np.eye(3), 0)

    def test_bool_order_rejected(self):
        with pytest.raises(ValidationError, match="compound order"):
            compound_matrix(np.eye(3), True)

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            compound_matrix(np.eye(40), 4)

    def test_force_overrides_cap(self):
        # C(46, 2) = 1035, just over the 10^6-entry cap
        got = compound_matrix(np.eye(46), 2, force=True)
        np.testing.assert_array_equal(got, np.eye(1035))


class TestTensorSquare:
    def test_identity(self):
        np.testing.assert_array_equal(tensor_square(np.eye(2)), np.eye(4))

    def test_diagonal(self):
        got = tensor_square(np.diag([2.0, 3.0]))
        np.testing.assert_array_equal(got, np.diag([4.0, 6.0, 6.0, 9.0]))

    def test_spectrum_of_symmetric_case(self):
        t = tensor_square([[2.0, 1.0], [1.0, 2.0]])
        rep = multiset_match(eigenvalues(t), [9.0, 3.0, 3.0, 1.0], tol=1e-10)
        assert rep.matched

    def test_row_major_flattening(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 3))
        t = tensor_square(m)
        n = 3
        for i1, i2, k1, k2 in [(0, 1, 2, 0), (2, 2, 1, 1), (1, 0, 0, 2)]:
            assert t[i1 * n + i2, k1 * n + k2] == m[i1, k1] * m[i2, k2]

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            tensor_square(np.eye(40))


class TestExteriorSquare:
    def test_identity(self):
        np.testing.assert_array_equal(exterior_square(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        got = exterior_square(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(got, np.diag([2.0, 3.0, 6.0]))

    def test_three_cycle_spectrum_is_cube_roots_of_unity(self):
        p = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        w = eigenvalues(exterior_square(p))
        roots = [1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]
        assert multiset_match(w, roots, tol=1e-10).matched

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_second_compound(self, seed):
        # each entry is the 2x2 minor on its row pair and column pair, bit for
        # bit, with both pairs placed by the lexicographic pair basis
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 8))
        m = rng.standard_normal((n, n))
        basis = PairBasis(n)
        got = exterior_square(m)
        assert got.shape == (basis.size, basis.size)
        for k in range(basis.size):
            for l in range(basis.size):
                assert got[k, l] == minor(m, basis.pair_at(k), basis.pair_at(l))

    @pytest.mark.parametrize("seed", range(5))
    def test_top_two_moduli_give_the_radius(self, seed):
        rng = np.random.default_rng(500 + seed)
        m = rng.standard_normal((6, 6))
        w = np.abs(eigenvalues(m))
        rho = np.abs(eigenvalues(exterior_square(m))).max()
        assert abs(rho - w[0] * w[1]) <= 1e-8 * max(1.0, rho)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValidationError):
            exterior_square([[2.0]])


class TestWedge:
    def test_basis_pair(self):
        e1, e2 = np.eye(3)[:, 0], np.eye(3)[:, 1]
        np.testing.assert_array_equal(wedge_vector(e1, e2), [1.0, 0.0, 0.0])

    def test_self_wedge_vanishes(self):
        x = np.array([1.0, -2.0, 3.5])
        np.testing.assert_array_equal(wedge_vector(x, x), np.zeros(3))

    def test_two_dimensional_determinant(self):
        np.testing.assert_array_equal(wedge_vector([1.0, 2.0], [3.0, 4.0]), [-2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            wedge_vector([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_functoriality(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        lhs = wedge_vector(a @ x, a @ y)
        rhs = exterior_square(a) @ wedge_vector(x, y)
        scale = max(1.0, np.abs(lhs).max())
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * scale)

    @pytest.mark.parametrize("seed", range(5))
    def test_exterior_apply_matches_materialized_square(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        w = rng.standard_normal(n * (n - 1) // 2)
        lhs = exterior_apply(a, w)
        rhs = exterior_square(a) @ w
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))


NOT_REAL_PAIR_INPUT = {
    "complex-array": np.array([1 + 5j, 2.0]),
    "complex-list": [1 + 5j, 2.0],
    "string": ["1.0", "y"],
    "nan": [np.nan, 1.0],
    "inf": [1.0, np.inf],
}


class TestRealFiniteInput:
    """The wedge of vectors and the implicit wedge action read reals only: a
    complex dtype is refused, not cast, as are strings and NaN or Inf."""

    @pytest.mark.parametrize("bad", NOT_REAL_PAIR_INPUT.values(), ids=NOT_REAL_PAIR_INPUT)
    @pytest.mark.parametrize("first", [True, False], ids=["x", "y"])
    def test_wedge_vector_refuses(self, bad, first):
        good = [1.0, 3.0]
        with pytest.raises(ValidationError, match="wedge_vector"):
            wedge_vector(bad, good) if first else wedge_vector(good, bad)

    @pytest.mark.parametrize("bad", NOT_REAL_PAIR_INPUT.values(), ids=NOT_REAL_PAIR_INPUT)
    def test_exterior_apply_refuses(self, bad):
        # n = 3 has three pairs
        w = np.append(np.asarray(bad), 1.0)
        with pytest.raises(ValidationError, match="exterior_apply"):
            exterior_apply(np.eye(3), w)

    def test_messages(self):
        with pytest.raises(ValidationError, match="must be real numbers: got dtype complex128"):
            wedge_vector(NOT_REAL_PAIR_INPUT["complex-array"], [1.0, 3.0])
        with pytest.raises(ValidationError, match="wedge_vector got NaN or Inf entries"):
            wedge_vector(NOT_REAL_PAIR_INPUT["nan"], [1.0, 2.0])
        with pytest.raises(ValidationError, match="exterior_apply got NaN or Inf entries"):
            exterior_apply(np.eye(3), [1.0, np.inf, 0.0])


class TestPairBasis:
    def test_lexicographic_and_complete(self):
        basis = PairBasis(4)
        assert basis.pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert basis.size == 6

    def test_index_roundtrip(self):
        basis = PairBasis(6)
        for k in range(basis.size):
            i, j = basis.pair_at(k)
            assert basis.index_of(i, j) == k

    @pytest.mark.parametrize("call", [lambda: PairBasis(True),
                                      lambda: PairBasis(3).pair_at(1.5),
                                      lambda: PairBasis(3).pair_at(True)],
                             ids=["bool-dimension", "float-position", "bool-position"])
    def test_non_integer_argument_rejected(self, call):
        with pytest.raises(ValidationError):
            call()

    def test_invalid_pair(self):
        basis = PairBasis(3)
        with pytest.raises(ValidationError):
            basis.index_of(2, 1)
        with pytest.raises(ValidationError):
            basis.pair_at(99)
