"""Eigenvalue, Perron-pair, and multiset-matching behavior."""

import numpy as np
import pytest

from wedgespec import (
    ConvergenceError,
    DegeneratePerronError,
    ValidationError,
    as_dense_matrix,
    eigenpairs,
    eigenvalues,
    multiset_match,
    perron_pair,
    sort_spectrum,
    spectral_radius,
)


class TestEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(eigenvalues(np.eye(3)), np.ones(3))

    def test_diagonal_sorted_descending(self):
        w = eigenvalues(np.diag([1.0, 3.0, 2.0]))
        np.testing.assert_allclose(w, [3.0, 2.0, 1.0])

    def test_rotation_matrix_conjugate_pair(self):
        w = eigenvalues([[0.0, -1.0], [1.0, 0.0]])
        # equal moduli, argument ascending: -i before +i
        np.testing.assert_allclose(w, [-1j, 1j], atol=1e-14)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            eigenvalues([[np.nan, 0.0], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            eigenvalues([[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("a", [
        [[2.0 + 1.0j, 1.0], [1.0, 1.0]],
        np.eye(2, dtype=complex),  # a complex dtype even with zero imaginary parts
    ], ids=["complex-entry", "complex-dtype"])
    def test_complex_rejected(self, a):
        # a cast to float64 would drop the imaginary parts with only a warning
        with pytest.raises(ValidationError, match="must be real numbers: got dtype complex"):
            as_dense_matrix(a)

    @pytest.mark.parametrize("seed", range(6))
    def test_conjugation_closure(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((7, 7))
        w = eigenvalues(m)
        np.testing.assert_array_equal(sort_spectrum(w), sort_spectrum(w.conj()))

    @pytest.mark.parametrize("seed", range(6))
    def test_trace_and_determinant(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 8))
        m = rng.standard_normal((n, n))
        w = eigenvalues(m)
        norm = np.linalg.norm(m)
        assert abs(w.sum() - np.trace(m)) <= n * 1e-9 * norm
        assert abs(w.prod() - np.linalg.det(m)) <= 1e-8 * max(1.0, norm) ** n

    @pytest.mark.parametrize("seed", range(4))
    def test_radius_transpose_invariant(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = rng.standard_normal((6, 6))
        r1 = spectral_radius(eigenvalues(m))
        r2 = spectral_radius(eigenvalues(m.T))
        assert abs(r1 - r2) <= 1e-9 * max(1.0, r1)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((8, 8))
        np.testing.assert_array_equal(eigenvalues(m), eigenvalues(m))


class TestEigenpairs:
    @pytest.mark.parametrize("seed", range(4))
    def test_residual_bound(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((6, 6))
        w, v = eigenpairs(m)
        res = np.linalg.norm(m @ v - v * w[None, :], axis=0)
        assert res.max() <= 1e-9 * np.linalg.norm(m)

    def test_order_matches_eigenvalues(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5))
        w, _ = eigenpairs(m)
        np.testing.assert_array_equal(w, eigenvalues(m))


def _count_solvers(monkeypatch, n=None):
    """Record, by name, every dense numpy eigensolver call, or only those on
    n x n input when ``n`` is given."""
    calls = []

    def counted(name, inner):
        def solve(a):
            if n is None or len(a) == n:
                calls.append(name)
            return inner(a)
        return solve

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


def _symmetric(n, seed):
    b = np.random.default_rng(seed).standard_normal((n, n))
    return b + b.T


def _nudged(m):
    """``m`` with one off-diagonal entry moved by one ulp: not symmetric."""
    c = m.copy()
    c[0, 1] = np.nextafter(c[0, 1], np.inf)
    return c


class TestSymmetricRoute:
    def test_eigenpairs_solves_symmetric_input_with_eigh(self, monkeypatch):
        calls = _count_solvers(monkeypatch)
        m = _symmetric(8, 0)
        eigenpairs(m)
        assert calls == ["eigh"]
        calls.clear()
        eigenpairs(_nudged(m))
        assert calls == ["eig"]

    def test_eigenvalues_solves_symmetric_input_with_eigvalsh(self, monkeypatch):
        calls = _count_solvers(monkeypatch)
        m = _symmetric(8, 1)
        eigenvalues(m)
        assert calls == ["eigvalsh"]
        calls.clear()
        eigenvalues(_nudged(m))
        assert calls == ["eigvals"]

    @pytest.mark.parametrize("seed", range(4))
    def test_real_orthonormal_pairs_agree_with_eigvalsh(self, seed):
        m = _symmetric(9, seed)
        w, v = eigenpairs(m)
        assert w.dtype == v.dtype == np.float64
        np.testing.assert_allclose(v.T @ v, np.eye(9), rtol=0, atol=1e-12)
        values = eigenvalues(m)
        assert not values.imag.any()
        np.testing.assert_allclose(np.sort(w), np.sort(values.real),
                                   rtol=0, atol=1e-12 * np.linalg.norm(m))
        # both routes sort canonically: modulus descending
        assert np.all(np.diff(np.abs(w)) <= 0)

    def test_corrupted_eigh_result_is_refused(self, monkeypatch):
        inner = np.linalg.eigh

        def shifted(a):
            w, v = inner(a)
            return w + 1e-6 * np.abs(w).max(), v

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(ConvergenceError, match="residual"):
            eigenpairs(_symmetric(6, 1))

    def test_symmetric_solver_failure_is_a_convergence_error(self, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
        with pytest.raises(ConvergenceError, match="no convergence"):
            eigenvalues(_symmetric(4, 2))


class TestSpectralRadius:
    def test_real_triple(self):
        assert spectral_radius([3.0, 2.0, 1.0]) == 3.0

    def test_imaginary_pair(self):
        assert spectral_radius([1j, -1j]) == 1.0

    def test_zero(self):
        assert spectral_radius([0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            spectral_radius([])


class TestPerronPair:
    def test_symmetric_ones_vector(self):
        lam, v = perron_pair([[2.0, 1.0], [1.0, 2.0]])
        assert abs(lam - 3.0) <= 1e-8
        np.testing.assert_allclose(np.abs(v), np.full(2, np.sqrt(0.5)), atol=1e-8)

    def test_identity(self):
        lam, v = perron_pair(np.eye(2))
        assert abs(lam - 1.0) <= 1e-9
        assert v.min() >= -1e-9
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_nilpotent_degenerate(self):
        with pytest.raises(DegeneratePerronError):
            perron_pair([[0.0, 1.0], [0.0, 0.0]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            perron_pair([[1.0, -1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("max_iter", [2.5, 0, -3, True])
    def test_max_iter_not_a_positive_integer_rejected(self, max_iter):
        with pytest.raises(ValidationError, match="^max_iter must be an integer >= 1"):
            perron_pair(np.eye(2), max_iter=max_iter)

    @pytest.mark.parametrize("k", [0, 20, -30])
    def test_negative_slack_scales_with_the_matrix(self, k):
        # -1e-12 is inside the nonnegativity slack tol * max|m| at every scale
        m = np.array([[2.0, 1.0, -1e-12], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        lam, v = perron_pair(2.0 ** k * m)
        assert lam == pytest.approx(2.0 ** k * spectral_radius(eigenvalues(m)), rel=1e-12)
        assert v.min() >= 0.0

    @pytest.mark.parametrize("k", [-500, -40, 40, 480])
    def test_exact_power_of_two_scaling(self, k):
        from wedgespec import random_oscillatory

        m = random_oscillatory(7, seed=11)
        c = 2.0 ** k
        lam, v = perron_pair(m)
        lam_c, v_c = perron_pair(c * m)
        assert lam_c == lam * c
        assert np.array_equal(v_c, v)

    def test_imprimitive_fallback(self):
        # A^2 = I, eigenvalues +-1; power iteration stagnates and the dense
        # fallback must still produce the nonnegative eigenvector of +1.
        a = np.array([[0.0, 2.0], [0.5, 0.0]])
        lam, v = perron_pair(a)
        assert abs(lam - 1.0) <= 1e-8
        assert v.min() >= -1e-9
        np.testing.assert_allclose(a @ v, lam * v, atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = rng.uniform(0.0, 1.0, (n, n))
        lam, v = perron_pair(m)
        assert abs(lam - spectral_radius(eigenvalues(m))) <= 1e-8 * max(1.0, lam)
        assert v.min() >= -1e-9


class TestMultisetMatch:
    def test_permutation_exact(self):
        rep = multiset_match([2.0, 3.0, 6.0], [6.0, 3.0, 2.0], tol=1e-9)
        assert rep.matched and rep.max_residual == 0.0

    def test_epsilon_within_tol(self):
        rep = multiset_match([1.0], [1.0 + 1e-12], tol=1e-9)
        assert rep.matched
        assert abs(rep.max_residual - 1e-12) < 1e-15

    def test_cardinality_mismatch(self):
        rep = multiset_match([1.0, 2.0], [1.0], tol=1e-9)
        assert not rep.matched
        assert rep.leftover_a == (2 + 0j,)
        assert rep.leftover_b == ()

    def test_complex_pairing(self):
        a = [1 + 2j, 1 - 2j, 0.5]
        b = [1 - 2j, 0.5, 1 + 2j]
        rep = multiset_match(a, b, tol=1e-12)
        assert rep.matched

    def test_distance_beyond_tol(self):
        rep = multiset_match([1.0], [1.1], tol=1e-3)
        assert not rep.matched
        assert rep.leftover_a and rep.leftover_b


    def test_threshold_follows_the_scale(self):
        # 1e-9 and 2e-9 are a factor 2 apart; an absolute floor of tol would pair them
        rep = multiset_match([1e-9], [2e-9], tol=1e-8)
        assert not rep.matched
        assert rep.tolerance == pytest.approx(2e-17, rel=1e-12)

    @pytest.mark.parametrize("c", [2.0 ** -40, 2.0 ** -20, 2.0 ** 20],
                             ids=["2^-40", "2^-20", "2^20"])
    def test_scaled_spectra_match_alike(self, c):
        # the spectra of test_maximum_matching_leaves_only_unmatchable, scaled
        t = 1e-3
        a = np.array([1 + 0.5 * t, 1 - 0.55 * t, 1 - 5 * t])
        b = np.array([1 + 0.4 * t, 1 + 1.4 * t, 1 + 5 * t])
        rep = multiset_match(c * a, c * b, tol=t)
        assert not rep.matched and len(rep.pairs) == 2

    def test_augmenting_path_completes_greedy(self):
        # greedy pairs 1+0.5t with 1+0.4t first and strands 1-0.55t; the
        # pairing 1+0.5t -> 1+1.4t (0.9t), 1-0.55t -> 1+0.4t (0.95t) is within t
        t = 1e-3
        rep = multiset_match([1 + 0.5 * t, 1 - 0.55 * t], [1 + 0.4 * t, 1 + 1.4 * t], tol=t)
        assert rep.matched
        assert rep.leftover_a == rep.leftover_b == ()
        assert sorted(rep.pairs, key=lambda p: p[0].real) == [
            (1 - 0.55 * t, 1 + 0.4 * t), (1 + 0.5 * t, 1 + 1.4 * t)]
        assert rep.max_residual == pytest.approx(0.95 * t, rel=1e-9)

    def test_maximum_matching_leaves_only_unmatchable(self):
        # the same pair of overlaps plus a value on each side that matches
        # nothing: the overlaps are paired and only the far values are left
        t = 1e-3
        a = [1 + 0.5 * t, 1 - 0.55 * t, 1 - 5 * t]
        b = [1 + 0.4 * t, 1 + 1.4 * t, 1 + 5 * t]
        rep = multiset_match(a, b, tol=t)
        assert not rep.matched
        assert len(rep.pairs) == 2
        assert rep.leftover_a == (1 - 5 * t + 0j,)
        assert rep.leftover_b == (1 + 5 * t + 0j,)


def test_sort_spectrum_total_order():
    # all on the unit circle: tie broken by argument ascending in (-pi, pi]
    s = sort_spectrum([1.0, -1.0, 1j, -1j])
    np.testing.assert_array_equal(s, np.array([-1j, 1 + 0j, 1j, -1 + 0j]))


def test_sort_spectrum_negative_real_argument_is_pi():
    s = sort_spectrum([complex(-1.0, -0.0), complex(-1.0, 0.0)])
    assert np.all(np.angle((s.real + 0.0) + 1j * (s.imag + 0.0)) > 0)


def test_as_dense_matrix_copy_and_dtype():
    m = as_dense_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)


def test_as_dense_matrix_returns_validated_float64_array_itself():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert as_dense_matrix(m) is m
    # anything else is a new array: a list, another dtype, a strided view
    for a in ([[1.0, 2.0], [3.0, 4.0]], m.astype(np.float32), m.T):
        out = as_dense_matrix(a)
        assert out is not a and not np.shares_memory(out, m)
        np.testing.assert_array_equal(out, np.asarray(a, dtype=float))
    with pytest.raises(ValidationError, match="NaN or Inf"):
        as_dense_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
