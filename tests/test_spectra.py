"""Eigenvalue, Perron-pair, and multiset-matching behavior."""

import warnings

import numpy as np
import pytest

from wedgespec import (
    ConvergenceError,
    DegeneratePerronError,
    ValidationError,
    analyze,
    as_dense_matrix,
    builtin_kernel,
    discretize,
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

    def test_residual_check_holds_past_the_square_root_of_the_float_range(self):
        # at 2^900 the squares behind ||m||_F and the residual norms overflow;
        # the check is made in units of max|m|, where a tol of 1e-300 fails.
        # LAPACK scales input this large itself, so the values move at rounding
        # level
        m = np.random.default_rng(4).standard_normal((4, 4))
        w, v = eigenpairs(2.0 ** 900 * m)
        np.testing.assert_allclose(w, 2.0 ** 900 * eigenpairs(m)[0], rtol=1e-12)
        with pytest.raises(ConvergenceError, match="exceeds 1e-300"):
            eigenpairs(2.0 ** 900 * m, tol=1e-300)

    def test_eigenvalue_past_the_float_range_is_refused(self):
        # the eigenvalue 2e308 does not fit: the residual would be NaN, which
        # no bound rejects, so finiteness is tested first, before any warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="not finite"):
                eigenpairs([[1e308, 1e308], [1e308, 1e308]])

    def test_order_matches_eigenvalues(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5))
        w, _ = eigenpairs(m)
        np.testing.assert_array_equal(w, eigenvalues(m))


def _count_solvers(monkeypatch, n=None, of=None, sizes=False):
    """Record, by name, every dense numpy eigensolver call, or only those on
    n x n input when ``n`` is given, or only those on an array equal to
    ``of`` when it is given; with ``sizes``, record (name, size) pairs."""
    calls = []

    def counted(name, inner):
        def solve(a):
            if (n is None or len(a) == n) and (of is None or np.array_equal(a, of)):
                calls.append((name, len(a)) if sizes else name)
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


def _centrosymmetric(n, seed):
    """A random symmetric m with m == J m J exactly, J the reversal."""
    b = _symmetric(n, seed)
    return b + b[::-1, ::-1]


def _grid(name, n, rule="midpoint"):
    return discretize(builtin_kernel(name), n, rule).discretized


def _halves(n):
    return [("eigvalsh", n - n // 2), ("eigvalsh", n // 2)]


# both sides of a value comparison carry the rounding of a symmetric solve;
# measured up to 6.3 eps ||m||_F on random centrosymmetric draws
_SPLIT_AGREEMENT = 16 * np.finfo(float).eps

SPLIT_INPUTS = [
    *(pytest.param(n, id=f"centrosymmetric-{n}") for n in (2, 3, 4, 5)),
    *(pytest.param((name, n, rule), id=f"{name}-{rule}-{n}")
      for name in ("green_string", "gaussian") for rule in ("midpoint", "trapezoid")
      for n in (46, 47, 200)),
]


def _split_input(spec):
    return _centrosymmetric(spec, spec) if isinstance(spec, int) else _grid(*spec)


class TestEvenOddRoute:
    # a symmetric m that equals its reversal J m J up to rounding splits into
    # even and odd blocks of sizes ceil(n/2) and floor(n/2); any size splits
    @pytest.mark.parametrize("spec", SPLIT_INPUTS)
    def test_values_split_into_halves_and_agree_with_eigvalsh(self, spec, monkeypatch):
        m = _split_input(spec)
        n = len(m)
        reference = np.linalg.eigvalsh(m)
        calls = _count_solvers(monkeypatch, sizes=True)
        values = eigenvalues(m)
        assert calls == _halves(n)
        assert not values.imag.any()
        np.testing.assert_allclose(np.sort(values.real), reference, rtol=0,
                                   atol=_SPLIT_AGREEMENT * np.linalg.norm(m))

    @pytest.mark.parametrize("spec", SPLIT_INPUTS)
    def test_pairs_are_solved_whole(self, spec, monkeypatch):
        # vectors are never split: those of c = (m + J m J) / 2 may miss the
        # residual check against m at a tol below the split's bound
        m = _split_input(spec)
        n = len(m)
        calls = _count_solvers(monkeypatch, sizes=True)
        w, v = eigenpairs(m)
        assert calls == [("eigh", n)]
        np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-13)
        residual = np.linalg.norm(m @ v - v * w, axis=0).max()
        assert residual <= 1e-13 * np.linalg.norm(m)

    def test_pairs_hold_a_tol_below_the_split_bound(self, monkeypatch):
        # m = c + d with d = -J d J at 5e-14 ||c||_F: the values split, and
        # the whole eigh keeps the residual of every pair near eps ||m||_F
        c = _centrosymmetric(4, 3)
        d = np.zeros((4, 4))
        d[1, 1], d[2, 2] = 1.0, -1.0
        m = c + 5e-14 * np.linalg.norm(c) / np.linalg.norm(d) * d
        assert np.array_equal(m, m.T)
        calls = _count_solvers(monkeypatch, sizes=True)
        eigenvalues(m)
        w, v = eigenpairs(m, tol=1e-14)
        assert calls == [*_halves(4), ("eigh", 4)]
        assert np.linalg.norm(m @ v - v * w, axis=0).max() <= 1e-14 * np.linalg.norm(m)

    @pytest.mark.parametrize("departure, split", [(1.1e-13, False), (0.9e-13, True)])
    @pytest.mark.parametrize(
        "n, i, j", [(40, 0, 0), (40, 1, 2), (40, 1, 30), (41, 1, 20)],
        ids=["corner", "top-left", "top-right", "middle-column"])
    def test_departure_from_the_reversal_decides(self, n, i, j, departure, split,
                                                 monkeypatch):
        # a symmetric p with J p J = -p leaves c = (m + J m J) / 2 alone and
        # is all of m - c; the norm test decides at 0.9 and 1.1 times its
        # bound, wherever p sits
        m = _grid("gaussian", n)
        p = np.zeros_like(m)
        p[i, j] = p[j, i] = 1.0
        p -= p[::-1, ::-1]
        nudged = m + departure * np.linalg.norm(m) / np.linalg.norm(p) * p
        assert np.array_equal(nudged, nudged.T)
        calls = _count_solvers(monkeypatch, sizes=True)
        eigenvalues(nudged)
        assert calls == (_halves(n) if split else [("eigvalsh", n)])

    @pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
    def test_cauchy_grid_is_solved_whole(self, rule, monkeypatch):
        # a Hankel kernel, 1 / (t + s): far from its reversal
        m = _grid("cauchy", 250, rule)
        calls = _count_solvers(monkeypatch, sizes=True)
        eigenvalues(m)
        assert calls == [("eigvalsh", 250)]

    def test_centrosymmetric_input_that_is_not_symmetric_is_not_split(self, monkeypatch):
        b = np.random.default_rng(5).standard_normal((7, 7))
        m = b + b[::-1, ::-1]
        assert np.array_equal(m, m[::-1, ::-1]) and not np.array_equal(m, m.T)
        calls = _count_solvers(monkeypatch, sizes=True)
        eigenvalues(m)
        eigenpairs(m)
        assert calls == [("eigvals", 7), ("eig", 7)]

    @pytest.mark.parametrize("n", [46, 47])
    @pytest.mark.parametrize("k", [-600, 600, 1000])
    def test_exact_power_of_two_scaling(self, n, k):
        # the blocks are formed on m * 2^-e, so 2^k m gives the same blocks;
        # eigvalsh on 2^-600 m itself is not exact
        m = _grid("gaussian", n)
        np.testing.assert_array_equal(eigenvalues(np.ldexp(m, k)),
                                      np.ldexp(eigenvalues(m).real, k))

    @pytest.mark.parametrize("n", [46, 47])
    def test_reversed_grid_reports_the_same_spectrum_bit_for_bit(self, n):
        # m and J m J have the same centrosymmetric part, and the blocks are
        # summed so that both give it bit for bit
        m = _grid("gaussian", n)
        assert analyze(m[::-1, ::-1]).spectrum == analyze(m).spectrum

    def test_block_solver_failure_is_a_convergence_error(self, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
        with pytest.raises(ConvergenceError, match="no convergence"):
            eigenvalues(_centrosymmetric(6, 0))


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
    def test_root_past_the_float_range_is_refused(self):
        # the iteration reads the matrix scaled by 2^-1024; only the root,
        # 2e308, is scaled back, and it does not fit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="the eigenvalues overflow float64"):
                perron_pair(np.full((2, 2), 1e308))

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

    @pytest.mark.parametrize("k", [515, 900])
    def test_scaling_past_the_square_root_of_the_float_range(self, k):
        # ||m||_F is representable, but the sum of squares behind it is not;
        # it was inf, and every root fell below tol * inf
        import warnings

        from wedgespec import random_oscillatory

        m = random_oscillatory(4, seed=1)
        lam, v = perron_pair(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam_c, v_c = perron_pair(2.0 ** k * m)
            lam_ones, _ = perron_pair(1e155 * np.ones((3, 3)))
        assert lam_c == lam * 2.0 ** k
        assert np.array_equal(v_c, v)
        assert lam_ones == pytest.approx(3e155, rel=1e-14)

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
