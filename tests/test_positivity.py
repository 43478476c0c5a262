"""Total-nonnegativity certificates, sign counting, and matrix generators."""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from wedgespec import (
    ResourceLimitError,
    TNCertificate,
    ValidationError,
    ZeroVectorError,
    builtin_kernel,
    compound_matrix,
    discretize,
    eigenvalues,
    is_totally_nonnegative,
    is_two_totally_nonnegative,
    minor,
    random_oscillatory,
    random_tn,
    sign_changes,
)
from wedgespec.positivity import MinorWitness, _neville_tn, _order_sweep
from tests.test_compound import det_laplace


def all_minors(m, k):
    """Brute-force oracle: every minor of orders 1..k via Laplace expansion."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    out = []
    for j in range(1, k + 1):
        for rows in combinations(range(n), j):
            for cols in combinations(range(n), j):
                out.append(det_laplace(m[np.ix_(rows, cols)]))
    return out


THREE_CYCLE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def plant(m, i, depth):
    """Copy of ``m`` with m[i+1, i+1] lowered so that the contiguous minor at
    rows/cols (i, i+1) becomes -depth * amax^2."""
    p = m.copy()
    amax = float(np.abs(m).max())
    p[i + 1, i + 1] = (m[i, i + 1] * m[i + 1, i] - depth * amax ** 2) / m[i, i]
    return p


class TestIsTotallyNonnegative:
    def test_all_ones(self):
        cert = is_totally_nonnegative([[1.0, 1.0], [1.0, 1.0]], 2)
        assert cert.verdict and cert.witness is None
        assert cert.minors_evaluated == 5  # four entries and one determinant
        assert cert.mode == "exhaustive"

    def test_antidiagonal_witness(self):
        cert = is_totally_nonnegative([[0.0, 1.0], [1.0, 0.0]], 2)
        assert not cert.verdict
        assert cert.witness.rows == (0, 1)
        assert cert.witness.cols == (0, 1)
        assert cert.witness.value == -1.0

    def test_vandermonde_totally_positive(self):
        v = [[1.0, 1.0, 1.0], [1.0, 2.0, 4.0], [1.0, 3.0, 9.0]]
        assert min(all_minors(v, 3)) > 0  # oracle: 9 + 9 + 1 positive minors
        cert = is_totally_nonnegative(v, 3)
        assert cert.verdict
        assert cert.minors_evaluated == 19

    def test_order_validation(self):
        with pytest.raises(ValidationError):
            is_totally_nonnegative(np.eye(3), 0)
        with pytest.raises(ValidationError):
            is_totally_nonnegative(np.eye(3), 4)

    def test_budget_exceeded(self):
        with pytest.raises(ResourceLimitError):
            is_totally_nonnegative(np.eye(30), 15, budget=1000)

    def test_sampled_mode(self):
        cert = is_totally_nonnegative(np.eye(30), 15, budget=1000, sample=True,
                                      samples=50, seed=3)
        assert cert.mode == "sampled"
        assert cert.verdict
        assert cert.minors_evaluated == 50

    @pytest.mark.parametrize("samples", [0, -3, 2.5, True])
    def test_empty_or_fractional_sample_refused(self, samples):
        # det -5: a certificate of no minors used to pass it
        with pytest.raises(ValidationError, match="samples"):
            is_totally_nonnegative([[1.0, 2.0], [3.0, 1.0]], 2, sample=True,
                                   samples=samples)

    @pytest.mark.parametrize("samples", [0, 2.5])
    def test_two_tn_checks_samples_on_every_route(self, samples):
        # the all-ones matrix is decided by its contiguous minors and never
        # samples; the argument is checked anyway, as the seed is
        with pytest.raises(ValidationError, match="^samples must be an integer >= 1"):
            is_two_totally_nonnegative(np.ones((3, 3)), samples=samples)

    @pytest.mark.parametrize("j, d", [(1, -0.5), (2, 0.9), (3, 1.3), (4, 1.5)])
    def test_witness_is_the_compound_minimum_at_the_first_offending_order(self, j, d):
        # tridiagonal d, 1, 1 with nonnegative off-diagonals: the first order
        # with a negative minor is the first k whose leading k x k minor is
        # negative. At n = 6 each order is gathered in one block, so the
        # witness is the least entry of that compound.
        m = d * np.eye(6) + np.eye(6, k=1) + np.eye(6, k=-1)
        cert = is_totally_nonnegative(m, 4)
        w = cert.witness
        assert not cert.verdict and len(w.rows) == len(w.cols) == j
        c = compound_matrix(m, j)
        sets = list(combinations(range(6), j))
        assert w.value == c.min() == c[sets.index(w.rows), sets.index(w.cols)]
        assert all(compound_matrix(m, i).min() >= 0.0 for i in range(1, j))

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_seed_not_a_nonnegative_integer_rejected(self, seed):
        # checked on the exhaustive routes too, where the seed is not used
        with pytest.raises(ValidationError, match="^seed must be an integer >= 0"):
            is_totally_nonnegative(np.ones((3, 3)), 2, seed=seed)
        with pytest.raises(ValidationError, match="^seed must be an integer >= 0"):
            is_two_totally_nonnegative(np.ones((3, 3)), seed=seed)

    def test_sampled_mode_finds_violations(self):
        cert = is_totally_nonnegative(THREE_CYCLE, 2, sample=True, samples=300, seed=0)
        assert not cert.verdict
        assert cert.witness.value < 0

    def test_scale_invariance_of_verdict(self):
        m = random_tn(4, 8, factors=12)
        assert is_totally_nonnegative(m, 4).verdict
        assert is_totally_nonnegative(1e6 * m, 4).verdict
        assert is_totally_nonnegative(1e-6 * m, 4).verdict


class TestTwoTotallyNonnegative:
    def test_diagonal(self):
        c1, c2 = is_two_totally_nonnegative(np.diag([1.0, 2.0, 3.0]))
        assert c1.verdict and c2.verdict
        assert (c1.order_checked, c2.order_checked) == (1, 2)

    def test_tridiagonal(self):
        t = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]
        assert min(all_minors(t, 2)) >= 0  # oracle enumeration
        c1, c2 = is_two_totally_nonnegative(t)
        assert c1.verdict and c2.verdict

    def test_three_cycle(self):
        # oracle: some 2-minors are -1
        assert min(all_minors(THREE_CYCLE, 2)) == -1.0
        c1, c2 = is_two_totally_nonnegative(THREE_CYCLE)
        assert c1.verdict and not c2.verdict
        assert c2.witness.value == -1.0

    def test_negative_entry_witnessed_at_order_one(self):
        c1, c2 = is_two_totally_nonnegative([[1.0, -2.0], [0.0, 1.0]])
        assert not c1.verdict
        assert c1.witness.rows == (0,) and c1.witness.cols == (1,)

    def test_sampled_above_budget(self):
        # every odd row zero: no contiguous minor is negative and the
        # contiguous scan cannot decide, so the budget sends it to sampling
        m = np.random.default_rng(0).uniform(0.5, 1.0, (80, 80))
        m[1::2] = 0.0
        c1, c2 = is_two_totally_nonnegative(m, budget=10_000, samples=200, seed=1)
        assert c1.mode == "exhaustive"
        assert c2.mode == "sampled"
        assert c2.minors_evaluated == 200

    def test_contiguous_witness_needs_no_budget(self):
        m = np.random.default_rng(0).uniform(0.5, 1.0, (80, 80))
        _, cert = is_two_totally_nonnegative(m, budget=10_000, samples=200, seed=1)
        assert (cert.verdict, cert.mode, cert.minors_evaluated) == (False, "exhaustive", 79 ** 2)
        w = cert.witness
        assert (w.rows[1] - w.rows[0], w.cols[1] - w.cols[0]) == (1, 1)
        assert w.value == minor(m, w.rows, w.cols) < 0


class TestOrderTwoOracle:
    """The exhaustive order-2 certificate against the full second compound."""

    @pytest.mark.parametrize("seed", range(8))
    def test_verdict_and_witness_match_compound(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 41))
        tn = random_tn(n, seed, factors=3 * n)
        planted = plant(tn, int(rng.integers(0, n - 1)), 5e-8)
        for m in (tn, planted, rng.uniform(0.5, 1.0, (n, n))):
            _, cert = is_two_totally_nonnegative(m)
            thresh = -1e-9 * float(np.abs(m).max()) ** 2
            assert cert.mode == "exhaustive"
            assert cert.verdict == (compound_matrix(m, 2).min() >= thresh)
            if not cert.verdict:
                w = cert.witness
                assert w.value == minor(m, w.rows, w.cols) < thresh
        assert not is_two_totally_nonnegative(planted)[1].verdict

    @staticmethod
    def _oracle_verdict(m, tol=1e-9):
        return compound_matrix(m, 2).min() >= -tol * float(np.abs(m).max()) ** 2

    @pytest.mark.parametrize("seed", range(8))
    def test_contiguous_route_matches_compound(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 41))
        i = int(rng.integers(0, n - 1))
        green = discretize(builtin_kernel("green_string"), n).discretized
        gaussian = discretize(builtin_kernel("gaussian"), n).discretized
        # strictly positive input: the (n-1)^2 contiguous minors decide
        for m in (green, gaussian, rng.uniform(0.5, 1.0, (n, n)),
                  plant(green, i, 5e-8)):
            _, cert = is_two_totally_nonnegative(m)
            assert (cert.mode, cert.minors_evaluated) == ("exhaustive", (n - 1) ** 2)
            assert cert.verdict == self._oracle_verdict(m)
            if not cert.verdict:
                w = cert.witness
                assert (w.rows[1] - w.rows[0], w.cols[1] - w.cols[0]) == (1, 1)
                assert w.value == minor(m, w.rows, w.cols)
        # a contiguous minor inside the slack band: either route, same verdict
        slack = plant(green, i, 0.5e-9)
        _, cert = is_two_totally_nonnegative(slack)
        assert cert.mode == "exhaustive"
        assert cert.verdict == self._oracle_verdict(slack)
        # zeros everywhere but two corners: the only negative 2x2 minor,
        # rows and columns (0, n-1), is not contiguous, so the sweep finds it
        corners = np.zeros((n, n))
        corners[0, n - 1], corners[n - 1, 0] = rng.uniform(0.5, 1.0, 2)
        _, cert = is_two_totally_nonnegative(corners)
        assert not self._oracle_verdict(corners)
        assert (cert.verdict, cert.mode) == (False, "exhaustive")
        assert cert.witness == MinorWitness((0, n - 1), (0, n - 1),
                                            -corners[0, n - 1] * corners[n - 1, 0])

    def test_green_80_counts_every_minor(self):
        # the exhaustive sweep is the oracle for the contiguous certificate
        g = discretize(builtin_kernel("green_string"), 80).discretized
        thresh = -1e-9 * float(np.abs(g).max()) ** 2
        witness, evaluated = _order_sweep(g, 2, thresh)
        assert witness is None
        assert evaluated == comb(80, 2) ** 2 == 9_985_600
        _, cert = is_two_totally_nonnegative(g)
        assert cert == TNCertificate(2, True, None, 79 ** 2, "exhaustive")
        planted = plant(g, 40, 5e-8)
        assert _order_sweep(planted, 2, thresh)[0].value < thresh
        _, cert = is_two_totally_nonnegative(planted)
        assert not cert.verdict
        w = cert.witness
        assert w.value == minor(planted, w.rows, w.cols) < 0


class TestPinnedDrawStreams:
    """Exact sampled certificates: any change to a draw stream fails here."""

    def test_sampled_three_cycle(self):
        cert = is_totally_nonnegative(THREE_CYCLE, 2, sample=True, samples=300, seed=0)
        assert cert == TNCertificate(2, False, MinorWitness((0, 2), (1, 2), -1.0),
                                     300, "sampled")

    def test_order_two_above_budget(self):
        # odd rows zeroed, so the contiguous scan leaves it to sampling
        m = np.random.default_rng(0).uniform(0.5, 1.0, (80, 80))
        m[1::2] = 0.0
        _, cert = is_two_totally_nonnegative(m, budget=10_000, seed=1)
        witness = MinorWitness((16, 54), (48, 56), -0.6301252302753839)
        assert cert == TNCertificate(2, False, witness, 2000, "sampled")
        assert witness.value == minor(m, witness.rows, witness.cols)


class TestOverflow:
    """Minors whose scale amax^j is not a finite float64 are refused."""

    M = random_oscillatory(6, seed=3)

    def test_exhaustive(self):
        with pytest.raises(ValidationError, match="order-5 minors overflow float64"):
            is_totally_nonnegative(2.0 ** 200 * self.M, 6)

    def test_sampled(self):
        with pytest.raises(ValidationError, match="minors overflow float64"):
            is_totally_nonnegative(2.0 ** 200 * self.M, 6, sample=True)

    def test_order_two(self):
        with pytest.raises(ValidationError, match="order-2 minors overflow"):
            is_two_totally_nonnegative(2.0 ** 600 * self.M)
        with pytest.raises(ValidationError, match="order-2 minors overflow"):
            is_two_totally_nonnegative(2.0 ** 600 * self.M, budget=10)


class TestSignChanges:
    def test_alternating(self):
        s = sign_changes([1.0, -1.0, 1.0])
        assert s.strict_count == 2
        assert s.zero_count == 0

    def test_monotone(self):
        assert sign_changes([1.0, 2.0, 3.0]).strict_count == 0

    def test_zero_discarded(self):
        s = sign_changes([1.0, 0.0, -1.0])
        assert s.strict_count == 1
        assert s.zero_count == 1

    def test_negation_invariant(self):
        v = np.array([0.3, -0.2, 0.0, 0.7, -0.1])
        assert sign_changes(v).strict_count == sign_changes(-v).strict_count

    def test_positive_scaling_invariant(self):
        v = np.array([0.3, -0.2, 0.0, 0.7, -0.1])
        assert sign_changes(v).strict_count == sign_changes(1e8 * v).strict_count

    def test_all_zero_signals(self):
        with pytest.raises(ZeroVectorError):
            sign_changes([0.0, 0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            sign_changes([])

    def test_complex_rejected(self):
        # a cast would count the real parts [1, -1] as one sign change
        with pytest.raises(ValidationError, match="must be real numbers: got dtype complex"):
            sign_changes([1.0 + 1.0j, -1.0])


class TestRandomTN:
    def test_small_case_nonnegative_det(self):
        m = random_tn(2, seed=5)
        assert m.min() >= 0.0
        assert np.linalg.det(m) >= 0.0

    def test_single_factor_is_positive_diagonal(self):
        m = random_tn(3, seed=9, factors=1)
        assert np.count_nonzero(m - np.diag(np.diag(m))) == 0
        assert np.diag(m).min() > 0.0

    def test_factors_zero_disallowed(self):
        with pytest.raises(ValidationError):
            random_tn(3, seed=0, factors=0)

    @pytest.mark.parametrize("n, seed", [(3, -1), (3, True), (3, 1.5), (True, 0)])
    def test_non_integer_dimension_or_seed_rejected(self, n, seed):
        with pytest.raises(ValidationError):
            random_tn(n, seed)

    def test_checker_oracle_n5(self):
        m = random_tn(5, seed=42, factors=30)
        assert is_totally_nonnegative(m, 5, tol=1e-10).verdict

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(random_tn(4, 7), random_tn(4, 7))
        assert not np.array_equal(random_tn(4, 7), random_tn(4, 8))

    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_low_orders_and_sampled_high(self, seed):
        n = 3 + seed % 4
        m = random_tn(n, seed=1000 + seed, factors=3 * n)
        assert is_totally_nonnegative(m, min(n, 4), tol=1e-10).verdict
        if n > 4:
            cert = is_totally_nonnegative(m, n, tol=1e-10, sample=True,
                                          samples=200, seed=seed)
            assert cert.verdict


class TestNevilleCriterion:
    """Neville elimination of m and m^T against the exhaustive certificate."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_agrees_with_all_minors_and_det(self, n):
        for seed in range(10):
            m = random_tn(n, 50 * n + seed, factors=3 * n)
            if seed % 2:
                m = plant(m, seed % (n - 1), 1e-6)
            expected = (is_totally_nonnegative(m, n, tol=1e-10).verdict
                        and np.linalg.det(m) > 0.0)
            assert expected == (seed % 2 == 0)
            assert _neville_tn(m, 1e-10 * float(np.abs(m).max())) == expected

    def test_singular_and_row_exchange_refused(self):
        assert not _neville_tn(np.ones((3, 3)), 1e-10)  # TN but singular
        assert not _neville_tn(np.array([[1.0, 1.0], [1.0, 0.5]]), 1e-10)
        assert not _neville_tn(np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-10)
        assert _neville_tn(np.array([[1.0, 0.0], [0.0, 2.0]]), 1e-10)


class TestRandomOscillatory:
    @pytest.mark.parametrize("seed", range(3))
    def test_n40_passes_numpy_oracle(self, seed):
        m = random_oscillatory(40, seed)
        assert np.linalg.det(m) > 0.0
        assert np.linalg.matrix_power(np.eye(40) + m, 39).min() > 0.0
        assert compound_matrix(m, 2).min() >= -1e-10 * float(np.abs(m).max()) ** 2

    def test_two_by_two(self):
        m = random_oscillatory(2, seed=7)
        assert m.min() > 0.0
        assert np.linalg.det(m) > 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_spectrum_real_positive_simple(self, seed):
        n = 2 + seed % 5
        m = random_oscillatory(n, seed=seed)
        w = eigenvalues(m)
        assert np.abs(w.imag).max() <= 1e-10 * np.abs(w[0])
        real = np.sort(w.real)[::-1]
        assert real.min() > 0.0
        gaps = (real[:-1] - real[1:]) / real[0]
        assert gaps.min() > 1e-10

    def test_second_eigenvector_one_sign_change(self):
        from wedgespec import eigenpairs

        m = random_oscillatory(5, seed=3)
        _, v = eigenpairs(m)
        e2 = v[:, 1].real
        assert sign_changes(e2).strict_count == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_sign_change_ladder(self, seed):
        # eigenvector j has j-1 strict sign changes; positions above the
        # second are asserted only when no entry fell below the zero
        # threshold, where the strict count is unambiguous
        from wedgespec import eigenpairs

        n = 4 + seed % 3
        m = random_oscillatory(n, seed=8000 + seed)
        _, v = eigenpairs(m)
        for j in range(n):
            s = sign_changes(v[:, j].real)
            if j < 2 or s.zero_count == 0:
                assert s.strict_count == j

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(random_oscillatory(4, 11), random_oscillatory(4, 11))

    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            random_oscillatory(1, seed=0)

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_seed_not_a_nonnegative_integer_rejected(self, seed):
        with pytest.raises(ValidationError, match="^seed must be an integer >= 0"):
            random_oscillatory(3, seed)

    @pytest.mark.parametrize("max_retries", [0, 2.5])
    def test_retry_budget_not_a_positive_integer_rejected(self, max_retries):
        with pytest.raises(ValidationError, match="^max_retries must be an integer >= 1"):
            random_oscillatory(3, 0, max_retries=max_retries)
