"""Total-nonnegativity certificates, sign counting, and matrix generators."""

import sys
import warnings
from itertools import combinations
from math import comb, frexp, ldexp

import numpy as np
import pytest

from wedgespec import (
    ResourceLimitError,
    TNCertificate,
    ValidationError,
    ZeroVectorError,
    analyze,
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
from wedgespec import positivity
from wedgespec.compound import _det_stack
from wedgespec.positivity import MINOR_BUDGET, MinorWitness, _neville_tn, _order_sweep
from wedgespec.spectra import DEFAULT_TOL
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


def slack_ramp(n, c=5e-10):
    """1 - c i j: every contiguous 2x2 minor is -c, inside the slack band at
    the default tol, while the minor on rows (i, k) and columns (j, l) is
    -c (k - i)(l - j). No entry is negative, and Karlin's deficit sums to
    about c n^2, above tol, so the scan leaves it to the sweep or sampler."""
    i = np.arange(n, dtype=float)
    return 1.0 - c * np.outer(i, i)


def green_corner(n):
    """green_string with the corner (0, n-1) set to -0.5 max|m|: a negative
    entry, so the scan cannot certify; it is the b of every 2x2 minor it is
    in, so every such minor stays >= 0 and the order-2 verdict is True."""
    m = discretize(builtin_kernel("green_string"), n).discretized.copy()
    m[0, n - 1] = -0.5 * float(np.abs(m).max())
    return m


def slack_tridiagonal(n, c=0.5):
    """The [1, 2, 1] tridiagonal with its (0, 2) zero set to -c tol amax, in
    the order-1 slack band; c = 0.5 gives m[0, 2] = -1e-9 at the default
    tol."""
    e = np.eye(n, k=1)
    m = 2.0 * np.eye(n) + e + e.T
    m[0, 2] = -c * DEFAULT_TOL * 2.0
    return m


@pytest.fixture
def scan_only(monkeypatch):
    """The order-2 scan must decide: the sweep and the sampler raise."""
    def refuse(*args):
        raise AssertionError("the scan should decide")

    monkeypatch.setattr(positivity, "_order_sweep", refuse)
    monkeypatch.setattr(positivity, "_sample_minors", refuse)


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
        # witness is the least entry of that compound of m 2^-e, scaled back.
        m = d * np.eye(6) + np.eye(6, k=1) + np.eye(6, k=-1)
        cert = is_totally_nonnegative(m, 4)
        w = cert.witness
        assert not cert.verdict and len(w.rows) == len(w.cols) == j
        e = frexp(np.abs(m).max())[1]
        c = compound_matrix(np.ldexp(m, -e), j)
        sets = list(combinations(range(6), j))
        assert w.value == ldexp(c.min(), j * e)
        assert c.min() == c[sets.index(w.rows), sets.index(w.cols)]
        assert all(compound_matrix(m, i).min() >= 0.0 for i in range(1, j))

    @pytest.mark.parametrize("budget", ["x", None, True, -1, 2.5])
    def test_budget_not_a_nonnegative_integer_rejected(self, budget):
        # checked on every call, including the sampled route and the
        # contiguous route of the order-2 check, which never read it
        with pytest.raises(ValidationError, match="^budget must be an integer >= 0"):
            is_totally_nonnegative(np.ones((3, 3)), 2, budget=budget)
        with pytest.raises(ValidationError, match="^budget must be an integer >= 0"):
            is_totally_nonnegative(np.ones((3, 3)), 2, budget=budget, sample=True)
        with pytest.raises(ValidationError, match="^budget must be an integer >= 0"):
            is_two_totally_nonnegative(np.eye(5) + np.eye(5, k=1), budget=budget)

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
        # a negative entry and no cell below the threshold: the scan cannot
        # decide, so the budget sends it to sampling
        c1, c2 = is_two_totally_nonnegative(green_corner(80), budget=10_000, samples=200,
                                            seed=1)
        assert (c1.verdict, c1.mode) == (False, "exhaustive")
        assert (c2.verdict, c2.mode, c2.minors_evaluated) == (True, "sampled", 200)

    def test_sampled_route_draws_only_two_by_two_minors(self, monkeypatch):
        # the order-1 certificate is exhaustive, so no draw goes to an entry
        orders = []

        def det_stack(sub):
            orders.append(sub.shape[-1])
            return _det_stack(sub)

        monkeypatch.setattr(positivity, "_det_stack", det_stack)
        m = slack_ramp(80)
        _, cert = is_two_totally_nonnegative(m, budget=10_000, samples=300, seed=1)
        assert cert.mode == "sampled" and orders == [2] * 300

    @pytest.mark.parametrize("n", [30, 100, 300, 600])
    def test_oscillatory_tridiagonals_are_certified_by_the_scan(self, n, scan_only):
        # [1, 2, 1], diag(n..1) + E + E^T and [1, 2, 1] with m[0, 2] = -1e-9
        # in the order-1 slack band, read as zero: each adjacent pair of rows
        # has at most four joint columns, so 3n - 5 cells decide at every n,
        # and neither the sweep nor the sampler is reached
        e = np.eye(n, k=1)
        for m in (2.0 * np.eye(n) + e + e.T, np.diag(np.arange(n, 0.0, -1.0)) + e + e.T,
                  slack_tridiagonal(n)):
            if n == 30:  # 0, or the slack entry times the diagonal 2, within tol
                assert compound_matrix(m, 2).min() == min(0.0, 2.0 * m[0, 2])
            c1, c2 = is_two_totally_nonnegative(m)
            assert c1.verdict
            assert c2 == TNCertificate(2, True, None, 3 * n - 5, "exhaustive")

    def test_contiguous_witness_needs_no_budget(self):
        m = np.random.default_rng(0).uniform(0.5, 1.0, (80, 80))
        _, cert = is_two_totally_nonnegative(m, budget=10_000, samples=200, seed=1)
        assert (cert.verdict, cert.mode, cert.minors_evaluated) == (False, "exhaustive", 79 ** 2)
        w = cert.witness
        assert (w.rows[1] - w.rows[0], w.cols[1] - w.cols[0]) == (1, 1)
        assert w.value == minor(m, w.rows, w.cols) < 0


class TestFlushedEntries:
    """The scan reads entries in [-tol amax, small) as zero, with small the
    power of two at and above which its products are normal floats, and
    certifies when Karlin's deficit plus the margin of the flushed entries
    is at most tol."""

    @pytest.mark.parametrize("width, n, cells", [
        (0.05, 100, 9771), (0.05, 300, 89059), (0.05, 600, 357395),
        (0.02, 100, 6019), (0.02, 300, 54619), (0.02, 600, 218551)])
    def test_narrow_gaussian_grids(self, scan_only, width, n, cells):
        # the far corners, about exp(-1 / width^2) / n, square below the
        # normal range; read as zero, they leave a band of joint cells
        m = discretize(builtin_kernel("gaussian", width), n).discretized
        c1, c2 = is_two_totally_nonnegative(m)
        assert c1.verdict
        assert c2 == TNCertificate(2, True, None, cells, "exhaustive")

    def test_analyze_of_the_slack_tridiagonal(self, scan_only):
        report = analyze(slack_tridiagonal(100))
        assert report.classification == "second_eigenvalue_found"
        assert report.hypothesis_certificates[1] == TNCertificate(2, True, None, 295,
                                                                  "exhaustive")

    def test_the_margin_decides_at_half_the_slack(self, scan_only):
        # at -0.5 tol amax the margin is 0.5 tol + 0.25 tol^2
        _, cert = is_two_totally_nonnegative(slack_tridiagonal(60, 0.5))
        assert cert == TNCertificate(2, True, None, 175, "exhaustive")

    def test_a_margin_above_tol_goes_to_the_sweep(self):
        # at -tol amax the margin is tol + tol^2, so the cells alone do not
        # decide, and the sweep counts every minor
        _, cert = is_two_totally_nonnegative(slack_tridiagonal(60, 1.0))
        assert cert == TNCertificate(2, True, None, comb(60, 2) ** 2, "exhaustive")

    @pytest.mark.parametrize("k", [-300, 0, 300])
    def test_products_below_the_normal_range_are_never_certified(self, k):
        # the minor on rows (0, 1) and columns (0, 3) is -0.5, and the
        # products of two eps entries underflow at scale 1
        eps = 1e-170
        m = np.array([[1.0, eps, eps, 1.0], [1.0, eps, eps / 2, 0.5],
                      [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        _, cert = is_two_totally_nonnegative(2.0 ** k * m)
        assert not cert.verdict
        w = cert.witness
        assert w.value == minor(2.0 ** k * m, w.rows, w.cols) < 0

    def test_exact_zeros_flush_nothing_at_any_scale(self, scan_only):
        e = np.eye(60, k=1)
        _, cert = is_two_totally_nonnegative(2.0 ** -1000 * (2.0 * np.eye(60) + e + e.T))
        assert cert == TNCertificate(2, True, None, 175, "exhaustive")


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
        # zeros everywhere but two corners: the only negative 2x2 minor is on
        # rows and columns (0, n-1). With the zero rows dropped, rows 0 and
        # n-1 are adjacent and their joint columns are 0 and n-1, so that
        # minor is the scan's one cell
        corners = np.zeros((n, n))
        corners[0, n - 1], corners[n - 1, 0] = rng.uniform(0.5, 1.0, 2)
        _, cert = is_two_totally_nonnegative(corners)
        assert not self._oracle_verdict(corners)
        assert (cert.verdict, cert.mode, cert.minors_evaluated) == (False, "exhaustive", 1)
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


def planted_green():
    """green_string n=100 with its (50, 51) contiguous minor lowered by 5e-8."""
    m = discretize(builtin_kernel("green_string"), 100).discretized.copy()
    m[51, 51] = (m[50, 51] * m[51, 50] - 5e-8) / m[50, 50]
    return m


def zero_rows(n):
    """uniform(0.5, 1) draw with its odd rows zeroed: the scan drops them and
    decides on the contiguous cells of the even rows."""
    m = np.random.default_rng(0).uniform(0.5, 1.0, (n, n))
    m[1::2] = 0.0
    return m


class TestPowerOfTwoScaling:
    """The scan, the sweep and the sampler decide 2^k m as they decide m."""

    BASES = {"green": discretize(builtin_kernel("green_string"), 100).discretized,
             "planted": planted_green(), "zero_rows_30": zero_rows(30),
             "zero_rows_100": zero_rows(100), "slack_ramp_30": slack_ramp(30),
             "slack_ramp_100": slack_ramp(100)}
    # verdict, mode, minors evaluated and witness position, at every k
    EXPECTED = {"green": (True, "exhaustive", 99 ** 2, None),
                "planted": (False, "exhaustive", 99 ** 2, ((50, 51), (50, 51))),
                "zero_rows_30": (False, "exhaustive", 14 * 29, ((4, 6), (26, 27))),
                "zero_rows_100": (False, "exhaustive", 49 * 99, ((54, 56), (34, 35))),
                "slack_ramp_30": (False, "exhaustive", 3915, ((0, 9), (0, 29))),
                "slack_ramp_100": (False, "sampled", 2000, ((9, 97), (0, 93)))}

    @pytest.mark.parametrize("k", [-600, -560, -530, -520, 0, 400, 500])
    @pytest.mark.parametrize("name", list(BASES))
    def test_certificate_is_scale_equivariant(self, name, k):
        m = self.BASES[name]
        verdict, mode, evaluated, position = self.EXPECTED[name]
        _, ref = is_two_totally_nonnegative(m)
        _, cert = is_two_totally_nonnegative(2.0 ** k * m)
        for c in (ref, cert):
            assert (c.verdict, c.mode, c.minors_evaluated) == (verdict, mode, evaluated)
        if position is not None:
            w, w0 = cert.witness, ref.witness
            assert (w.rows, w.cols) == (w0.rows, w0.cols) == position
            # the correctly rounded minor, bit for bit where it is normal
            value = ldexp(w0.value, 2 * k)
            assert w.value == value
            if abs(value) >= sys.float_info.min:
                assert w.value == minor(2.0 ** k * m, w.rows, w.cols)


class TestPinnedDrawStreams:
    """Exact sampled certificates: any change to a draw stream fails here."""

    def test_sampled_three_cycle(self):
        cert = is_totally_nonnegative(THREE_CYCLE, 2, sample=True, samples=300, seed=0)
        assert cert == TNCertificate(2, False, MinorWitness((0, 2), (1, 2), -1.0),
                                     300, "sampled")

    def test_order_two_above_budget(self):
        # Karlin's deficit is above tol and no cell is below the threshold,
        # so the scan leaves it to sampling; every draw is a 2x2 minor, since
        # the order-1 certificate is exhaustive
        m = slack_ramp(80)
        _, cert = is_two_totally_nonnegative(m, budget=10_000, seed=1)
        witness = MinorWitness((2, 68), (0, 76), -2.508000000012167e-06)
        assert cert == TNCertificate(2, False, witness, 2000, "sampled")
        assert len(witness.rows) == len(witness.cols) == 2
        assert witness.value == minor(m, witness.rows, witness.cols)


class TestOverflow:
    """Minors are read on m 2^-e, so a matrix whose minors' scale amax^j is
    not a finite float64 gets the verdict of m; only a witness that does not
    fit in float64 is refused."""

    M = random_oscillatory(6, seed=3)
    # a^2 is a finite float64 and the minor -2 a^2 is not
    A = 1.3e154

    def test_exhaustive(self):
        cert = is_totally_nonnegative(2.0 ** 200 * self.M, 6)
        assert cert == is_totally_nonnegative(self.M, 6)
        assert (cert.verdict, cert.mode) == (True, "exhaustive")

    def test_sampled(self):
        cert = is_totally_nonnegative(2.0 ** 200 * self.M, 6, sample=True)
        assert cert == is_totally_nonnegative(self.M, 6, sample=True)
        assert (cert.verdict, cert.mode) == (True, "sampled")

    def test_order_two(self):
        for budget in (MINOR_BUDGET, 10):
            certs = is_two_totally_nonnegative(2.0 ** 600 * self.M, budget=budget)
            assert certs == is_two_totally_nonnegative(self.M, budget=budget)
            assert [c.verdict for c in certs] == [True, True]

    def test_order_two_witness_from_the_scan(self):
        a = self.A
        with pytest.raises(ValidationError, match="order-2 minors overflow"):
            is_two_totally_nonnegative([[-a, a], [a, a]])

    def test_order_two_witness_past_the_scan_range(self):
        # entries near the float maximum: the scan's D = (a 2^-e) d - bc is
        # -inf itself, and is refused like a witness that overflows
        a = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="order-2 minors overflow"):
                is_two_totally_nonnegative([[-a, a], [a, a]])

    @pytest.mark.parametrize("budget", [MINOR_BUDGET, 0])
    def test_order_two_witness_from_the_sweep_and_sampler(self, budget):
        # every cell is at least -a eps > -tol a^2 and (0, 0) is negative,
        # so the scan leaves it to the sweep, or above the budget to the
        # sampler; both find the minor on rows and columns (0, 2)
        a, eps = self.A, 1e-12 * self.A
        m = [[-a, eps, a], [eps, eps, eps], [a, eps, a]]
        _, cert = is_two_totally_nonnegative(np.array(m) / a, budget=budget)
        assert cert.mode == ("exhaustive" if budget else "sampled")
        assert cert.witness == MinorWitness((0, 2), (0, 2), -2.0)
        with pytest.raises(ValidationError, match="order-2 minors overflow"):
            is_two_totally_nonnegative(m, budget=budget)


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
