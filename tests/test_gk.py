"""Verdict engine: classifications, theorem verifiers, and serialization."""

import json
import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from wedgespec import (
    ConvergenceError,
    ValidationError,
    analyze,
    builtin_kernel,
    discretize,
    eigenpairs,
    eigenvalues,
    exterior_square,
    random_oscillatory,
    random_tn,
    report_to_dict,
    sign_changes,
    verification_to_dict,
    verify_theorem1,
    verify_theorem2,
)
from wedgespec.gk import (
    CLASS_COMPLEX_PAIR,
    CLASS_DEGENERATE,
    CLASS_MULTIPLE,
    CLASS_SECOND,
    CLASS_VIOLATED,
    DEFAULT_RESIDUAL_TOL,
    _to_json,
)

from .test_positivity import green_corner, planted_green
from .test_spectra import _count_solvers

THREE_CYCLE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
TRIDIAG = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
# diag(1) + the 5 x 5 nilpotent Jordan-type block triu(ones, 1)
UNIT_AND_JORDAN = np.block([[np.ones((1, 1)), np.zeros((1, 5))],
                            [np.zeros((5, 1)), np.triu(np.ones((5, 5)), 1)]])


class TestAnalyzeExamples:
    def test_diagonal(self):
        r = analyze(np.diag([3.0, 2.0, 1.0]))
        assert r.classification == CLASS_SECOND
        assert r.lambda1 == pytest.approx(3.0, abs=1e-10)
        assert r.lambda2 == pytest.approx(2.0, abs=1e-10)
        assert r.rho_wedge == pytest.approx(6.0, abs=1e-10)
        assert r.residual_theorem3 <= 1e-12
        assert r.circle_count == 1

    def test_tridiagonal_closed_form(self):
        # eigenvalues 2 + sqrt(2), 2, 2 - sqrt(2); the wedge radius is their
        # top pair product, confirmed against the explicit 3x3 exterior square
        r = analyze(TRIDIAG)
        lam1 = 2.0 + math.sqrt(2.0)
        assert r.classification == CLASS_SECOND
        assert r.lambda1 == pytest.approx(lam1, rel=1e-12)
        assert r.lambda2 == pytest.approx(2.0, rel=1e-10)
        assert r.rho_wedge == pytest.approx(2.0 * lam1, rel=1e-12)
        explicit = np.abs(eigenvalues(exterior_square(TRIDIAG))).max()
        assert r.rho_wedge == pytest.approx(explicit, rel=1e-12)

    @pytest.mark.parametrize("n", [60, 80, 100])
    def test_long_tridiagonal_closed_form(self, n):
        # eigenvalues 2 + 2 cos(k pi / (n + 1)), k = 1..n; lambda3 / lambda2
        # is 0.9988 at n = 100, but the Ritz values converge at the rate of
        # the first eigenvalue past the iteration's columns
        m = 2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
        r = analyze(m)
        assert r.classification == CLASS_SECOND
        assert r.lambda2 == pytest.approx(2.0 + 2.0 * math.cos(2 * math.pi / (n + 1)),
                                          rel=1e-10)

    def test_three_cycle_complex_pair(self):
        r = analyze(THREE_CYCLE)
        assert r.classification == CLASS_COMPLEX_PAIR
        assert r.circle_count == 3
        z, zbar = r.complex_pair
        assert z == pytest.approx(complex(-0.5, math.sqrt(3) / 2), abs=1e-10)
        assert zbar == pytest.approx(z.conjugate())
        # both facts appear: the order-2 hypothesis certificate is false
        c1, c2 = r.hypothesis_certificates
        assert c1.verdict and not c2.verdict

    def test_identity_multiple_leading(self):
        r = analyze(np.eye(3))
        assert r.classification == CLASS_MULTIPLE
        assert r.circle_count == 3
        assert r.lambda2 is None

    def test_nilpotent_degenerate(self):
        r = analyze(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert r.classification == CLASS_DEGENERATE
        assert r.lambda1 <= 1e-9

    def test_negative_entries_hypotheses_violated(self):
        r = analyze(np.array([[3.0, 0.0], [0.0, -2.0]]))
        assert r.classification == CLASS_VIOLATED
        assert r.lambda2 is None
        # spectral facts still reported
        assert r.lambda1 == pytest.approx(3.0)
        assert r.rho_wedge == pytest.approx(6.0)
        c1, _ = r.hypothesis_certificates
        assert not c1.verdict

    def test_rank_one_wedge_degenerate(self):
        # nonnegative with vanishing wedge radius: the positivity conclusion
        # has no second eigenvalue to offer, so the hypotheses are reported
        # as violated while both certificates stay true
        r = analyze(np.diag([1.0, 0.0, 0.0]))
        assert r.classification == CLASS_VIOLATED
        assert r.rho_wedge <= 1e-12
        c1, c2 = r.hypothesis_certificates
        assert c1.verdict and c2.verdict

    def test_dimension_one_rejected(self):
        with pytest.raises(ValidationError):
            analyze([[5.0]])

    def test_complex_input_rejected(self):
        # a cast would drop the imaginary parts and analyze the real part
        with pytest.raises(ValidationError, match="must be real numbers: got dtype complex"):
            analyze([[2.0 + 1.0j, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    @pytest.mark.parametrize("kind", ["sampled-route", "contiguous-route"])
    def test_seed_not_a_nonnegative_integer_rejected(self, kind, seed):
        # the seed is checked whether or not the sampled order-2 route uses it
        if kind == "sampled-route":
            m = green_corner(100)
            assert analyze(m).hypothesis_certificates[1].mode == "sampled"
        else:
            m = random_oscillatory(5, 1)
        with pytest.raises(ValidationError, match="^seed must be an integer >= 0"):
            analyze(m, seed=seed)

    # the last three are no reals at all and raised a bare TypeError
    @pytest.mark.parametrize("circle_tol", [-1.0, 0.0, 1.0, 2.0, math.nan, math.inf,
                                            "x", None, [0.5]])
    def test_circle_tol_outside_unit_interval_rejected(self, circle_tol):
        with pytest.raises(ValidationError, match="circle_tol"):
            analyze(np.diag([3.0, 2.0, 1.0]), circle_tol=circle_tol)

    def test_numpy_circle_tol_accepted(self):
        r = analyze(np.diag([3.0, 2.0, 1.0]), circle_tol=np.float64(1e-3))
        assert r.circle_tol == 1e-3 and r.classification == "second_eigenvalue_found"

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0.0, True])
    @pytest.mark.parametrize("name", ["tol", "residual_tol"])
    def test_tolerance_not_finite_positive_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be a finite positive real"):
            analyze(random_oscillatory(4, seed=0), **{name: value})

    def test_planted_contiguous_minor_above_the_budget(self):
        # green n=100 has C(100,2)^2 minors, above the exhaustive budget; the
        # contiguous scan still finds the planted one
        m = discretize(builtin_kernel("green_string"), 100).discretized.copy()
        m[51, 51] = (m[50, 51] * m[51, 50] - 5e-8) / m[50, 50]
        r = analyze(m)
        assert r.classification == CLASS_VIOLATED
        cert = r.hypothesis_certificates[1]
        assert (cert.mode, cert.minors_evaluated) == ("exhaustive", 99 ** 2)
        assert (cert.witness.rows, cert.witness.cols) == ((50, 51), (50, 51))
        assert cert.witness.value == pytest.approx(-5e-8, rel=1e-6)

    @pytest.mark.parametrize("kind, n", [("tridiagonal", 100), ("tridiagonal", 300),
                                         ("diagonal", 100)])
    def test_zero_laden_jacobi_matrices_rest_on_an_exhaustive_certificate(self, kind, n):
        # [1, 2, 1] and diag(n..1) + E + E^T have zeros, and above n = 80
        # their order-2 certificate was 2,000 sampled minors; the scan of
        # adjacent nonzero rows on joint columns certifies them exactly
        e = np.eye(n, k=1)
        diag = 2.0 * np.ones(n) if kind == "tridiagonal" else np.arange(n, 0.0, -1.0)
        r = analyze(np.diag(diag) + e + e.T)
        assert r.classification == CLASS_SECOND
        cert = r.hypothesis_certificates[1]
        assert (cert.verdict, cert.mode) == (True, "exhaustive")
        assert cert.minors_evaluated < 3 * n

    def test_overflowing_witness_refused(self):
        # a^2 is a finite float64 and the witness minor -2 a^2 is not
        a = 1.3e154
        with pytest.raises(ValidationError, match="order-2 minors overflow float64"):
            analyze([[-a, a], [a, a]])

    def test_planted_minor_found_below_the_normal_range(self):
        # at 2^-530 the planted minor, about -5e-8 * 2^-1060, underflows to
        # -0.0, and so would every product of two entries; the scan is made
        # on entries scaled by an exact power of two
        r = analyze(2.0 ** -530 * planted_green())
        assert r.classification == CLASS_VIOLATED
        cert = r.hypothesis_certificates[1]
        assert (cert.verdict, cert.mode, cert.minors_evaluated) == (False, "exhaustive", 99 ** 2)
        assert (cert.witness.rows, cert.witness.cols) == ((50, 51), (50, 51))


class TestAnalyzeProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_scale_equivariance(self, seed):
        m = random_tn(4, seed=2000 + seed, factors=12)
        r1 = analyze(m)
        r2 = analyze(3.5 * m)
        assert r1.classification == r2.classification
        assert r2.lambda1 == pytest.approx(3.5 * r1.lambda1, rel=1e-9)
        assert r2.rho_wedge == pytest.approx(3.5 ** 2 * r1.rho_wedge, rel=1e-9)
        if r1.lambda2 is not None:
            assert r2.lambda2 == pytest.approx(3.5 * r1.lambda2, rel=1e-9)
        for a, b in (
            (r1.sign_changes_e1, r2.sign_changes_e1),
            (r1.sign_changes_e2, r2.sign_changes_e2),
        ):
            if a is not None:
                assert a.strict_count == b.strict_count

    @pytest.mark.parametrize("seed", range(5))
    def test_transpose_invariance(self, seed):
        m = random_oscillatory(4, seed=seed)
        r1, r2 = analyze(m), analyze(m.T)
        assert r1.classification == r2.classification
        assert r2.lambda1 == pytest.approx(r1.lambda1, rel=1e-9)
        assert r2.lambda2 == pytest.approx(r1.lambda2, rel=1e-9)
        assert r2.rho_wedge == pytest.approx(r1.rho_wedge, rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_lambda2_is_second_in_modulus(self, seed):
        n = 3 + seed % 4
        m = random_oscillatory(n, seed=3000 + seed)
        r = analyze(m)
        assert r.classification == CLASS_SECOND
        moduli = np.abs(np.asarray(r.spectrum))
        assert r.lambda2 >= moduli[2] - 1e-8 * r.lambda1
        assert 0.0 < r.lambda2 < r.lambda1

    @pytest.mark.parametrize("seed", range(8))
    def test_oscillatory_sign_structure(self, seed):
        n = 2 + seed % 5
        m = random_oscillatory(n, seed=4000 + seed)
        r = analyze(m)
        assert r.classification == CLASS_SECOND
        assert r.sign_changes_e1.strict_count == 0
        assert r.sign_changes_e2.strict_count == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_sign_counts_are_those_of_the_eigenpairs_columns(self, seed):
        # nonsymmetric draws with complex eigenvalues: e1 (and e2 when lambda2
        # is real) count as the real columns of the dense solve do
        n = 5 + seed % 6
        for m in (np.random.default_rng(seed).uniform(0.0, 1.0, (n, n)),
                  np.random.default_rng(seed).standard_normal((n, n))):
            assert np.any(_assert_counts_of_eigenpairs_columns(m).imag != 0.0)

    @pytest.mark.parametrize("n", [45, 96, 101, 200])
    @pytest.mark.parametrize("name", ["green_string", "gaussian", "cauchy"])
    def test_sign_counts_on_kernel_grids_are_those_of_the_eigenpairs_columns(
            self, name, n):
        # at odd n the middle entry of e2 is zero up to rounding, so
        # zero_count compares the Ritz vector and the dense column there
        m = discretize(builtin_kernel(name), n).discretized
        assert _assert_counts_of_eigenpairs_columns(m)[1].imag == 0.0

    def test_sign_counts_behind_tied_moduli_are_those_of_the_eigenpairs_columns(self):
        w = _assert_counts_of_eigenpairs_columns(_one_and_four_rotations())
        assert w[1].imag != 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_two_tn_never_complex_pair(self, seed):
        # for the generated totally nonnegative family the hypotheses hold,
        # so the circle never carries a conjugate pair
        m = random_tn(5, seed=5000 + seed, factors=15)
        r = analyze(m)
        assert r.classification in (CLASS_SECOND, CLASS_MULTIPLE, CLASS_DEGENERATE,
                                    CLASS_VIOLATED)
        assert r.classification != CLASS_COMPLEX_PAIR

    def test_large_matrix_uses_implicit_wedge_route(self):
        # the radius comes from subspace iteration on m, never from the
        # materialized square; cross-check against the dense route on a grid
        # whose exterior square is entrywise positive
        from wedgespec import builtin_kernel, discretize

        m = discretize(builtin_kernel("green_string"), 50).discretized
        dense = np.abs(eigenvalues(exterior_square(m, force=True))).max()
        w = np.abs(eigenvalues(m))
        assert dense == pytest.approx(w[0] * w[1], rel=1e-9)
        assert _radius(m) == pytest.approx(dense, rel=1e-9)

    @pytest.mark.parametrize("n", [50, 200])
    def test_rotating_wedge_spectrum_takes_the_whole_space(
            self, n, iterations, single_route):
        # the cyclic permutation has all n eigenvalues on the unit circle,
        # more ties at |lambda2| than the six start columns; the dense
        # moduli widen the iteration to all n columns, an invariant span, on
        # the single route (see TestSingleRoute)
        r = single_route(np.roll(np.eye(n), 1, axis=0), [("eigvals", n)])
        assert abs(r.spectrum[1].imag) > 1e-8  # complex second eigenvalue
        assert r.classification == CLASS_COMPLEX_PAIR
        assert r.circle_count == n
        assert r.rho_wedge == pytest.approx(1.0, abs=1e-12)
        [[steps, ok]] = iterations
        assert ok and steps <= 3

    def test_diagonal_similarity_perron_agreement(self):
        # power iteration used to stop at tol * ||m||, which left the Perron
        # root of this non-normal similarity 1.3e-6 off the dense root
        m = random_oscillatory(4, seed=72)
        d = 2.0 ** np.random.default_rng(72).uniform(-2.0, 2.0, 4)
        r1 = analyze(m)
        r2 = analyze(d[:, None] * m / d[None, :])
        assert r2.classification == r1.classification == CLASS_SECOND
        assert r2.lambda1 == pytest.approx(r1.lambda1, rel=1e-9)
        assert r2.lambda2 == pytest.approx(r1.lambda2, rel=1e-9)

    @pytest.mark.parametrize("c", [1e-6, 2.0 ** -24, 2.0 ** -80, 2.0 ** 40])
    def test_verdict_survives_positive_scaling(self, c):
        m = random_oscillatory(6, seed=3)
        r1, r2 = analyze(m), analyze(c * m)
        assert r1.classification == r2.classification == CLASS_SECOND
        assert r2.lambda1 == pytest.approx(c * r1.lambda1, rel=1e-9)
        assert r2.lambda2 == pytest.approx(c * r1.lambda2, rel=1e-9)


    @pytest.mark.parametrize("k", [0, -20, -540])
    def test_planted_wedge_error_is_refused_at_every_scale(self, k, monkeypatch):
        # rho_wedge 1 % too large; the residual is relative to lambda1^2 and
        # reads the same at every scale, where one floored at 1 passed it
        # from 2^-20 down
        import wedgespec.gk as gkmod

        m = 2.0 ** k * random_oscillatory(6, seed=3)
        assert analyze(m).classification == CLASS_SECOND
        inner = gkmod._wedge_radius

        def planted(a, moduli):
            radius, lambda1, vectors = inner(a, moduli)
            return 1.01 * radius, lambda1, vectors

        monkeypatch.setattr(gkmod, "_wedge_radius", planted)
        with pytest.raises(ConvergenceError, match="two routes"):
            analyze(m)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [3, 6, 20])
    def test_rank_one_keeps_its_classification(self, n, seed):
        # lambda2 = 0, so rho_wedge is rounding noise: relative to rho_wedge
        # the two routes would disagree, relative to lambda1^2 they agree
        rng = np.random.default_rng(seed)
        m = np.outer(rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n))
        noisy = m + 1e-14 * np.abs(m).max() * rng.uniform(0.0, 1.0, (n, n))
        for a in (m, noisy):
            r = analyze(a)
            assert r.classification == CLASS_VIOLATED
            assert r.residual_theorem3 <= 1e-12

    def test_overflowing_minors_are_an_input_error(self):
        with pytest.raises(ValidationError,
                           match="the exterior-square eigenvalues overflow float64"):
            analyze(2.0 ** 600 * random_oscillatory(6, seed=3))


def _assert_counts_of_eigenpairs_columns(m):
    """Assert that analyze counts the sign changes of e1, and of e2 when
    lambda2 is real, as ``sign_changes`` counts them on the real columns of
    an independent ``eigenpairs`` call, zero_count included; return the
    dense spectrum."""
    r = analyze(m)
    w, v = eigenpairs(m)
    if r.circle_count > 1:
        assert r.sign_changes_e1 is r.sign_changes_e2 is None
        return w
    assert r.sign_changes_e1 == sign_changes(v[:, 0].real)
    assert (r.sign_changes_e2 is not None) == (w[1].imag == 0.0)
    if w[1].imag == 0.0:
        assert r.sign_changes_e2 == sign_changes(v[:, 1].real)
    return w


def _one_and_four_rotations():
    """2 (+) four plane rotations: lambda1 = 2 ahead of eight nonreal values
    on the unit circle, more moduli tied at |lambda2| than the wedge
    iteration has columns."""
    m = np.zeros((9, 9))
    m[0, 0] = 2.0
    for j, t in enumerate([0.5, 1.0, 2.0, 2.5]):
        m[2 * j + 1:2 * j + 3, 2 * j + 1:2 * j + 3] = [[np.cos(t), -np.sin(t)],
                                                       [np.sin(t), np.cos(t)]]
    return m


TINY_NEGATIVE = np.array([[2.0, 1.0, -1e-12], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])


def _bipartite(half):
    # eigenvalues come in pairs +-s over the singular values s of b
    b = np.random.default_rng(0).uniform(0.5, 1.0, (half, half))
    z = np.zeros((half, half))
    return np.block([[z, b], [b.T, z]])


@pytest.fixture
def iterations(monkeypatch):
    """Wrap gk._ritz_iteration; record [steps, converged] of every call."""
    import wedgespec.gk as gkmod

    inner = gkmod._ritz_iteration
    calls = []

    class Counting(np.ndarray):
        def __matmul__(self, other):  # one product a @ q per step
            calls[-1][0] += 1
            return np.asarray(self) @ other

    def counted(a, start, *args):
        calls.append([0, None])
        result = inner(np.asarray(a).view(Counting), start, *args)
        calls[-1][1] = result[2]
        return result

    monkeypatch.setattr(gkmod, "_ritz_iteration", counted)
    return calls


def _perturb_ritz_radius(monkeypatch, factor):
    """Scale |theta_1|, the wedge iteration's reading of lambda1, and divide
    |theta_2| by the same factor, so that rho_wedge stays as it was."""
    import wedgespec.gk as gkmod

    inner = gkmod._ritz_iteration

    def perturbed(a, start, *args):
        moduli, vectors, ok = inner(a, start, *args)
        return moduli * np.array([factor, 1.0 / factor]), vectors, ok

    monkeypatch.setattr(gkmod, "_ritz_iteration", perturbed)


class TestPerronCheck:
    # lambda1 is checked by the wedge iteration alone, by |theta_1|, its
    # leading Ritz value; an iteration that does not converge is refused
    def test_bipartite_stall_checks_nothing_and_solves_once(self, iterations, monkeypatch):
        # +-rho share the spectral circle, so power iteration would stall;
        # the Ritz step resolves both, so the one iteration converges and the
        # dense solve is not repeated. The matrix is symmetric and the
        # iteration converged, so its one n x n solve is eigvalsh.
        solves = _count_solvers(monkeypatch, n=40)
        r = analyze(_bipartite(20))
        assert r.classification == CLASS_MULTIPLE and r.circle_count == 2
        assert [ok for _, ok in iterations] == [True]
        assert solves == ["eigvalsh"]

    def test_general_input_solves_once_without_vectors(self, iterations, monkeypatch):
        # the wedge iteration runs on all 8 columns, so each of its Ritz steps
        # solves an 8 x 8 q^T m q too; the dense solves of m 2^-e, the scaled
        # copy analyze reads, are counted
        m = random_oscillatory(8, seed=2)
        solves = _count_solvers(monkeypatch, of=np.ldexp(m, -math.frexp(np.abs(m).max())[1]))
        r = analyze(m)
        assert r.classification == CLASS_SECOND
        assert [ok for _, ok in iterations] == [True]
        assert solves == ["eigvals"]

    def test_bipartite_400_checks_lambda1_without_blind_steps(self, iterations, monkeypatch):
        m = _bipartite(200)
        assert analyze(m).classification == CLASS_MULTIPLE
        [[steps, ok]] = iterations
        assert ok and steps < 100
        _perturb_ritz_radius(monkeypatch, 1 + 2e-6)
        with pytest.raises(ConvergenceError, match="disagree on the spectral radius"):
            analyze(m)

    def test_complex_second_eigenvalue_widens_the_iteration(
            self, iterations, monkeypatch):
        # eight moduli tie at |lambda2|, so the iteration runs on all nine
        # columns and converges at once; the one dense solve is eigvals, the
        # other 9 x 9 solves are the Ritz steps' eig of q^T m q, the leading
        # Ritz vector gives e1, and lambda1 is checked
        m = _one_and_four_rotations()
        solves = _count_solvers(monkeypatch, n=9)
        r = analyze(m)
        assert abs(r.spectrum[1].imag) > 1e-8
        [[steps, ok]] = iterations
        assert ok and steps <= 3
        assert solves == ["eigvals"] + ["eig"] * steps
        assert r.sign_changes_e1 == sign_changes(np.eye(9)[0])
        assert r.rho_wedge == pytest.approx(2.0, rel=1e-12)
        assert r.rho_wedge == pytest.approx(_dense_wedge_radius(m), rel=1e-12)

    def test_green_converges_through_both_loops(self, iterations):
        # one loop gives both rho_wedge and the lambda1 check
        r = analyze(discretize(builtin_kernel("green_string"), 50).discretized)
        assert r.classification == CLASS_SECOND
        [[steps, ok]] = iterations
        assert ok and 0 < steps < 100 * 50

    @pytest.mark.parametrize("n, seed", [(3, 0), (5, 1), (8, 2), (10, 3)])
    def test_oscillatory_converges_through_both_loops(self, iterations, n, seed):
        # one loop gives both rho_wedge and the lambda1 check
        r = analyze(random_oscillatory(n, seed=seed))
        assert r.classification == CLASS_SECOND
        assert [ok for _, ok in iterations] == [True]

    def test_perron_disagreement_is_refused(self, monkeypatch):
        _perturb_ritz_radius(monkeypatch, 1 + 2e-6)
        with pytest.raises(ConvergenceError, match="disagree on the spectral radius"):
            analyze(TRIDIAG)

    def test_lambda1_is_checked_outside_the_order_one_certificate(self, monkeypatch):
        # the signature similarity J TRIDIAG J has negative entries and the
        # spectrum of TRIDIAG
        m = np.diag([1.0, -1.0, 1.0]) @ TRIDIAG @ np.diag([1.0, -1.0, 1.0])
        r = analyze(m)
        assert not r.hypothesis_certificates[0].verdict
        assert r.classification == CLASS_VIOLATED
        _perturb_ritz_radius(monkeypatch, 1 + 2e-6)
        with pytest.raises(ConvergenceError, match="disagree on the spectral radius"):
            analyze(m)

    def test_unconverged_iteration_is_refused(self, monkeypatch):
        # an iteration that reports no convergence after its budget gives no
        # reading at all: analyze refuses, with no dense route to fall back on
        import wedgespec.gk as gkmod

        inner = gkmod._ritz_iteration

        def stalled(a, start, *args):
            moduli, _, _ = inner(a, start, *args)
            return moduli, None, False

        monkeypatch.setattr(gkmod, "_ritz_iteration", stalled)
        # the three moduli of TRIDIAG plan all three columns and s = 1 step,
        # so the budget is 4 s + 20
        with pytest.raises(ConvergenceError,
                           match="did not converge in 24 steps on 3 columns"):
            analyze(TRIDIAG)

    def test_jordan_block_budget_runs_out(self, iterations):
        # the Ritz values of a Jordan block move by about eps^(1/n) from one
        # step to the next and never settle; its n tied moduli plan all n
        # columns and s = 1, so the iteration is refused after 4 s + 20 steps
        for n in (3, 5, 8):
            with pytest.raises(ConvergenceError,
                               match=f"did not converge in 24 steps on {n} columns"):
                analyze(np.eye(n) + np.eye(n, k=1))
        assert iterations == [[24, False]] * 3

    @pytest.mark.parametrize("k", [20, -30])
    def test_tiny_negative_entry_keeps_its_verdict(self, k):
        # -1e-12 is inside the nonnegativity slack tol * max|m| at every scale
        r1, r2 = analyze(TINY_NEGATIVE), analyze(2.0 ** k * TINY_NEGATIVE)
        assert r1.classification == r2.classification == CLASS_SECOND
        assert r2.lambda1 == pytest.approx(2.0 ** k * r1.lambda1, rel=1e-12)


def _dense_wedge_radius(m):
    return float(np.abs(eigenvalues(exterior_square(m))).max())


def _radius(m):
    """rho_wedge of ``gk._wedge_radius``, sized by the dense moduli of ``m``
    as ``analyze`` sizes it."""
    import wedgespec.gk as gkmod

    return gkmod._wedge_radius(m, np.abs(eigenvalues(m)))[0]


class TestWedgeRadius:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_dense_square_on_oscillatory(self, n):
        m = random_oscillatory(n, seed=7000 + n)
        assert _radius(m) == pytest.approx(_dense_wedge_radius(m), rel=1e-10)

    @pytest.mark.parametrize("name", ["green_string", "gaussian", "cauchy"])
    @pytest.mark.parametrize("n", [44, 46])
    def test_matches_dense_square_on_kernels(self, name, n):
        # 44 and 46 sat on either side of the old dense/implicit switch
        from wedgespec import builtin_kernel, discretize

        m = discretize(builtin_kernel(name), n).discretized
        dense = float(np.abs(eigenvalues(exterior_square(m, force=True))).max())
        assert _radius(m) == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize("k", [-500, -40, -8, 2, 40, 480])
    def test_exact_even_power_of_two_scaling(self, k):
        # analyze reads the radius on m 2^-e, which 2^k m shares
        m = random_oscillatory(7, seed=11)
        assert analyze(2.0 ** k * m).rho_wedge == math.ldexp(analyze(m).rho_wedge, 2 * k)

    def test_three_cycle_takes_the_whole_space(self, monkeypatch):
        # every wedge eigenvalue of the 3-cycle has modulus 1, so two columns
        # cannot converge; the dense moduli widen the iteration to all three
        from wedgespec.spectra import _ritz_iteration

        start = np.column_stack([np.ones(3), np.arange(3.0)])
        assert not _ritz_iteration(THREE_CYCLE, start, 300)[2]
        seen = _record_iterations(monkeypatch)
        assert _radius(THREE_CYCLE) == pytest.approx(1.0, rel=1e-12)
        assert [(k, ok) for _, k, (_, _, ok) in seen] == [(3, True)]

    @pytest.mark.parametrize("c", [1.0, 5.0])
    def test_start_outside_polynomial_invariant_subspace(self, c):
        # eigenvalue 1 on span(ones, arange) and 5 on its complement: a start
        # in that span is exactly invariant and gave rho_wedge 1. At c = 5 the
        # matrix is an integer matrix, so ones stays an exact eigenvector.
        n = 4
        q = np.linalg.qr(np.column_stack([np.ones(n), np.arange(n, dtype=float)]))[0]
        m = c * (q @ q.T + 5.0 * (np.eye(n) - q @ q.T))
        if c == 5.0:
            m = np.round(m)
            assert np.array_equal(m @ np.ones(n), 5.0 * np.ones(n))
        r = analyze(m)
        assert r.classification == CLASS_MULTIPLE
        assert r.rho_wedge == pytest.approx(25.0 * c * c, rel=1e-12)
        assert r.residual_theorem3 <= 1e-12

    @pytest.mark.parametrize("m, classification", [
        (THREE_CYCLE, CLASS_COMPLEX_PAIR),
        (np.eye(3), CLASS_MULTIPLE),
        (np.array([[2.0, -1.0], [-1.0, 1.0]]), CLASS_VIOLATED),
        (TRIDIAG, CLASS_SECOND),
        # complex lambda2 behind lambda1, which the Ritz values converge to
        *((np.random.default_rng(1).uniform(0.5, 1.0, (n, n)), CLASS_VIOLATED)
          for n in (40, 50, 100)),
    ])
    def test_wrong_radius_is_refused_for_every_classification(
            self, m, classification, monkeypatch):
        import wedgespec.gk as gkmod

        r = analyze(m)
        assert r.classification == classification
        assert r.residual_theorem3 <= DEFAULT_RESIDUAL_TOL
        inner = gkmod._wedge_radius

        def wrong(a, moduli):
            radius, lambda1, vectors = inner(a, moduli)
            return 1.5 * radius, lambda1, vectors

        monkeypatch.setattr(gkmod, "_wedge_radius", wrong)
        with pytest.raises(ConvergenceError, match="two routes"):
            analyze(m)

    @pytest.mark.parametrize("m", [
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.triu(np.ones((5, 5)), 1),
        np.diag([1.0, 0.0, 0.0]),
        np.outer([1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 0.5, 2.0]),
        UNIT_AND_JORDAN,
    ])
    def test_zero_radius(self, m):
        # nilpotent and rank-one inputs, and a Jordan block behind a simple
        # eigenvalue: zero up to the rounding of |theta_1 theta_2|
        eps = np.finfo(float).eps
        assert _radius(m) <= 4 * eps * np.linalg.norm(m) ** 2

    def test_jordan_block_keeps_its_verdict(self):
        # the nilpotent block's Ritz values meet the residual target while
        # still about 1e-13^(1/5) off zero; the iteration waits for them
        r = analyze(UNIT_AND_JORDAN)
        assert r.classification == CLASS_VIOLATED
        assert r.rho_wedge == 0.0


def _similar(n, seed, x=4.0):
    """random_oscillatory(n, seed) and its similarity D m D^-1, d = 2^U(-x, x)."""
    m = random_oscillatory(n, seed=seed)
    d = 2.0 ** np.random.default_rng(seed).uniform(-x, x, n)
    return m, d[:, None] * m / d[None, :]


# Draws that analyze refused under the similarity while the iteration stopped
# on a residual in the space of pairs: non-normal input met it with
# det(q^T m q) still 1e-8 to 1.2e-7 off rho_wedge.
SIMILARITY_DRAWS = [(3, 56), (3, 64), (3, 66), (3, 79), (3, 82), (4, 1), (4, 72),
                    (4, 98), (5, 79), (7, 40), (8, 25), (8, 79), (10, 11), (12, 31)]


class TestDiagonalSimilarity:
    @pytest.mark.parametrize("n, seed", SIMILARITY_DRAWS)
    def test_similarity_keeps_the_verdict(self, n, seed):
        m, similar = _similar(n, seed)
        r, s = analyze(m), analyze(similar)
        assert s.classification == r.classification == CLASS_SECOND
        assert s.lambda1 == pytest.approx(r.lambda1, rel=1e-8)
        assert s.lambda2 == pytest.approx(r.lambda2, rel=1e-8)

    def test_wider_similarity_keeps_the_verdict(self):
        # the first of the 180 sweep draws at x = 8 that were refused while
        # the wedge iteration ran on a fixed six columns or fewer
        m, similar = _similar(3, 1, x=8.0)
        r, s = analyze(m), analyze(similar)
        assert s.classification == r.classification == CLASS_SECOND
        assert s.lambda2 == pytest.approx(r.lambda2, rel=1e-8)

    @pytest.mark.parametrize("x", [8.0, 12.0])
    @pytest.mark.parametrize("n, seed", SIMILARITY_DRAWS)
    def test_wide_similarity_keeps_the_verdict(self, n, seed, x):
        # d = 2^U(-x, x) inflates ||m||_F far past the spectrum; n <= 12 plans
        # all n columns, on which the Ritz values are those of q^T m q
        m, similar = _similar(n, seed, x)
        r, s = analyze(m), analyze(similar)
        assert s.classification == r.classification == CLASS_SECOND
        assert s.lambda1 == pytest.approx(r.lambda1, rel=1e-8)
        assert s.lambda2 == pytest.approx(r.lambda2, rel=1e-8)

    @pytest.mark.parametrize("m, p", [
        (_similar(3, 56)[1], 3),
        (discretize(builtin_kernel("gaussian"), 60).discretized, 6),
    ], ids=["similar-3-56", "gaussian-60"])
    def test_converged_span_is_invariant_to_target(self, m, p, monkeypatch):
        # converged means the leading min(2, k) Ritz pairs (theta, x) have
        # ||a x - x theta||_F <= 1e-13 ||a||_F, for the Perron column and the
        # wedge columns alike. The wedge columns are planned from the dense
        # moduli: all three for the 3 x 3 similarity, and six for the
        # gaussian grid, whose |lambda_7 / lambda_2| is below 1e-6
        import wedgespec.gk as gkmod
        from wedgespec import perron_pair

        moduli = np.abs(eigenvalues(m))
        assert gkmod._wedge_plan(moduli)[0] == p
        seen = _record_iterations(monkeypatch)
        perron_pair(m)
        _radius(m)
        assert [ok for _, _, (_, _, ok) in seen] == [True, True]
        assert [k for _, k, _ in seen] == [1, p]
        for a, k, (_, x, _) in seen:
            assert x.shape == (m.shape[0], min(2, k))
            assert _ritz_residual(a, x) <= 1e-13


def _record_iterations(monkeypatch):
    """Record (a, k, (moduli, vectors, converged)) of every Ritz iteration."""
    import wedgespec.gk as gkmod
    import wedgespec.spectra as spectramod

    inner = spectramod._ritz_iteration
    seen = []

    def recorded(a, start, *args):
        result = inner(a, start, *args)
        seen.append((a, start.shape[1], result))
        return result

    monkeypatch.setattr(spectramod, "_ritz_iteration", recorded)
    monkeypatch.setattr(gkmod, "_ritz_iteration", recorded)
    return seen


@pytest.fixture
def qr_calls(monkeypatch):
    """Record the argument shape of every np.linalg.qr call; spectra looks it up per call."""
    import wedgespec.spectra as spectramod

    inner = np.linalg.qr
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(spectramod.np.linalg, "qr", counted)
    return shapes


def _ritz_residual(a, x):
    """||a x - x theta||_F / ||a||_F for the columns of ``x``, with theta the
    Rayleigh quotients x^H a x / x^H x. For a Ritz vector x = q y of an
    orthonormal q that quotient is the Ritz value itself."""
    ax = a @ x
    theta = np.sum(x.conj() * ax, axis=0) / np.sum(x.conj() * x, axis=0)
    return float(np.linalg.norm(ax - x * theta) / np.linalg.norm(a))


def _tridiagonal(n):
    """The [1, 2, 1] Toeplitz tridiagonal: |lambda_3 / lambda_2| -> 1 as n grows."""
    return 2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)


class TestWedgePlan:
    def test_plain_steps_solve_nothing(self, monkeypatch):
        # the first `plain` steps take a q and its QR only; every later step
        # makes one p x p eig
        import wedgespec.gk as gkmod
        from wedgespec.spectra import _ritz_iteration

        m = discretize(builtin_kernel("green_string"), 50).discretized
        p, s = gkmod._wedge_plan(np.abs(eigenvalues(m)))
        assert s > 2
        calls = []

        class Counting(np.ndarray):
            def __matmul__(self, other):
                calls.append("step")
                return np.asarray(self) @ other

        inner = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: (calls.append("eig"), inner(a))[1])
        q = gkmod._start_basis(50, p)
        _, _, ok = _ritz_iteration(m.view(Counting), q, 4 * s + 20, s - 2)
        steps = calls.count("step")
        assert ok and steps >= s
        assert calls == ["step"] * (s - 2) + ["step", "eig"] * (steps - s + 2)

    @pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (7, 2), (10, 3), (12, 4)])
    def test_plan_is_invariant(self, n, seed):
        # 2^k m, m^T and J m J have the spectrum of m, so the dense moduli
        # plan the same columns and steps for all four
        import wedgespec.gk as gkmod

        m = random_oscillatory(n, seed=seed)
        plans = {gkmod._wedge_plan(np.abs(eigenvalues(a)))
                 for a in (m, 2.0 ** -300 * m, 2.0 ** 40 * m, m.T.copy(), m[::-1, ::-1].copy())}
        assert len(plans) == 1

    @pytest.mark.parametrize("m, steps", [
        (_tridiagonal(200), 40),
        (np.random.default_rng(1).uniform(0.5, 1.0, (40, 40)), 4),
    ], ids=["tridiagonal-200", "uniform-40"])
    def test_close_moduli_take_few_steps(self, m, steps, iterations):
        # |lambda_3 / lambda_2| is 0.9999 on the tridiagonal and lambda2 is one
        # of a complex pair on the uniform draw; the old sizing, 7 and 6
        # columns, took 4,888 and 1,030 steps, the planned ones at most `steps`
        moduli = np.abs(eigenvalues(m))
        assert _radius(m) == pytest.approx(moduli[0] * moduli[1], rel=1e-10)
        [[taken, ok]] = iterations
        assert ok and taken <= steps


class TestOrthonormalization:
    @pytest.mark.parametrize("m", [
        discretize(builtin_kernel("gaussian"), 60).discretized,
        discretize(builtin_kernel("green_string"), 50).discretized,
        random_oscillatory(10, seed=3),
        _similar(3, 56)[1],
    ], ids=["gaussian-60", "green-50", "oscillatory-10-3", "similar-3-56"])
    def test_converged_ritz_pairs_meet_the_target(self, m, monkeypatch):
        seen = _record_iterations(monkeypatch)
        analyze(m)
        [(a, _, (_, x, ok))] = seen
        assert ok and _ritz_residual(a, x) <= 1e-13

    @pytest.mark.parametrize("m", [
        discretize(builtin_kernel("green_string"), 50).discretized,
        random_oscillatory(10, seed=3),
    ], ids=["green-50", "oscillatory-10-3"])
    def test_one_householder_qr_per_step(self, m, iterations, qr_calls):
        # the first analyze makes one QR of the start columns, which is kept
        # for the next call of the same plan; then each call makes one QR per
        # step but the last, which stops on the span it has just read
        import wedgespec.gk as gkmod

        gkmod._start_basis.cache_clear()
        p, s = gkmod._wedge_plan(np.abs(eigenvalues(m)))
        analyze(m)
        analyze(m)
        [steps, ok], again = iterations
        assert ok and again == [steps, ok] and steps >= s
        assert qr_calls == [(m.shape[0], p)] * (2 * steps - 1)

    @pytest.mark.parametrize("m", [
        np.diag([1.0, 0.0, 0.0]),
        np.outer([1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 0.5, 2.0]),
    ], ids=["diag-1-0-0", "outer"])
    def test_rank_one_wedge_takes_the_fallback(self, m, monkeypatch, qr_calls):
        # m q has rank one, and the Householder QR of each step completes it
        # to an orthonormal basis; the radius is zero to rounding. The start
        # basis is kept from an earlier call, so every QR is of a step's m q
        import wedgespec.gk as gkmod

        gkmod._start_basis(m.shape[0], gkmod._wedge_plan(np.abs(eigenvalues(m)))[0])
        seen = _record_iterations(monkeypatch)
        radius = _radius(m)
        assert len(qr_calls) >= 1
        assert radius <= 4 * np.finfo(float).eps * np.linalg.norm(m) ** 2
        [(a, _, (_, x, ok))] = seen
        assert ok and _ritz_residual(a, x) <= 1e-13

    def test_tiny_second_eigenvalue_keeps_its_radius(self, monkeypatch):
        # lambda2 is 1e-9 of lambda1, and lambda3 half of lambda2
        basis = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
        m = basis @ np.diag([1.0, 1e-9, 5e-10, 1e-10]) @ basis.T
        seen = _record_iterations(monkeypatch)
        assert _radius(m) == pytest.approx(1e-9, rel=1e-7)
        [(a, _, (_, x, ok))] = seen
        assert ok and _ritz_residual(a, x) <= 1e-13


@pytest.fixture
def single_route(monkeypatch, iterations):
    """Make the exterior square and ``eigenpairs`` raise wherever ``analyze``
    could reach them, and record the dense solves; check on return that one
    call made the ``dense`` solves, as (name, size) pairs, and one converged
    iteration."""
    import wedgespec.gk as gkmod
    import wedgespec.spectra as spectramod

    def refuse(*args, **kwargs):
        raise AssertionError("analyze reached a dense fallback")

    monkeypatch.setattr(gkmod.compound, "exterior_square", refuse)
    monkeypatch.setattr(spectramod, "eigenpairs", refuse)

    def run(m, dense):
        n = len(m)
        solves = _count_solvers(monkeypatch, sizes=True)
        r = analyze(m)
        [[steps, ok]] = iterations
        assert ok and [s for s in solves if s[0] != "eig"] == dense
        # with p = n columns each Ritz step's eig is n x n as well
        assert [s for s in solves if s == ("eig", n)] in ([], [("eig", n)] * steps)
        return r

    return run


def _grid_solves(name, n):
    """The dense solves of a grid: green_string and gaussian grids equal
    their reversal and split into even and odd halves; cauchy's does not."""
    if name == "cauchy":
        return [("eigvalsh", n)]
    return [("eigvalsh", n - n // 2), ("eigvalsh", n // 2)]


class TestSingleRoute:
    # every analyze makes one dense solve of m (split into two half-size
    # solves where m equals its reversal) and one Ritz iteration: there is no
    # exterior square and no eigenpairs call to fall back on
    @pytest.mark.parametrize("m, classification, dense", [
        (THREE_CYCLE, CLASS_COMPLEX_PAIR, [("eigvals", 3)]),
        (_one_and_four_rotations(), CLASS_VIOLATED, [("eigvals", 9)]),
        (_bipartite(200), CLASS_MULTIPLE, [("eigvalsh", 400)]),
        *((discretize(builtin_kernel(name), n).discretized, CLASS_SECOND,
           _grid_solves(name, n))
          for name in ("green_string", "gaussian", "cauchy") for n in (46, 200)),
    ], ids=["three-cycle", "two-and-rotations", "bipartite-400",
            *(f"{name}-{n}" for name in ("green_string", "gaussian", "cauchy")
              for n in (46, 200))])
    def test_no_dense_fallback(self, m, classification, dense, single_route):
        r = single_route(m, dense)
        assert r.classification == classification
        assert r.residual_theorem3 <= DEFAULT_RESIDUAL_TOL


class TestVerifyTheorem1:
    def test_diagonal_products(self):
        rep = verify_theorem1(np.diag([1.0, 2.0]))
        assert rep.theorem == 1
        assert rep.matched
        assert rep.max_residual <= 1e-12

    def test_nilpotent_vacuous(self):
        rep = verify_theorem1(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert rep.matched
        assert rep.leftovers == ((), ())

    def test_random_tn_matched(self):
        m = random_tn(4, seed=7, factors=20)
        rep = verify_theorem1(m)
        assert rep.matched
        assert rep.max_residual < 1e-8 * max(1.0, np.abs(eigenvalues(m)[0]) ** 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_general_matrices(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 4))
        assert verify_theorem1(m).matched


class TestVerifyTheorem2:
    def test_diagonal_products(self):
        rep = verify_theorem2(np.diag([1.0, 2.0, 3.0]))
        assert rep.theorem == 2
        assert rep.matched

    def test_two_by_two_definitional(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((2, 2))
        rep = verify_theorem2(m)
        assert rep.matched  # single product lambda1*lambda2 = det m

    @pytest.mark.parametrize("c", [1.0, 2.0 ** -20], ids=["1", "2^-20"])
    def test_perturbed_square_is_refused_at_every_scale(self, c, monkeypatch):
        # at c = 2^-20 the products are near 1e-10, inside an absolute 1e-8
        import wedgespec.gk as gkmod

        m = c * random_tn(6, seed=3)
        assert verify_theorem2(m).matched
        inner = gkmod.compound.exterior_square
        monkeypatch.setattr(gkmod.compound, "exterior_square",
                            lambda a, force=False: inner(a, force=force) * (1 + 1e-6))
        assert not verify_theorem2(m).matched

    def test_complex_spectrum_pairing(self):
        rng = np.random.default_rng(99)
        m = rng.standard_normal((6, 6))
        assert np.abs(eigenvalues(m).imag).max() > 1e-6  # exercises complex pairing
        rep = verify_theorem2(m)
        assert rep.matched
        assert rep.max_residual < 1e-8 * max(1.0, np.abs(eigenvalues(m)[0]) ** 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_family(self, seed):
        n = 3 + seed % 5
        if seed % 2 == 0:
            m = random_tn(n, seed=6000 + seed, factors=3 * n)
        else:
            m = np.random.default_rng(6000 + seed).standard_normal((n, n))
        assert verify_theorem2(m).matched


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("verify", [verify_theorem1, verify_theorem2])
def test_symmetric_squares_take_eigvalsh(verify, seed, monkeypatch):
    # the Kronecker and exterior squares of a symmetric m are symmetric too,
    # so the base and the square are both solved by eigvalsh
    n = 3 + seed
    b = random_tn(n, seed=6100 + seed, factors=3 * n)
    m = b @ b.T if seed % 2 == 0 else b + b.T - np.diag(np.diag(b)) * 3.0
    assert np.array_equal(m, m.T)
    calls = _count_solvers(monkeypatch)
    rep = verify(m)
    assert rep.matched
    assert calls == ["eigvalsh", "eigvalsh"]


def _assert_field_order(obj, doc):
    """Every dataclass inside ``obj`` is a dict in ``doc`` whose keys are its
    fields in declaration order."""
    if is_dataclass(obj):
        assert list(doc) == [f.name for f in fields(obj)]
        for f in fields(obj):
            _assert_field_order(getattr(obj, f.name), doc[f.name])
    elif isinstance(obj, tuple):
        assert len(doc) == len(obj)
        for item, sub in zip(obj, doc):
            _assert_field_order(item, sub)


class TestSerialization:
    def test_report_schema(self):
        doc = report_to_dict(analyze(np.diag([3.0, 2.0, 1.0])))
        assert list(doc) == [
            "lambda1", "lambda2", "complex_pair", "classification", "rho_wedge",
            "residual_theorem3", "sign_changes_e1", "sign_changes_e2",
            "hypothesis_certificates", "spectrum", "circle_count", "circle_tol",
            "tolerance",
        ]
        assert doc["spectrum"][0] == {"re": 3.0, "im": 0.0}
        text = json.dumps(doc)
        assert json.loads(text) == doc

    def test_keys_follow_dataclass_field_order(self):
        # negative off-diagonal entries: an order-1 witness, and three distinct
        # moduli, so both sign counts are present
        rep = analyze(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
        doc = json.loads(json.dumps(report_to_dict(rep)))
        assert rep.hypothesis_certificates[0].witness is not None
        assert rep.sign_changes_e2 is not None
        _assert_field_order(rep, doc)
        cert = doc["hypothesis_certificates"][0]
        assert list(cert) == ["order_checked", "verdict", "witness",
                              "minors_evaluated", "mode"]
        assert list(cert["witness"]) == ["rows", "cols", "value"]
        assert list(doc["sign_changes_e1"]) == ["strict_count", "vector_length",
                                                "zero_count"]

    def test_numpy_values_become_python_scalars(self):
        doc = _to_json({"i": np.int64(3), "x": np.float64(0.1), "b": np.bool_(True),
                        "z": np.array([1 + 2j]), "m": np.eye(2)})
        assert doc == {"i": 3, "x": 0.1, "b": True, "z": [{"re": 1.0, "im": 2.0}],
                       "m": [[1.0, 0.0], [0.0, 1.0]]}
        assert [type(doc[k]) for k in "ixb"] == [int, float, bool]

    def test_complex_pair_encoding(self):
        doc = report_to_dict(analyze(THREE_CYCLE))
        pair = doc["complex_pair"]
        assert pair[0]["im"] > 0 and pair[1]["im"] < 0
        assert pair[0]["re"] == pair[1]["re"]

    def test_verification_schema(self):
        doc = verification_to_dict(verify_theorem2(np.diag([1.0, 2.0, 3.0])))
        assert list(doc) == ["theorem", "matched", "max_residual", "leftovers"]
        assert doc["leftovers"] == [[], []]

    def test_deterministic_repeat(self):
        a = json.dumps(report_to_dict(analyze(TRIDIAG)))
        b = json.dumps(report_to_dict(analyze(TRIDIAG)))
        assert a == b
