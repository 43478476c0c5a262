"""Property tests: analyze is invariant under transpose, reversal, scaling
and positive diagonal similarity, its report of 2^k m and the certificates of
is_totally_nonnegative and kernel_tn_check on 2^k m are those of m scaled
exactly, its symmetric and general solver routes
agree, a matrix near its reversal splits into even and odd halves within
the bound on its departure, its sign counts are those of the dense
eigenvectors, the order-2
scan agrees with the exhaustive sweep, and multiset_match pairs as many
values as any matching within its threshold.

Draws are oscillatory matrices with n from 3 to 8; some have one exact zero
replaced by a negative entry inside the tolerance (-c * tol * max|m|, c < 1),
which the order-1 and order-2 certificates accept.

Examples come from a fixed seed (``derandomize``), so every run tests the same
inputs and a failure reproduces; no example database is written. Without
hypothesis installed this module is skipped.
"""

from dataclasses import replace
from itertools import permutations
from math import frexp, ldexp

import numpy as np
import pytest

from wedgespec import (
    analyze,
    eigenpairs,
    eigenvalues,
    is_totally_nonnegative,
    is_two_totally_nonnegative,
    kernel_tn_check,
    minor,
    multiset_match,
    random_oscillatory,
    random_tn,
    sign_changes,
    tabulated_kernel,
)
from wedgespec.positivity import _contiguous_order_two, _order_sweep
from wedgespec.spectra import _ITERATION_TARGET, DEFAULT_TOL, _even_odd_blocks

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

hypothesis.settings.register_profile(
    "wedgespec", derandomize=True, deadline=None, database=None, max_examples=50
)
hypothesis.settings.load_profile("wedgespec")


@st.composite
def oscillatory(draw, tiny_negative=True):
    n = draw(st.integers(3, 8))
    m = random_oscillatory(n, seed=draw(st.integers(0, 2 ** 16)))
    zeros = np.argwhere(m == 0.0)
    if tiny_negative and zeros.size and draw(st.booleans()):
        i, j = zeros[draw(st.integers(0, len(zeros) - 1))]
        m[i, j] = -draw(st.floats(0.01, 0.9)) * DEFAULT_TOL * float(np.abs(m).max())
    return m


def _strict(s):
    return None if s is None else s.strict_count


def assert_same_report(r, s, c=1.0):
    """``s`` reports what ``r`` does, with values scaled as for c * m."""
    assert s.classification == r.classification
    assert _strict(s.sign_changes_e1) == _strict(r.sign_changes_e1)
    assert _strict(s.sign_changes_e2) == _strict(r.sign_changes_e2)
    assert s.lambda1 == pytest.approx(c * r.lambda1, rel=1e-9)
    assert s.rho_wedge == pytest.approx(c * c * r.rho_wedge, rel=1e-9)
    assert (s.lambda2 is None) == (r.lambda2 is None)
    if r.lambda2 is not None:
        assert s.lambda2 == pytest.approx(c * r.lambda2, rel=1e-9)


@given(oscillatory())
def test_transpose(m):
    assert_same_report(analyze(m), analyze(m.T))


@given(oscillatory())
def test_reversal(m):
    assert_same_report(analyze(m), analyze(m[::-1, ::-1]))


def _scaled_certificate(cert, k):
    """``cert`` as it reads for 2^k m: an order-j witness times 2^(j k)."""
    w = cert.witness
    if w is None:
        return cert
    return replace(cert, witness=replace(w, value=ldexp(w.value, len(w.rows) * k)))


def _scaled_value(z, k):
    return complex(ldexp(z.real, k), ldexp(z.imag, k))


# Every number is read on m 2^-e, which 2^k m shares, and scaled back once,
# so the report of 2^k m is that of m with each reported number scaled exactly.
# k stops at 400: from k = 511, rho_wedge = 4^k rho of random_oscillatory(6, 3)
# no longer fits in float64, and analyze refuses.
@given(oscillatory(), st.integers(-900, 400))
def test_power_of_two_scaling(m, k):
    r = analyze(m)
    assert analyze(ldexp(1.0, k) * m) == replace(
        r,
        lambda1=ldexp(r.lambda1, k),
        lambda2=None if r.lambda2 is None else ldexp(r.lambda2, k),
        complex_pair=None if r.complex_pair is None else tuple(
            _scaled_value(z, k) for z in r.complex_pair),
        rho_wedge=ldexp(r.rho_wedge, 2 * k),
        hypothesis_certificates=tuple(
            _scaled_certificate(c, k) for c in r.hypothesis_certificates),
        spectrum=tuple(_scaled_value(z, k) for z in r.spectrum),
    )


@st.composite
def bumped(draw):
    """An oscillatory draw with one entry multiplied by -0.5, 0, 2 or 4:
    some stay totally nonnegative, others fail at an order from 1 to n."""
    m = random_oscillatory(draw(st.integers(3, 6)), seed=draw(st.integers(0, 2 ** 16)))
    i, j = draw(st.integers(0, m.shape[0] - 1)), draw(st.integers(0, m.shape[0] - 1))
    m[i, j] *= draw(st.sampled_from([-0.5, 0.0, 2.0, 4.0]))
    return m


@given(bumped(), st.integers(1, 6), st.integers(-150, 150))
def test_certificate_power_of_two_scaling(m, j, k):
    # minors are read on m 2^-e, so 2^k m gets the same verdict and witness
    # position, and an order-j witness exactly 2^(j k) times the value
    j = min(j, m.shape[0])
    for sample in (False, True):
        r = is_totally_nonnegative(m, j, sample=sample)
        assert is_totally_nonnegative(ldexp(1.0, k) * m, j, sample=sample) == (
            _scaled_certificate(r, k))


@given(st.integers(0, 2 ** 16), st.integers(-300, 300))
def test_kernel_certificate_power_of_two_scaling(seed, k):
    # entries in [0.5, 1.5], so the order-1 minors pass and the sampled
    # witness, when there is one, has order 2 or 3
    t = (np.arange(30) + 0.5) / 30
    table = 1.0 + 0.5 * np.cos(3.0 * np.pi * (t[:, None] - t[None, :]))
    r = kernel_tn_check(tabulated_kernel(table), 30, 3, 100, seed)
    s = kernel_tn_check(tabulated_kernel(ldexp(1.0, k) * table), 30, 3, 100, seed)
    assert s == _scaled_certificate(r, k)


# No tiny negative entries here: D m D^-1 rescales an entry -c * tol * max|m|
# by d_i / d_j and max|m| by another factor, so it can leave the slack band.
@given(oscillatory(tiny_negative=False), st.integers(0, 2 ** 16))
def test_diagonal_similarity(m, seed):
    d = 2.0 ** np.random.default_rng(seed).uniform(-2.0, 2.0, m.shape[0])
    r, s = analyze(m), analyze(d[:, None] * m / d[None, :])
    # zero_count is left out: the similarity moves entries of the
    # eigenvectors across the tol * max|v| zero threshold (seen on n=8 draws)
    assert s.classification == r.classification
    assert _strict(s.sign_changes_e1) == _strict(r.sign_changes_e1)
    assert _strict(s.sign_changes_e2) == _strict(r.sign_changes_e2)
    assert s.lambda1 == pytest.approx(r.lambda1, rel=1e-8)
    assert (s.lambda2 is None) == (r.lambda2 is None)
    if r.lambda2 is not None:
        assert s.lambda2 == pytest.approx(r.lambda2, rel=1e-8)


@st.composite
def symmetric_tn(draw):
    n = draw(st.integers(3, 8))
    b = random_tn(n, seed=draw(st.integers(0, 2 ** 16)))
    return b @ b.T


@given(symmetric_tn())
def test_symmetric_and_general_routes_agree(m):
    # B B^T is exactly symmetric and takes eigh; one off-diagonal entry moved
    # by one ulp makes the same matrix take the general eig route
    assert np.array_equal(m, m.T)
    nudged = m.copy()
    nudged[0, 1] = np.nextafter(m[0, 1], np.inf)
    r, s = analyze(m), analyze(nudged)
    assert s.classification == r.classification
    assert _strict(s.sign_changes_e1) == _strict(r.sign_changes_e1)
    assert _strict(s.sign_changes_e2) == _strict(r.sign_changes_e2)
    assert s.lambda1 == pytest.approx(r.lambda1, rel=1e-10)
    assert (s.lambda2 is None) == (r.lambda2 is None)
    if r.lambda2 is not None:
        assert s.lambda2 == pytest.approx(r.lambda2, rel=1e-10)


@given(st.one_of(oscillatory(), symmetric_tn()))
def test_sign_counts_are_those_of_the_dense_eigenvectors(m):
    # analyze counts on the wedge iteration's Ritz vectors; an independent
    # eigenpairs call gives the columns to count on
    r = analyze(m)
    _, v = eigenpairs(m)
    for counted, k in ((r.sign_changes_e1, 0), (r.sign_changes_e2, 1)):
        if counted is not None:
            assert counted.strict_count == sign_changes(v[:, k].real).strict_count


@given(oscillatory())
def test_gantmacher_krein_sign_changes(m):
    r = analyze(m)
    if r.hypothesis_certificates[0].verdict and r.hypothesis_certificates[1].verdict:
        assert r.classification == "second_eigenvalue_found"
        assert r.sign_changes_e1.strict_count == 0
        assert r.sign_changes_e2.strict_count == 1


@st.composite
def near_centrosymmetric(draw):
    """(m, r): a symmetric m = c + d with c = J c J, J the reversal, and a
    symmetric d = -J d J of ||d||_F = r ||c||_F, n from 2 to 12."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    b, q = (rng.standard_normal((n, n)) for _ in range(2))
    c = b + b.T
    c += c[::-1, ::-1]
    d = q + q.T
    d -= d[::-1, ::-1]
    r = draw(st.sampled_from([0.0, 1e-16, 1e-15, 1e-14, 5e-14, 2e-13, 1e-12, 1e-6]))
    d *= r * np.linalg.norm(c) / np.linalg.norm(d)
    return c + d, r


@given(near_centrosymmetric())
def test_split_route_within_its_bound(case):
    # the even/odd split is taken below half the bound _ITERATION_TARGET *
    # ||c||_F and not past twice it; either way no eigenvalue moves by more
    # than ||d||_2 (Weyl) plus rounding
    m, r = case
    assert np.array_equal(m, m.T)
    split = _even_odd_blocks(m) is not None
    if r >= 2.0 * _ITERATION_TARGET:
        assert not split
    elif r <= 0.5 * _ITERATION_TARGET:
        assert split
    values = eigenvalues(m)
    assert not values.imag.any()
    gap = np.abs(np.sort(values.real) - np.linalg.eigvalsh(m)).max()
    assert gap <= (r + 16 * np.finfo(float).eps) * np.linalg.norm(m)
    w, v = eigenpairs(m)  # raises past tol * ||m||_F
    np.testing.assert_allclose(v.T @ v, np.eye(len(m)), rtol=0, atol=1e-13)


@st.composite
def zero_laden(draw):
    """n <= 8: integer entries in 0..2, random_tn with a zeroed row, or
    random_tn with one entry moved by a relative 1e-11..1e-7, which puts
    some 2x2 minors in the slack band. Up to three entries, zeros when there
    are some, may then become positives below 2^-520 amax or negatives at
    0.01, 0.5 or 1 times -tol * amax, and the matrix may be scaled by 2^k,
    with max|m| kept in [2^-201, 2^499), where its 2x2 minors stay normal
    floats."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["integers", "zero_row", "nudged"]))
    if kind == "integers":
        cells = draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
        m = np.array(cells, dtype=float).reshape(n, n)
    else:
        m = random_tn(n, seed=draw(st.integers(0, 2 ** 16)),
                      factors=draw(st.integers(1, 3 * n)))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "zero_row":
            m[i] = 0.0
        else:
            m[i, j] *= 1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-11, -7))
    amax = float(np.abs(m).max())
    zeros = np.argwhere(m == 0.0)
    targets = zeros if zeros.size and draw(st.booleans()) else np.argwhere(np.ones(m.shape))
    for _ in range(draw(st.integers(0, 3)) if amax else 0):
        i, j = targets[draw(st.integers(0, len(targets) - 1))]
        if draw(st.booleans()):
            m[i, j] = ldexp(amax * draw(st.floats(0.5, 1.0)), -521)
        else:
            m[i, j] = -draw(st.sampled_from([0.01, 0.5, 1.0])) * DEFAULT_TOL * amax
    if amax and draw(st.booleans()):
        m = np.ldexp(m, draw(st.integers(-200, 499)) - frexp(amax)[1])
    return m


def _flushed(m, tol):
    """m as the order-2 scan reads it, every entry in [-tol * amax, small)
    set to zero, and the margin (nu- + nu+) / amax + (nu- / amax)^2 of the
    largest flushed negative and positive magnitudes."""
    amax = float(np.abs(m).max())
    flush = (m >= -tol * amax) & (m < ldexp(1.0, (frexp(amax)[1] - 1021) // 2 + 1))
    neg = -float(m.min(where=flush, initial=0.0))
    pos = float(m.max(where=flush, initial=0.0))
    margin = (neg + pos) / amax + (neg / amax) ** 2 if neg or pos else 0.0
    return np.where(flush, 0.0, m), margin


def _cells(m):
    """Brute-force cell list of the scan: adjacent nonzero rows f, h and
    consecutive columns among those where (f, h) is not (0, 0)."""
    rows = [r for r in m if r.any()]
    out = []
    for f, h in zip(rows, rows[1:]):
        cols = [j for j in range(m.shape[1]) if f[j] or h[j]]
        out += [(f[j], f[l], h[j], h[l]) for j, l in zip(cols, cols[1:])]
    return out


@hypothesis.settings(max_examples=400)
@given(zero_laden())
def test_order_two_scan_agrees_with_the_sweep(m):
    frac, e = frexp(float(np.abs(m).max()))
    cert = _contiguous_order_two(m, frac, e, DEFAULT_TOL)
    witness, _ = _order_sweep(np.ldexp(m, -e), 2, -DEFAULT_TOL * frac * frac)
    r, margin = _flushed(m, DEFAULT_TOL)
    cells = _cells(r)
    if cert is not None:
        assert cert.verdict == (witness is None)
        assert (cert.mode, cert.minors_evaluated) == ("exhaustive", len(cells))
        if cert.witness is not None:
            w = cert.witness
            assert ldexp(w.value, 2 * e) == minor(m, w.rows, w.cols)
    elif r.min() >= 0.0:
        # undecided on r >= 0 only when S plus the margin is above tol (up
        # to rounding); products read as the scan forms them, (x 2^-e) y
        ad = [(ldexp(a, -e) * d, ldexp(b, -e) * c) for a, b, c, d in cells]
        deficit = sum(1.0 - x / y for x, y in ad if x < y)
        assert deficit + margin > 0.5 * DEFAULT_TOL
    _, public = is_two_totally_nonnegative(m)
    assert public.verdict == (witness is None)
    if public.witness is not None:
        w = public.witness
        assert w.value == minor(m, w.rows, w.cols)


def _most_pairs(a, b, thresh):
    """Size of a maximum matching within ``thresh``, by trying every injection."""
    if len(a) > len(b):
        a, b = b, a
    return max(
        sum(abs(x - b[k]) <= thresh for x, k in zip(a, p))
        for p in permutations(range(len(b)), len(a))
    )


@given(st.lists(st.integers(0, 5), max_size=4), st.lists(st.integers(0, 5), max_size=4))
def test_match_is_maximum(xs, ys):
    # values on a grid of t/2, so pairs two steps apart are within the
    # threshold t * top and pairs three steps apart are not
    t = 1e-3
    a = [1.0 + 0.5 * t * x for x in xs]
    b = [1.0 + 0.5 * t * y for y in ys]
    rep = multiset_match(a, b, t)
    assert len(rep.pairs) == _most_pairs(a, b, rep.tolerance)
    assert rep.matched == (len(a) == len(b) == len(rep.pairs))
    assert all(abs(x - y) <= rep.tolerance for x, y in rep.pairs)
    assert sorted([x for x, _ in rep.pairs] + list(rep.leftover_a), key=abs) == sorted(a)
    assert sorted([y for _, y in rep.pairs] + list(rep.leftover_b), key=abs) == sorted(b)
