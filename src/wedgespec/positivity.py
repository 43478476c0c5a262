"""Total-nonnegativity certification, sign-change counting, and random
totally nonnegative / oscillatory test matrices.

A minor of order j is compared against -tol * (max |entry|)^j, since minors
scale like products of j entries; an absolute tolerance would misclassify
scaled copies of the same matrix.
"""

from dataclasses import dataclass
from itertools import repeat
from math import comb
from typing import Optional

import numpy as np

from .compound import _det_stack, _minor_blocks
from .errors import GenerationError, ResourceLimitError, ValidationError, ZeroVectorError
from .spectra import (DEFAULT_TOL, _check_int, _check_tol, _negative_entry, _real_array,
                      as_dense_matrix)

# Exhaustive minor enumeration is refused above this many determinants.
MINOR_BUDGET = 10_000_000


@dataclass(frozen=True)
class MinorWitness:
    """A single minor pinned by its row set, column set, and value."""

    rows: tuple
    cols: tuple
    value: float


@dataclass(frozen=True)
class TNCertificate:
    """Verdict of a total-nonnegativity check up to a given minor order.

    ``mode`` is "exhaustive" when the verdict covers every minor of every
    order up to ``order_checked``, whether each was evaluated or a structure
    theorem bounds them from the ones that were; ``minors_evaluated`` counts
    the determinants actually computed. "sampled" means a seeded random
    subset was evaluated, and the verdict certifies only the minors seen. On
    a false verdict ``witness`` holds a violating minor.
    """

    order_checked: int
    verdict: bool
    witness: Optional[MinorWitness]
    minors_evaluated: int
    mode: str


@dataclass(frozen=True)
class SignChangeCount:
    """Strict sign-change count of a vector after discarding near-zeros."""

    strict_count: int
    vector_length: int
    zero_count: int


def _estimated_minors(n, k):
    return sum(comb(n, j) ** 2 for j in range(1, k + 1))


def _threshold(amax, j, tol):
    """The acceptance threshold -tol * amax^j for order-j minors.

    Raises ValidationError when amax^j is not a finite float64: minors of
    that order overflow too, and no verdict on them would mean anything.
    """
    try:
        return -tol * amax ** j
    except OverflowError:
        raise ValidationError(
            f"order-{j} minors overflow float64 (max |entry| = {amax:g})"
        ) from None


def _order_sweep(m, j, thresh):
    """Scan the order-j minors up to the first offending block.

    Returns ``(witness, evaluated)``: the worst violation in that block (None
    if every minor passes) and the number of minors computed.
    """
    evaluated = 0
    for a, sets, dets in _minor_blocks(m, j):
        evaluated += dets.size
        low = float(dets.min())
        if low < thresh:
            r, c = np.unravel_index(int(np.argmin(dets)), dets.shape)
            return MinorWitness(tuple(sets[a + r].tolist()), tuple(sets[c].tolist()),
                                low), evaluated
    return None, evaluated


def _sample_minors(table, order, rngs, tol):
    """Sampled certificate of a square table up to minor order ``order``.

    Each generator in ``rngs`` draws one minor: an order j in 1..order, then
    increasing row and column sets of length j. The certificate keeps the
    most negative minor below its threshold as the witness.
    """
    count = table.shape[0]
    amax = float(np.abs(table).max())
    worst = None
    evaluated = 0
    for rng in rngs:
        j = int(rng.integers(1, order + 1))
        thresh = _threshold(amax, j, tol)
        rows = tuple(sorted(rng.choice(count, size=j, replace=False).tolist()))
        cols = tuple(sorted(rng.choice(count, size=j, replace=False).tolist()))
        val = float(_det_stack(table[np.ix_(rows, cols)][None, ...])[0])
        evaluated += 1
        if val < thresh and (worst is None or val < worst.value):
            worst = MinorWitness(rows=rows, cols=cols, value=val)
    return TNCertificate(
        order_checked=order,
        verdict=worst is None,
        witness=worst,
        minors_evaluated=evaluated,
        mode="sampled",
    )


def is_totally_nonnegative(m, k, tol=DEFAULT_TOL, budget=MINOR_BUDGET, sample=False,
                           samples=200, seed=0):
    """Certify that all minors of orders 1..k are nonnegative within tolerance.

    Parameters
    ----------
    m : array_like
        Square matrix.
    k : int
        Highest minor order to check, 1 <= k <= n.
    tol : float
        Relative tolerance; order-j minors are accepted at >= -tol * amax^j.
    budget : int
        Cap on the exhaustive determinant count. When the estimate exceeds
        it and ``sample`` is False, a ResourceLimitError suggests either a
        smaller k or sampling mode.
    sample : bool
        Evaluate ``samples`` seeded random minors instead of all of them;
        the certificate is downgraded to mode="sampled".
    samples, seed : int
        Sampling effort (positive) and generator seed (nonnegative), used in
        sampling mode only; the seed is checked in both modes.

    Returns
    -------
    TNCertificate
    """
    m = as_dense_matrix(m)
    _check_tol(tol)
    n = m.shape[0]
    k = _check_int(k, "order k", 1, n)
    seed = _check_int(seed, "seed", 0)
    if sample:
        samples = _check_int(samples, "samples", 1)
        return _sample_minors(m, k, repeat(np.random.default_rng(seed), samples), tol)

    estimate = _estimated_minors(n, k)
    if estimate > budget:
        raise ResourceLimitError(
            f"checking all minors up to order {k} of an {n}x{n} matrix needs "
            f"{estimate} determinants, above the budget of {budget}; "
            "use a smaller k or sample=True"
        )
    amax = float(np.abs(m).max())
    total = 0
    for j in range(1, k + 1):
        witness, evaluated = _order_sweep(m, j, _threshold(amax, j, tol))
        total += evaluated
        if witness is not None:
            break
    return TNCertificate(k, witness is None, witness, total, "exhaustive")


def _contiguous_order_two(m, amax, thresh, tol):
    """Order-2 certificate from the (n-1)^2 contiguous 2x2 minors, or None
    when they do not decide.

    A contiguous minor below ``thresh`` is a witness. For a strictly positive
    matrix the contiguous cross-ratios r = a d / (b c) bound every other 2x2
    minor (Karlin, Total Positivity, 1968): for i < k and j < l the ratio
    m[i,j] m[k,l] / (m[i,l] m[k,j]) is the product of the r over the cells of
    [i, k) x [j, l), and prod (1 - e) >= 1 - sum e for e in [0, 1], so with
    S = sum max(0, 1 - r)

        minor >= -S * m[i,l] * m[k,j] >= -S * amax^2,

    and S <= tol certifies every minor. Only cells whose contiguous minor is
    not positive enter S (a zero may be an underflow): a positive minor means
    r >= 1 up to rounding, a zero term. Leaving those cells out can only
    lower S by rounding, so at the margin a certificate can only move from
    undecided to certified. The ratios are taken on m / amax, so a
    power-of-two scaling leaves them exact and the products stay clear of
    underflow. Zeros, a non-finite ratio or S > tol leave it undecided.
    """
    n = m.shape[0]
    count = (n - 1) ** 2
    cont = m[:-1, :-1] * m[1:, 1:]
    cont -= m[:-1, 1:] * m[1:, :-1]
    i, j = map(int, np.unravel_index(int(np.argmin(cont)), cont.shape))
    low = float(cont[i, j])
    if low < thresh:
        witness = MinorWitness((i, i + 1), (j, j + 1), low)
        return TNCertificate(2, False, witness, count, "exhaustive")
    if float(m.min()) <= 0.0:
        return None
    cells = cont <= 0.0
    a, d = m[:-1, :-1][cells] / amax, m[1:, 1:][cells] / amax
    b, c = m[:-1, 1:][cells] / amax, m[1:, :-1][cells] / amax
    with np.errstate(all="ignore"):
        ratio = (a * d) / (b * c)
    if not np.all(np.isfinite(ratio)):
        return None
    if float(np.maximum(0.0, 1.0 - ratio).sum()) > tol:
        return None
    return TNCertificate(2, True, None, count, "exhaustive")


def is_two_totally_nonnegative(m, tol=DEFAULT_TOL, budget=MINOR_BUDGET,
                               samples=2000, seed=0):
    """Check the order-1 and order-2 nonnegativity hypotheses separately.

    Returns a pair of certificates: entrywise nonnegativity of the matrix
    itself, and nonnegativity of all its 2x2 minors (the entries of the
    exterior square). The order-2 check first scans the contiguous 2x2
    minors, which decide it at every n when one of them is a violation or
    when the matrix is strictly positive with cross-ratios inside ``tol``
    (see ``_contiguous_order_two``). Only input that scan leaves undecided
    (zeros, or a contiguous minor in the slack band) is swept exhaustively
    under the minor budget, and above the budget sampled with ``samples``
    minors from ``seed``; the certificate's mode says which.
    """
    m = as_dense_matrix(m)
    _check_tol(tol)
    samples = _check_int(samples, "samples", 1)
    seed = _check_int(seed, "seed", 0)
    n = m.shape[0]
    if n < 2:
        raise ValidationError("the order-2 hypothesis needs dimension n >= 2")
    amax = float(np.abs(m).max())

    neg = _negative_entry(m, tol, amax)
    witness = None if neg is None else MinorWitness((neg[0],), (neg[1],), neg[2])
    cert1 = TNCertificate(1, neg is None, witness, n * n, "exhaustive")

    thresh = _threshold(amax, 2, tol)
    cert2 = _contiguous_order_two(m, amax, thresh, tol)
    if cert2 is not None:
        return cert1, cert2
    if comb(n, 2) ** 2 > budget:
        return cert1, is_totally_nonnegative(m, 2, tol, sample=True, samples=samples,
                                             seed=seed)
    witness, evaluated = _order_sweep(m, 2, thresh)
    return cert1, TNCertificate(2, witness is None, witness, evaluated, "exhaustive")


def sign_changes(v, tol=DEFAULT_TOL):
    """Count strict sign alternations after discarding near-zero entries.

    Entries with |entry| <= tol * max|entry| are dropped; the count is the
    number of consecutive sign flips in the surviving sequence. A vector
    with no surviving entries raises ZeroVectorError, which is distinct
    from a genuine count of zero. A complex vector raises ValidationError:
    its imaginary parts would otherwise be dropped unseen.
    """
    _check_tol(tol)
    x = _real_array(v, "sign_changes entries").ravel()
    if x.size == 0:
        raise ValidationError("sign_changes needs a nonempty vector")
    if not np.all(np.isfinite(x)):
        raise ValidationError("sign_changes got NaN or Inf entries")
    amax = float(np.abs(x).max())
    survivors = x[np.abs(x) > tol * amax]
    if survivors.size == 0:
        raise ZeroVectorError("every entry is below the zero threshold; count undefined")
    s = np.sign(survivors)
    flips = int(np.count_nonzero(s[1:] != s[:-1]))
    return SignChangeCount(
        strict_count=flips,
        vector_length=int(x.size),
        zero_count=int(x.size - survivors.size),
    )


def _draw_tn(rng, n, factors):
    """Product of a positive diagonal draw and seeded elementary factors."""
    m = np.diag(rng.uniform(0.5, 2.0, n))
    for _ in range(factors - 1):
        kind = int(rng.integers(0, 3)) if n > 1 else 2
        if kind == 2:
            f = np.diag(rng.uniform(0.5, 2.0, n))
        else:
            i = int(rng.integers(0, n - 1))
            f = np.eye(n)
            c = float(rng.uniform(0.0, 1.0))
            if kind == 0:
                f[i + 1, i] = c
            else:
                f[i, i + 1] = c
        m = m @ f
    return m


def random_tn(n, seed, factors=20):
    """Random totally nonnegative matrix, deterministic per seed.

    Built as a product of positive diagonal matrices and elementary
    nonnegative bidiagonal factors (identity plus one nonnegative
    off-diagonal entry), so the output is totally nonnegative by the
    product closure of those generators; factors=1 gives a positive
    diagonal draw.
    """
    n = _check_int(n, "dimension n", 1)
    factors = _check_int(factors, "factors", 1)
    rng = np.random.default_rng(_check_int(seed, "seed", 0))
    return _draw_tn(rng, n, factors)


def _neville_tn(m, zero):
    """Whether ``m`` is totally nonnegative and nonsingular, by Neville
    elimination of ``m`` and of its transpose.

    Neville elimination clears column k by subtracting from each row a
    multiple of the row just above it. A nonsingular matrix is totally
    nonnegative exactly when the elimination of m and of m^T needs no row
    exchange, has nonnegative multipliers and positive diagonal pivots
    (Gasca and Pena, Linear Algebra Appl. 165, 1992). Below a positive
    diagonal pivot that means: the pivots of column k are nonnegative, and
    a zero pivot has only zeros below it. Each pivot is a quotient of two
    minors on consecutive rows whose orders differ by one, so pivots scale
    like entries; those at most ``zero`` count as zero. O(n^3).
    """
    for a in (m, m.T):
        a = a.copy()
        for k in range(a.shape[0]):
            col = np.where(np.abs(a[k:, k]) <= zero, 0.0, a[k:, k])
            if (col[0] <= 0.0 or np.any(col < 0.0)
                    or np.any((col[:-1] == 0.0) & (col[1:] > 0.0))):
                return False
            above = col[:-1]
            mult = np.divide(col[1:], above, out=np.zeros_like(above), where=above > 0.0)
            a[k + 1:, k:] -= mult[:, None] * a[k:-1, k:]
    return True


def random_oscillatory(n, seed, max_retries=100):
    """Random oscillatory matrix: totally nonnegative, invertible, primitive.

    A totally nonnegative draw is post-composed with a positive tridiagonal
    totally nonnegative factor, then verified against the Gantmacher-Krein
    criterion: positive first super- and subdiagonals, and totally
    nonnegative and nonsingular by Neville elimination (``_neville_tn``),
    with entries and pivots at most 1e-10 * max|m| taken as zero. That costs
    O(n^3) at every n. Failed draws retry with seeds derived from
    (seed, attempt) up to ``max_retries`` times.
    """
    n = _check_int(n, "oscillatory dimension n", 2)
    seed = _check_int(seed, "seed", 0)
    max_retries = _check_int(max_retries, "max_retries", 1)
    for attempt in range(max_retries):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, attempt)))
        base = _draw_tn(rng, n, 3 * n)
        lower = np.eye(n) + np.diag(rng.uniform(0.1, 1.0, n - 1), -1)
        upper = np.eye(n) + np.diag(rng.uniform(0.1, 1.0, n - 1), 1)
        mid = np.diag(rng.uniform(0.5, 2.0, n))
        m = base @ (lower @ mid @ upper)

        zero = 1e-10 * float(np.abs(m).max())
        if (np.all(np.diag(m, 1) > zero) and np.all(np.diag(m, -1) > zero)
                and _neville_tn(m, zero)):
            return m
    raise GenerationError(
        f"no oscillatory matrix passed verification after {max_retries} retries "
        f"(n={n}, seed={seed})"
    )
