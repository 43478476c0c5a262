"""Total-nonnegativity certification, sign-change counting, and random
totally nonnegative / oscillatory test matrices.

A minor of order j is compared against -tol * (max |entry|)^j, since minors
scale like products of j entries; an absolute tolerance would misclassify
scaled copies of the same matrix.
"""

from dataclasses import dataclass
from itertools import combinations, repeat
from math import comb
from typing import Optional

import numpy as np

from .compound import _det_stack
from .errors import GenerationError, ResourceLimitError, ValidationError, ZeroVectorError
from .spectra import DEFAULT_TOL, as_dense_matrix, _check_tol

# Exhaustive minor enumeration is refused above this many determinants.
MINOR_BUDGET = 10_000_000

_CHUNK = 4096


@dataclass(frozen=True)
class MinorWitness:
    """A single minor pinned by its row set, column set, and value."""

    rows: tuple
    cols: tuple
    value: float


@dataclass(frozen=True)
class TNCertificate:
    """Verdict of a total-nonnegativity check up to a given minor order.

    ``mode`` is "exhaustive" when every minor of every order up to
    ``order_checked`` was evaluated, "sampled" when a seeded random subset
    was; sampled verdicts certify only the minors actually seen. On a false
    verdict ``witness`` holds a violating minor.
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


def _order_sweep(m, j, thresh, counter):
    """Scan all order-j minors; return a witness for the worst violation
    in the first offending chunk, or None if all pass."""
    n = m.shape[0]
    col_sets = list(combinations(range(n), j))
    col_ix = np.asarray(col_sets, dtype=int)
    step = max(1, _CHUNK // len(col_sets))
    for a in range(0, len(col_sets), step):
        # (chunk, j, sets, j) -> (chunk, sets, j, j): row set, then column set.
        # np.take copies far faster than a broadcast fancy index, and
        # gathering per chunk keeps memory at one chunk.
        sub = np.take(m[col_ix[a : a + step]], col_ix, axis=2)
        dets = _det_stack(np.moveaxis(sub, 1, 2))
        counter[0] += dets.size
        low = float(dets.min())
        if low < thresh:
            r, c = np.unravel_index(int(np.argmin(dets)), dets.shape)
            return MinorWitness(rows=col_sets[a + r], cols=col_sets[c], value=low)
    return None


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
        Sampling effort and generator seed (sampling mode only).

    Returns
    -------
    TNCertificate
    """
    m = as_dense_matrix(m)
    _check_tol(tol)
    n = m.shape[0]
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise ValidationError(f"order must satisfy 1 <= k <= n = {n}, got {k!r}")
    k = int(k)
    if sample:
        return _sample_minors(m, k, repeat(np.random.default_rng(seed), int(samples)), tol)

    estimate = _estimated_minors(n, k)
    if estimate > budget:
        raise ResourceLimitError(
            f"checking all minors up to order {k} of an {n}x{n} matrix needs "
            f"{estimate} determinants, above the budget of {budget}; "
            "use a smaller k or sample=True"
        )
    amax = float(np.abs(m).max())
    counter = [0]
    for j in range(1, k + 1):
        witness = _order_sweep(m, j, _threshold(amax, j, tol), counter)
        if witness is not None:
            break
    return TNCertificate(k, witness is None, witness, counter[0], "exhaustive")


def is_two_totally_nonnegative(m, tol=DEFAULT_TOL, budget=MINOR_BUDGET,
                               samples=2000, seed=0):
    """Check the order-1 and order-2 nonnegativity hypotheses separately.

    Returns a pair of certificates: entrywise nonnegativity of the matrix
    itself, and nonnegativity of all its 2x2 minors (the entries of the
    exterior square). Above the minor budget the order-2 check switches to
    seeded sampling instead of failing, since this pair of facts is exactly
    what the downstream verdict engine needs on large grids.
    """
    m = as_dense_matrix(m)
    _check_tol(tol)
    n = m.shape[0]
    if n < 2:
        raise ValidationError("the order-2 hypothesis needs dimension n >= 2")
    amax = float(np.abs(m).max())

    lo = float(m.min())
    if lo < _threshold(amax, 1, tol):
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        cert1 = TNCertificate(1, False, MinorWitness((int(i),), (int(j),), lo),
                              n * n, "exhaustive")
    else:
        cert1 = TNCertificate(1, True, None, n * n, "exhaustive")

    if comb(n, 2) ** 2 > budget:
        return cert1, is_totally_nonnegative(m, 2, tol, sample=True, samples=samples,
                                             seed=seed)
    counter = [0]
    witness = _order_sweep(m, 2, _threshold(amax, 2, tol), counter)
    return cert1, TNCertificate(2, witness is None, witness, counter[0], "exhaustive")


def sign_changes(v, tol=DEFAULT_TOL):
    """Count strict sign alternations after discarding near-zero entries.

    Entries with |entry| <= tol * max|entry| are dropped; the count is the
    number of consecutive sign flips in the surviving sequence. A vector
    with no surviving entries raises ZeroVectorError, which is distinct
    from a genuine count of zero.
    """
    _check_tol(tol)
    x = np.asarray(v, dtype=float).ravel()
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
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"dimension must be a positive integer, got {n!r}")
    if not isinstance(factors, (int, np.integer)) or factors < 1:
        raise ValidationError(f"factors must be a positive integer, got {factors!r}")
    rng = np.random.default_rng(seed)
    return _draw_tn(rng, int(n), int(factors))


def random_oscillatory(n, seed, max_retries=100):
    """Random oscillatory matrix: totally nonnegative, invertible, primitive.

    A totally nonnegative draw is post-composed with a positive tridiagonal
    totally nonnegative factor, then verified against the classical
    criterion: all minors up to order n nonnegative, det > 0, and
    (I + m)^(n-1) entrywise positive. Failed draws retry with seeds derived
    from (seed, attempt) up to ``max_retries`` times.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValidationError(f"oscillatory generation needs n >= 2, got {n!r}")
    n = int(n)
    for attempt in range(max_retries):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), attempt)))
        base = _draw_tn(rng, n, 3 * n)
        lower = np.eye(n) + np.diag(rng.uniform(0.1, 1.0, n - 1), -1)
        upper = np.eye(n) + np.diag(rng.uniform(0.1, 1.0, n - 1), 1)
        mid = np.diag(rng.uniform(0.5, 2.0, n))
        m = base @ (lower @ mid @ upper)

        cert = is_totally_nonnegative(m, n, tol=1e-10)
        if not cert.verdict:
            continue
        if np.linalg.det(m) <= 0.0:
            continue
        power = np.linalg.matrix_power(np.eye(n) + m, n - 1)
        if float(power.min()) <= 0.0:
            continue
        return m
    raise GenerationError(
        f"no oscillatory matrix passed verification after {max_retries} retries "
        f"(n={n}, seed={seed})"
    )
