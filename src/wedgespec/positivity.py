"""Total-nonnegativity certification, sign-change counting, and random
totally nonnegative / oscillatory test matrices.

Every minor is read on c = m 2^-e, the exact scaling that puts
max|c| = frac in [0.5, 1), and an order-j minor is compared against
-tol * frac^j, since minors scale like products of j entries; an absolute
tolerance would misclassify scaled copies of the same matrix. Only a
witness is scaled back, by 2^(j e) (``_reported``), and the one refusal is a
witness that does not fit in float64.
"""

from dataclasses import dataclass, replace
from math import comb, frexp
from typing import Optional

import numpy as np

from .compound import _det_stack, _minor_blocks
from .errors import GenerationError, ResourceLimitError, ValidationError, ZeroVectorError
from .spectra import (DEFAULT_TOL, _check_int, _check_tol, _finite_vector, _negative_entry,
                      _scaled, _unscaled, as_dense_matrix)

# Exhaustive minor enumeration is refused above this many determinants.
MINOR_BUDGET = 10_000_000

# The order-2 scan reads every entry of c below this as zero, so that each
# product of two entries it keeps is a normal float, and forms its cells
# about _BLOCK at a time, one block of adjacent row pairs; a quarter of that
# where it may gather them, which holds about four times more per cell.
_TINY = 2.0 ** -511
_BLOCK = 16384


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
    the determinants actually computed, which for the order-2 scan of
    ``is_two_totally_nonnegative`` are its cells. "sampled" means a seeded
    random subset was evaluated, and the verdict certifies only the minors
    seen; the order-2 hypothesis is sampled only where its scan does not
    decide, on input beyond the minor budget: an entry below -tol * max|m|
    with no witness among the cells, Karlin's deficit plus the margin of the
    entries read as zero above tol (noisy rank-1 input, for one), or a worst
    cell that is a violation only once those entries are read as zero. On a
    false verdict ``witness`` holds a violating minor.
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


def _reported(cert, e):
    """``cert`` with its witness, an order-j minor of m 2^-e, scaled back by
    2^(j e) to the minor of m. A witness that does not fit in float64 raises
    ValidationError; one below the normal range rounds, down to -0.0, and its
    rows and columns still name it."""
    w = cert.witness
    if w is None:
        return cert
    value = _unscaled(w.value, len(w.rows) * e, f"order-{len(w.rows)} minors")
    return replace(cert, witness=replace(w, value=value))


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


def _sample_minors(table, first, order, samples, seed, tol):
    """Sampled certificate of a square table on minor orders first..order.

    One generator, ``default_rng(seed)``, draws ``samples`` minors, each an
    order j in first..order, then increasing row and column sets of length
    j. Each minor is read on its submatrix of table 2^-e,
    max|table| 2^-e = frac in [0.5, 1), and compared against -tol * frac^j;
    the most negative one below its threshold is the witness, scaled back
    by ``_reported``.
    """
    count = table.shape[0]
    frac, e = frexp(float(np.abs(table).max()))
    rng, worst = np.random.default_rng(seed), None
    for _ in range(samples):
        j = int(rng.integers(first, order + 1))
        rows = tuple(sorted(rng.choice(count, size=j, replace=False).tolist()))
        cols = tuple(sorted(rng.choice(count, size=j, replace=False).tolist()))
        val = float(_det_stack(np.ldexp(table[np.ix_(rows, cols)], -e)[None, ...])[0])
        if val < -tol * frac ** j and (worst is None or val < worst.value):
            worst = MinorWitness(rows=rows, cols=cols, value=val)
    return _reported(TNCertificate(order, worst is None, worst, samples, "sampled"), e)


def is_totally_nonnegative(m, k, tol=DEFAULT_TOL, budget=MINOR_BUDGET, sample=False,
                           samples=200, seed=0):
    """Certify that all minors of orders 1..k are nonnegative within tolerance.

    Every minor is read on c = m 2^-e, the exact scaling that puts
    max|c| = frac in [0.5, 1), in both modes, so 2^k m gets the verdict and
    witness position of m. A witness is the minor of c scaled back once by
    2^(j e) (``_reported``): one that does not fit in float64 raises
    ValidationError, the one refusal of scale, and one below the normal
    range rounds, down to -0.0, and is still reported.

    Parameters
    ----------
    m : array_like
        Square matrix.
    k : int
        Highest minor order to check, 1 <= k <= n.
    tol : float
        Relative tolerance; order-j minors of c are accepted at
        >= -tol * frac^j, that is minors of m at >= -tol * amax^j.
    budget : int
        Cap on the exhaustive determinant count, a nonnegative integer
        checked in both modes. When the estimate exceeds it and ``sample``
        is False, a ResourceLimitError suggests either a smaller k or
        sampling mode.
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
    budget = _check_int(budget, "budget", 0)
    seed = _check_int(seed, "seed", 0)
    if sample:
        samples = _check_int(samples, "samples", 1)
        return _sample_minors(m, 1, k, samples, seed, tol)

    estimate = _estimated_minors(n, k)
    if estimate > budget:
        raise ResourceLimitError(
            f"checking all minors up to order {k} of an {n}x{n} matrix needs "
            f"{estimate} determinants, above the budget of {budget}; "
            "use a smaller k or sample=True"
        )
    (c, frac, e), total = _scaled(m), 0
    for j in range(1, k + 1):
        witness, evaluated = _order_sweep(c, j, -tol * frac ** j)
        total += evaluated
        if witness is not None:
            break
    return _reported(TNCertificate(k, witness is None, witness, total, "exhaustive"), e)


def _contiguous_order_two(c, frac, tol):
    """Order-2 certificate of c, with max|c| = frac in [0.5, 1), from the
    2x2 minors of adjacent nonzero rows on consecutive joint columns, or None
    when they do not decide. A witness value is the minor of c, as the sweep
    and the sampler report theirs.

    The scan reads c as r, in which every entry in [-tol * frac, 2^-511) is
    zero: the order-1 slack band, and the entries too small to multiply, so
    that every product of two entries it keeps is a normal float. The
    exactly zero rows of r are dropped. For each pair of adjacent remaining
    rows f above h, the joint columns are those where (f, h) is not (0, 0),
    and a cell is the 2x2 minor of f and h on two consecutive joint columns;
    when no pair has a (0, 0) column these are the contiguous 2x2 minors of
    the nonzero rows, (n-1)^2 of them on a strictly positive matrix. Each
    cell [[a, b], [g, d]] gives bg = b g and D = a d - bg. The cells are
    formed for one block of adjacent row pairs at a time, about ``_BLOCK``
    cells where no entry is read as zero and a quarter of that otherwise:
    from contiguous slices when no pair of the block has a (0, 0)
    column, by a gather of its joint columns otherwise, and with the flushed
    and dropped rows copied for that block only; the worst cell and the
    deficit sum below are carried from block to block. Callers pass
    m 2^-e, an exact scaling, so 2^k m is scanned as m is wherever that
    scaling is exact. If the most negative D is below -tol * frac^2, that
    cell is read again on c's four entries, in the same order of operations
    (so bit for bit where nothing was flushed): it is the witness when that
    minor of c is below the threshold too, and the scan does not decide
    otherwise.

    Otherwise, when r has no negative entry (c none below -tol * frac),
    Karlin's deficit (Total Positivity, 1968) S = sum max(0, -D) / bg, the
    sum of 1 - ad / (bg) over the cells with D < 0, formed in place on D,
    bounds the minors of r. For S < 1 every 2x2 minor of r on rows i < k
    and columns j < l is

        minor >= -S * r[i,l] * r[k,j] >= -S * frac^2,

    and for S >= 1 (so tol >= 1) every minor is ad - bg >= -frac^2 anyway.

    Proof of the bound, for S < 1. For nonzero rows f above h let P(f, h)
    say: for all columns j < l with f(l) > 0 and h(j) > 0, f(j) > 0,
    h(l) > 0 and f(j) h(l) >= (1 - S_fh) f(l) h(j), with S_fh the deficits
    summed over the cells of the adjacent pairs from f down to h.

    - Adjacent rows. As S < 1, no deficit is 1. So along the joint columns
      the pair runs f-only, then both positive, then h-only: any other step
      is a cell with ad = 0 < bg, whose deficit is 1. Hence j and l lie in
      the both-positive run, f(j) h(l) / (f(l) h(j)) is the product of the
      ad / (bg) >= 1 - delta over its cells from j to l, and
      prod (1 - delta) >= 1 - sum delta for delta in [0, 1].
    - Chaining through a nonzero row g between f and h. Take z with
      g(z) > 0. If z > j, P(g, h) at (j, z) gives g(j) > 0. If z < j,
      P(f, g) at (z, l) gives g(l) > 0, and then P(g, h) at (j, l) gives
      g(j) > 0. P(f, g) and P(g, h) at (j, l) then bound both ratios, and
      their product is P(f, h) with S_fh = S_fg + S_gh, as
      (1 - x)(1 - y) >= 1 - x - y.

    A minor with f(l) = 0 or h(j) = 0 is f(j) h(l) >= 0, and one on a zero
    row is 0.

    Proof of the flush margin, for r with no negative entry. Write
    c = r + E, with E nonzero only where r is zero, and let nu- <= tol * frac
    and nu+ < 2^-511 be the largest flushed negative and positive magnitudes
    (nu+ <= frac too). Against r, a product x y of two entries of c moves
    by 0 when neither is flushed, by r_x E_y with 0 <= r_x <= frac when one
    is, and by E_x E_y when both are. So the diagonal product of a minor
    moves by at least -frac nu- (or -nu- nu+ >= -frac nu-), the other one by
    at most frac nu+ (or max(nu+^2, nu-^2) <= frac nu+ + nu-^2), and

        minor(c) >= minor(r) - frac (nu- + nu+) - nu-^2
                 >= -(S + (nu- + nu+) / frac + (nu- / frac)^2) * frac^2.

    So the scan certifies c when S plus that margin is at most tol; with
    nothing flushed the margin is 0. With an entry below -tol * frac, or
    with S plus the margin above tol, it does not decide.
    """
    n, low, thresh = c.shape[0], float(c.min()), -tol * frac * frac
    rows, nz, margin, total, worst, at, deficit = np.arange(n), None, 0.0, 0, thresh, None, 0.0
    if low < _TINY:  # read [-tol frac, 2^-511) as zero and drop the zero rows
        nz = (c < -tol * frac) | (c >= _TINY)
        neg, pos = -float(c.min(where=~nz, initial=0.0)), float(c.max(where=~nz, initial=0.0))
        margin = (neg + pos) / frac + (neg / frac) ** 2 if neg or pos else 0.0
        rows = np.flatnonzero(nz.any(axis=1))
    step = max(1, (_BLOCK if nz is None else _BLOCK // 4) // n)
    for s in range(0, rows.size - 1, step):
        block = rows[s:s + step + 1]
        q = c[s:s + step + 1] if nz is None else np.where(nz[block], c[block], 0.0)
        joint = None if nz is None else nz[block[:-1]] | nz[block[1:]]
        if joint is None or joint.all():  # the contiguous cells of the block's rows
            a, b, g, d = q[:-1, :-1], q[:-1, 1:], q[1:, :-1], q[1:, 1:]
            p, lo, hi = np.arange(block.size - 1)[:, None], np.arange(n - 1), np.arange(1, n)
        else:  # consecutive joint columns within each pair of rows
            p, col = np.divmod(np.flatnonzero(joint), n)
            same = p[1:] == p[:-1]
            p, lo, hi = p[:-1][same], col[:-1][same], col[1:][same]
            a, b, g, d = q[p, lo], q[p, hi], q[p + 1, lo], q[p + 1, hi]
        bg = b * g
        delta = a * d
        delta -= bg
        total += delta.size
        if delta.min(initial=0.0) < worst:  # the most negative cell below thresh
            t = np.unravel_index(int(np.argmin(delta)), delta.shape)
            worst, at = float(delta[t]), [int(x[t]) for x in np.broadcast_arrays(s + p, lo, hi)]
        with np.errstate(all="ignore"):  # a zero bg has D >= 0: fmin takes its inf or nan to 0
            np.divide(delta, bg, out=delta)
        deficit -= float(np.fmin(delta, 0.0, out=delta).sum())
    if at is not None:  # read the worst cell again on c
        p, lo, hi = at
        i, k = int(rows[p]), int(rows[p + 1])
        a, b, g, d = c[[i, i, k, k], [lo, hi, lo, hi]].tolist()
        value = a * d - b * g
        return TNCertificate(2, False, MinorWitness((i, k), (lo, hi), value),
                             total, "exhaustive") if value < thresh else None
    decided = low >= -tol * frac and margin + deficit <= tol
    return TNCertificate(2, True, None, total, "exhaustive") if decided else None


def is_two_totally_nonnegative(m, tol=DEFAULT_TOL, budget=MINOR_BUDGET,
                               samples=2000, seed=0):
    """Check the order-1 and order-2 nonnegativity hypotheses separately.

    Returns a pair of certificates: entrywise nonnegativity of the matrix
    itself, and nonnegativity of all its 2x2 minors (the entries of the
    exterior square). Both read c = m 2^-e, the exact scaling that puts
    max|c| = frac in [0.5, 1); input already in that range is read as
    given, without a copy. So a power-of-two multiple of ``m`` gets the
    same verdicts and witness positions wherever that scaling is exact. The
    order-2 check scans the 2x2 minors of adjacent nonzero rows of c on
    consecutive joint columns (see ``_contiguous_order_two``);
    ``minors_evaluated`` counts those cells, (n-1)^2 on a strictly positive
    matrix and O(n) on a banded one. The scan reads every entry of c in
    [-tol * frac, 2^-511) as zero, the order-1 slack band and the entries
    whose products would fall below the normal range, and decides at every
    n when a cell is a violation of c, or when no entry is below
    -tol * frac and Karlin's deficit plus the margin of the entries read as
    zero is at most ``tol``; the margin is 0 when none but exact zeros are.
    Only input it leaves undecided is swept exhaustively under the minor
    budget, and above the budget sampled with ``samples`` 2x2 minors from
    ``seed``; the certificate's mode says which. The sweep and the sampler
    read the minors of the same c, and every witness is scaled back once by
    2^(j e) (``_reported``): an order-2 one to the correctly rounded minor
    of ``m``, and one that does not fit in float64 raises ValidationError,
    the only refusal of scale. ``budget``, ``samples`` and ``seed`` are
    checked on every call.
    """
    m = as_dense_matrix(m)
    _check_tol(tol)
    budget = _check_int(budget, "budget", 0)
    samples = _check_int(samples, "samples", 1)
    seed = _check_int(seed, "seed", 0)
    n = m.shape[0]
    if n < 2:
        raise ValidationError("the order-2 hypothesis needs dimension n >= 2")
    c, frac, e = _scaled(m)

    neg = _negative_entry(c, tol, frac)
    witness = None if neg is None else MinorWitness((neg[0],), (neg[1],), neg[2])
    cert1 = TNCertificate(1, neg is None, witness, n * n, "exhaustive")

    cert2 = _contiguous_order_two(c, frac, tol)
    if cert2 is None and comb(n, 2) ** 2 > budget:
        cert2 = _sample_minors(c, 2, 2, samples, seed, tol)
    elif cert2 is None:
        witness, evaluated = _order_sweep(c, 2, -tol * frac * frac)
        cert2 = TNCertificate(2, witness is None, witness, evaluated, "exhaustive")
    return _reported(cert1, e), _reported(cert2, e)


def sign_changes(v, tol=DEFAULT_TOL):
    """Count strict sign alternations after discarding near-zero entries.

    Entries with |entry| <= tol * max|entry| are dropped; the count is the
    number of consecutive sign flips in the surviving sequence. A vector
    with no surviving entries raises ZeroVectorError, which is distinct
    from a genuine count of zero. A complex vector raises ValidationError:
    its imaginary parts would otherwise be dropped unseen.
    """
    _check_tol(tol)
    x = _finite_vector(v, "sign_changes")
    if x.size == 0:
        raise ValidationError("sign_changes needs a nonempty vector")
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
