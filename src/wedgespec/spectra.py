"""Dense eigenvalue computation, Perron pairs, and spectrum multiset matching.

The dense solver is chosen by structure, never by size (``_dense_solve``).
The eigenvalues of exactly symmetric input that equals its reversal J m J up
to rounding, as every green_string and gaussian grid does, come from even
and odd blocks of half the size (Cantoni and Butler, Linear Algebra Appl. 13,
1976), each solved by LAPACK's symmetric solver; by Weyl's inequality the
split moves no eigenvalue by more than 1e-13 ||m||_F. Other exactly
symmetric input, and every ``eigenpairs`` call on symmetric input, takes the
symmetric solver whole, any other input the general Hessenberg + shifted QR
route. Every route returns canonically ordered values, and ``eigenpairs``
checks the residual of every pair on both of its routes.

Spectra are represented as numpy arrays of complex values in a canonical
order: modulus descending, ties broken by argument ascending in (-pi, pi].
Every function that returns a spectrum returns it in that order, so reports
built on top of this module are deterministic for a fixed input.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegeneratePerronError, ValidationError

DEFAULT_TOL = 1e-9

# Residual target of _ritz_iteration, relative to ||a||_F: a few
# hundred ulps, just above the rounding floor of one step.
_ITERATION_TARGET = 1e-13


def as_dense_matrix(a):
    """Validate and return a square, finite, float64 matrix.

    Parameters
    ----------
    a : array_like
        Anything numpy can coerce to a 2-d square array of reals; a complex
        dtype is refused, not cast.

    Returns
    -------
    numpy.ndarray
        Of shape (n, n), n >= 1: ``a`` itself when it already is a
        C-contiguous float64 ndarray, otherwise a new float64 array. The
        package never writes to the result, so input passed from layer to
        layer is validated again but not copied again; a caller that keeps
        the result past the call copies it (``tabulated_kernel`` does).

    Raises
    ------
    ValidationError
        If the input is complex, not square, empty, or contains NaN/Inf.
    """
    if type(a) is np.ndarray and a.dtype == np.float64 and a.flags.c_contiguous:
        m = a
    else:
        m = _real_array(a, "matrix entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValidationError("matrix must have dimension n >= 1")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains NaN or Inf entries")
    return m


def _real_array(a, what):
    """``a`` as a new float64 ndarray. A complex dtype raises ValidationError
    naming ``what`` rather than losing its imaginary parts to a cast, as does
    anything numpy cannot read as reals. Strings are converted as Python
    strings, so a bad one is named as Python names it ('y', not numpy's
    np.str_('y'))."""
    try:
        x = np.asarray(a)
        if x.dtype.kind != "c":
            return np.array(x.astype(object) if x.dtype.kind == "U" else x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be real numbers: {exc}") from None
    raise ValidationError(f"{what} must be real numbers: got dtype {x.dtype}")


def _finite_vector(v, name):
    """``v`` read by ``_real_array`` and flattened; NaN or Inf entries raise
    ValidationError naming the function ``name``."""
    x = _real_array(v, f"{name} entries").ravel()
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} got NaN or Inf entries")
    return x


def _negative_entry(m, tol, amax):
    """The most negative entry of ``m`` as ``(i, j, value)`` when it is below
    -tol * amax, with amax = max|m|, else None.

    The slack scales with the matrix, so a positive multiple of ``m`` passes
    or fails with it. This is the order-1 certificate of ``positivity`` and
    the input check of ``perron_pair``.
    """
    i, j = divmod(int(np.argmin(m)), m.shape[1])
    lo = float(m[i, j])
    return (i, j, lo) if lo < -tol * amax else None


def require_nonnegative(m, tol):
    """Raise unless every entry of ``m`` is >= -tol * max|m|."""
    neg = _negative_entry(m, tol, float(np.abs(m).max()))
    if neg is not None:
        i, j, lo = neg
        raise ValidationError(
            f"matrix is not entrywise nonnegative within tol={tol:g} * max|m|: "
            f"entry ({i},{j}) = {lo:g}"
        )


def _check_tol(tol, name="tol"):
    # a bool is an int to Python, never a tolerance to a caller
    if isinstance(tol, bool) or not (isinstance(tol, (int, float)) and 0 < tol < math.inf):
        raise ValidationError(f"{name} must be a finite positive real, got {tol!r}")


def _check_int(value, name, lo, hi=None):
    """Return ``value`` as an int after checking it is an integer in range.

    ``value`` must be a Python or numpy integer, but not a bool (True is an
    int to Python, never a count, size or seed to a caller), with
    ``lo <= value``, and ``value <= hi`` unless ``hi`` is None. Anything else
    raises ValidationError naming ``name``.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < lo or (hi is not None and value > hi)):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValidationError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def sort_spectrum(values):
    """Sort complex values by modulus descending, then argument ascending.

    The argument is taken in (-pi, pi] after normalizing signed zeros, so
    conjugate pairs of negative reals do not straddle the branch cut. The
    resulting order is total for any fixed value multiset. Ties that exist
    only up to rounding follow the solver's rounding: the moduli of the
    +-rho of a bipartite matrix can differ in their last ulps, so ``eigh``
    and ``eigvalsh`` can list the pair in opposite orders. Grouping moduli
    by a tolerance would instead reorder noise tails of values near zero.
    """
    v = np.asarray(values, dtype=complex).ravel()
    return v[_spectrum_order(v)]


def _spectrum_order(v):
    """Permutation that puts the values ``v`` in canonical spectrum order."""
    canon = (v.real + 0.0) + 1j * (v.imag + 0.0)  # fold -0.0 into +0.0
    return np.lexsort((np.angle(canon), -np.abs(canon)))


def _frobenius(m):
    """||m||_F as ||m / 2^e||_F 2^e, with 2^e <= max|m| < 2^(e+1): no square
    overflows, so it is finite whenever ||m||_F is representable (inf
    otherwise), and bit-identical to ``np.linalg.norm(m)`` in the normal
    range, where dividing by 2^e is exact."""
    s = 2.0 ** (math.frexp(float(np.abs(m).max()))[1] - 1)  # 0.5 for a zero m
    return float(np.linalg.norm(m / s)) * s


def _unscaled(x, e, what):
    """``x * 2^e``: a number read on a matrix scaled by an exact power of two,
    scaled back once, where it is reported. ValidationError names ``what``
    when that does not fit in float64, or when ``x`` itself overflowed; a
    value below the normal range rounds, as any float does."""
    with np.errstate(over="ignore"):
        y = float(np.ldexp(x, e))
    if math.isinf(y):
        raise ValidationError(f"{what} overflow float64 ({x!r} * 2^{e})")
    return y


def _solver_failure(m, exc):
    norm = _frobenius(m)
    try:
        cond = float(np.linalg.cond(m))
    except np.linalg.LinAlgError:
        cond = float("inf")
    return ConvergenceError(
        f"eigenvalue iteration did not converge for a {m.shape[0]}x{m.shape[0]} "
        f"matrix (Frobenius norm {norm:.6g}, condition estimate {cond:.6g}): {exc}"
    )


def _even_odd_blocks(m):
    """The even and odd blocks of an exactly symmetric ``m`` that is
    centrosymmetric up to rounding, or None for any other symmetric ``m``.

    With J the reversal and k = n // 2, the orthogonal Q whose columns are
    (e_i + J e_i) / sqrt(2) for i < k, e_k when n is odd, and
    (e_i - J e_i) / sqrt(2) for i < k gives Q^T c Q = diag(even, odd) for
    the centrosymmetric part c = (m + J m J) / 2 (Cantoni and Butler, Linear
    Algebra Appl. 13, 1976). With A, B and D the top-left, top-right and
    bottom-right k x k quadrants of m (the bottom-left one is B^T):
    even = (A + J D J + B J + (B J)^T) / 2 and odd = (A + J D J - B J -
    (B J)^T) / 2; for odd n the even block gains the middle entry and, scaled
    by sqrt(2), the middle column folded as (m[:k, k] + J m[k+1:, k]) / 2.
    m - c is the antisymmetric part under reversal: (A - J D J) / 2,
    (B J - (B J)^T) / 2 and the middle column's (m[:k, k] - J m[k+1:, k]) / 2,
    each twice. The blocks are returned only when ||m - c||_F <=
    ``_ITERATION_TARGET`` * ||c||_F, with ||c||_F^2 = ||even||_F^2 +
    ||odd||_F^2; by Weyl's inequality the spectrum of c is then that of m
    within ||m - c||_2 <= _ITERATION_TARGET * ||m||_F.

    Everything is formed on m * 2^-e with 2^(e-1) <= max|m| < 2^e, so the
    halving is folded into an exact scaling and no norm can overflow; the
    result is ``(even, odd, e - 1)``, blocks that hold 2^(1-e) times the
    true ones. The quadrants are read so that J m J gives the same blocks
    bit for bit.
    """
    n = m.shape[0]
    k, odd = divmod(n, 2)
    e = math.frexp(max(float(m.max()), -float(m.min())))[1]  # 0 for a zero m
    even = np.empty((k + odd, k + odd))
    top = even[:k, :k]
    s = np.ldexp(m[:k, :k], -e)
    np.ldexp(m[::-1, ::-1][:k, :k], -e, out=top)
    d = s - top
    departure = np.vdot(d, d)
    s += top  # A + J D J
    np.ldexp(m[:k, ::-1][:, :k], -e, out=top)
    np.subtract(top, top.T, out=d)
    departure += np.vdot(d, d)
    np.add(top, top.T, out=d)  # B J + (B J)^T
    np.add(s, d, out=top)  # even
    s -= d  # odd
    departure *= 2.0
    if odd:
        a, b = np.ldexp(m[:k, k], -e), np.ldexp(m[::-1, k][:k], -e)
        even[k, :k] = even[:k, k] = math.sqrt(2.0) * (a + b)
        even[k, k] = math.ldexp(float(m[k, k]), 1 - e)
        a -= b
        departure += 4.0 * np.vdot(a, a)
    if departure > _ITERATION_TARGET ** 2 * (np.vdot(even, even) + np.vdot(s, s)):
        return None
    return even, s, e - 1


def _dense_solve(m, vectors):
    """Eigenvalues of ``m``, with eigenvectors when ``vectors`` is true.

    Three routes, chosen by structure, never by size:

    - For values alone, an exactly symmetric ``m`` (``m == m.T`` entry for
      entry, an O(n^2) test) that equals its reversal J m J up to rounding
      is split into its even and odd blocks (``_even_odd_blocks``), and each
      takes LAPACK's symmetric solver: two solves of sizes ceil(n/2) and
      floor(n/2) in place of one of size n, a quarter of its O(n^3) work.
      The split solves the centrosymmetric part c = (m + J m J) / 2
      exactly, and it is taken only when ||m - c||_F <=
      ``_ITERATION_TARGET`` * ||c||_F. Since ||c||_F <= ||m||_F, Weyl's
      inequality moves each eigenvalue by at most that target times
      ||m||_F, the backward error the wedge iteration is certified to
      (Cantoni and Butler, Linear Algebra Appl. 13, 1976).
      Vectors are never split: ``eigenpairs`` checks its residual against
      m at any positive tol, and the vectors of c may miss that by up to
      ||m - c||_2.
    - Any other exactly symmetric ``m`` takes the symmetric solver
      (``eigh`` / ``eigvalsh``) on m: real values and orthonormal vectors
      at a fraction of the cost of the general route.
    - Any other ``m`` takes the general Hessenberg + shifted QR route
      (``eig`` / ``eigvals``, LAPACK dgeev).

    All are deterministic for a fixed input on a fixed build.
    """
    symmetric = np.array_equal(m, m.T)
    blocks = _even_odd_blocks(m) if symmetric and not vectors else None
    try:
        if blocks is not None:
            even, odd, e = blocks
            a, b = np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)
            with np.errstate(over="ignore"):  # past the float range: inf, as from LAPACK
                return np.ldexp(np.concatenate((a, b)), e)
        if vectors:
            return np.linalg.eigh(m) if symmetric else np.linalg.eig(m)
        return np.linalg.eigvalsh(m) if symmetric else np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise _solver_failure(m, exc) from None


def eigenvalues(m, tol=DEFAULT_TOL):
    """All eigenvalues of a real square matrix, canonically sorted.

    Exactly symmetric input takes the symmetric solver, split into even and
    odd halves where it equals its reversal, any other the general
    Hessenberg + shifted QR route (see ``_dense_solve``).

    Parameters
    ----------
    m : array_like
        Real square matrix.
    tol : float
        Validated as in ``eigenpairs`` and otherwise unused: no residual is
        checked without eigenvectors.

    Returns
    -------
    numpy.ndarray
        Complex array of length n in canonical sort order.
    """
    m = as_dense_matrix(m)
    _check_tol(tol)
    return sort_spectrum(_dense_solve(m, vectors=False))


def eigenpairs(m, tol=DEFAULT_TOL):
    """Eigenvalues with matching eigenvectors and a residual guarantee.

    Returns ``(values, vectors)`` with ``values`` canonically sorted and
    ``vectors[:, k]`` a unit eigenvector for ``values[k]``. Exactly symmetric
    input takes the symmetric solver whole, never split into even and odd
    halves, any other the general route (see ``_dense_solve``). On both
    routes each pair is validated against the
    backward-error bound ``||m v - lambda v|| <= tol * ||m||_F``; a violation
    raises ConvergenceError with condition diagnostics.
    """
    m = as_dense_matrix(m)
    _check_tol(tol)
    w, v = _dense_solve(m, vectors=True)
    order = _spectrum_order(w)
    w, v = w[order], v[:, order]
    # a value past the float range makes the residual NaN, which no test rejects
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise _solver_failure(m, "an eigenvalue or eigenvector is not finite")
    scale = max(_frobenius(m), np.finfo(float).tiny)
    # residuals relative to ||m||_F, whose squares cannot overflow
    worst = float(np.linalg.norm((m @ v - v * w[None, :]) / scale, axis=0).max())
    if worst > tol:
        raise _solver_failure(m, f"residual {worst * scale:.3e} exceeds {tol:g} * ||m||")
    return w, v


def spectral_radius(s):
    """Maximum modulus over a nonempty spectrum."""
    v = np.asarray(s, dtype=complex).ravel()
    if v.size == 0:
        raise ValidationError("spectral radius of an empty spectrum is undefined")
    return float(np.abs(v).max())


def _ritz_iteration(a, q, max_iter, plain=0):
    """Subspace iteration with a Rayleigh-Ritz step on the span of the k
    orthonormal columns of ``q`` (Stewart, Numer. Math. 25, 1976; Rutishauser's
    ritzit, Numer. Math. 16, 1970). ``q`` is read, never written.

    Returns ``(moduli, vectors, converged)``: ``moduli`` holds
    |theta_1| >= ... of the leading min(2, k) Ritz values theta, and
    ``vectors`` the matching Ritz vectors x = q y as columns, in the same
    order, or None when the iteration did not converge. A real theta has a
    real x, as with LAPACK's dgeev; for k = 1, y = [[1.0]] and x is q
    itself. The first ``plain`` steps, fewer than ``max_iter``, take z = a q
    and q = qr(z) and project nothing. Every later step takes z = a q and
    b = q^T z, the Ritz pairs (theta, y) of b from ``np.linalg.eig`` ordered
    by modulus, and then q = qr(z). For k = 1 this is power iteration; for
    k >= 2 the two leading Ritz values converge to lambda1 and lambda2 at the
    rate |lambda_{k+1} / lambda_2|, whether lambda2 is real or one of a
    complex pair. It stops when both
    (i) the leading min(2, k) Ritz pairs, with the conjugate of a nonreal
    second one, have ``||z y - q y theta||_F <= _ITERATION_TARGET * ||a||_F``.
    With r = a x - theta x, each pair is then an exact eigenpair
    of a - r x^H, so this is a backward error for ``a`` itself (Golub and
    Van Loan, Matrix Computations, sec. 7.3); and
    (ii) the reading, |theta_1| for k = 1 and |theta_1 theta_2| otherwise,
    moved by at most the same target since the previous step. A Jordan
    block of size s can meet (i) with Ritz values only about target^(1/s)
    accurate; (ii) waits for them to settle.
    converged is False when either still fails after ``max_iter`` steps.

    Precondition: ``a`` is scaled, max|a| in [0.5, 1) or a zero a, so that no
    norm can overflow or underflow. Callers pass m * 2^-e, an exact scaling,
    and scale each reported number back themselves; 2^j m then gives the
    same q, moduli and vectors.
    """
    lead = min(2, q.shape[1])
    target = _ITERATION_TARGET * float(np.linalg.norm(a))
    for _ in range(plain):
        q = np.linalg.qr(a @ q)[0]
    reading = math.inf
    for _ in range(max_iter - plain):
        z = a @ q
        # np.dot, not @, for the k-column products: on arrays this small it
        # has the lower call overhead
        w, y = np.linalg.eig(np.dot(q.T, z))
        order = np.argsort(-np.abs(w), kind="stable")[:lead + 1]
        w, y = w[order], y[:, order]
        moduli = np.abs(w[:lead])
        previous, reading = reading, float(moduli.prod())
        if abs(reading - previous) <= target:
            # LAPACK puts a conjugate pair together, positive imaginary part first
            j = lead + (lead < w.size and w[1].imag > 0.0)
            r = np.dot(z, y[:, :j]) - np.dot(q, y[:, :j] * w[:j])
            if np.linalg.norm(r) <= target:
                return moduli, np.dot(q, y[:, :lead]), True
        q = np.linalg.qr(z)[0]
    return moduli, None, False


def perron_pair(m, tol=DEFAULT_TOL, max_iter=None):
    """Perron root and a nonnegative unit eigenvector of a nonnegative matrix.

    Power iteration (``_ritz_iteration`` on one column) from the all-ones
    vector, which converges geometrically for primitive matrices, to the
    fixed residual target ``_ITERATION_TARGET * ||m||_F``. If it stagnates
    (imprimitive or reducible input) the full dense solve is used as a
    fallback and a nonnegative eigenvector for the spectral radius is
    selected from the computed eigenbasis when one exists there.

    Parameters
    ----------
    m : array_like
        Square matrix with entries >= -tol * max|m|; these tiny negatives are
        clipped.
    tol : float
        Relative nonnegativity slack and zero threshold: a root at most
        ``tol * ||m||_F`` counts as zero. It also sets the tolerances of the
        dense fallback, but not the iteration's residual target.
    max_iter : int, optional
        Iteration cap, a positive integer; default 100 * n.

    Returns
    -------
    (float, numpy.ndarray)
        The spectral radius and a unit eigenvector with min entry >= -tol.

    Raises
    ------
    DegeneratePerronError
        If the spectral radius is numerically zero (nilpotent matrix).
    ValidationError
        If the spectral radius does not fit in float64. The iteration and
        the fallback read the clipped matrix scaled by an exact power of
        two, and only the root is scaled back.
    """
    m = as_dense_matrix(m)
    _check_tol(tol)
    n = m.shape[0]
    max_iter = 100 * n if max_iter is None else _check_int(max_iter, "max_iter", 1)
    require_nonnegative(m, tol)
    # the clipped copy, scaled in place by the exact 2^-e that puts its
    # maximum in [0.5, 1), is what every step reads; rho is scaled back once
    a = np.where(m < 0.0, 0.0, m)
    e = math.frexp(float(a.max()))[1]  # 0 for a zero a
    np.ldexp(a, -e, out=a)
    scale = max(float(np.linalg.norm(a)), np.finfo(float).tiny)

    moduli, x, ok = _ritz_iteration(a, np.linalg.qr(np.ones((n, 1)))[0], max_iter)
    rho = float(moduli[0])
    if not ok:
        # Stagnation: several eigenvalues share the leading modulus. Solve
        # densely, then pick a nonnegative representative for the Perron root.
        w, v = eigenpairs(a, tol)
        rho = float(np.abs(w[0]))
    if rho <= tol * scale:
        raise DegeneratePerronError(
            f"spectral radius {rho / scale:.3e} ||m||_F is below tol * ||m||_F, tol = {tol:g}"
        )
    root = _unscaled(rho, e, "the eigenvalues")
    if ok:
        x = x[:, 0]
        return root, -x if x.sum() < 0.0 else x
    for k in range(n):
        if abs(w[k]) < rho * (1.0 - 10.0 * tol):
            break
        if abs(w[k].imag) > tol * rho:
            continue
        col = v[:, k]
        if float(np.abs(col.imag).max()) > tol:
            continue
        vec = col.real
        vec = vec / np.linalg.norm(vec)
        if vec.sum() < 0.0:
            vec = -vec
        if float(vec.min()) >= -tol:
            return root, vec
    raise ConvergenceError(
        "no nonnegative eigenvector for the spectral radius was found in the "
        f"computed eigenbasis (rho = {root:.6g}); the eigenspace may need a "
        "nonnegative recombination"
    )


@dataclass(frozen=True)
class MatchReport:
    """Outcome of matching two spectra as multisets with a tolerance.

    ``pairs`` holds the accepted (a, b) value pairs, ``max_residual`` the
    largest |a - b| over accepted pairs, and the leftovers whatever could
    not be matched on each side. ``tolerance`` is the absolute threshold
    actually applied, tol * (largest modulus seen): it follows the scale of
    the spectra, so matching c a against c b decides as a against b.
    """

    matched: bool
    pairs: tuple
    max_residual: float
    leftover_a: tuple
    leftover_b: tuple
    tolerance: float


def multiset_match(a, b, tol):
    """Match two spectra as multisets within ``tol * max modulus``.

    A greedy pass walks ``a`` in canonical (modulus-descending) order and
    pairs each value with the nearest unmatched value of ``b`` within that
    threshold. Where it leaves values unmatched on both sides, augmenting
    paths over all pairs within the threshold complete it to a matching of
    maximum size, so a pairing within the threshold is found whenever one
    exists. Success requires equal cardinality and no leftovers.
    """
    _check_tol(tol)
    av = sort_spectrum(np.asarray(a, dtype=complex))
    bv = sort_spectrum(np.asarray(b, dtype=complex))
    thresh = tol * float(np.abs(np.concatenate([av, bv])).max(initial=0.0))

    partner = np.full(av.size, -1)  # index into bv, -1 when unmatched
    owner = np.full(bv.size, -1)  # index into av, -1 when unmatched
    for i, x in enumerate(av):
        idx = np.flatnonzero(owner < 0)
        if idx.size:
            k = int(idx[np.argmin(np.abs(bv[idx] - x))])
            if abs(bv[k] - x) <= thresh:
                partner[i], owner[k] = k, i
    if (partner < 0).any() and (owner < 0).any():
        _augment(av, bv, thresh, partner, owner)

    hit = np.flatnonzero(partner >= 0)
    pairs = tuple((complex(av[i]), complex(bv[partner[i]])) for i in hit)
    worst = max((float(abs(bv[partner[i]] - av[i])) for i in hit), default=0.0)
    leftover_a = [complex(z) for z in av[partner < 0]]
    leftover_b = [complex(z) for z in bv[owner < 0]]
    matched = not leftover_a and not leftover_b and av.size == bv.size
    return MatchReport(
        matched=matched,
        pairs=pairs,
        max_residual=worst,
        leftover_a=tuple(leftover_a),
        leftover_b=tuple(leftover_b),
        tolerance=thresh,
    )


def _augment(av, bv, thresh, partner, owner):
    """Grow the matching ``partner``/``owner`` in place to maximum size.

    For each unmatched value of ``av``, a depth-first search over pairs within
    ``thresh`` looks for an alternating path to an unmatched value of ``bv``
    and flips it (Kuhn's algorithm). Neighbour lists are built on demand.
    """
    cache = {}

    def near(i):
        if i not in cache:
            cache[i] = np.flatnonzero(np.abs(bv - av[i]) <= thresh)
        return iter(cache[i])

    for root in np.flatnonzero(partner < 0):
        seen = np.zeros(bv.size, dtype=bool)
        stack = [(root, near(root))]
        via = []  # via[d] leads from stack[d] to stack[d + 1]
        while stack:
            k = next((k for k in stack[-1][1] if not seen[k]), None)
            if k is None:
                stack.pop()
                if via:
                    via.pop()
                continue
            seen[k] = True
            if owner[k] < 0:
                for (i, _), kk in zip(stack, via + [k]):
                    partner[i], owner[kk] = kk, i
                break
            via.append(k)
            stack.append((owner[k], near(owner[k])))
