"""Dense eigenvalue computation, Perron pairs, and spectrum multiset matching.

The dense solver is chosen by structure: exactly symmetric input takes
LAPACK's symmetric solver, any other the general Hessenberg + shifted QR
route. Both routes return canonically ordered values, and ``eigenpairs``
checks the residual of every pair on both.

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
    anything numpy cannot read as reals."""
    try:
        x = np.asarray(a)
        if x.dtype.kind != "c":
            return np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be real numbers: {exc}") from None
    raise ValidationError(f"{what} must be real numbers: got dtype {x.dtype}")


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


def _solver_failure(m, exc):
    norm = float(np.linalg.norm(m))
    try:
        cond = float(np.linalg.cond(m))
    except np.linalg.LinAlgError:
        cond = float("inf")
    return ConvergenceError(
        f"eigenvalue iteration did not converge for a {m.shape[0]}x{m.shape[0]} "
        f"matrix (Frobenius norm {norm:.6g}, condition estimate {cond:.6g}): {exc}"
    )


def _dense_solve(m, vectors):
    """Eigenvalues of ``m``, with eigenvectors when ``vectors`` is true.

    An exactly symmetric ``m`` (``m == m.T`` entry for entry, an O(n^2) test)
    takes LAPACK's symmetric solver (``eigh`` / ``eigvalsh``): real values and
    orthonormal vectors at a fraction of the cost of the general route. Any
    other ``m`` takes the general Hessenberg + shifted QR route (``eig`` /
    ``eigvals``, LAPACK dgeev). Both are deterministic for a fixed input on a
    fixed build. The choice rests on structure, never on size.
    """
    symmetric = np.array_equal(m, m.T)
    try:
        if vectors:
            return np.linalg.eigh(m) if symmetric else np.linalg.eig(m)
        return np.linalg.eigvalsh(m) if symmetric else np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise _solver_failure(m, exc) from None


def eigenvalues(m, tol=DEFAULT_TOL):
    """All eigenvalues of a real square matrix, canonically sorted.

    Exactly symmetric input takes the symmetric solver, any other the
    general Hessenberg + shifted QR route (see ``_dense_solve``).

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
    input takes the symmetric solver, any other the general route (see
    ``_dense_solve``). On both routes each pair is validated against the
    backward-error bound ``||m v - lambda v|| <= tol * ||m||_F``; a violation
    raises ConvergenceError with condition diagnostics.
    """
    m = as_dense_matrix(m)
    _check_tol(tol)
    w, v = _dense_solve(m, vectors=True)
    order = _spectrum_order(w)
    w, v = w[order], v[:, order]
    scale = max(float(np.linalg.norm(m)), np.finfo(float).tiny)
    residuals = np.linalg.norm(m @ v - v * w[None, :], axis=0)
    worst = float(residuals.max())
    if worst > tol * scale:
        raise _solver_failure(m, f"residual {worst:.3e} exceeds {tol:g} * ||m||")
    return w, v


def spectral_radius(s):
    """Maximum modulus over a nonempty spectrum."""
    v = np.asarray(s, dtype=complex).ravel()
    if v.size == 0:
        raise ValidationError("spectral radius of an empty spectrum is undefined")
    return float(np.abs(v).max())


def _ritz_iteration(a, start, max_iter):
    """Subspace iteration with a Rayleigh-Ritz step on the span of the k
    columns of ``start`` (Stewart, Numer. Math. 25, 1976; Rutishauser's
    ritzit, Numer. Math. 16, 1970).

    Returns ``(moduli, vectors, converged)``: ``moduli`` holds
    |theta_1| >= ... of the leading min(2, k) Ritz values theta, and
    ``vectors`` the matching Ritz vectors x = q y as columns, in the same
    order, or None when the iteration did not converge. A real theta has a
    real x, as with LAPACK's dgeev; for k = 1, y = [[1.0]] and x is q
    itself. A step takes z = a q and b = q^T z, the Ritz pairs (theta, y) of
    b from ``np.linalg.eig`` ordered by modulus, and then q = qr(z). For
    k = 1 this is power iteration; for k >= 2 the two leading Ritz values
    converge to lambda1 and lambda2 at the rate |lambda_{k+1} / lambda_2|,
    whether lambda2 is real or one of a complex pair. It stops when both
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

    The loop runs on a * 2^-e, with e the exponent that puts max|a| in
    [0.5, 1), and scales the moduli back by 2^e. Both are exact, so 2^j a
    gives the same q and 2^j times the moduli, and no norm can overflow.
    """
    lead = min(2, start.shape[1])
    e = math.frexp(float(np.abs(a).max()))[1]  # 0 for a zero a
    a = np.ldexp(a, -e)
    target = _ITERATION_TARGET * float(np.linalg.norm(a))
    q = np.linalg.qr(start)[0]
    reading = math.inf
    for _ in range(max_iter):
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
                return np.ldexp(moduli, e), np.dot(q, y[:, :lead]), True
        q = np.linalg.qr(z)[0]
    return np.ldexp(moduli, e), None, False


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
    """
    m = as_dense_matrix(m)
    _check_tol(tol)
    n = m.shape[0]
    max_iter = 100 * n if max_iter is None else _check_int(max_iter, "max_iter", 1)
    require_nonnegative(m, tol)
    a = np.where(m < 0.0, 0.0, m)
    scale = max(float(np.linalg.norm(a)), np.finfo(float).tiny)

    moduli, x, ok = _ritz_iteration(a, np.ones((n, 1)), max_iter)
    rho = float(moduli[0])
    if not ok:
        # Stagnation: several eigenvalues share the leading modulus. Solve
        # densely, then pick a nonnegative representative for the Perron root.
        w, v = eigenpairs(a, tol)
        rho = float(np.abs(w[0]))
    if rho <= tol * scale:
        raise DegeneratePerronError(
            f"spectral radius {rho:.3e} is below tol * ||m|| = {tol * scale:.3e}"
        )
    if ok:
        x = x[:, 0]
        return rho, -x if x.sum() < 0.0 else x
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
            return rho, vec
    raise ConvergenceError(
        "no nonnegative eigenvector for the spectral radius was found in the "
        f"computed eigenbasis (rho = {rho:.6g}); the eigenspace may need a "
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
