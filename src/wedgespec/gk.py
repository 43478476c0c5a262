"""Verdict engine: assembles the spectra of a matrix, its Kronecker square,
and its exterior square, and classifies the second-eigenvalue structure.

The classification follows the classical positivity trichotomy: when the
matrix and its exterior square are both nonnegative and exactly one
eigenvalue sits on the spectral circle, the second eigenvalue is positive
and equals rho(wedge) / lambda1. With several eigenvalues on the circle the
report distinguishes a complex conjugate pair from a multiple leading
eigenvalue. Hypothesis failure never aborts the analysis; the spectral
facts are unconditional and the certificates record what was violated.

rho(wedge) = |theta_1 theta_2| comes from the two leading Ritz values theta
of a subspace iteration on the matrix at every size, for a real and a
complex lambda2 alike; no exterior square is built. Whatever the
classification, it must equal lambda1 |lambda2| from the dense spectrum
within ``residual_tol``. That spectrum comes first, from one n x n
``spectra.eigenvalues`` solve (the symmetric solver on exactly symmetric
input, every kernel grid, and the general one otherwise), and its moduli
set the iteration's column count. lambda1 comes from that solve, the same
iteration checks it with |theta_1|, and its two leading Ritz vectors stand
for e1 and e2 in the sign counts.
"""

from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from . import compound
from .errors import ConvergenceError, ValidationError
from .positivity import SignChangeCount, is_two_totally_nonnegative, sign_changes
from .spectra import (
    _ITERATION_TARGET,
    DEFAULT_TOL,
    _check_tol,
    _ritz_iteration,
    as_dense_matrix,
    eigenvalues,
    multiset_match,
    spectral_radius,
)

CLASS_SECOND = "second_eigenvalue_found"
CLASS_COMPLEX_PAIR = "complex_pair_on_circle"
CLASS_MULTIPLE = "multiple_leading"
CLASS_DEGENERATE = "degenerate_rho_zero"
CLASS_VIOLATED = "hypotheses_violated"

CLASSIFICATIONS = (
    CLASS_SECOND,
    CLASS_COMPLEX_PAIR,
    CLASS_MULTIPLE,
    CLASS_DEGENERATE,
    CLASS_VIOLATED,
)

DEFAULT_CIRCLE_TOL = 1e-7
DEFAULT_RESIDUAL_TOL = 1e-8

_GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0


@dataclass(frozen=True)
class GKReport:
    """Structured second-eigenvalue verdict for one matrix.

    ``lambda2`` is present exactly when the classification is
    second_eigenvalue_found, in which case it is rho_wedge / lambda1 and the
    cross-route discrepancy against the sorted spectrum is
    ``residual_theorem3``. ``circle_count`` is the number of eigenvalues on
    the spectral circle at relative tolerance ``circle_tol``; it is reported
    separately so that a conjugate pair and a multiple leading eigenvalue
    both stay visible.
    """

    lambda1: float
    lambda2: Optional[float]
    complex_pair: Optional[tuple]
    classification: str
    rho_wedge: float
    residual_theorem3: float
    sign_changes_e1: Optional[SignChangeCount]
    sign_changes_e2: Optional[SignChangeCount]
    hypothesis_certificates: tuple
    spectrum: tuple
    circle_count: int
    circle_tol: float
    tolerance: float


@dataclass(frozen=True)
class VerificationReport:
    """Multiset comparison of a square's spectrum against the eigenvalue
    products computed from the base matrix."""

    theorem: int
    matched: bool
    max_residual: float
    leftovers: tuple  # (square-spectrum side, product side)


def _wedge_radius(m, moduli):
    """Spectral radius of the exterior square of ``m``, lambda1 read from the
    same iteration, and the real parts of its two leading Ritz vectors as
    the columns of an n x 2 array; ``moduli`` are |lambda_1| >= ... of the
    dense spectrum of ``m``.

    Subspace iteration with a Rayleigh-Ritz step on ``m``
    (``spectra._ritz_iteration``) over p columns u s^c, c = 0..p-1, where
    u_i = 1 + frac(i * phi) lies in [1, 2) (phi the golden-ratio conjugate)
    and s = cumsum(u) / sum(u) increases. This positive Vandermonde matrix
    scaled by rows has every p x p minor positive, and no column is
    constant or polynomial in i, so neither constant row sums nor a
    polynomial invariant subspace of ``m`` holds the start span invariant.
    The two leading Ritz values converge to lambda1 and lambda2, real or
    complex, at the rate |lambda_{p+1} / lambda_2| (Stewart, Numer. Math.
    25, 1976); rho(wedge) = |theta_1 theta_2| and lambda1 = |theta_1|. They
    and the two Ritz vectors are exact for a backward perturbation of ``m``
    of t ||m||_F, t = ``_ITERATION_TARGET``, and the radius of 2^k m is
    exactly 4^k times that of m.

    p starts at max(2, min(6, n - 1)) and takes in every modulus above
    max(|lambda_2| t^(2 / (100 n)), t lambda_1), so that the rate the dense
    spectrum predicts reaches t within half of the 100 n step budget. On a
    cyclic permutation, whose n moduli all tie, p = n: the whole space,
    which is invariant at once. ConvergenceError is raised when the budget
    runs out all the same, as on a Jordan block, whose Ritz values do not
    settle.
    """
    n = m.shape[0]
    threshold = max(moduli[1] * _ITERATION_TARGET ** (2.0 / (100 * n)),
                    _ITERATION_TARGET * moduli[0])
    p = min(n, max(2, min(6, n - 1), int(np.count_nonzero(moduli > threshold))))
    u = 1.0 + np.mod(np.arange(n) * _GOLDEN, 1.0)
    s = np.cumsum(u) / u.sum()
    ritz, x, ok = _ritz_iteration(m, u[:, None] * s[:, None] ** np.arange(p), 100 * n)
    if not ok:
        raise ConvergenceError(f"subspace iteration for the wedge radius did not "
                               f"converge in {100 * n} steps on {p} columns")
    return float(ritz[0] * ritz[1]), float(ritz[0]), x.real


def analyze(m, tol=DEFAULT_TOL, circle_tol=DEFAULT_CIRCLE_TOL,
            residual_tol=DEFAULT_RESIDUAL_TOL, seed=0):
    """Full second-eigenvalue analysis of a real square matrix.

    The one dense solve, ``eigenvalues``, comes first; its moduli size the
    wedge iteration (see ``_wedge_radius``), which raises ConvergenceError
    when its step budget runs out. lambda1 comes from the dense solve and
    must agree within 1e-6 lambda1 with the iteration's reading of it. The
    sign changes of e1 and e2 are counted on the iteration's two leading
    Ritz vectors, which carry its backward error of 1e-13 ||m||_F; no dense
    eigenvector is computed.

    Parameters
    ----------
    m : array_like
        Square matrix, n >= 2.
    tol : float
        General relative tolerance (solver residuals, nonnegativity slack,
        zero thresholds).
    circle_tol : float
        An eigenvalue counts as on the spectral circle iff its modulus is
        >= lambda1 * (1 - circle_tol). Exact circle membership has no
        floating-point meaning, so the threshold is part of the report.
    residual_tol : float
        A finite positive cap on ``residual_theorem3``, the discrepancy
        between rho_wedge and lambda1 |lambda2| from the dense spectrum,
        before the result is refused as numerically inconsistent; checked
        for every classification but degenerate_rho_zero.
    seed : int
        A nonnegative integer, checked even when unused: the seed of the
        sampled order-2 hypothesis check, the last resort for
        matrices whose contiguous 2x2 minors do not decide it (zeros, or a
        minor in the slack band) and whose 2x2 minors exceed the exhaustive
        budget; the certificate's mode then reads "sampled".

    Returns
    -------
    GKReport
    """
    m = as_dense_matrix(m)
    _check_tol(tol)
    _check_tol(residual_tol, "residual_tol")
    if not 0.0 < circle_tol < 1.0:
        raise ValidationError(f"circle_tol must be a real in (0, 1), got {circle_tol!r}")
    if m.shape[0] < 2:
        raise ValidationError("analysis needs dimension n >= 2")
    n = m.shape[0]
    amax = float(np.abs(m).max())

    cert1, cert2 = is_two_totally_nonnegative(m, tol, seed=seed)
    hypotheses_ok = cert1.verdict and cert2.verdict

    spectrum = eigenvalues(m)
    moduli = np.abs(spectrum)
    rho_wedge, lam_w, vectors = _wedge_radius(m, moduli)
    lambda1 = float(moduli[0])
    degenerate = lambda1 <= tol * amax

    if not degenerate and abs(lam_w - lambda1) > 1e-6 * lambda1:
        raise ConvergenceError(
            f"subspace iteration ({lam_w:.12g}) and the dense solve "
            f"({lambda1:.12g}) disagree on the spectral radius"
        )
    residual = abs(rho_wedge - lambda1 * float(moduli[1])) / max(1.0, rho_wedge)

    def build(classification, lambda2=None, complex_pair=None, s1=None, s2=None,
              circle_count=0):
        return GKReport(
            lambda1=float(lambda1),
            lambda2=lambda2,
            complex_pair=complex_pair,
            classification=classification,
            rho_wedge=float(rho_wedge),
            residual_theorem3=float(residual),
            sign_changes_e1=s1,
            sign_changes_e2=s2,
            hypothesis_certificates=(cert1, cert2),
            spectrum=tuple(complex(z) for z in spectrum),
            circle_count=circle_count,
            circle_tol=circle_tol,
            tolerance=tol,
        )

    if degenerate:
        return build(CLASS_DEGENERATE)
    # rho(wedge) = lambda1 |lambda2| holds for every matrix, so the wedge
    # route and the dense spectrum must agree whatever the classification.
    if residual > residual_tol:
        raise ConvergenceError(
            f"the two routes to the second eigenvalue disagree: "
            f"rho_wedge/lambda1 = {rho_wedge / lambda1:.12g} vs sorted modulus "
            f"{float(moduli[1]):.12g} (residual {residual:.3e} > {residual_tol:g})"
        )

    on_circle = moduli >= lambda1 * (1.0 - circle_tol)
    circle_count = int(np.count_nonzero(on_circle))

    # With one eigenvalue on the circle lambda1 is real: a nonreal one would
    # share its modulus with its conjugate. A lambda2 strictly above |lambda3|
    # is real for the same reason. A Ritz vector is real for a real Ritz
    # value, so the two columns are e1 and e2; the counts are relative to
    # max|entry|, so no normalization is needed.
    signs1 = signs2 = None
    if circle_count == 1:
        signs1 = sign_changes(vectors[:, 0], tol)
        if n == 2 or (moduli[1] - moduli[2]) > circle_tol * lambda1:
            signs2 = sign_changes(vectors[:, 1], tol)

    if circle_count > 1:
        nonreal = [
            complex(z) for z, hit in zip(spectrum, on_circle)
            if hit and abs(z.imag) > circle_tol * lambda1
        ]
        if nonreal:
            z = next(w for w in nonreal if w.imag > 0)
            return build(CLASS_COMPLEX_PAIR, complex_pair=(z, z.conjugate()),
                         circle_count=circle_count)
        return build(CLASS_MULTIPLE, circle_count=circle_count)

    wedge_degenerate = rho_wedge <= tol * lambda1 ** 2
    if not hypotheses_ok or wedge_degenerate:
        return build(CLASS_VIOLATED, s1=signs1, s2=signs2, circle_count=circle_count)

    lambda2 = rho_wedge / lambda1
    if not 0.0 < lambda2 < lambda1:
        raise ConvergenceError(
            f"computed second eigenvalue {lambda2:.12g} is outside (0, lambda1 = "
            f"{lambda1:.12g}) despite a single eigenvalue on the circle"
        )
    return build(CLASS_SECOND, lambda2=float(lambda2), s1=signs1, s2=signs2,
                 circle_count=circle_count)


def _verify_identity(m, tol, force, theorem):
    """Theorem 1 (Kronecker square) or 2 (exterior square) for ``m``."""
    m = as_dense_matrix(m)
    _check_tol(tol)
    if theorem == 2 and m.shape[0] < 2:
        raise ValidationError("the exterior-square identity needs n >= 2")
    base = eigenvalues(m)
    products = np.multiply.outer(base, base)
    if theorem == 1:
        square = compound.tensor_square(m, force=force)
        products = products.ravel()
    else:
        square = compound.exterior_square(m, force=force)
        products = products[np.triu_indices(base.size, 1)]
    square_spec = eigenvalues(square)
    cutoff = tol * spectral_radius(base) ** 2
    report = multiset_match(square_spec[np.abs(square_spec) > cutoff],
                            products[np.abs(products) > cutoff], tol)
    return VerificationReport(
        theorem=theorem,
        matched=report.matched,
        max_residual=report.max_residual,
        leftovers=(report.leftover_a, report.leftover_b),
    )


def verify_theorem1(m, tol=DEFAULT_RESIDUAL_TOL, force=False):
    """Check that the Kronecker square's nonzero spectrum is exactly the
    ordered products of eigenvalue pairs of the base matrix.

    Zeros are filtered at tol * rho^2 on both sides before multiset
    matching, since only the nonzero part of the identity is meaningful.
    """
    return _verify_identity(m, tol, force, 1)


def verify_theorem2(m, tol=DEFAULT_RESIDUAL_TOL, force=False):
    """Check that the exterior square's nonzero spectrum is exactly the
    products over unordered eigenvalue pairs (i < j) of the base matrix."""
    return _verify_identity(m, tol, force, 2)


def _to_json(obj):
    """``obj`` as JSON-ready data: a dataclass as a dict of its fields in
    declaration order, a dict as a dict, a tuple, list or ndarray as a list,
    a complex number as {"re", "im"}, and a numpy scalar as the matching
    Python scalar; anything else is returned as it is."""
    if is_dataclass(obj):
        return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _to_json(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        # tolist already gives Python scalars for a real array
        return obj.tolist() if obj.dtype.kind in "biuf" else _to_json(obj.tolist())
    if isinstance(obj, (tuple, list)):
        return [_to_json(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def report_to_dict(report):
    """GKReport as a JSON-ready dict whose keys follow the dataclass field
    order, nested certificates, witnesses and sign counts included; complex
    numbers are {"re", "im"} dicts (see ``_to_json``)."""
    return _to_json(report)


def verification_to_dict(report):
    """VerificationReport as a JSON-ready dict whose keys follow the
    dataclass field order; ``leftovers`` is a list of two lists of
    {"re", "im"} dicts (see ``_to_json``)."""
    return _to_json(report)
