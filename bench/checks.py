"""Reference computations and answer checks that do not use wedgespec.

Every reference here is computed with numpy alone: ``eigvalsh`` (a
symmetric LAPACK routine, not the ``dgeev`` the package uses) for symmetric
grids, normalized repeated squaring for Perron roots of nonsymmetric
matrices and of their second compounds, ``numpy.linalg.det`` for minors,
and a scan of contiguous 2x2 minors for the order-2 hypothesis. A check
raises CheckError with the disagreement it found.
"""

import math
from itertools import combinations

import numpy as np

SECOND = "second_eigenvalue_found"
VIOLATED = "hypotheses_violated"

TOL = 1e-9          # the package's default relative tolerance
EIG_RTOL = 1e-10    # package eigenvalues against eigvalsh on symmetric grids
PERRON_RTOL = 1e-8  # package eigenvalues against the squaring references
SAME_RTOL = 1e-9    # a transformed matrix against its untransformed draw


class CheckError(Exception):
    """A program answer disagrees with the benchmark's reference."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


def close(value, reference, rtol, what):
    expect(value is not None and abs(value - reference) <= rtol * abs(reference),
           f"{what}: got {value!r}, reference {reference!r} (rtol {rtol:g})")


# ---------------------------------------------------------------- references

def contiguous_two_minors_ok(m, tol=TOL):
    """Order-1 and order-2 hypotheses from entries and contiguous 2x2 minors.

    For an entrywise positive matrix every 2x2 minor is nonnegative exactly
    when every contiguous one is (log-supermodularity telescopes over rows
    and columns), so this O(n^2) scan decides the hypothesis. A matrix with
    a zero or negative entry is decided only when the scan finds a
    violation.
    """
    amax = float(np.abs(m).max())
    if float(m.min()) < -tol * amax:
        return False
    cont = m[:-1, :-1] * m[1:, 1:] - m[:-1, 1:] * m[1:, :-1]
    if float(cont.min()) < -tol * amax ** 2:
        return False
    expect(float(m.min()) > 0.0, "contiguous-minor scan needs a positive matrix")
    return True


def own_minors(m, order):
    """All minors of order ``order`` as a (row set, column set) table."""
    sets = np.asarray(list(combinations(range(m.shape[0]), order)), dtype=int)
    return np.linalg.det(m[sets[:, None, :, None], sets[None, :, None, :]])


def totally_nonnegative(m, order, tol=TOL):
    """Every minor of orders 1..order is >= -tol * amax^j."""
    amax = float(np.abs(m).max())
    return all(float(own_minors(m, j).min()) >= -tol * amax ** j
               for j in range(1, order + 1))


def oscillatory(m):
    """Gantmacher-Krein criterion: totally nonnegative, nonsingular, and
    positive on the first sub- and superdiagonal."""
    n = m.shape[0]
    return (totally_nonnegative(m, n) and own_minors(m, n)[0, 0] > 0.0
            and bool(np.all(np.diag(m, 1) > 0.0)) and bool(np.all(np.diag(m, -1) > 0.0)))


def second_compound(m):
    sets = np.asarray(list(combinations(range(m.shape[0]), 2)), dtype=int)
    i, j = sets[:, 0], sets[:, 1]
    return m[np.ix_(i, i)] * m[np.ix_(j, j)] - m[np.ix_(i, j)] * m[np.ix_(j, i)]


def perron_root(a):
    """Perron root of a primitive nonnegative matrix.

    Sixty normalized squarings turn ``a`` into its spectral projector, whose
    largest column is the Perron vector; the root is ||a x|| / ||x|| and is
    accepted only when the residual is at rounding level.
    """
    p = a / np.linalg.norm(a)
    for _ in range(60):
        p = p @ p
        p /= np.linalg.norm(p)
    x = p[:, int(np.argmax(np.linalg.norm(p, axis=0)))]
    x = np.abs(x) / np.linalg.norm(x)
    y = a @ x
    lam = float(np.linalg.norm(y))
    expect(float(np.linalg.norm(y - lam * x)) <= 1e-11 * float(np.linalg.norm(a)),
           "reference Perron iteration did not converge")
    return lam


class OscillatoryRef:
    """lambda1 = rho(m) and lambda1 * lambda2 = rho(second compound of m).

    An oscillatory matrix has n distinct positive eigenvalues, so the
    verdict is always second_eigenvalue_found.
    """

    classification = SECOND

    def __init__(self, m):
        expect(oscillatory(m), "input draw is not oscillatory")
        self.lambda1 = perron_root(m)
        self.rho_wedge = perron_root(second_compound(m))
        self.lambda2 = self.rho_wedge / self.lambda1


class SymmetricRef:
    """eigvalsh spectrum and the contiguous-minor verdict of a symmetric grid."""

    def __init__(self, m, closed_forms=None):
        ev = np.linalg.eigvalsh(m)[::-1]
        self.lambda1, self.lambda2 = float(ev[0]), float(ev[1])
        self.rho_wedge = self.lambda1 * self.lambda2
        self.n = m.shape[0]
        self.closed_forms = closed_forms
        gap = ev[0] > ev[1] > abs(ev[2]) if ev.size > 2 else ev[0] > abs(ev[1])
        self.classification = SECOND if contiguous_two_minors_ok(m) and gap else VIOLATED


GREEN_CLOSED_FORMS = (1.0 / math.pi ** 2, 1.0 / (4.0 * math.pi ** 2))

# The midpoint rule moves both leading green_string eigenvalues by about
# 1/(12 n^2); the check allows 0.1/n^2.
CLOSED_FORM_SLACK = 0.1


def green_grid(n):
    """Midpoint discretization of min(t, s) - t s, written out here."""
    t = (np.arange(n) + 0.5) / n
    return (np.minimum.outer(t, t) - np.outer(t, t)) / n


# -------------------------------------------------------------------- checks
#
# A report is read through a plain mapping with the keys classification,
# lambda1, lambda2, rho_wedge, e1 and e2 (strict sign-change counts), so the
# same checks serve in-process GKReports and the text and JSON the CLI
# prints.

def report_fields(report):
    return {
        "classification": report.classification,
        "lambda1": report.lambda1,
        "lambda2": report.lambda2,
        "rho_wedge": report.rho_wedge,
        "e1": None if report.sign_changes_e1 is None else report.sign_changes_e1.strict_count,
        "e2": None if report.sign_changes_e2 is None else report.sign_changes_e2.strict_count,
    }


def check_second(got, ref, rtol):
    """A second_eigenvalue_found answer against an independent reference."""
    expect(got["classification"] == ref.classification,
           f"classification {got['classification']}, expected {ref.classification}")
    if ref.classification != SECOND:
        return
    close(got["lambda1"], ref.lambda1, rtol, "lambda1")
    close(got["lambda2"], ref.lambda2, rtol, "lambda2")
    close(got["rho_wedge"], ref.rho_wedge, rtol, "rho_wedge")
    close(got["rho_wedge"], got["lambda1"] * got["lambda2"], rtol, "rho_wedge vs lambda1*lambda2")
    expect(got["e1"] == 0, f"sign changes of e1: {got['e1']}, expected 0")
    expect(got["e2"] == 1, f"sign changes of e2: {got['e2']}, expected 1")


def check_grid(got, ref):
    check_second(got, ref, EIG_RTOL)
    if ref.closed_forms is not None:
        slack = CLOSED_FORM_SLACK / ref.n ** 2
        for key, exact in zip(("lambda1", "lambda2"), ref.closed_forms):
            expect(abs(got[key] - exact) <= slack,
                   f"{key} {got[key]!r} is {abs(got[key] - exact):.3g} from the "
                   f"closed form {exact!r}, above {slack:.3g}")


def check_invariant(got, base, what, k=None):
    """A transformed draw gets the verdict and sign changes of the
    untransformed one, and its values within SAME_RTOL; for ``k`` given
    (the draw times 2^k) the values must be exactly 2^k times the unscaled
    ones, 4^k for rho_wedge."""
    expect(got["classification"] == base["classification"],
           f"{what}: classification {got['classification']}, untransformed "
           f"{base['classification']}")
    for key, power in (("lambda1", 1), ("lambda2", 1), ("rho_wedge", 2)):
        if base[key] is None:
            continue
        if k is None:
            close(got[key], base[key], SAME_RTOL, f"{what}: {key}")
        else:
            want = math.ldexp(base[key], power * k)
            expect(got[key] == want, f"{what}: {key} {got[key]!r}, expected exactly {want!r}")
    expect((got["e1"], got["e2"]) == (base["e1"], base["e2"]),
           f"{what}: sign changes {(got['e1'], got['e2'])}, untransformed "
           f"{(base['e1'], base['e2'])}")


# ------------------------------------------------------------- CLI outputs

def parse_csv(text):
    return np.array([[float(x) for x in line.split(",")]
                     for line in text.splitlines() if line.strip()])


def parse_report_text(text):
    """The fields of ``wedgespec analyze`` text output."""
    lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    count = lambda key: int(lines[key].split()[0]) if key in lines else None
    lam2 = lines["lambda2"]
    return {
        "classification": lines["classification"],
        "lambda1": float(lines["lambda1"]),
        "lambda2": None if lam2 == "none" else float(lam2),
        "rho_wedge": float(lines["rho_wedge"]),
        "e1": count("sign_changes_e1"),
        "e2": count("sign_changes_e2"),
    }


def parse_report_json(doc):
    sign = lambda s: None if s is None else s["strict_count"]
    return {
        "classification": doc["classification"],
        "lambda1": doc["lambda1"],
        "lambda2": doc["lambda2"],
        "rho_wedge": doc["rho_wedge"],
        "e1": sign(doc["sign_changes_e1"]),
        "e2": sign(doc["sign_changes_e2"]),
    }


def check_compound(text, m, order):
    """Every entry of a printed compound matrix against numpy determinants."""
    got = parse_csv(text)
    want = own_minors(m, order)
    expect(got.shape == want.shape, f"compound shape {got.shape}, expected {want.shape}")
    atol = 1e-12 * float(np.abs(m).max()) ** order
    worst = float(np.abs(got - want).max())
    expect(worst <= atol, f"compound entry off by {worst:.3g}, above {atol:.3g}")


def check_witness(text, m):
    """A tn-check failure names a minor that really is negative."""
    lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    expect("VIOLATED" in lines.get("tn_check", ""), "tn-check did not report a violation")
    words = lines["tn_check witness"].replace("[", " ").replace("]", " ").replace(",", " ").split()
    rows = [int(w) for w in words[words.index("rows") + 1:words.index("cols")]]
    cols = [int(w) for w in words[words.index("cols") + 1:words.index("value")]]
    value = float(words[words.index("value") + 1])
    own = float(np.linalg.det(m[np.ix_(rows, cols)]))
    expect(own < 0.0, f"witness minor rows {rows} cols {cols} is {own!r}, not negative")
    close(value, own, 1e-9, "witness minor value")
