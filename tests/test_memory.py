"""Peak numpy memory of analyze, of the dense eigenvalues, of the order-2
certificate and of the exterior square.

tracemalloc sees every buffer numpy allocates (not LAPACK's workspace), so
the peak of one steady-state call counts the n x n temporaries a stage
holds at once. The bounds are in units of one n x n float64 array.
"""

import tracemalloc

import numpy as np
import pytest

from wedgespec import analyze, builtin_kernel, discretize, eigenvalues, exterior_square
from wedgespec.positivity import is_two_totally_nonnegative

N = 300


@pytest.fixture(scope="module", params=["green_string", "gaussian", "cauchy"])
def grid(request):
    return discretize(builtin_kernel(request.param), N).discretized


def _peak_bytes(fn, m):
    fn(m)  # first-call costs stay out of the measurement
    tracemalloc.start()
    try:
        fn(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def _peak_squares(fn, m):
    return _peak_bytes(fn, m) / (8 * N * N)


def test_analyze_holds_at_most_two_and_a_half_squares(grid):
    # the input is validated in place, not copied by each layer, and the
    # dense solve returns eigenvalues only
    assert _peak_squares(analyze, grid) <= 2.5


def test_eigenvalues_hold_at_most_one_square(grid):
    # the even and odd blocks are formed in three quarter-size buffers, and
    # cauchy's are dropped for the departure from its reversal before the
    # whole solve
    assert _peak_squares(eigenvalues, grid) <= 1.0


def test_order_two_certificate_holds_at_most_three_squares(grid):
    # the scan holds two squares, the scaled off-diagonal products bc and the
    # contiguous minors D, and forms the cross-ratio deficits in place on D
    assert _peak_squares(is_two_totally_nonnegative, grid) <= 3.0


@pytest.mark.parametrize("diagonal", ["ones", "n..1", "slack"])
def test_order_two_certificate_of_a_tridiagonal_holds_at_most_three_squares(diagonal):
    # zeros send the scan to the gather of consecutive joint cells: index
    # arrays and cells of O(n) each, next to the n x n masks of nonzero
    # entries and of the pairs' joint columns; "slack" is [1, 2, 1] with
    # m[0, 2] = -1e-9 in the order-1 slack band, which the scan reads as
    # zero on one n x n copy
    e = np.eye(N, k=1)
    d = np.arange(N, 0.0, -1.0) if diagonal == "n..1" else 2.0 * np.ones(N)
    m = np.diag(d) + e + e.T
    if diagonal == "slack":
        m[0, 2] = -1e-9
    assert _peak_squares(is_two_totally_nonnegative, m) <= 3.0


def test_exterior_square_holds_little_beyond_its_output():
    # the minors are formed a block of row pairs at a time, about 4096 2x2
    # submatrices each, straight into the output
    n = 40
    m = discretize(builtin_kernel("green_string"), n).discretized
    output = 8 * (n * (n - 1) // 2) ** 2
    assert _peak_bytes(exterior_square, m) <= 1.5 * output
