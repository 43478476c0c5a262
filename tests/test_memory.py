"""Peak numpy memory of analyze and of the order-2 certificate.

tracemalloc sees every buffer numpy allocates (not LAPACK's workspace), so
the peak of one steady-state call counts the n x n temporaries a stage
holds at once. The bounds are in units of one n x n float64 array.
"""

import tracemalloc

import pytest

from wedgespec import analyze, builtin_kernel, discretize
from wedgespec.positivity import is_two_totally_nonnegative

N = 300


@pytest.fixture(scope="module", params=["green_string", "gaussian", "cauchy"])
def grid(request):
    return discretize(builtin_kernel(request.param), N).discretized


def _peak_squares(fn, m):
    fn(m)  # first-call costs stay out of the measurement
    tracemalloc.start()
    try:
        fn(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * N * N)


def test_analyze_holds_at_most_two_and_a_half_squares(grid):
    # the input is validated in place, not copied by each layer, and the
    # dense solve returns eigenvalues only
    assert _peak_squares(analyze, grid) <= 2.5


def test_order_two_certificate_holds_at_most_three_squares(grid):
    # the scan holds two squares, the scaled off-diagonal products bc and the
    # contiguous minors D, and forms the cross-ratio deficits in place on D
    assert _peak_squares(is_two_totally_nonnegative, grid) <= 3.0
