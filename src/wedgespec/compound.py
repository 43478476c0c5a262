"""Minors, compound matrices, Kronecker squares, and exterior squares.

The exterior square acts on the antisymmetric pair basis {e_i ^ e_j : i < j}
in lexicographic order, with no normalization, so its matrix is the second
compound matrix, and both are filled by the same minor enumeration. The
tests check it against entrywise minors, against ``exterior_apply`` (which
forms m X m^T) and against the wedge product of vectors.
"""

from itertools import combinations
from math import comb

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .spectra import _check_int, _finite_vector, as_dense_matrix

# Built matrices above this many entries are refused unless force=True.
MAX_ENTRIES = 1_000_000

# Order-j minors are gathered about this many j x j submatrices at a time.
_CHUNK = 4096


class PairBasis:
    """Lexicographically ordered index pairs (i, j) with i < j below n.

    Stored as the two read-only ``np.triu_indices`` arrays; the position of
    a pair is computed, not looked up.
    """

    def __init__(self, n):
        self.n = _check_int(n, "pair basis dimension n", 1)
        self._first, self._second = np.triu_indices(self.n, 1)
        self._first.flags.writeable = False
        self._second.flags.writeable = False

    @property
    def size(self):
        return self._first.size

    @property
    def pairs(self):
        return tuple(zip(self._first.tolist(), self._second.tolist()))

    def index_of(self, i, j):
        """Position of the pair (i, j), i < j, in lexicographic order."""
        i = _check_int(i, "pair index i", 0, self.n - 2)
        j = _check_int(j, "pair index j", i + 1, self.n - 1)
        # pairs (i', j') with i' < i come first: (n - 1) + ... + (n - i)
        return i * (2 * self.n - i - 1) // 2 + (j - i - 1)

    def pair_at(self, k):
        k = _check_int(k, "pair position k", 0, self.size - 1)
        return int(self._first[k]), int(self._second[k])

    def arrays(self):
        """First and second pair components as read-only integer arrays."""
        return self._first, self._second


def _check_index_set(idx, n, what):
    try:
        sel = [int(i) for i in idx]
    except (TypeError, ValueError):
        raise ValidationError(f"{what} index set must be a sequence of integers") from None
    if len(sel) < 1:
        raise ValidationError(f"{what} index set must be nonempty")
    if any(not 0 <= i < n for i in sel):
        raise ValidationError(f"{what} indices must lie in 0..{n - 1}, got {sel}")
    if any(b <= a for a, b in zip(sel, sel[1:])):
        raise ValidationError(f"{what} indices must be strictly increasing, got {sel}")
    return sel


def _det_stack(sub):
    """Determinants of a stack of j x j matrices, closed form for j <= 3."""
    j = sub.shape[-1]
    if j == 1:
        return sub[..., 0, 0].copy()
    if j == 2:
        return sub[..., 0, 0] * sub[..., 1, 1] - sub[..., 0, 1] * sub[..., 1, 0]
    if j == 3:
        return (
            sub[..., 0, 0] * (sub[..., 1, 1] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 1])
            - sub[..., 0, 1] * (sub[..., 1, 0] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 0])
            + sub[..., 0, 2] * (sub[..., 1, 0] * sub[..., 2, 1] - sub[..., 1, 1] * sub[..., 2, 0])
        )
    return np.linalg.det(sub)


def _minor_blocks(m, j):
    """All order-j minors of ``m``, a block of row sets at a time.

    Yields ``(a, sets, dets)``: ``sets`` holds the comb(n, j) index sets in
    lexicographic order, one per row, and dets[r, c] is the minor on row set
    sets[a + r] and column set sets[c]. np.take copies far faster than a
    broadcast fancy index, and gathering per block keeps memory at about
    ``_CHUNK`` j x j submatrices.
    """
    sets = np.asarray(list(combinations(range(m.shape[0]), j)), dtype=int)
    step = max(1, _CHUNK // len(sets))
    for a in range(0, len(sets), step):
        # (block, j, sets, j) -> (block, sets, j, j): row set, then column set
        sub = np.take(m[sets[a : a + step]], sets, axis=2)
        yield a, sets, _det_stack(np.moveaxis(sub, 1, 2))


def minor(m, rows, cols):
    """Determinant of the submatrix selected by two equal-length index sets.

    Laplace closed form for orders up to 3, LU with partial pivoting above.
    """
    m = as_dense_matrix(m)
    n = m.shape[0]
    r = _check_index_set(rows, n, "row")
    c = _check_index_set(cols, n, "column")
    if len(r) != len(c):
        raise ValidationError(
            f"row and column index sets must have equal length, got {len(r)} and {len(c)}"
        )
    sub = m[np.ix_(r, c)]
    return float(_det_stack(sub[None, ...])[0])


def _check_cap(entries, force, what):
    if entries > MAX_ENTRIES and not force:
        raise ResourceLimitError(
            f"{what} would hold {entries} entries, above the cap of {MAX_ENTRIES}; "
            "pass force=True to build it anyway"
        )


def _compound(m, j):
    """The j-th compound of a validated matrix, one block of row sets at a time."""
    size = comb(m.shape[0], j)
    out = np.empty((size, size))
    for a, _, dets in _minor_blocks(m, j):
        out[a : a + len(dets)] = dets
    return out


def compound_matrix(m, j, force=False):
    """The j-th compound: all order-j minors on lexicographic index sets.

    Entry (R, S) is minor(m, R, S) with row sets R and column sets S both in
    lexicographic order, so compound_matrix(m, 1) == m and
    compound_matrix(m, n) == [[det m]].
    """
    m = as_dense_matrix(m)
    n = m.shape[0]
    j = _check_int(j, "compound order j", 1, n)
    _check_cap(comb(n, j) ** 2, force, f"compound_matrix(n={n}, j={j})")
    return _compound(m, j)


def tensor_square(m, force=False):
    """Kronecker square on the row-major product basis ((i1, i2) -> i1*n + i2)."""
    m = as_dense_matrix(m)
    n = m.shape[0]
    _check_cap(n ** 4, force, f"tensor_square(n={n})")
    return np.kron(m, m)


def exterior_square(m, force=False):
    """Matrix of the wedge action on the pair basis: the second compound.

    Entry ((i, j), (k, l)) is the 2x2 minor m[i, k] m[j, l] - m[i, l] m[j, k]
    on rows (i, j) and columns (k, l), with pairs in lexicographic order.
    """
    m = as_dense_matrix(m)
    n = m.shape[0]
    if n < 2:
        raise ValidationError("exterior square needs dimension n >= 2")
    _check_cap(comb(n, 2) ** 2, force, f"exterior_square(n={n})")
    return _compound(m, 2)


def wedge_vector(x, y):
    """Wedge product of two vectors on the pair basis.

    Component (i, j) is x[i] y[j] - x[j] y[i], the 2x2 minor of the two
    coordinate functions at positions i < j.
    """
    x = _finite_vector(x, "wedge_vector")
    y = _finite_vector(y, "wedge_vector")
    if x.shape != y.shape:
        raise ValidationError(f"wedge_vector needs equal lengths, got {x.size} and {y.size}")
    if x.size < 2:
        raise ValidationError("wedge_vector needs vectors of length >= 2")
    p, q = PairBasis(x.size).arrays()
    return x[p] * y[q] - x[q] * y[p]


def exterior_apply(m, w):
    """Apply the wedge action of ``m`` to a pair-basis vector without
    materializing the exterior square.

    Unpacks ``w`` into the antisymmetric matrix X with X[i, j] = w[(i, j)]
    for i < j, forms m X m^T (which is again antisymmetric), and repacks.
    Equals exterior_square(m) @ w up to rounding, at O(n^3) cost.
    """
    m = as_dense_matrix(m)
    n = m.shape[0]
    if n < 2:
        raise ValidationError("exterior_apply needs dimension n >= 2")
    w = _finite_vector(w, "exterior_apply")
    basis = PairBasis(n)
    if w.size != basis.size:
        raise ValidationError(
            f"pair vector has length {w.size}, expected n(n-1)/2 = {basis.size}"
        )
    p, q = basis.arrays()
    x = np.zeros((n, n))
    x[p, q] = w
    x[q, p] = -w
    y = m @ x @ m.T
    return y[p, q]
