"""Integral-kernel ingestion, spectrum-preserving quadrature discretization,
second-associated-kernel evaluation, and sampled kernel nonnegativity checks.

Builtin kernels live on the unit interval. The discretization is the
symmetrized quadrature matrix B[i, j] = sqrt(w_i) k(t_i, t_j) sqrt(w_j),
which is diagonally similar to the plain weighted matrix k(t_i, t_j) w_j
and therefore has the same spectrum. It is formed as
(sqrt(w_i) sqrt(w_j)) k(t_i, t_j), so a symmetric kernel gives an exactly
symmetric matrix under every rule and for any tabulated nodes, and the
eigensolver takes its symmetric route.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .compound import exterior_square
from .errors import ValidationError
from .positivity import _sample_minors
from .spectra import DEFAULT_TOL, _check_int, _check_tol, _real_array, as_dense_matrix

BUILTIN_NAMES = ("green_string", "gaussian", "cauchy")

# Fixed inward shift for the cauchy kernel: evaluation at 1/((t+e) + (s+e))
# keeps the kernel bounded on the unit square without losing total positivity.
CAUCHY_SHIFT = 1e-3

DEFAULT_GAUSSIAN_WIDTH = 1.0


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A kernel source: a named builtin or a tabulated grid of samples."""

    kind: str  # "builtin" | "tabulated"
    name: str = ""
    param: Optional[float] = None
    nodes: Optional[np.ndarray] = None  # tabulated only; None means implied midpoint
    values: Optional[np.ndarray] = None  # tabulated only


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """Quadrature nodes/weights, sampled kernel, and the symmetrized matrix."""

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    discretized: np.ndarray


def builtin_kernel(name, param=None):
    """KernelSpec for a named builtin; ``param`` is the gaussian width."""
    if name not in BUILTIN_NAMES:
        raise ValidationError(
            f"unknown builtin kernel {name!r}; known names: {', '.join(BUILTIN_NAMES)}"
        )
    if name == "gaussian":
        width = DEFAULT_GAUSSIAN_WIDTH
        if param is not None:
            width = _real_array(param, "gaussian width").tolist()
        _check_tol(width, "gaussian width")
        return KernelSpec(kind="builtin", name=name, param=width)
    if param is not None:
        raise ValidationError(f"builtin kernel {name!r} takes no parameter")
    return KernelSpec(kind="builtin", name=name)


def tabulated_kernel(values, nodes=None):
    """KernelSpec wrapping an N x N table of kernel samples.

    Without explicit nodes the samples are read as living on the uniform
    midpoint grid t_i = (i + 1/2) / N. The spec holds its own copies of the
    table and the nodes, never the caller's arrays.
    """
    v = as_dense_matrix(values).copy()
    t = None
    if nodes is not None:
        t = _real_array(nodes, "kernel nodes").ravel()
        if t.size != v.shape[0]:
            raise ValidationError(
                f"got {t.size} nodes for a {v.shape[0]}x{v.shape[0]} table"
            )
        if not (np.all(np.diff(t) > 0) and 0.0 < t[0] and t[-1] < 1.0):  # NaN fails
            raise ValidationError("nodes must be strictly increasing inside (0, 1)")
    return KernelSpec(kind="tabulated", nodes=t, values=v)


def _read_table(path, field):
    """Read a square table from a CSV file or from a JSON object's ``field``.

    CSV is one row per line with comma-separated numbers; blank lines are
    skipped and ragged rows rejected. Returns the validated float64 table
    and the JSON object (empty for CSV), which may carry further fields.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        raise ValidationError(f"input file {path} is empty")
    if str(path).endswith(".json"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad JSON in {path}: {exc}") from None
        if not isinstance(doc, dict) or field not in doc:
            raise ValidationError(f'{path} must be a JSON object with a "{field}" field')
        return as_dense_matrix(doc[field]), doc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        table = [[float(x) for x in ln.split(",")] for ln in lines]
    except ValueError as exc:
        raise ValidationError(f"bad CSV in {path}: {exc}") from None
    if len({len(r) for r in table}) != 1:
        raise ValidationError(f"ragged CSV rows in {path}")
    return as_dense_matrix(table), {}


def load_kernel(path):
    """Read a tabulated kernel from CSV (values only) or JSON (nodes + values)."""
    values, doc = _read_table(path, "values")
    return tabulated_kernel(values, doc.get("nodes"))


def _nodes(spec, count):
    """The stored nodes of a tabulated kernel, else the ``count`` midpoints
    (i + 1/2) / count of the uniform grid."""
    if spec.kind == "tabulated" and spec.nodes is not None:
        return spec.nodes
    return (np.arange(count) + 0.5) / count


def _eval_builtin(spec, t, s):
    """Kernel values on the broadcast of ``t`` and ``s``.

    The result array is filled in place, so an n x n grid allocates one
    n x n array (two for green_string's product) rather than one per
    operation. Scalar arguments give a numpy scalar.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    out = np.empty(np.broadcast_shapes(t.shape, s.shape))
    if spec.name == "green_string":
        np.minimum(t, s, out=out)
        out -= t * s
    elif spec.name == "gaussian":
        # exp(-(t - s)^2 / w^2); dividing by -w^2 is exactly negating first
        np.subtract(t, s, out=out)
        np.square(out, out=out)
        out /= -spec.param ** 2
        np.exp(out, out=out)
    else:  # cauchy, evaluated on the shifted domain
        np.add(t + CAUCHY_SHIFT, s + CAUCHY_SHIFT, out=out)
        np.divide(1.0, out, out=out)
    return out[()]


def _check_unit_interval(*args):
    """Raise unless every entry of every argument lies in [0, 1]; NaN fails."""
    if not all(np.all((a >= 0.0) & (a <= 1.0)) for a in args):
        raise ValidationError("kernel arguments must lie in [0, 1]")


def kernel_value(spec, t, s):
    """Pointwise evaluation of a builtin kernel on the closed unit square."""
    if spec.kind != "builtin":
        raise ValidationError("pointwise evaluation needs a builtin kernel")
    t = _real_array(t, "kernel arguments")
    s = _real_array(s, "kernel arguments")
    _check_unit_interval(t, s)
    return _eval_builtin(spec, t, s)


def _kernel_table(spec, t, s):
    """The table k(t_i, s_j) for 1-d float64 argument arrays ``t`` and ``s``.

    A builtin kernel is evaluated anywhere on [0, 1]. A tabulated kernel is
    known only at its nodes: each argument is matched to its nearest node,
    must lie within 1e-12 of it, and reads the stored sample there. NaN
    fails both tests, so either kind refuses it with ValidationError.
    """
    if spec.kind == "builtin":
        _check_unit_interval(t, s)
        return _eval_builtin(spec, t[:, None], s[None, :])
    nodes = _nodes(spec, spec.values.shape[0])
    index = []
    for a in (t, s):
        k = np.searchsorted(0.5 * (nodes[1:] + nodes[:-1]), a)
        off = a[~(np.abs(nodes[k] - a) <= 1e-12)]
        if off.size:
            raise ValidationError(f"argument {off[0]} is not a node of the tabulated kernel")
        index.append(k)
    return spec.values[np.ix_(*index)]


def discretize(spec, n, rule="midpoint"):
    """Quadrature discretization of a kernel on (0, 1).

    Parameters
    ----------
    spec : KernelSpec
        Builtin or tabulated kernel.
    n : int
        Number of quadrature nodes, n >= 2. A tabulated kernel must match
        its table size exactly.
    rule : str
        "midpoint" (default, stays inside the open interval) or "trapezoid"
        (includes both endpoints). Ignored for tabulated kernels, whose
        nodes are fixed; their weights are the cell widths of the partition
        of [0, 1] split at node midpoints.

    Returns
    -------
    KernelGrid
        Its ``discretized`` matrix is exactly symmetric wherever the sampled
        values are, whatever the weights.
    """
    n = _check_int(n, "grid size n", 2)
    if rule not in ("midpoint", "trapezoid"):
        raise ValidationError(f'rule must be "midpoint" or "trapezoid", got {rule!r}')

    if spec.kind == "tabulated":
        nodes = _nodes(spec, spec.values.shape[0])
        if nodes.size != n:
            raise ValidationError(
                f"tabulated kernel has {nodes.size} nodes but grid size {n} was requested"
            )
        edges = np.concatenate(([0.0], 0.5 * (nodes[1:] + nodes[:-1]), [1.0]))
        weights = np.diff(edges)
    elif spec.kind == "builtin":
        if rule == "midpoint":
            nodes = _nodes(spec, n)
            weights = np.full(n, 1.0 / n)
        else:
            nodes = np.linspace(0.0, 1.0, n)
            h = 1.0 / (n - 1)
            weights = np.full(n, h)
            weights[0] = weights[-1] = h / 2.0
    else:
        raise ValidationError(f"unknown kernel kind {spec.kind!r}")
    values = _kernel_table(spec, nodes, nodes)

    if np.any(np.diff(nodes) <= 0.0):
        raise ValidationError("quadrature nodes must be strictly increasing")
    if np.any(weights <= 0.0):
        raise ValidationError("quadrature weights must be positive")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValidationError("quadrature weights must sum to the domain length 1")
    sw = np.sqrt(weights)
    # (sw_i sw_j) v_ij is symmetric in i and j bit for bit where v is, which
    # (sw_i v_ij) sw_j is not for unequal weights
    discretized = np.multiply.outer(sw, sw)
    discretized *= values
    return KernelGrid(nodes=nodes, weights=weights, values=values, discretized=discretized)


def second_associated(spec, t1, t2, s1, s2):
    """The order-2 associated kernel value det [[k(t1,s1), k(t1,s2)],
    [k(t2,s1), k(t2,s2)]].

    Builtins evaluate anywhere on [0, 1]; tabulated kernels evaluate at
    their stored nodes only (arguments are matched to nodes within 1e-12).
    Antisymmetric under swapping t1 with t2 and under swapping s1 with s2.
    """
    args = _real_array((t1, t2, s1, s2), "kernel arguments")
    if args.shape != (4,):
        raise ValidationError("second_associated takes four real arguments")
    (a, b), (c, d) = _kernel_table(spec, args[:2], args[2:])
    return float(a * d - b * c)


def kernel_tn_check(spec, sample_nodes, order, trials, seed, tol=DEFAULT_TOL):
    """Sampled nonnegativity check of the compound determinants of a kernel
    at orders 1 through ``order``.

    Each trial draws an order j in 1..order and then independent increasing
    node tuples (rows and columns separately) of that length from a grid of
    ``sample_nodes`` midpoint points (builtin kernels) or from the stored
    nodes (tabulated kernels), evaluates the compound determinant, and
    certifies the sampled set. One generator, ``default_rng(seed)``, draws
    every trial. ``sample_nodes`` is checked on every call as an integer
    >= ``order``, as ``trials`` and ``seed`` are, even for a tabulated
    kernel, which does not use it. The verdict is always mode="sampled"; the
    continuum condition quantifies over all tuples of every order and a
    finite check cannot be exhaustive.
    """
    _check_tol(tol)
    order = _check_int(order, "order", 1)
    trials = _check_int(trials, "trials", 1)
    seed = _check_int(seed, "seed", 0)
    sample_nodes = _check_int(sample_nodes, "sample_nodes", order)
    if spec.kind == "builtin":
        grid = _nodes(spec, sample_nodes)
    else:
        grid = _nodes(spec, spec.values.shape[0])
        if grid.size < order:
            raise ValidationError(
                f"tabulated kernel has {grid.size} nodes, fewer than order {order}")
    return _sample_minors(_kernel_table(spec, grid, grid), 1, order, trials, seed, tol)


def exterior_grid(grid, force=False):
    """Exterior square of the discretized kernel matrix.

    This is the quadrature matrix of the order-2 associated kernel on the
    half-square of node pairs t_i < t_j, in the same pair-basis order used
    throughout the package. Subject to the compound size cap.
    """
    return exterior_square(grid.discretized, force=force)
