"""Print the wedge iteration's plan and its outcome on the inputs it serves.

    python tools/wedge_plan.py

Each input is read as ``gk.analyze`` reads it, as c = m 2^-e with max|c| in
[0.5, 1), an exact scaling. For each input, one line: its size n, the route
of its dense solve as read
off the numpy solver calls of ``ws.eigenvalues`` (``split a+b``: even and odd
blocks of sizes a and b, for a symmetric matrix that equals its reversal;
``symmetric``; or ``general``), the column count p and the predicted step
count s(p) that its dense moduli plan (``gk._wedge_plan``), the steps the
iteration took, and whether it converged within its budget of 4 s + 20
steps. The inputs are the builtin kernel grids
at the sizes of the benchmark's small-exact and large-grid workloads, the
gaussian trapezoid grid and the tabulated exp(-2|t - s|) grid at N = 300,
``random_oscillatory`` draws at n = 4, 7 and 10, and inputs whose moduli tie
or nearly tie: the [1, 2, 1] tridiagonal, ``uniform(0.5, 1)`` draws with a
complex lambda2, and the Jordan block I + E, which is refused.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import wedgespec as ws  # noqa: E402
from wedgespec import gk  # noqa: E402

# the grid sizes of bench/workloads.py
SMALL_GRIDS = (20, 44, 46, 80, 96)
LARGE_GRIDS = (("green_string", 200), ("green_string", 400), ("gaussian", 300),
               ("gaussian", 600), ("cauchy", 250))


class Counted(np.ndarray):
    """A matrix that counts its products a @ q: the iteration makes one a step."""

    steps = 0

    def __matmul__(self, other):
        Counted.steps += 1
        return np.asarray(self) @ other


def inputs():
    for name in ("green_string", "gaussian", "cauchy"):
        for n in SMALL_GRIDS:
            yield f"{name}-{n}", ws.discretize(ws.builtin_kernel(name), n).discretized
    for name, n in LARGE_GRIDS:
        yield f"{name}-{n}", ws.discretize(ws.builtin_kernel(name), n).discretized
    yield "gaussian-trapezoid-300", ws.discretize(
        ws.builtin_kernel("gaussian"), 300, rule="trapezoid").discretized
    t = (np.arange(300) + 0.5) / 300
    table = ws.tabulated_kernel(np.exp(-2.0 * np.abs(t[:, None] - t)))
    yield "tabulated-exp-300", ws.discretize(table, 300).discretized
    for n in (4, 7, 10):
        for seed in range(3):
            yield f"oscillatory-{n}-seed{seed}", ws.random_oscillatory(n, seed=seed)
    for n in (60, 100, 200):
        yield f"tridiagonal-{n}", 2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    for n in (40, 100, 300):
        yield f"uniform-{n}-seed1", np.random.default_rng(1).uniform(0.5, 1.0, (n, n))
    for n in (3, 5, 8):
        yield f"jordan-{n}", np.eye(n) + np.eye(n, k=1)


def observed_eigenvalues(m):
    """``ws.eigenvalues(m)`` and the route its dense solve took, read off the
    numpy solver calls it made: ``split a+b`` for two ``eigvalsh`` calls of
    sizes a and b, ``symmetric`` for one, ``general`` for ``eigvals``."""
    calls = []
    solvers = {name: getattr(np.linalg, name) for name in ("eigvals", "eigvalsh")}

    def recorded(name):
        def solve(a):
            calls.append((name, len(a)))
            return solvers[name](a)
        return solve

    try:
        for name in solvers:
            setattr(np.linalg, name, recorded(name))
        values = ws.eigenvalues(m)
    finally:
        for name, solve in solvers.items():
            setattr(np.linalg, name, solve)
    if len(calls) == 2:
        return values, "split " + "+".join(str(size) for _, size in calls)
    [(name, _)] = calls
    return values, "symmetric" if name == "eigvalsh" else "general"


def main():
    print(f"{'input':24} {'n':>4} {'dense':>13} {'p':>4} {'s(p)':>5} {'steps':>6}  converged")
    for name, m in inputs():
        c = np.ldexp(m, -math.frexp(float(np.abs(m).max()))[1])
        values, route = observed_eigenvalues(c)
        moduli = np.abs(values)
        p, s = gk._wedge_plan(moduli)
        Counted.steps = 0
        try:
            gk._wedge_radius(c.view(Counted), moduli)
            converged = "yes"
        except ws.ConvergenceError:
            converged = "no"
        print(f"{name:24} {m.shape[0]:4} {route:>13} {p:4} {s:5} "
              f"{Counted.steps:6}  {converged}")


if __name__ == "__main__":
    main()
