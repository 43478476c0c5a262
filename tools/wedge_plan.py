"""Print the wedge iteration's plan and its outcome on the inputs it serves.

    python tools/wedge_plan.py

For each input, one line: its size n, the column count p and the predicted
step count s(p) that its dense moduli plan (``gk._wedge_plan``), the steps
the iteration took, and whether it converged within its budget of
4 s + 20 steps. The inputs are the builtin kernel grids at the sizes of the
benchmark's small-exact and large-grid workloads, ``random_oscillatory``
draws at n = 4, 7 and 10, and inputs whose moduli tie or nearly tie: the
[1, 2, 1] tridiagonal, ``uniform(0.5, 1)`` draws with a complex lambda2, and
the Jordan block I + E, which is refused.
"""

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
    for n in (4, 7, 10):
        for seed in range(3):
            yield f"oscillatory-{n}-seed{seed}", ws.random_oscillatory(n, seed=seed)
    for n in (60, 100, 200):
        yield f"tridiagonal-{n}", 2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    for n in (40, 100, 300):
        yield f"uniform-{n}-seed1", np.random.default_rng(1).uniform(0.5, 1.0, (n, n))
    for n in (3, 5, 8):
        yield f"jordan-{n}", np.eye(n) + np.eye(n, k=1)


def main():
    print(f"{'input':24} {'n':>4} {'p':>4} {'s(p)':>5} {'steps':>6}  converged")
    for name, m in inputs():
        moduli = np.abs(ws.eigenvalues(m))
        p, s = gk._wedge_plan(moduli)
        Counted.steps = 0
        try:
            gk._wedge_radius(m.view(Counted), moduli)
            converged = "yes"
        except ws.ConvergenceError:
            converged = "no"
        print(f"{name:24} {m.shape[0]:4} {p:4} {s:5} {Counted.steps:6}  {converged}")


if __name__ == "__main__":
    main()
