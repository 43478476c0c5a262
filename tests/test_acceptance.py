"""Acceptance suite: the eight exit criteria, each at its stated tolerance.

Every criterion prints one pass/fail line (visible with pytest -s or in the
captured output). Runtime-limited criteria time themselves and fail when
over budget.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from wedgespec import (
    analyze,
    discretize,
    builtin_kernel,
    compound_matrix,
    eigenpairs,
    exterior_grid,
    is_totally_nonnegative,
    perron_pair,
    random_oscillatory,
    random_tn,
    sign_changes,
    verify_theorem1,
    verify_theorem2,
)
from wedgespec.cli import _trial_matrix
from wedgespec.gk import (
    CLASS_COMPLEX_PAIR,
    CLASS_DEGENERATE,
    CLASS_MULTIPLE,
    CLASS_SECOND,
)

THREE_CYCLE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _criterion(num, name, ok, detail=""):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_exterior_square_spectrum_identity():
    t0 = time.perf_counter()
    worst = 0.0
    failures = []
    for n in range(3, 9):
        for t in range(100):
            m = _trial_matrix(n, seed=n, index=t)
            rep = verify_theorem2(m, tol=1e-8)
            worst = max(worst, rep.max_residual)
            if not rep.matched:
                failures.append((n, t))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _criterion(
        1,
        "exterior-square spectrum identity (600 matrices, n=3..8)",
        ok,
        f"worst residual {worst:.3e}, {elapsed:.1f}s" +
        (f", failures {failures[:3]}" if failures else ""),
    )


def test_criterion_2_tensor_square_spectrum_identity():
    t0 = time.perf_counter()
    worst = 0.0
    failures = []
    for n in range(2, 6):
        for t in range(100):
            m = _trial_matrix(n, seed=10 + n, index=t)
            rep = verify_theorem1(m, tol=1e-8)
            worst = max(worst, rep.max_residual)
            if not rep.matched:
                failures.append((n, t))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _criterion(
        2,
        "tensor-square spectrum identity (400 matrices, n=2..5)",
        ok,
        f"worst residual {worst:.3e}, {elapsed:.1f}s" +
        (f", failures {failures[:3]}" if failures else ""),
    )


def test_criterion_3_second_eigenvalue_engine_on_oscillatory_matrices():
    failures = []
    worst_gap = 0.0
    for i in range(100):
        n = 2 + i % 5  # sizes 2..6
        m = random_oscillatory(n, seed=i)
        r = analyze(m)
        lam2_sorted = abs(r.spectrum[1])
        gap = abs(r.lambda2 - lam2_sorted) / r.lambda2 if r.lambda2 else math.inf
        worst_gap = max(worst_gap, gap)
        checks = (
            r.classification == CLASS_SECOND
            and r.lambda2 is not None
            and 0.0 < r.lambda2 < r.lambda1
            and gap <= 1e-8
            and r.sign_changes_e1 is not None
            and r.sign_changes_e1.strict_count == 0
            and r.sign_changes_e2 is not None
            and r.sign_changes_e2.strict_count == 1
        )
        if not checks:
            failures.append((i, n, r.classification))
    _criterion(
        3,
        "second-eigenvalue engine on 100 oscillatory matrices",
        not failures,
        f"worst route gap {worst_gap:.3e}" +
        (f", failures {failures[:3]}" if failures else ""),
    )


def test_criterion_4_string_kernel_regression():
    t0 = time.perf_counter()
    issues = []

    grid = discretize(builtin_kernel("green_string"), 200)
    w, v = eigenpairs(grid.discretized)
    analytic = [1.0 / (k * k * math.pi ** 2) for k in (1, 2, 3)]
    for k in range(3):
        rel = abs(abs(w[k]) - analytic[k]) / analytic[k]
        if rel >= 1e-3:
            issues.append(f"lambda_{k + 1} rel err {rel:.2e}")
        count = sign_changes(v[:, k].real).strict_count
        if count != k:
            issues.append(f"eigenvector {k + 1} has {count} sign changes")

    # wedge-grid radius at the size pinned by the kernel-module example
    small = discretize(builtin_kernel("green_string"), 120)
    wedge = exterior_grid(small, force=True)
    rho, _ = perron_pair(wedge, tol=1e-11)
    target = 1.0 / (4.0 * math.pi ** 4)
    rel = abs(rho - target) / target
    if rel >= 2e-3:
        issues.append(f"wedge radius rel err {rel:.2e}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        issues.append(f"runtime {elapsed:.1f}s over the 10s budget")
    _criterion(
        4,
        "string-kernel eigenvalue and sign regression",
        not issues,
        f"wedge rel err {rel:.2e}, {elapsed:.1f}s" +
        (f", issues: {issues}" if issues else ""),
    )


def test_criterion_5_cauchy_binet():
    failures = []
    worst = 0.0
    for t in range(200):
        n = 2 + t % 5  # sizes 2..6
        rng = np.random.default_rng(9000 + t)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        lhs = compound_matrix(a @ b, 2)
        rhs = compound_matrix(a, 2) @ compound_matrix(b, 2)
        scale = max(1.0, float(np.abs(lhs).max()))
        err = float(np.abs(lhs - rhs).max())
        worst = max(worst, err / scale)
        if err > 1e-10 * scale:
            failures.append(t)
    _criterion(
        5,
        "Cauchy-Binet identity for second compounds (200 pairs)",
        not failures,
        f"worst scaled error {worst:.3e}",
    )


def test_criterion_6_hypothesis_checker_soundness():
    failures = []
    for i in range(40):
        n = 2 + i % 6  # sizes 2..7
        m = random_tn(n, seed=7000 + i, factors=3 * n)
        cert = is_totally_nonnegative(m, min(n, 4), tol=1e-10)
        if not cert.verdict:
            failures.append(("tn", i, n))
    cert = is_totally_nonnegative(THREE_CYCLE, 2)
    if cert.verdict or cert.witness is None or cert.witness.value != -1.0:
        failures.append(("three-cycle witness", cert))
    _criterion(
        6,
        "hypothesis checker soundness (generator round trip + witness)",
        not failures,
        f"three-cycle witness value {cert.witness.value!r}" +
        (f", failures {failures[:3]}" if failures else ""),
    )


def test_criterion_7_classification_trichotomy_coverage():
    cases = [
        ("diag", np.diag([3.0, 2.0, 1.0]), CLASS_SECOND),
        ("three-cycle", THREE_CYCLE, CLASS_COMPLEX_PAIR),
        ("identity", np.eye(3), CLASS_MULTIPLE),
        ("nilpotent", np.triu(np.ones((3, 3)), 1), CLASS_DEGENERATE),
    ]
    issues = []
    for name, m, expected in cases:
        r = analyze(m)
        if r.classification != expected:
            issues.append(f"{name}: got {r.classification}, expected {expected}")
            continue
        # independent verification straight from numpy's solver
        w = np.linalg.eigvals(m)
        rho = np.abs(w).max()
        if expected == CLASS_DEGENERATE:
            if rho > 1e-12:
                issues.append(f"{name}: oracle radius {rho}")
            continue
        on_circle = np.abs(w) >= rho * (1.0 - 1e-7)
        n_circle = int(on_circle.sum())
        has_complex = bool(np.any(np.abs(w[on_circle].imag) > 1e-7 * rho))
        if expected == CLASS_SECOND and n_circle != 1:
            issues.append(f"{name}: oracle circle count {n_circle}")
        if expected == CLASS_COMPLEX_PAIR and not (n_circle > 1 and has_complex):
            issues.append(f"{name}: oracle says no complex pair")
        if expected == CLASS_MULTIPLE and not (n_circle > 1 and not has_complex):
            issues.append(f"{name}: oracle says not multiple")
    _criterion(
        7,
        "classification trichotomy coverage",
        not issues,
        "; ".join(issues) if issues else "all four classes exhibited and verified",
    )


def test_criterion_8_byte_identical_reports(tmp_path):
    tri = tmp_path / "tri.csv"
    tri.write_text("2.0,1.0,0.0\n1.0,2.0,1.0\n0.0,1.0,2.0\n")
    anti = tmp_path / "anti.csv"
    anti.write_text("0.0,1.0\n1.0,0.0\n")
    invocations = [
        ["analyze", str(tri), "--format", "json"],
        ["compound", str(tri), "--order", "2", "--format", "json"],
        ["tn-check", str(anti), "--order", "2", "--format", "json"],
        ["generate", "--n", "5", "--seed", "42", "--oscillatory"],
        ["verify", "--theorem", "2", "--n", "5", "--trials", "10",
         "--seed", "1", "--format", "json"],
        ["kernel", "--name", "green_string", "--grid", "40",
         "--trials", "50", "--format", "json"],
    ]
    # the child imports the package from src/, as this process does
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    issues = []
    for argv in invocations:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "wedgespec.cli", *argv],
                capture_output=True, env=env,
            )
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1] or not outputs[0]:
            issues.append(argv[0])
    _criterion(
        8,
        "byte-identical repeat runs across all six subcommands",
        not issues,
        f"nondeterministic: {issues}" if issues else "",
    )
