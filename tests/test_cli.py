"""Command-line surface: parsing, exit codes, round trips, output parity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wedgespec import compound_matrix, random_oscillatory, random_tn
from wedgespec.cli import _trial_matrix, build_parser, main
from wedgespec.spectra import DEFAULT_TOL


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def diag_csv(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text("3.0,0.0,0.0\n0.0,2.0,0.0\n0.0,0.0,1.0\n")
    return str(path)


@pytest.fixture
def tridiag_csv(tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text("2.0,1.0,0.0\n1.0,2.0,1.0\n0.0,1.0,2.0\n")
    return str(path)


class TestAnalyze:
    def test_json_report(self, capsys, diag_csv):
        code, out, _ = run(capsys, "analyze", diag_csv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda1"] == 3.0
        assert doc["lambda2"] == pytest.approx(2.0, rel=1e-12)
        assert doc["classification"] == "second_eigenvalue_found"

    def test_json_input_format(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"data": [[3.0, 0.0], [0.0, 1.0]]}))
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["lambda1"] == 3.0

    def test_tridiagonal_value(self, capsys, tridiag_csv):
        code, out, _ = run(capsys, "analyze", tridiag_csv, "--format", "json")
        assert code == 0
        assert json.loads(out)["lambda1"] == pytest.approx(3.41421356, abs=1e-7)

    def test_overflowing_witness_exit_2(self, capsys, tmp_path):
        # the order-2 witness -2 a^2 overflows float64 while a^2 does not
        path = tmp_path / "big.csv"
        path.write_text("-1.3e154,1.3e154\n1.3e154,1.3e154\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert "order-2 minors overflow float64" in err and "Traceback" not in err

    def test_empty_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "empty" in err

    def test_ragged_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2

    def test_overflowing_minors_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        m = 2.0 ** 600 * random_oscillatory(6, seed=3)
        path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in m) + "\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        # the minors of m 2^-e certify it; rho_wedge = 4^600 rho does not fit
        assert "the exterior-square eigenvalues overflow float64" in err

    @pytest.mark.parametrize("circle_tol", ["-1", "nan", "2"])
    def test_circle_tol_outside_unit_interval_exit_2(self, capsys, diag_csv, circle_tol):
        code, out, err = run(capsys, "analyze", diag_csv, "--circle-tol", circle_tol)
        assert (code, out) == (2, "")
        assert "circle_tol" in err

    def test_infinite_tol_exit_2(self, capsys, tmp_path):
        # an oscillatory matrix, which an infinite tol reported as degenerate
        path = tmp_path / "osc.csv"
        m = random_oscillatory(5, seed=1)
        path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in m) + "\n")
        code, out, err = run(capsys, "analyze", str(path), "--tol", "inf")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "tol" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.csv")
        assert code == 2

    def test_diagonal_similarity_of_oscillatory_exit_0(self, capsys, tmp_path):
        # D m D^-1 of an oscillatory draw that was refused with exit 3 while
        # the wedge iteration stopped on a residual in the space of pairs
        m = random_oscillatory(3, seed=56)
        d = 2.0 ** np.random.default_rng(56).uniform(-4.0, 4.0, 3)
        path = tmp_path / "similar.csv"
        similar = d[:, None] * m / d[None, :]
        path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in similar) + "\n")
        code, out, err = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0, err
        assert json.loads(out)["classification"] == "second_eigenvalue_found"

    def test_complex_pair_text_and_json_parity(self, capsys, tmp_path):
        # a weighted 3-cycle: its spectrum is three points on one circle
        path = tmp_path / "cycle.csv"
        path.write_text("0,1,0\n0,0,2\n3,0,0\n")
        code, text_out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        code, json_out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(json_out)
        assert doc["classification"] == "complex_pair_on_circle"
        a, b = (complex(z["re"], z["im"]) for z in doc["complex_pair"])
        assert a.imag > 0 and b == a.conjugate()
        assert f"complex_pair: {a!r} {b!r}\n" in text_out

    def test_text_and_json_numeric_parity(self, capsys, tridiag_csv):
        _, text_out, _ = run(capsys, "analyze", tridiag_csv)
        _, json_out, _ = run(capsys, "analyze", tridiag_csv, "--format", "json")
        doc = json.loads(json_out)
        assert f"lambda1: {doc['lambda1']!r}" in text_out
        assert f"lambda2: {doc['lambda2']!r}" in text_out
        assert f"rho_wedge: {doc['rho_wedge']!r}" in text_out


class TestCompound:
    def test_identity_second_compound(self, capsys, tmp_path):
        path = tmp_path / "i3.csv"
        path.write_text("1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n")
        code, out, _ = run(capsys, "compound", str(path), "--order", "2")
        assert code == 0
        assert out == "1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n"

    def test_out_file(self, capsys, tmp_path, diag_csv):
        target = tmp_path / "c.csv"
        code, out, _ = run(capsys, "compound", diag_csv, "--order", "2",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        # diag(3,2,1) pair products in lexicographic order: 6, 3, 2
        assert target.read_text() == "6.0,0.0,0.0\n0.0,3.0,0.0\n0.0,0.0,2.0\n"

    def test_cap_exit_2(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        m = np.eye(40)
        path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in m) + "\n")
        code, _, err = run(capsys, "compound", str(path), "--order", "4")
        assert code == 2
        assert "cap" in err


class TestTnCheck:
    def test_violation_exit_1_with_witness(self, capsys, tmp_path):
        path = tmp_path / "anti.csv"
        path.write_text("0.0,1.0\n1.0,0.0\n")
        code, out, _ = run(capsys, "tn-check", str(path), "--order", "2")
        assert code == 1
        assert "VIOLATED" in out
        assert "witness" in out
        assert "-1.0" in out

    def test_pass_exit_0(self, capsys, diag_csv):
        code, out, _ = run(capsys, "tn-check", diag_csv, "--order", "2")
        assert code == 0
        assert "verdict ok" in out

    def test_json_certificate(self, capsys, tmp_path):
        path = tmp_path / "anti.csv"
        path.write_text("0.0,1.0\n1.0,0.0\n")
        code, out, _ = run(capsys, "tn-check", str(path), "--order", "2",
                           "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] is False
        assert doc["witness"]["value"] == -1.0
        assert doc["mode"] == "exhaustive"

    def test_sampled_violation_exit_1(self, capsys, tmp_path):
        path = tmp_path / "anti.csv"
        path.write_text("0.0,1.0\n1.0,0.0\n")
        args = ("tn-check", str(path), "--order", "2", "--sample")
        code, out, _ = run(capsys, *args)
        assert code == 1
        assert out == (
            "tn_check: order 2 verdict VIOLATED (200 minors, sampled)\n"
            "tn_check witness: rows [0, 1] cols [0, 1] value -1.0\n"
        )
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert (doc["verdict"], doc["mode"], doc["minors_evaluated"]) == (False, "sampled", 200)
        assert doc["witness"] == {"rows": [0, 1], "cols": [0, 1], "value": -1.0}

    def test_empty_sample_exit_2(self, capsys, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1.0,2.0\n3.0,1.0\n")
        code, out, err = run(capsys, "tn-check", str(path), "--order", "2", "--sample",
                             "--samples", "0")
        assert (code, out) == (2, "")
        assert "samples" in err

    def test_sampled_pass_exit_0(self, capsys, diag_csv):
        args = ("tn-check", diag_csv, "--order", "3", "--sample")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out == "tn_check: order 3 verdict ok (200 minors, sampled)\n"
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"order_checked": 3, "verdict": True, "witness": None,
                                   "minors_evaluated": 200, "mode": "sampled"}


class TestKernel:
    def test_green_small_grid(self, capsys):
        code, out, _ = run(capsys, "kernel", "--name", "green_string",
                           "--grid", "60", "--trials", "100", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kernel_certificate"]["verdict"] is True
        assert doc["kernel_certificate"]["mode"] == "sampled"
        lam1 = doc["analysis"]["lambda1"]
        assert lam1 == pytest.approx(0.1013212, rel=5e-3)
        assert doc["analysis"]["classification"] == "second_eigenvalue_found"

    def test_unknown_kernel_exit_2(self, capsys):
        code, _, err = run(capsys, "kernel", "--name", "green_string",
                           "--grid", "1")
        assert code == 2

    def test_tabulated_constant_rank_one(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        n = 16
        path.write_text("\n".join(",".join(["1.0"] * n) for _ in range(n)) + "\n")
        code, out, _ = run(capsys, "kernel", "--file", str(path),
                           "--grid", str(n), "--trials", "50", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["analysis"]["rho_wedge"] <= 1e-12
        assert doc["analysis"]["classification"] == "hypotheses_violated"

    def test_ragged_json_table_exit_2(self, capsys, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"values": [[1.0, 0.5], [0.5]]}))
        code, _, err = run(capsys, "kernel", "--file", str(path), "--grid", "2")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("nodes", [[0.2, "x"], [0.2, None]])
    def test_bad_nodes_exit_2(self, capsys, tmp_path, nodes):
        path = tmp_path / "nodes.json"
        path.write_text(json.dumps({"values": [[1.0, 0.5], [0.5, 1.0]], "nodes": nodes}))
        code, _, err = run(capsys, "kernel", "--file", str(path), "--grid", "2")
        assert code == 2
        assert err.startswith("error:")

    def test_param_with_file_exit_2(self, capsys, tmp_path):
        # --param is the gaussian width; a tabulated kernel has none, and the
        # flag is refused as it is for a builtin that takes no parameter
        path = tmp_path / "const.csv"
        path.write_text("1.0,0.5\n0.5,1.0\n")
        code, out, err = run(capsys, "kernel", "--file", str(path), "--grid", "2",
                             "--param", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--param" in err

    def test_gaussian_with_param(self, capsys):
        code, out, _ = run(capsys, "kernel", "--name", "gaussian", "--param", "0.5",
                           "--grid", "40", "--trials", "50", "--format", "json")
        assert code == 0
        assert json.loads(out)["kernel_certificate"]["verdict"] is True

    def test_green_grid_200_eigenvalue_ratio(self, capsys):
        code, out, _ = run(capsys, "kernel", "--name", "green_string",
                           "--grid", "200", "--trials", "100", "--format", "json")
        assert code == 0
        doc = json.loads(out)["analysis"]
        assert doc["lambda1"] == pytest.approx(0.1013212, rel=1e-3)
        assert doc["lambda2"] / doc["lambda1"] == pytest.approx(0.25, rel=1e-3)


class TestGenerate:
    def test_roundtrip_bitwise(self, capsys, tmp_path):
        target = tmp_path / "m.csv"
        code, _, _ = run(capsys, "generate", "--n", "5", "--seed", "42",
                         "--out", str(target))
        assert code == 0
        parsed = np.array(
            [[float(x) for x in line.split(",")]
             for line in target.read_text().splitlines()]
        )
        np.testing.assert_array_equal(parsed, random_tn(5, 42, factors=20))

    def test_oscillatory_roundtrip(self, capsys, tmp_path):
        target = tmp_path / "osc.csv"
        code, _, _ = run(capsys, "generate", "--n", "4", "--seed", "3",
                         "--oscillatory", "--out", str(target))
        assert code == 0
        parsed = np.array(
            [[float(x) for x in line.split(",")]
             for line in target.read_text().splitlines()]
        )
        np.testing.assert_array_equal(parsed, random_oscillatory(4, 3))

    def test_json_document_roundtrip_bitwise(self, capsys, tmp_path):
        argv = ("generate", "--n", "5", "--seed", "42")
        code, out, _ = run(capsys, *argv, "--format", "json")
        doc = json.loads(out)
        assert code == 0 and list(doc) == ["data"]
        np.testing.assert_array_equal(np.array(doc["data"]), random_tn(5, 42, factors=20))
        # analyze reads the document as it reads the CSV of the same matrix
        (tmp_path / "m.json").write_text(out)
        run(capsys, *argv, "--out", str(tmp_path / "m.csv"))
        from_json = run(capsys, "analyze", str(tmp_path / "m.json"))
        assert from_json[0] == 0
        assert from_json == run(capsys, "analyze", str(tmp_path / "m.csv"))

    def test_oscillatory_n13_passes_numpy_oracle(self, capsys):
        code, out, _ = run(capsys, "generate", "--oscillatory", "--n", "13", "--seed", "0")
        assert code == 0
        m = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()])
        assert m.shape == (13, 13)
        assert np.linalg.det(m) > 0.0
        assert np.linalg.matrix_power(np.eye(13) + m, 12).min() > 0.0
        assert compound_matrix(m, 2).min() >= -1e-10 * float(np.abs(m).max()) ** 2

    def test_generate_then_tn_check(self, capsys, tmp_path):
        target = tmp_path / "osc5.csv"
        code, _, _ = run(capsys, "generate", "--n", "5", "--seed", "42",
                         "--oscillatory", "--out", str(target))
        assert code == 0
        code, out, _ = run(capsys, "tn-check", str(target), "--order", "5",
                           "--tol", "1e-10")
        assert code == 0
        assert "verdict ok" in out


class TestVerify:
    def test_theorem2_batch(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "2", "--n", "5",
                           "--trials", "20", "--seed", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_matched"] is True
        assert doc["worst_residual"] < 1e-8
        assert doc["counterexample"] is None

    def test_theorem1_batch(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "1", "--n", "4",
                           "--trials", "20", "--seed", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["all_matched"] is True

    def test_counterexample_document(self, capsys):
        # no pair of floats matches within 1e-300 of the largest modulus
        code, out, _ = run(capsys, "verify", "--theorem", "2", "--n", "8",
                           "--trials", "3", "--seed", "2", "--tol", "1e-300",
                           "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["all_matched"] is False
        example = doc["counterexample"]
        expected = _trial_matrix(8, 2, example["trial"])
        assert np.array_equal(np.array(example["matrix"]), expected)
        assert list(example["report"]) == ["theorem", "matched", "max_residual",
                                           "leftovers"]
        assert example["report"]["matched"] is False

    def test_trials_zero_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "2", "--n", "4",
                           "--trials", "0", "--seed", "1")
        assert code == 2

    def test_tensor_cap_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "1", "--n", "40",
                           "--trials", "1", "--seed", "1")
        assert code == 2
        assert "cap" in err

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "2", "--n", "4",
                           "--trials", "5", "--seed", "2")
        assert code == 0
        assert "all_matched: True" in out


@pytest.mark.parametrize("argv", [
    ("tn-check", "{diag}", "--order", "2", "--sample", "--seed", "-1"),
    ("generate", "--n", "4", "--seed", "-1"),
    ("generate", "--n", "4", "--seed", "-1", "--oscillatory"),
    ("kernel", "--name", "gaussian", "--grid", "10", "--seed", "-1"),
])
def test_negative_seed_exit_2(capsys, diag_csv, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(diag=diag_csv) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed: seed must be a nonnegative integer" in err


@pytest.mark.parametrize("argv", [
    ("analyze", "m.csv"),
    ("tn-check", "m.csv", "--order", "2"),
])
def test_tol_defaults_to_the_library_default(argv):
    assert build_parser().parse_args(argv).tol == DEFAULT_TOL


@pytest.mark.parametrize("argv, message", [
    # neither command has a tolerance
    (("compound", "{diag}", "--order", "2", "--tol", "5"), "unrecognized arguments: --tol"),
    (("generate", "--n", "4", "--tol", "5"), "unrecognized arguments: --tol"),
    # random_oscillatory takes no factors; 20 is the default, given here
    (("generate", "--n", "4", "--factors", "20", "--oscillatory"), "not allowed with"),
    (("generate", "--n", "4", "--oscillatory", "--factors", "3"), "not allowed with"),
], ids=["compound-tol", "generate-tol", "factors-oscillatory", "oscillatory-factors"])
def test_flag_without_effect_refused_by_the_parser(capsys, diag_csv, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([a.format(diag=diag_csv) for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    # a tabulated kernel's quadrature weights come from its nodes
    (("kernel", "--file", "{table}", "--grid", "2", "--rule", "trapezoid"), "--rule"),
    (("kernel", "--file", "{table}", "--grid", "2", "--rule", "midpoint"), "--rule"),
    (("tn-check", "{diag}", "--order", "2", "--samples", "5"), "--samples"),
    (("tn-check", "{diag}", "--order", "2", "--samples", "0"), "--samples"),
], ids=["file-trapezoid", "file-midpoint", "samples-5", "samples-0"])
def test_setting_without_effect_exit_2(capsys, tmp_path, diag_csv, argv, flag):
    table = tmp_path / "const.csv"
    table.write_text("1.0,0.5\n0.5,1.0\n")
    code, out, err = run(capsys, *[a.format(diag=diag_csv, table=table) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and flag in err


def test_default_factors_and_rule_still_apply(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "--n", "4", "--seed", "3", "--format", "json")
    assert code == 0
    np.testing.assert_array_equal(json.loads(out)["data"], random_tn(4, 3, factors=20))
    argv = ("kernel", "--name", "gaussian", "--grid", "6", "--trials", "5", "--format", "json")
    assert run(capsys, *argv) == run(capsys, *argv, "--rule", "midpoint")
    assert run(capsys, *argv) != run(capsys, *argv, "--rule", "trapezoid")


@pytest.mark.parametrize("name, doc, what", [
    ("m.json", {"data": [[1.0, "y"], [0.5, 1.0]]}, "matrix entries"),
    ("k.json", {"nodes": [0.2, "y"], "values": [[1.0, 0.5], [0.5, 1.0]]}, "kernel nodes"),
])
def test_string_entry_named_as_python_names_it(capsys, tmp_path, name, doc, what):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    argv = ("analyze", str(path)) if name == "m.json" else ("kernel", "--file", str(path),
                                                             "--grid", "2")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {what} must be real numbers: could not convert string to float: 'y'\n"


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys, tridiag_csv):
        _, out1, _ = run(capsys, "analyze", tridiag_csv, "--format", "json")
        _, out2, _ = run(capsys, "analyze", tridiag_csv, "--format", "json")
        assert out1 == out2

    def test_generate_repeat_identical(self, capsys):
        _, out1, _ = run(capsys, "generate", "--n", "6", "--seed", "9")
        _, out2, _ = run(capsys, "generate", "--n", "6", "--seed", "9")
        assert out1 == out2


def test_analyze_leaves_numpy_random_unimported():
    # numpy imports numpy.random lazily; analyze on both solver routes (a
    # symmetric and a nonsymmetric oscillatory matrix) must not pull it in,
    # which would add to every CLI process's start-up time and resident set
    code = (
        "import sys, wedgespec\n"
        "for m in ([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]],\n"
        "          [[3.0, 1.0, 0.0], [2.0, 3.0, 1.0], [0.0, 2.0, 3.0]]):\n"
        "    assert wedgespec.analyze(m).classification == 'second_eigenvalue_found'\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["True", "False"]


def _python(*args):
    """Run a fresh interpreter with this checkout's src first on its path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _similar_oscillatory(n, seed, x):
    """D m D^-1 for m = random_oscillatory(n, seed), d = 2^U(-x, x)."""
    m = random_oscillatory(n, seed=seed)
    d = 2.0 ** np.random.default_rng(seed).uniform(-x, x, n)
    return d[:, None] * m / d[None, :]


def _csv(rows):
    return "\n".join(",".join(repr(float(x)) for x in row) for row in rows) + "\n"


@pytest.mark.parametrize("command, text, code", [
    (["analyze"], _csv(random_oscillatory(5, seed=0)), 0),
    # rows 0, 1 and columns 1, 2 give the minor 1 * 1 - 5 * 2
    (["tn-check", "--order", "2"], _csv([[2.0, 1.0, 5.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]), 1),
    (["analyze"], "1.0,2.0\n3.0\n", 2),
    # D m D^-1 with d = 2^U(-8, 8): the wedge iteration takes all three
    # columns, and the two routes to lambda2 agree
    (["analyze"], _csv(_similar_oscillatory(3, 1, 8.0)), 0),
    # all 50 eigenvalues of the cyclic permutation lie on the unit circle;
    # the wedge iteration takes all 50 columns and converges
    (["analyze"], _csv(np.roll(np.eye(50), 1, axis=0)), 0),
    # the Jordan block I + E: its Ritz values never settle, so the wedge
    # iteration runs out of steps and the analysis is refused
    (["analyze"], _csv(np.eye(3) + np.eye(3, k=1)), 3),
], ids=["oscillatory-0", "planted-violation-1", "ragged-2", "similarity-0",
        "cyclic-50-0", "jordan-block-3"])
def test_module_process_exit_code(tmp_path, command, text, code):
    path = tmp_path / "m.csv"
    path.write_text(text)
    proc = _python("-m", "wedgespec.cli", *command, str(path))
    assert proc.returncode == code, proc.stderr[-2000:]
    assert (proc.stdout == "") == (code >= 2)


# One command per subcommand and outcome; each runs in both formats.
OUTPUT_COMMANDS = {
    "analyze": (("analyze", "{tri}"), 0),
    "compound": (("compound", "{tri}", "--order", "2"), 0),
    "tn-check": (("tn-check", "{tri}", "--order", "3"), 0),
    "tn-check-violated": (("tn-check", "{anti}", "--order", "2"), 1),
    "kernel": (("kernel", "--name", "green_string", "--grid", "12", "--trials", "20"), 0),
    "generate": (("generate", "--n", "4", "--seed", "3", "--oscillatory"), 0),
    "verify": (("verify", "--theorem", "2", "--n", "4", "--trials", "3", "--seed", "1"), 0),
    # no pair of floats matches within 1e-300, so a counterexample is printed
    "verify-counterexample": (("verify", "--theorem", "2", "--n", "8", "--trials", "3",
                               "--seed", "2", "--tol", "1e-300"), 1),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", list(OUTPUT_COMMANDS))
def test_out_file_gets_the_stdout_bytes(capsys, tmp_path, tridiag_csv, name, fmt):
    anti = tmp_path / "anti.csv"
    anti.write_text("0.0,1.0\n1.0,0.0\n")
    argv, expected = OUTPUT_COMMANDS[name]
    argv = [a.format(tri=tridiag_csv, anti=anti) for a in argv] + ["--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (expected, "")
    assert out.endswith("\n") and (fmt == "text") != out.startswith("{")
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (expected, "", "")
    assert target.read_bytes() == out.encode("utf-8")


def test_counterexample_text(capsys):
    argv, _ = OUTPUT_COMMANDS["verify-counterexample"]
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 1 and lines[2] == "all_matched: False"
    trial = int(lines[4].removeprefix("counterexample (trial ").removesuffix("):"))
    m = np.array([[float(x) for x in row.split(",")] for row in lines[5:13]])
    np.testing.assert_array_equal(m, _trial_matrix(8, 2, trial))
    assert len(lines) == 15
    assert lines[13].startswith("leftover_square: (")
    assert lines[14].startswith("leftover_products: (")


@pytest.mark.parametrize("argv, code", [
    (("generate", "--n", "3", "--seed", "1"), 0),
    (("tn-check", "{anti}", "--order", "2"), 1),
    (("analyze", "{ragged}"), 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_console_script_entry_exit_code(tmp_path, argv, code):
    # the installed ``wedgespec`` script calls cli.entry, which exits with
    # main's return value
    (tmp_path / "anti.csv").write_text("0.0,1.0\n1.0,0.0\n")
    (tmp_path / "ragged.csv").write_text("1.0,2.0\n3.0\n")
    argv = [a.format(anti=tmp_path / "anti.csv", ragged=tmp_path / "ragged.csv") for a in argv]
    script = ("import sys\nfrom wedgespec.cli import entry\n"
              "sys.argv = ['wedgespec', *sys.argv[1:]]\nentry()\n")
    proc = _python("-c", script, *argv)
    assert proc.returncode == code, proc.stderr[-2000:]
    assert (proc.stdout == "") == (code == 2)
