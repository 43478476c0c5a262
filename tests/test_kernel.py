"""Kernel ingestion, quadrature discretization, and the wedge-grid pipeline."""

import json
import math

import numpy as np
import pytest

from wedgespec import (
    TNCertificate,
    ValidationError,
    builtin_kernel,
    compound_matrix,
    discretize,
    eigenpairs,
    eigenvalues,
    exterior_grid,
    kernel_tn_check,
    load_kernel,
    perron_pair,
    second_associated,
    sign_changes,
    tabulated_kernel,
)
from wedgespec.kernel import CAUCHY_SHIFT, kernel_value
from wedgespec.positivity import MinorWitness

GREEN = builtin_kernel("green_string")
# a 4-node table on the implied midpoints 0.125, 0.375, 0.625, 0.875
TABLE = tabulated_kernel(np.arange(16.0).reshape(4, 4) ** 0.5 + 1)

# String kernel eigenvalues 1/(k pi)^2, eigenfunctions sin(k pi t).
STRING_EIGS = [1.0 / (k * k * math.pi ** 2) for k in (1, 2, 3)]


class TestBuiltins:
    def test_green_values(self):
        assert kernel_value(GREEN, 0.25, 0.5) == 0.25 - 0.125
        assert kernel_value(GREEN, 0.0, 0.7) == 0.0

    def test_gaussian_peak_on_diagonal(self):
        g = builtin_kernel("gaussian", 0.5)
        assert kernel_value(g, 0.3, 0.3) == 1.0
        assert kernel_value(g, 0.1, 0.9) < 1.0

    def test_cauchy_shift_keeps_kernel_bounded(self):
        c = builtin_kernel("cauchy")
        assert kernel_value(c, 0.0, 0.0) == pytest.approx(1.0 / (2 * CAUCHY_SHIFT))

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            builtin_kernel("heat")

    def test_gaussian_width_validation(self):
        with pytest.raises(ValidationError):
            builtin_kernel("gaussian", -1.0)

    @pytest.mark.parametrize("call", [
        lambda: kernel_value(GREEN, math.nan, 0.5),
        lambda: kernel_value(GREEN, 0.5, [0.2, math.nan]),
        lambda: second_associated(GREEN, math.nan, 0.5, 0.2, 0.3),
        # a NaN argument of a tabulated kernel is no node, as for a builtin
        lambda: second_associated(TABLE, math.nan, 0.375, 0.125, 0.375),
        lambda: builtin_kernel("gaussian", math.inf),
        # strings numpy cannot read as reals
        lambda: builtin_kernel("gaussian", "abc"),
        lambda: second_associated(GREEN, "x", 0.5, 0.2, 0.3),
        lambda: kernel_value(GREEN, "x", 0.5),
        # a complex array, which a cast would make real with only a warning
        lambda: kernel_value(GREEN, np.array([0.1 + 1j]), 0.5),
    ], ids=["kernel-value", "kernel-value-array", "second-associated",
            "second-associated-tabulated", "gaussian-width", "gaussian-width-string",
            "second-associated-string", "kernel-value-string", "kernel-value-complex"])
    def test_non_finite_argument_rejected(self, call):
        with pytest.raises(ValidationError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: kernel_value(GREEN, [0.5, "y"], 0.5),
        lambda: second_associated(GREEN, 0.1, "y", 0.2, 0.3),
        lambda: builtin_kernel("gaussian", "y"),
    ], ids=["kernel-value", "second-associated", "gaussian-width"])
    def test_string_argument_named_as_python_names_it(self, call):
        # not numpy's np.str_('y')
        with pytest.raises(ValidationError, match=r"could not convert string to float: 'y'$"):
            call()

    def test_param_only_for_gaussian(self):
        with pytest.raises(ValidationError):
            builtin_kernel("green_string", 2.0)


class TestDiscretize:
    def test_midpoint_grid_shape(self):
        g = discretize(GREEN, 50)
        assert g.nodes.shape == (50,)
        assert np.all(np.diff(g.nodes) > 0)
        assert 0.0 < g.nodes[0] and g.nodes[-1] < 1.0
        assert abs(g.weights.sum() - 1.0) <= 1e-12

    def test_trapezoid_includes_endpoints(self):
        g = discretize(GREEN, 11, rule="trapezoid")
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert abs(g.weights.sum() - 1.0) <= 1e-12
        assert g.weights[0] == g.weights[-1] == g.weights[1] / 2

    def test_symmetrized_matrix_is_similar_to_plain_nystrom(self):
        g = discretize(GREEN, 40)
        plain = g.values * g.weights[None, :]
        w1 = eigenvalues(g.discretized)
        w2 = eigenvalues(plain)
        np.testing.assert_allclose(
            np.abs(w1[:5]), np.abs(w2[:5]), rtol=1e-9, atol=1e-13
        )

    def test_symmetric_kernel_gives_symmetric_real_spectrum(self):
        g = discretize(GREEN, 60)
        np.testing.assert_allclose(g.discretized, g.discretized.T, atol=1e-15)
        w = eigenvalues(g.discretized)
        assert np.abs(w.imag).max() <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 11, 300])
    @pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
    @pytest.mark.parametrize("name", ["green_string", "gaussian", "cauchy"])
    def test_builtin_grids_are_exactly_symmetric(self, name, rule, n):
        # sqrt(w_i) sqrt(w_j) is formed before the kernel value, so unequal
        # trapezoid weights keep the grid symmetric bit for bit
        m = discretize(builtin_kernel(name), n, rule).discretized
        assert np.array_equal(m, m.T)

    def test_tabulated_grid_off_a_power_of_two_is_exactly_symmetric(self):
        # the cell widths of 300 midpoints are not all equal in floating point
        t = (np.arange(300) + 0.5) / 300
        g = discretize(tabulated_kernel(np.exp(-2.0 * np.abs(t[:, None] - t))), 300)
        assert len(set(g.weights.tolist())) > 1
        assert np.array_equal(g.discretized, g.discretized.T)

    def test_constant_kernel_rank_one(self):
        spec = tabulated_kernel(np.ones((30, 30)))
        g = discretize(spec, 30)
        w = eigenvalues(g.discretized)
        assert abs(w[0] - 1.0) <= 1e-12  # trace equals total weight
        assert np.abs(w[1:]).max() <= 1e-12

    def test_string_eigenvalue_regression(self):
        g = discretize(GREEN, 200)
        w = np.abs(eigenvalues(g.discretized))
        for k in range(3):
            assert abs(w[k] - STRING_EIGS[k]) / STRING_EIGS[k] < 1e-3

    def test_refinement_shrinks_error(self):
        # independent confirmation of the analytic values: midpoint error
        # drops by about 4x when the grid doubles
        errs = []
        for n in (50, 100, 200):
            w = np.abs(eigenvalues(discretize(GREEN, n).discretized))
            errs.append(abs(w[0] - STRING_EIGS[0]) / STRING_EIGS[0])
        assert errs[0] > 2.5 * errs[1] > 2.5 * 2.5 * errs[2]

    def test_eigenvector_sign_change_ladder(self):
        g = discretize(GREEN, 120)
        w, v = eigenpairs(g.discretized)
        for k in range(3):
            vec = v[:, k].real
            assert sign_changes(vec).strict_count == k

    def test_tabulated_size_mismatch(self):
        spec = tabulated_kernel(np.ones((10, 10)))
        with pytest.raises(ValidationError):
            discretize(spec, 12)

    def test_grid_size_validation(self):
        with pytest.raises(ValidationError):
            discretize(GREEN, 1)

    def test_bad_rule(self):
        with pytest.raises(ValidationError):
            discretize(GREEN, 10, rule="simpson")

    def test_tabulated_with_explicit_nodes(self):
        nodes = np.array([0.1, 0.3, 0.8])
        vals = np.fromfunction(lambda i, j: (i + 1) * (j + 1), (3, 3))
        g = discretize(tabulated_kernel(vals, nodes), 3)
        np.testing.assert_array_equal(g.nodes, nodes)
        assert abs(g.weights.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(g.weights, [0.2, 0.35, 0.45])

    def test_tabulated_spec_owns_its_table_and_nodes(self):
        table, nodes = np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([0.2, 0.5])
        spec = tabulated_kernel(table, nodes)
        assert not np.shares_memory(spec.values, table)
        assert not np.shares_memory(spec.nodes, nodes)
        table[0, 1], nodes[1] = 7.0, 0.1
        assert spec.values[0, 1] == 0.5
        np.testing.assert_array_equal(discretize(spec, 2).nodes, [0.2, 0.5])

    @pytest.mark.parametrize("values, nodes", [
        ([[1.0, 0.5], [0.5, 1.0]], [0.2, "x"]),
        ([[1.0, 0.5], [0.5, 1.0]], [0.2, [0.5]]),
        ([[1.0, 0.5], [0.5, 1.0]], {"a": 0.2}),
        ([[1.0, "y"], [0.5, 1.0]], None),
        ([[1.0, [0.5]], [0.5, 1.0]], None),
        # a cast to float would drop the imaginary part with only a warning
        ([[1.0, 0.5], [0.5, 1.0]], np.array([0.2 + 1j, 0.5])),
    ])
    def test_non_numeric_table_is_an_input_error(self, values, nodes):
        with pytest.raises(ValidationError, match="must be real numbers"):
            tabulated_kernel(values, nodes)

    @pytest.mark.parametrize("nodes", [[0.2, None], [float("nan"), 0.5]])
    def test_nan_node_rejected(self, nodes):
        with pytest.raises(ValidationError, match="strictly increasing"):
            tabulated_kernel([[1.0, 0.5], [0.5, 1.0]], nodes)

    def test_trapezoid_string_eigenvalues_still_converge(self):
        # the endpoint rows vanish for this kernel, shifting two eigenvalues
        # to zero without disturbing the leading ones
        g = discretize(GREEN, 201, rule="trapezoid")
        w = np.abs(eigenvalues(g.discretized))
        assert abs(w[0] - STRING_EIGS[0]) / STRING_EIGS[0] < 1e-3
        assert abs(w[1] - STRING_EIGS[1]) / STRING_EIGS[1] < 1e-3


class TestSecondAssociated:
    def test_rank_one_tabulated_vanishes(self):
        f = np.array([1.0, 2.0, 0.5, 3.0])
        g = np.array([0.3, 1.5, 2.0, 0.9])
        spec = tabulated_kernel(np.outer(f, g))
        nodes = (np.arange(4) + 0.5) / 4
        val = second_associated(spec, nodes[0], nodes[2], nodes[1], nodes[3])
        assert val == 0.0

    def test_equal_arguments_vanish(self):
        assert second_associated(GREEN, 0.4, 0.4, 0.2, 0.9) == 0.0

    def test_green_positive_at_spread_points(self):
        val = second_associated(GREEN, 0.25, 0.75, 0.25, 0.75)
        # det [[3/16, 1/16], [1/16, 3/16]] = 1/32
        assert val == pytest.approx(1.0 / 32.0)

    def test_antisymmetry(self):
        args = (0.2, 0.7, 0.3, 0.9)
        v = second_associated(GREEN, *args)
        assert second_associated(GREEN, args[1], args[0], args[2], args[3]) == -v
        assert second_associated(GREEN, args[0], args[1], args[3], args[2]) == -v

    def test_domain_violation(self):
        with pytest.raises(ValidationError):
            second_associated(GREEN, -0.1, 0.5, 0.2, 0.8)

    def test_tabulated_off_node_rejected(self):
        spec = tabulated_kernel(np.ones((4, 4)))
        with pytest.raises(ValidationError):
            second_associated(spec, 0.1234, 0.5, 0.2, 0.8)


class TestKernelTNCheck:
    def test_gaussian_order_two(self):
        cert = kernel_tn_check(builtin_kernel("gaussian", 1.0), 64, 2, 500, seed=2)
        assert cert.verdict
        assert cert.mode == "sampled"
        assert cert.minors_evaluated == 500

    def test_gaussian_order_three_cross_check(self):
        cert = kernel_tn_check(builtin_kernel("gaussian", 1.0), 64, 3, 300, seed=2)
        assert cert.verdict

    def test_green_order_two(self):
        assert kernel_tn_check(GREEN, 64, 2, 500, seed=4).verdict

    def test_cauchy_order_two(self):
        assert kernel_tn_check(builtin_kernel("cauchy"), 64, 2, 300, seed=5).verdict

    def test_cosine_kernel_fails_with_witness(self):
        t = (np.arange(40) + 0.5) / 40
        table = np.cos(np.pi * (t[:, None] - t[None, :]))
        cert = kernel_tn_check(tabulated_kernel(table), 40, 2, 500, seed=0)
        assert not cert.verdict
        assert cert.witness is not None and cert.witness.value < 0

    def test_cosine_draw_stream_pinned(self):
        # exact certificate: any change to the per-trial draw stream fails here
        t = (np.arange(40) + 0.5) / 40
        table = np.cos(np.pi * (t[:, None] - t[None, :]))
        cert = kernel_tn_check(tabulated_kernel(table), 40, 2, 500, seed=0)
        assert cert == TNCertificate(2, False, MinorWitness((0,), (38,), table[0, 38]),
                                     500, "sampled")
        assert table[0, 38] == pytest.approx(-0.9876883405951377, abs=1e-15)

    def test_deterministic_per_seed(self):
        a = kernel_tn_check(GREEN, 32, 2, 50, seed=9)
        b = kernel_tn_check(GREEN, 32, 2, 50, seed=9)
        assert a == b

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_seed_not_a_nonnegative_integer_rejected(self, seed):
        with pytest.raises(ValidationError, match="^seed must be an integer >= 0"):
            kernel_tn_check(GREEN, 16, 2, 10, seed=seed)

    def test_validation(self):
        with pytest.raises(ValidationError):
            kernel_tn_check(GREEN, 2, 3, 10, seed=0)  # sample_nodes < order
        with pytest.raises(ValidationError):
            kernel_tn_check(GREEN, 32, 2, 0, seed=0)


class TestExteriorGrid:
    def test_constant_kernel_wedge_vanishes(self):
        g = discretize(tabulated_kernel(np.ones((12, 12))), 12)
        np.testing.assert_allclose(exterior_grid(g), 0.0, atol=1e-15)

    def test_matches_second_compound(self):
        g = discretize(GREEN, 14)
        np.testing.assert_allclose(
            exterior_grid(g), compound_matrix(g.discretized, 2), atol=1e-14
        )

    def test_radius_approximates_product_of_top_eigenvalues(self):
        g = discretize(GREEN, 60)
        wedge = exterior_grid(g, force=True)
        rho, _ = perron_pair(wedge, tol=1e-11)
        target = STRING_EIGS[0] * STRING_EIGS[1]  # 1 / (4 pi^4)
        assert abs(rho - target) / target < 2e-3
        # grid-level identity: radius equals the product of the two largest
        # eigenvalue moduli of the discretized kernel
        w = np.abs(eigenvalues(g.discretized))
        assert abs(rho - w[0] * w[1]) <= 1e-10 * rho


class TestLoading:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1.0,0.5\n0.5,1.0\n")
        spec = load_kernel(str(path))
        assert spec.kind == "tabulated"
        np.testing.assert_array_equal(spec.values, [[1.0, 0.5], [0.5, 1.0]])
        assert spec.nodes is None

    def test_json_with_nodes(self, tmp_path):
        path = tmp_path / "k.json"
        doc = {"nodes": [0.2, 0.5, 0.9], "values": [[1, 2, 3], [2, 4, 6], [3, 6, 9]]}
        path.write_text(json.dumps(doc))
        spec = load_kernel(str(path))
        np.testing.assert_array_equal(spec.nodes, [0.2, 0.5, 0.9])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_kernel(str(path))

    def test_ragged_csv(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1.0,0.5\n0.5\n")
        with pytest.raises(ValidationError):
            load_kernel(str(path))

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1.0,0.5\n")
        with pytest.raises(ValidationError):
            load_kernel(str(path))
