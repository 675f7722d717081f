"""Unit tests for the shared dense-solver utilities."""

import numpy as np
import pytest

from repro.circuits.linsolve import ReusableLU, damp_voltage_delta, solve_dense


class TestSolveDense:
    def test_regular_system(self):
        G = np.array([[2.0, 1.0], [1.0, 3.0]])
        rhs = np.array([3.0, 4.0])
        np.testing.assert_allclose(G @ solve_dense(G, rhs), rhs)

    def test_singular_falls_back_to_lstsq(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]])
        rhs = np.array([2.0, 2.0])
        x = solve_dense(G, rhs)
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(G @ x, rhs)


class TestDampVoltageDelta:
    def test_no_damping_below_limit(self):
        delta = np.array([0.1, -0.2, 5.0])  # third entry is a branch current
        damped, max_v = damp_voltage_delta(delta, n_nodes=2, max_step=0.5)
        np.testing.assert_array_equal(damped, delta)
        assert max_v == 0.2

    def test_branch_currents_do_not_trigger_damping(self):
        """The historical transient bug: clamping on branch currents."""
        delta = np.array([0.1, 100.0])
        damped, max_v = damp_voltage_delta(delta, n_nodes=1, max_step=0.5)
        np.testing.assert_array_equal(damped, delta)
        assert max_v == 0.1

    def test_uniform_scaling_when_voltage_exceeds(self):
        delta = np.array([2.0, -1.0, 8.0])
        damped, max_v = damp_voltage_delta(delta, n_nodes=2, max_step=0.5)
        assert max_v == 0.5
        np.testing.assert_allclose(damped, delta * 0.25)

    def test_empty_voltage_block(self):
        delta = np.array([3.0])
        damped, max_v = damp_voltage_delta(delta, n_nodes=0, max_step=0.5)
        np.testing.assert_array_equal(damped, delta)
        assert max_v == 0.0


class TestReusableLU:
    def test_solves_match_dense(self):
        rng = np.random.default_rng(7)
        G = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
        lu = ReusableLU(G)
        for _ in range(3):
            rhs = rng.normal(size=6)
            np.testing.assert_allclose(
                lu.solve(rhs), np.linalg.solve(G, rhs), rtol=1e-12, atol=1e-14
            )

    def test_large_system_path(self):
        rng = np.random.default_rng(11)
        n = 80  # above the explicit-inverse cutoff
        G = rng.normal(size=(n, n)) + n * np.eye(n)
        rhs = rng.normal(size=n)
        lu = ReusableLU(G)
        np.testing.assert_allclose(
            lu.solve(rhs), np.linalg.solve(G, rhs), rtol=1e-10, atol=1e-12
        )

    def test_refactor_counts(self):
        G = np.eye(3)
        lu = ReusableLU(G)
        assert lu.n_factorizations == 1
        lu.factor(2.0 * G)
        assert lu.n_factorizations == 2
        np.testing.assert_allclose(lu.solve(np.ones(3)), 0.5 * np.ones(3))

    def test_singular_matrix_degrades_gracefully(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]])
        lu = ReusableLU(G)
        x = lu.solve(np.array([2.0, 2.0]))
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(G @ x, [2.0, 2.0])

    def test_inverse_only_of_small_nonsingular_finite_systems(self):
        G = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(ReusableLU(G).inverse @ G, np.eye(2), atol=1e-15)
        assert ReusableLU(np.ones((2, 2))).inverse is None  # singular
        assert ReusableLU(np.array([[1e-320, 0.0], [0.0, 1.0]])).inverse is None
        pytest.importorskip("scipy")
        assert ReusableLU(np.eye(64)).inverse is None  # factored by LU

    def test_solve_before_factor_raises(self):
        with pytest.raises(ValueError):
            ReusableLU().solve(np.ones(2))

    def test_captures_matrix_by_value(self):
        G = np.eye(2)
        lu = ReusableLU(G)
        G[0, 0] = 100.0  # later mutation must not affect the cache
        np.testing.assert_allclose(lu.solve(np.array([1.0, 1.0])), [1.0, 1.0])
