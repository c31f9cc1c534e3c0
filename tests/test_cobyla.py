"""The package's COBYLA against scipy's, the implementation it ports: the
same points evaluated, bit for bit, the same values and the same stop."""

import math

import numpy as np
import pytest
import scipy.optimize

from ringcasimir.chiral import jordan_wigner_hamiltonian, reference_system, single_particle_matrix
from ringcasimir.lattice import ModeFamily, ring_hamiltonian
from ringcasimir.vqe import VqeConfig, ansatz_state, minimize, n_parameters


class _Cut(Exception):
    """The reference run asked for more than ``max_iterations`` evaluations."""


def recording(objective, limit=math.inf):
    """``objective`` that records its points and values, and raises ``_Cut``
    when asked for more than ``limit`` evaluations."""
    points, values = [], []

    def recorded(x):
        if len(values) == limit:
            raise _Cut
        points.append(np.array(x))
        values.append(float(objective(x)))
        return values[-1]

    return recorded, points, values


def scipy_cobyla(objective, x0, cfg):
    """Points, values and success of scipy's COBYLA, cut at ``max_iterations``
    evaluations; scipy raises a budget below n + 2 to n + 2."""
    recorded, points, values = recording(objective, cfg.max_iterations)
    try:
        result = scipy.optimize.minimize(recorded, x0, method="COBYLA", tol=cfg.tolerance,
                                         options={"maxiter": max(cfg.max_iterations, x0.size + 2)})
    except _Cut:
        return points, values, False
    return points, values, bool(result.success)


def package_cobyla(objective, x0, cfg):
    recorded, points, values = recording(objective)
    result = minimize(recorded, x0, cfg)
    assert result.evaluations == len(values)
    return points, values, result.converged


def assert_same_run(objective, x0, cfg):
    ref_points, ref_values, ref_converged = scipy_cobyla(objective, x0, cfg)
    points, values, converged = package_cobyla(objective, x0, cfg)
    assert len(values) == len(ref_values)
    assert np.array_equal(points, ref_points)
    assert np.array_equal(values, ref_values, equal_nan=True)
    assert converged == ref_converged
    return values, converged


def ansatz_energy(spec, depth, ansatz="ry"):
    return lambda x: spec.expectation(ansatz_state(x, spec.qubits, depth, ansatz))


@pytest.mark.parametrize("label, sites, depth, seed", [
    ("boson-periodic", 2, 0, 11), ("fermion-twisted", 3, 0, 12), ("boson-twisted", 1, 1, 13),
    ("fermion-periodic", 4, 1, 14), ("boson-periodic", 3, 2, 15), ("fermion-twisted", 2, 2, 16),
])
def test_criterion_4_cells_match_scipy(label, sites, depth, seed):
    spec = ring_hamiltonian(ModeFamily.from_label(label, sites))
    cfg = VqeConfig(depth=depth, max_iterations=60, seed=seed)
    x0 = np.random.default_rng(seed).uniform(-0.1, 0.1, n_parameters(spec.qubits, depth))
    assert_same_run(ansatz_energy(spec, depth), x0, cfg)


def test_chiral_pauli_spec_with_phases_matches_scipy():
    spec = jordan_wigner_hamiltonian(single_particle_matrix(reference_system(2, 10.0)))
    x0 = np.random.default_rng(3).uniform(-3.0, 3.0, n_parameters(spec.qubits, 1, "ry-rz"))
    assert_same_run(ansatz_energy(spec, 1, "ry-rz"), x0, VqeConfig(max_iterations=200))


@pytest.mark.parametrize("budget", [1, 2, 4, 5])
def test_budget_below_the_first_simplex_matches_scipy(budget):
    # 2 qubits at depth 1 take 4 parameters: the first simplex has 5 points, PRIMA's floor is 6
    spec = ring_hamiltonian(ModeFamily.from_label("fermion-twisted", 2))
    x0 = np.random.default_rng(budget).uniform(-0.1, 0.1, n_parameters(spec.qubits, 1))
    values, converged = assert_same_run(ansatz_energy(spec, 1), x0,
                                        VqeConfig(max_iterations=budget))
    assert len(values) == budget and not converged


@pytest.mark.parametrize("budget", [3, 4, 500])
def test_tolerance_equal_to_the_start_radius_matches_scipy(budget):
    # rho_end = rho_beg = 1: the first reduction of rho stops the run
    x0 = np.array([0.3, -0.2])
    assert_same_run(lambda x: float(np.sum((x - 0.25) ** 2)), x0,
                    VqeConfig(max_iterations=budget, tolerance=1.0))


@pytest.mark.parametrize("tolerance, budget", [(1e-6, 500), (1.0, 4)])
def test_constant_objective_takes_no_step_and_matches_scipy(tolerance, budget):
    # g == 0 exactly: the trust-region step is 0, and rho shrinks to rho_end;
    # at rho_end = 1 that stop needs no point past the first simplex
    values, converged = assert_same_run(lambda x: 0.25, np.array([0.1, 0.2, 0.3]),
                                        VqeConfig(max_iterations=budget, tolerance=tolerance))
    assert converged and set(values) == {0.25}


def test_nan_values_meet_the_barrier_as_in_scipy():
    def objective(x):
        return math.nan if x[1] > 0.5 else float((x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2)

    values, _ = assert_same_run(objective, np.array([0.0, 0.0]), VqeConfig(max_iterations=80))
    assert any(math.isnan(v) for v in values)


def test_one_parameter_problem_matches_scipy():
    values, converged = assert_same_run(lambda x: float((x[0] - 2.0) ** 2), np.array([0.0]),
                                        VqeConfig(tolerance=1e-10))
    assert converged and min(values) < 1e-18


_BOWL = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


@pytest.mark.parametrize("objective", [
    lambda x: math.inf if x[0] > 0.6 else float(x @ _BOWL @ x),  # +inf meets the barrier
    lambda x: -math.inf if x[0] > 1.0 else float(x @ _BOWL @ x),  # -inf is clipped
    lambda x: 1e-200 * float((x - 0.3) @ _BOWL @ (x - 0.3)),  # planerot's rescaled branch
    lambda x: 1e13 * float((x - 0.3) @ _BOWL @ (x - 0.3)),  # g scaled down past 1e12
    lambda x: float(np.abs(x - 0.2).sum()),  # kinks: the pole vertex gets replaced too
    lambda x: float(0.5 * x[1] - x[0]),  # unbounded: the radius keeps growing
], ids=["inf", "minus-inf", "tiny", "huge-gradient", "kinks", "unbounded"])
def test_extreme_objectives_match_scipy(objective):
    assert_same_run(objective, np.array([0.1, -0.2, 0.3]), VqeConfig(max_iterations=100))
