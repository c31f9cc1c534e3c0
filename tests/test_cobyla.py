"""The package's COBYLA against scipy's, the implementation it ports: the
same points evaluated, bit for bit, the same values and the same stop."""

import math

import numpy as np
import pytest
import scipy.optimize
from scipy._lib.pyprima.cobyla import geometry, trustregion, update

from ringcasimir import cobyla as port
from ringcasimir.chiral import jordan_wigner_hamiltonian, reference_system, single_particle_matrix
from ringcasimir.lattice import ModeFamily, mode_hamiltonian, ring_hamiltonian
from ringcasimir.vqe import VqeConfig, ansatz_state, minimize, n_parameters, run_vqe


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
    ("boson-periodic", 4, 2, 17),  # criterion 4's largest cell: 24 parameters
])
def test_criterion_4_cells_match_scipy(label, sites, depth, seed):
    spec = ring_hamiltonian(ModeFamily.from_label(label, sites))
    cfg = VqeConfig(depth=depth, max_iterations=60, seed=seed)
    x0 = np.random.default_rng(seed).uniform(-0.1, 0.1, n_parameters(spec.qubits, depth))
    assert_same_run(ansatz_energy(spec, depth), x0, cfg)


@pytest.mark.parametrize("label, sites", [
    ("boson-periodic", 3), ("boson-twisted", 8), ("fermion-periodic", 8), ("fermion-twisted", 5),
])
def test_criterion_3_mode_runs_match_scipy(label, sites):
    # partitioned_run's mode runs: the default VqeConfig, mode k seeded 7 + k;
    # a boson mode takes 2 parameters, a fermion mode 1
    family = ModeFamily.from_label(label, sites)
    for k in range(sites):
        spec, cfg = mode_hamiltonian(family, k + 1), VqeConfig(seed=7 + k)
        x0 = np.random.default_rng(cfg.seed).uniform(-cfg.init_spread, cfg.init_spread,
                                                     n_parameters(spec.qubits, cfg.depth))
        assert_same_run(ansatz_energy(spec, cfg.depth), x0, cfg)


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


def test_criterion_4_run_checks_the_inverse_once_per_simplex_change(monkeypatch):
    # 75 checks: 1 before the loop, 1 for each of the 55 vertices that the
    # loop's points replaced and 1 for each of 19 pole moves.  Repeating
    # PRIMA's checks at each iteration and each reduction of rho, on a
    # simplex already checked, made 154.
    calls = []
    settle = port._settle

    def counting(*args):
        calls.append(args)
        return settle(*args)

    monkeypatch.setattr(port, "_settle", counting)
    result = run_vqe(ring_hamiltonian(ModeFamily.from_label("fermion-twisted", 2)),
                     VqeConfig(depth=1, max_iterations=60, seed=5))
    assert (result.evaluations, len(calls)) == (60, 75)


# Helper-level oracles: pyprima's own functions with no constraints, on
# random simplices in PRIMA's layout (vertices minus the pole, then the pole)
# whose stored inverse is exact, off by more than 0.1 or more than 1, holds
# NaN, or belongs to a simplex too ill-conditioned for any inverse to pass.
SPOILS = ("exact", "off-0.3", "off-3", "nan")


def spoiled_simplex(n, seed, spoil):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, n))
    if spoil == "damaged":
        u, _, vt = np.linalg.svd(dirs)
        dirs = u @ np.diag(np.logspace(0, -17, n)) @ vt
    sim = np.column_stack([dirs, rng.normal(size=n)])
    simi = np.linalg.inv(dirs)
    if spoil.startswith("off-"):
        simi = (np.eye(n) + float(spoil[4:])) @ simi
    if spoil == "nan":
        simi[n // 2, 0] = math.nan
    return sim, simi, rng.normal(size=n + 1)


def no_constraints(n):
    return {"conmat": np.zeros((0, n + 1)), "cval": np.zeros(n + 1)}


def assert_same_simplex(ours, ok, ref, ref_info):
    assert ok == (ref_info == 0)
    if ok:  # PRIMA restores the simplex that it refuses; the port stops the run
        for mine, theirs in zip(ours, ref):
            assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("spoil", SPOILS)
@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (3, 2), (5, 3), (8, 4)])
def test_updatepole_matches_pyprima(n, seed, spoil):
    sim, simi, fval = spoiled_simplex(n, seed, spoil)
    fval[n] = fval.max() + 1  # the pole is the worst vertex, so it moves
    _, _, ref_fval, ref_sim, ref_simi, info = update.updatepole(
        port.EPS, fval=fval.copy(), sim=sim.copy(), simi=simi.copy(), **no_constraints(n))
    simi, ok = port._updatepole(fval, sim[:, :n], sim[:, n], simi, np.eye(n))
    assert_same_simplex((fval, sim, simi), ok, (ref_fval, ref_sim, ref_simi), info)
    assert ok


@pytest.mark.parametrize("spoil", SPOILS)
@pytest.mark.parametrize("n, seed", [(1, 5), (2, 6), (3, 7), (5, 8)])
def test_inverse_check_matches_pyprima_where_the_pole_stays(n, seed, spoil):
    # The port's _updatepole leaves a pole that stays to the check its
    # caller made; that check is PRIMA's, and a repeat returns its verdict.
    sim, simi, fval = spoiled_simplex(n, seed, spoil)
    fval[n] = fval.min() - 1
    _, _, ref_fval, ref_sim, ref_simi, info = update.updatepole(
        port.EPS, fval=fval.copy(), sim=sim.copy(), simi=simi.copy(), **no_constraints(n))
    kept, ok = port._updatepole(fval, sim[:, :n], sim[:, n], simi, np.eye(n))
    assert kept is simi and ok
    checked, ok = port._settle(simi, sim[:, :n], np.eye(n))
    assert_same_simplex((fval, sim, checked), ok, (ref_fval, ref_sim, ref_simi), info)
    again, ok_again = port._settle(checked, sim[:, :n], np.eye(n))
    assert ok_again == ok and np.array_equal(again, checked, equal_nan=True)


@pytest.mark.parametrize("spoil", SPOILS)
@pytest.mark.parametrize("n, seed", [(1, 9), (2, 10), (3, 11), (5, 12)])
def test_updatexfc_matches_pyprima(n, seed, spoil):
    for jdrop in range(n + 1):  # n: the pole itself moves by d
        sim, simi, fval = spoiled_simplex(n, seed + 100 * jdrop, spoil)
        rng = np.random.default_rng(seed)
        d, f = rng.normal(size=n), float(fval.min() + rng.normal())
        ref_sim, ref_simi, ref_fval, _, _, info = update.updatexfc(
            jdrop, np.zeros(0), port.EPS, 0.0, d, f, fval=fval.copy(), sim=sim.copy(),
            simi=simi.copy(), **no_constraints(n))
        simi, ok = port._updatexfc(jdrop, d, f, fval, sim[:, :n], sim[:, n], simi, np.eye(n))
        assert_same_simplex((fval, sim, simi), ok, (ref_fval, ref_sim, ref_simi), info)


@pytest.mark.parametrize("spoil", ("exact", "nan"))
@pytest.mark.parametrize("n, seed", [(1, 13), (2, 14), (3, 15), (5, 16), (8, 17)])
def test_setdrop_tr_matches_pyprima(n, seed, spoil):
    sim, simi, _ = spoiled_simplex(n, seed, spoil)
    rng = np.random.default_rng(seed)
    for ximproved in (True, False):
        for d, delta, rho in [(rng.normal(size=n), 1.0, 0.5), (1e-3 * rng.normal(size=n), 0.1, 0.1),
                              (np.zeros(n), 1.0, 1.0)]:
            ref = geometry.setdrop_tr(ximproved, d, delta, rho, sim, simi)
            assert port._setdrop_tr(ximproved, d, delta, rho, sim[:, :n], simi) == ref


def gradients(n, rng):
    g = rng.normal(size=n)
    sparse, noisy, nan_first, nan_last = g.copy(), g.copy(), g.copy(), 1e13 * g
    sparse[::2] = 0.0
    noisy[n // 2] = 1e-17 * g[0]  # rounding noise next to g[0]: isminor
    nan_first[0] = math.nan  # Python's max keeps a NaN met first ...
    nan_last[-1] = math.nan  # ... and skips one met later, so this g is scaled
    return [g, 1e-200 * g, 1e13 * g, 1e300 * g, sparse, noisy, np.zeros(n), nan_first, nan_last]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 24])
def test_trstlp_matches_pyprima(n):
    for g in gradients(n, np.random.default_rng(n)):
        for delta in (1.0, 1e-3):
            ref = trustregion.trstlp(np.zeros((n, 0)), np.zeros(0), delta, g.copy())
            assert np.array_equal(port._trstlp(g, delta, np.eye(n)), ref, equal_nan=True)


@pytest.mark.parametrize("n, seed", [(2, 2), (3, 6), (5, 3), (8, 4)])
def test_damaging_rounding_matches_pyprima(n, seed):
    # singular values from 1 down to 1e-17: neither the stored inverse nor
    # np.linalg.inv passes the check, so both refuse the simplex
    for stays in (True, False):
        sim, simi, fval = spoiled_simplex(n, seed, "damaged")
        fval[n] = fval.min() - 1 if stays else fval.max() + 1
        *_, info = update.updatepole(port.EPS, fval=fval.copy(), sim=sim.copy(), simi=simi.copy(),
                                     **no_constraints(n))
        if stays:
            _, ok = port._settle(simi, sim[:, :n], np.eye(n))
        else:
            _, ok = port._updatepole(fval, sim[:, :n], sim[:, n], simi, np.eye(n))
        assert info != 0 and not ok


def test_singular_simplex_keeps_the_stored_inverse_and_its_verdict():
    # np.linalg.inv raises on an exactly singular simplex; the stored inverse
    # and its error stand, so a bad one is a damaging-rounding stop, not a raise
    simi = 5 * np.eye(2)
    checked, ok = port._settle(simi, np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))
    assert checked is simi and not ok
    simi = np.eye(2)
    checked, ok = port._settle(simi, np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2))
    assert checked is simi and ok
