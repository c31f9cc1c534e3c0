import decimal
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcasimir.chiral import (
    REFERENCE_ETA,
    REFERENCE_GROUND_ENERGY,
    REFERENCE_SITES,
    REFERENCE_SUBTRACTION,
    SCALE_CONSTANT,
    CalibrationError,
    ChiralSystem,
    bulk_density,
    calibrate_scale_constant,
    chiral_casimir,
    continuum_casimir_target,
    dirac_sea_energy,
    dispersion,
    dispersion_table,
    jordan_wigner_hamiltonian,
    kinetic_block,
    reference_system,
    single_particle_matrix,
    wilson_block,
)
from ringcasimir.hamiltonian import CapacityError
from ringcasimir.operators import fermion_lower, hermitian_eigen
from ringcasimir.pauli import decompose

# The printed 6x6 blocks of the ring Hamiltonian.
KINETIC_6 = np.array(
    [
        [0, -1j, 0, 0, 0, 1j],
        [1j, 0, -1j, 0, 0, 0],
        [0, 1j, 0, -1j, 0, 0],
        [0, 0, 1j, 0, -1j, 0],
        [0, 0, 0, 1j, 0, -1j],
        [-1j, 0, 0, 0, 1j, 0],
    ]
)
WILSON_6 = np.array(
    [
        [2, -1, 0, 0, 0, -1],
        [-1, 2, -1, 0, 0, 0],
        [0, -1, 2, -1, 0, 0],
        [0, 0, -1, 2, -1, 0],
        [0, 0, 0, -1, 2, -1],
        [-1, 0, 0, 0, -1, 2],
    ]
)


def oracle_sea(L, eta, scale=1.0):
    """Per-momentum closed form, independent of matrix diagonalization."""
    total = 0.0
    for k in range(L):
        p = 2.0 * math.pi * k / L
        a = 2.0 * math.sin(p)
        b = 2.0 - 2.0 * math.cos(p)
        lam = ((1.0 - eta) * a - math.sqrt((1.0 + eta) ** 2 * a * a + 4.0 * b * b)) / 2.0
        if lam < -1e-12:
            total += lam
    return scale * total


def test_blocks_match_printed_matrices():
    assert np.array_equal(kinetic_block(6), KINETIC_6)
    assert np.array_equal(wilson_block(6), WILSON_6)


def test_kinetic_block_circulant_spectrum():
    for L in (2, 5, 6, 9):
        expected = np.sort([2.0 * math.sin(2.0 * math.pi * k / L) for k in range(L)])
        assert np.allclose(np.sort(np.linalg.eigvalsh(kinetic_block(L))), expected, atol=1e-9)


def test_wilson_block_circulant_spectrum():
    for L in (2, 6, 11):
        expected = np.sort([2.0 - 2.0 * math.cos(2.0 * math.pi * k / L) for k in range(L)])
        got = np.sort(np.linalg.eigvalsh(wilson_block(L)))
        assert np.allclose(got, expected, atol=1e-9)
        assert np.all(got >= -1e-12)


def test_single_particle_matrix_structure():
    system = ChiralSystem(6, 1.0)
    t = single_particle_matrix(system)
    assert t.shape == (12, 12)
    assert np.max(np.abs(t - t.conj().T)) < 1e-12
    assert abs(np.trace(t)) < 1e-12
    # eta = 1: spectrum symmetric about zero
    ev = np.sort(hermitian_eigen(t))
    assert np.max(np.abs(ev + ev[::-1])) < 1e-10


@pytest.mark.parametrize("L", [2, 6, 17, 64])
def test_eta_one_spectrum_symmetry(L):
    ev = np.sort(hermitian_eigen(single_particle_matrix(ChiralSystem(L, 1.0))))
    assert np.max(np.abs(ev + ev[::-1])) < 1e-10


def test_dispersion_closed_form_points():
    p0 = dispersion(0.0, 7.0)
    assert p0.lambda_minus == pytest.approx(0.0, abs=1e-12)
    assert p0.lambda_plus == pytest.approx(0.0, abs=1e-12)
    mid = dispersion(math.pi, 1.0)
    assert mid.lambda_minus == pytest.approx(-4.0)
    assert mid.lambda_plus == pytest.approx(4.0)
    quarter = dispersion(math.pi / 2.0, 1.0)
    assert quarter.lambda_minus == pytest.approx(-2.0 * math.sqrt(2.0))
    assert quarter.lambda_plus == pytest.approx(2.0 * math.sqrt(2.0))
    zero = dispersion(0.0, 1e160)
    assert zero.lambda_minus == 0.0 and zero.lambda_plus == 0.0
    # The small branch tends to (eta a^2 + b^2) / (eta a) -> a = 2 sin p = sqrt(3).
    far = dispersion(2.0 * math.pi / 3.0, 1e160)
    assert far.lambda_plus == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert far.lambda_minus == pytest.approx(-math.sqrt(3.0) * 1e160, rel=1e-15)


def exact_branches(p, eta):
    """Both branches at 400 digits, from the same float a(p) and b(p) as
    :func:`dispersion` and without its rewrite of the smaller root."""
    with decimal.localcontext(prec=400):
        a, b, eta = Decimal(2.0 * math.sin(p)), Decimal(2.0 - 2.0 * math.cos(p)), Decimal(eta)
        u, root = (1 - eta) * a, ((1 + eta) ** 2 * a * a + 4 * b * b).sqrt()
        return (u - root) / 2, (u + root) / 2


@pytest.mark.parametrize("eta", [10.0, 1e8, 1e160])
def test_dispersion_within_three_ulps_on_the_readme_grid(eta):
    # The README's 14 ring momenta and 256 dense ones.  Solving for both
    # roots as (u -+ root)/2 lost the small one to cancellation: 8.6 ulp at
    # eta = 10, 8e7 ulp at 1e8.
    momenta = [2.0 * math.pi * k / n for n in (14, 256) for k in range(n)]
    for p in momenta:
        point = dispersion(p, eta)
        for value, exact in zip((point.lambda_minus, point.lambda_plus), exact_branches(p, eta)):
            assert abs(Decimal(value) - exact) <= 3 * Decimal(math.ulp(float(exact)))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 2.0 * math.pi), st.floats(1.0, 20.0))
def test_dispersion_branch_order(p, eta):
    point = dispersion(p, eta)
    assert point.lambda_minus <= point.lambda_plus + 1e-12


@pytest.mark.parametrize("L,eta", [(6, 1.0), (6, 5.0), (14, 10.0), (32, 2.5)])
def test_dispersion_table_matches_spectrum(L, eta):
    system = ChiralSystem(L, eta)
    table = dispersion_table(system)
    assert len(table) == L
    branch_values = np.sort(
        [v for pt in table for v in (pt.lambda_minus, pt.lambda_plus)]
    )
    ev = np.sort(hermitian_eigen(single_particle_matrix(system)))
    assert np.max(np.abs(branch_values - ev)) < 1e-9


@pytest.mark.parametrize("eta", [1e160, 1e200, 1e300])
def test_dispersion_table_matches_spectrum_at_huge_eta(eta):
    system = ChiralSystem(6, eta)
    branches = [v for p in dispersion_table(system) for v in (p.lambda_minus, p.lambda_plus)]
    assert all(map(math.isfinite, branches))
    eig = np.linalg.eigvalsh(single_particle_matrix(system))
    assert np.max(np.abs(np.sort(branches) - eig)) <= 5e-16 * np.max(np.abs(eig))


def test_eta_one_branches_opposite():
    system = ChiralSystem(6, 1.0)
    for pt in dispersion_table(system):
        assert pt.lambda_minus == pytest.approx(-pt.lambda_plus, abs=1e-12)


@pytest.mark.parametrize("L,eta", [(6, 5.0), (14, 10.0)])
def test_left_movers_gapped_above_right_movers(L, eta):
    table = dispersion_table(ChiralSystem(L, eta))
    right = [pt.lambda_plus for pt in table if 0.0 < pt.momentum <= math.pi + 1e-12]
    left = [pt.lambda_plus for pt in table if pt.momentum > math.pi + 1e-12]
    assert min(left) > max(right)


def test_dirac_sea_simple():
    assert dirac_sea_energy(np.diag([-1.0, 2.0])) == -1.0
    assert dirac_sea_energy(np.diag([0.0, 1e-14, 3.0])) == 0.0
    with pytest.raises(ValueError):
        dirac_sea_energy(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dirac_sea_wilson_l6():
    t = single_particle_matrix(ChiralSystem(6, 1.0))
    sea = dirac_sea_energy(t)
    assert sea == pytest.approx(-14.9282, abs=5e-5)
    assert sea == pytest.approx(-2 * 2.0 - 2 * math.sqrt(12.0) - 4.0, rel=1e-12)
    assert sea == pytest.approx(oracle_sea(6, 1.0), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 40), st.floats(1.0, 15.0))
def test_dirac_sea_matches_momentum_oracle(L, eta):
    sea = dirac_sea_energy(single_particle_matrix(ChiralSystem(L, eta)))
    assert sea == pytest.approx(oracle_sea(L, eta), rel=1e-10, abs=1e-9)


def test_bulk_density_eta_one_quadrature_vs_lattice_limit():
    bulk = bulk_density(1.0)
    from scipy.integrate import quad

    direct, _ = quad(
        lambda p: -math.sqrt(4.0 * math.sin(p) ** 2 + (2.0 - 2.0 * math.cos(p)) ** 2),
        0.0,
        2.0 * math.pi,
        epsabs=1e-12,
        limit=300,
    )
    assert bulk == pytest.approx(direct / (2.0 * math.pi), abs=1e-9)
    # lattice extrapolation oracle
    assert oracle_sea(512, 1.0) / 512 == pytest.approx(bulk, abs=1e-4)


def quad_bulk_density(eta):
    """The adaptive quadrature that bulk_density once ran, kept as an oracle."""
    from scipy.integrate import quad

    value, _ = quad(
        lambda p: dispersion(p, eta).lambda_minus,
        0.0, 2.0 * math.pi, epsabs=1e-10, epsrel=1e-12, limit=400,
    )
    return value / (2.0 * math.pi)


@pytest.mark.parametrize(
    "eta", [1.0, 1.0 + 2.0**-52, 1.0001, 1.5, 2.0, 5.0, 10.0, 50.0, 100.0, 1e3, 1e4]
)
def test_bulk_density_closed_form_matches_quadrature(eta):
    oracle = quad_bulk_density(eta)
    assert abs(bulk_density(eta) - oracle) <= 4 * math.ulp(oracle)


def test_bulk_density_eta_one_is_minus_eight_over_pi():
    assert bulk_density(1.0) == -8.0 / math.pi


def test_bulk_density_is_finite_at_huge_eta():
    eta = 1e160
    value = bulk_density(eta)
    assert math.isfinite(value)
    assert value == pytest.approx(-(2.0 / math.pi) * (1.0 + eta), rel=1e-15)


def test_import_loads_no_quadrature_optimizer_or_sparse():
    # Only vqe.minimize and the CSR form of a non-diagonal spec import these.
    src = Path(__file__).resolve().parent.parent / "src"
    modules = ("scipy.integrate", "scipy.optimize", "scipy.sparse")
    code = f"import ringcasimir, sys; print(*(m in sys.modules for m in {modules}))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=os.environ | {"PYTHONPATH": str(src)},
    ).stdout
    assert out.split() == ["False"] * len(modules)


def test_cli_import_loads_no_scipy():
    # The CLI imports scipy only to write its version into a manifest.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import ringcasimir.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=os.environ | {"PYTHONPATH": str(src)},
    ).stdout
    assert out == "[]\n"


def test_bulk_density_grows_with_eta():
    assert bulk_density(10.0) < bulk_density(2.0) < bulk_density(1.0) < 0.0


def test_bulk_convergence_rate():
    for eta in (1.0, 10.0):
        bulk = bulk_density(eta)
        residuals = {L: abs(oracle_sea(L, eta) / L - bulk) for L in (10, 20, 40)}
        assert 3.0 < residuals[10] / residuals[20] < 5.0
        assert 3.0 < residuals[20] / residuals[40] < 5.0


def test_chiral_casimir_subtraction():
    system = ChiralSystem(6, 1.0)
    sea = dirac_sea_energy(single_particle_matrix(system))
    assert chiral_casimir(system, sea) == 0.0
    assert chiral_casimir(system, 0.0) == pytest.approx(sea)


def test_calibration_constant_frozen_value():
    assert calibrate_scale_constant() == pytest.approx(SCALE_CONSTANT, rel=1e-12)


def test_calibration_reproduces_reference_energy():
    system = reference_system(REFERENCE_SITES, REFERENCE_ETA)
    sea = dirac_sea_energy(single_particle_matrix(system))
    assert sea == pytest.approx(REFERENCE_GROUND_ENERGY, abs=1e-9)


@pytest.mark.parametrize("reference", [-1e7, -12345678.9])
def test_calibration_reproduces_any_reference(reference):
    constant = calibrate_scale_constant(reference_energy=reference)
    raw = dirac_sea_energy(single_particle_matrix(ChiralSystem(REFERENCE_SITES, REFERENCE_ETA)))
    assert (constant / REFERENCE_SITES) * raw == pytest.approx(reference, rel=1e-15)


def test_calibration_failure_is_loud():
    with pytest.raises(CalibrationError):
        calibrate_scale_constant(reference_energy=+1.0)


def test_reference_casimir_near_continuum_target():
    system = reference_system(REFERENCE_SITES, REFERENCE_ETA)
    casimir = chiral_casimir(system, REFERENCE_SUBTRACTION)
    target = continuum_casimir_target(REFERENCE_SITES)
    assert target == pytest.approx(2.0 * math.pi / 294.0, rel=1e-14)
    assert casimir == pytest.approx(target, rel=1e-3)


def test_jw_trivial_two_modes():
    spec = jordan_wigner_hamiltonian(np.diag([-1.0, 2.0]))
    assert spec.qubits == 2
    assert spec.ground_energy() == pytest.approx(-1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_jw_matches_dense_operator_construction(n, seed):
    # oracle: assemble sum t_jk c_j^dag c_k from the dense Jordan-Wigner
    # operators directly, for random Hermitian t with complex hops, nonzero
    # real diagonals and some zero entries; the written Pauli sum must match
    # its decomposition string for string
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    t = (a + a.conj().T) / 2
    zeros = rng.random((n, n)) < 0.3
    t[zeros | zeros.T] = 0.0
    ops = [fermion_lower(i, n) for i in range(1, n + 1)]
    dense = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(n):
        for k in range(n):
            dense += t[j, k] * (ops[j].conj().T @ ops[k])
    spec = jordan_wigner_hamiltonian(t)
    assert np.max(np.abs(spec.as_matrix() - dense)) <= 1e-12
    assert spec.diagonal is None
    written = {s: c for c, s in spec.pauli.terms}
    oracle = {s: c for c, s in decompose(dense).terms}
    assert written.keys() == oracle.keys()
    assert all(abs(written[s] - oracle[s]) <= 1e-12 for s in oracle)
    assert all(c != 0.0 for c in written.values())


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("eta", [1.0, 10.0])
def test_jw_chiral_sum_equals_decomposed_matrix(L, eta):
    # pins shot mode, which samples the terms of as_pauli()
    spec = jordan_wigner_hamiltonian(single_particle_matrix(ChiralSystem(L, eta)))
    assert spec.pauli == decompose(spec.as_matrix())


def test_single_particle_matrix_capacity():
    with pytest.raises(CapacityError):
        single_particle_matrix(ChiralSystem(2049, 10.0))


@pytest.mark.parametrize("L,eta", [(2, 1.0), (2, 10.0), (3, 10.0)])
def test_jw_ground_equals_dirac_sea(L, eta):
    t = single_particle_matrix(ChiralSystem(L, eta))
    spec = jordan_wigner_hamiltonian(t)
    assert spec.ground_energy() == pytest.approx(dirac_sea_energy(t), abs=1e-9)


def test_jw_takes_imaginary_diagonal_within_tolerance():
    t = np.diag([1.0, -1.0, 0.5]) + 5e-11j * np.eye(3)
    spec = jordan_wigner_hamiltonian(t)
    assert abs(spec.ground_energy() - dirac_sea_energy(t)) <= 1e-12


def test_jw_capacity():
    with pytest.raises(CapacityError):
        jordan_wigner_hamiltonian(np.eye(14))


def test_chiral_system_validation():
    for block in (kinetic_block, wilson_block):
        with pytest.raises(ValueError, match="sites must be >= 2, got 1"):
            block(1)
    with pytest.raises(ValueError):
        ChiralSystem(1, 1.0)
    for sites in (0, 1, -3):
        with pytest.raises(ValueError, match=rf"^sites must be >= 2, got {sites}$"):
            reference_system(sites, 10.0)
    with pytest.raises(ValueError):
        ChiralSystem(6, 0.5)
    with pytest.raises(ValueError):
        ChiralSystem(6, 1.0, scale=0.0)
    with pytest.raises(ValueError):
        bulk_density(10.0, scale=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ChiralSystem(6, bad)
        with pytest.raises(ValueError, match="finite"):
            ChiralSystem(6, 1.0, scale=bad)
        with pytest.raises(ValueError, match="finite"):
            bulk_density(bad)
        with pytest.raises(ValueError, match="finite"):
            bulk_density(10.0, scale=bad)


def test_chiral_vqe_small_instance():
    from ringcasimir.vqe import Optimizer, VqeConfig, run_vqe

    t = single_particle_matrix(ChiralSystem(2, 10.0))
    spec = jordan_wigner_hamiltonian(t)
    exact = dirac_sea_energy(t)
    cfg = VqeConfig(
        depth=3, optimizer=Optimizer.QUADRATIC, max_iterations=600,
        tolerance=1e-12, seed=3, ansatz="ry-rz", init_spread=np.pi,
    )
    result = run_vqe(spec, cfg)
    assert result.energy >= exact - 1e-9
    assert abs(result.energy - exact) / abs(exact) < 1e-3
