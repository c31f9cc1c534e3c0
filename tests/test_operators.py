import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcasimir.operators import (
    BOSON_LOWER4,
    FERMION_LOWER2,
    PAULI_X,
    PAULI_Z,
    CapacityError,
    bit_parity,
    boson_lower,
    fermion_lower,
    hermitian_eigen,
    hermiticity_defect,
    kron_chain,
    require_hermitian,
)
from ringcasimir.chiral import (
    ChiralSystem,
    continuum_casimir_target,
    dirac_sea_energy,
    jordan_wigner_hamiltonian,
)
from ringcasimir.hamiltonian import HamiltonianSpec
from ringcasimir.lattice import (
    Boundary,
    ModeFamily,
    Statistics,
    coupling_matrix,
    large_n_series,
    mode_frequency,
)
from ringcasimir.pauli import PauliSum, sampled_expectation
from ringcasimir.vqe import VqeConfig, n_parameters

I2 = np.eye(2)


def test_bit_parity_matches_popcount():
    values = np.array([0, 1, 2, 3, 0b1011, 2**40 + 5, 2**62 + 2**31 + 1], dtype=np.int64)
    assert list(bit_parity(values)) == [bin(int(v)).count("1") % 2 == 1 for v in values]


def test_kron_identity_cases():
    assert np.array_equal(kron_chain([I2, I2]), np.eye(4))
    assert np.array_equal(kron_chain([PAULI_Z, I2]), np.diag([1, 1, -1, -1]).astype(complex))


def test_kron_xx_flips_basis_state():
    # oracle: direct 4x4 matrix-vector product
    xx = kron_chain([PAULI_X, PAULI_X])
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    ket11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(xx @ ket00, ket11)


def test_kron_chain_errors():
    with pytest.raises(ValueError):
        kron_chain([])
    with pytest.raises(ValueError):
        kron_chain([np.ones((2, 3))])
    with pytest.raises(CapacityError):
        kron_chain([np.eye(2)] * 21)


def test_dense_operators_stop_at_the_dense_qubit_cap():
    with pytest.raises(CapacityError):
        kron_chain([np.eye(2)] * 13)
    with pytest.raises(CapacityError):
        boson_lower(1, 7)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_kron_chain_associative(da, db, dc, data):
    def rand(d):
        re = data.draw(
            st.lists(st.floats(-2, 2, allow_nan=False), min_size=d * d, max_size=d * d)
        )
        return np.array(re, dtype=complex).reshape(d, d)

    a, b, c = rand(da), rand(db), rand(dc)
    left = kron_chain([kron_chain([a, b]), c])
    right = kron_chain([a, kron_chain([b, c])])
    assert np.allclose(left, right, atol=1e-12)


def test_boson_lower_single_mode_matrix():
    a = boson_lower(1, 1)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2.0)
    expected[2, 3] = np.sqrt(3.0)
    assert np.array_equal(a, expected)
    assert np.array_equal(BOSON_LOWER4, expected)


def test_boson_number_operator_is_diag_0123():
    a = boson_lower(1, 1)
    assert np.allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0, 3.0]))


def test_boson_number_eigenvalues_two_modes():
    a2 = boson_lower(2, 2)
    n2 = a2.conj().T @ a2
    vals = np.sort(np.linalg.eigvalsh(n2))
    expected = np.sort(np.repeat([0.0, 1.0, 2.0, 3.0], 4))
    assert np.allclose(vals, expected, atol=1e-12)


def test_boson_truncation_commutator_defect():
    # [a, a^dag] = diag(1, 1, 1, -3): the corner-state artifact of the
    # four-level truncation
    a = boson_lower(1, 1)
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(comm, np.diag([1.0, 1.0, 1.0, -3.0]))


def test_boson_modes_commute():
    for n in (2, 3):
        ops = [boson_lower(i, n) for i in range(1, n + 1)]
        for i in range(n):
            for j in range(i + 1, n):
                assert np.allclose(ops[i] @ ops[j] - ops[j] @ ops[i], 0.0, atol=1e-12)
                adj = ops[j].conj().T
                assert np.allclose(ops[i] @ adj - adj @ ops[i], 0.0, atol=1e-12)


def test_fermion_lower_single_mode_matrix():
    c = fermion_lower(1, 1)
    assert np.array_equal(c, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(FERMION_LOWER2, c)


def test_fermion_cross_anticommutator_vanishes():
    c1 = fermion_lower(1, 2)
    c2 = fermion_lower(2, 2)
    anti = c1 @ c2.conj().T + c2.conj().T @ c1
    assert np.allclose(anti, np.zeros((4, 4)))


def test_fermion_total_number_eigenvalues():
    c1 = fermion_lower(1, 2)
    c2 = fermion_lower(2, 2)
    total = c1.conj().T @ c1 + c2.conj().T @ c2
    assert np.allclose(np.sort(np.linalg.eigvalsh(total)), [0.0, 1.0, 1.0, 2.0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_fermion_car_algebra_exact(n):
    ops = [fermion_lower(i, n) for i in range(1, n + 1)]
    eye = np.eye(2**n)
    for i in range(n):
        for j in range(n):
            anti = ops[i] @ ops[j] + ops[j] @ ops[i]
            assert np.max(np.abs(anti)) == 0.0
            mixed = ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]
            target = eye if i == j else np.zeros_like(eye)
            assert np.max(np.abs(mixed - target)) == 0.0


def test_fermion_squares_to_zero():
    for n in (1, 3):
        for i in range(1, n + 1):
            c = fermion_lower(i, n)
            assert np.max(np.abs(c @ c)) == 0.0


def test_mode_index_out_of_range():
    with pytest.raises(ValueError):
        boson_lower(0, 2)
    with pytest.raises(ValueError):
        fermion_lower(3, 2)


def test_sizes_depths_and_budgets_must_be_integers():
    family = ModeFamily(Statistics.BOSON, Boundary.PERIODIC, 3)
    z, zero = PauliSum(1, ((1.0, "Z"),)), np.array([1.0, 0.0])
    cases = [
        (lambda v: ChiralSystem(v), "sites", float("nan")),
        (lambda v: ChiralSystem(v), "sites", 2.5),
        (lambda v: continuum_casimir_target(v), "sites", 2.5),
        (lambda v: ModeFamily(Statistics.BOSON, Boundary.PERIODIC, v), "sites", 2.5),
        (lambda v: PauliSum(v, ()), "qubit count", 2.5),
        (lambda v: HamiltonianSpec(qubits=v, diagonal=[1.0, 2.0]), "qubit count", 1.0),
        (lambda v: n_parameters(v, 1), "qubits", 2.5),
        (lambda v: n_parameters(2, v), "depth", 1.0),
        (lambda v: VqeConfig(depth=v), "depth", 1.5),
        (lambda v: VqeConfig(max_iterations=v), "max_iterations", 2.5),
        (lambda v: VqeConfig(shots=v), "shots", 2.5),
        (lambda v: sampled_expectation(z, zero, v, np.random.default_rng(0)), "shots", 2.5),
        (lambda v: large_n_series(family, v), "order", 2.0),
        (lambda v: coupling_matrix(v, Boundary.PERIODIC), "N", 2.5),
        (lambda v: mode_frequency(family, v), "mode index", 1.5),
        (lambda v: boson_lower(1, v), "n_modes", 2.0),
    ]
    for build, name, value in cases:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            build(value)
        build(np.int64(round(value) if np.isfinite(value) else 3))  # numpy integers pass
    with pytest.raises(ValueError, match=r"^n_modes must be an integer, got 2.5$"):
        boson_lower(0, 2.5)  # the size is checked before the index it bounds


def test_hermitian_eigen_simple_cases():
    assert np.allclose(hermitian_eigen(PAULI_Z), [-1.0, 1.0])
    a = boson_lower(1, 1)
    assert np.allclose(hermitian_eigen(a.conj().T @ a), [0.0, 1.0, 2.0, 3.0])
    # oracle: Bell basis diagonalizes XX + ZZ with eigenvalues -2, 0, 0, 2
    m = kron_chain([PAULI_X, PAULI_X]) + kron_chain([PAULI_Z, PAULI_Z])
    assert np.allclose(hermitian_eigen(m), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_hermitian_eigen_reconstruction_and_trace():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2
    w, v = hermitian_eigen(h, vectors=True)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-9
    assert abs(w.sum() - np.trace(h).real) < 1e-9


def test_hermitian_eigen_deterministic():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2
    w1, v1 = hermitian_eigen(h, vectors=True)
    w2, v2 = hermitian_eigen(h, vectors=True)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_hermitian_eigen_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian.*1"):
        hermitian_eigen(bad)
    assert hermiticity_defect(bad) == 1.0
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("check", [hermiticity_defect, require_hermitian, hermitian_eigen,
                                   dirac_sea_energy, jordan_wigner_hamiltonian])
@pytest.mark.parametrize("shape", [(), (2,), (2, 3), (2, 2, 2)])
def test_non_square_input_is_rejected_with_its_shape(check, shape):
    # 0-D, 1-D and 3-D zeros equal their own transpose, so only the shape
    # check turns them away; a (2, 3) one would fail in M - M^dag unnamed.
    with pytest.raises(ValueError, match=re.escape(f"not square 2-D: shape {shape}")):
        check(np.zeros(shape))
