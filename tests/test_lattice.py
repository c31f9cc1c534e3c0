import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcasimir.hamiltonian import CapacityError
from ringcasimir.lattice import (
    Boundary,
    ModeFamily,
    Statistics,
    casimir_exact,
    continuum_density,
    coupling_matrix,
    large_n_series,
    mode_frequency,
    mode_hamiltonian,
    mode_sum_energy,
    percent_difference,
    ring_hamiltonian,
    subtraction_constant,
)
from ringcasimir.lattice import _SERIES

BP = lambda n: ModeFamily(Statistics.BOSON, Boundary.PERIODIC, n)
BT = lambda n: ModeFamily(Statistics.BOSON, Boundary.TWISTED, n)
FP = lambda n: ModeFamily(Statistics.FERMION, Boundary.PERIODIC, n)
FT = lambda n: ModeFamily(Statistics.FERMION, Boundary.TWISTED, n)
CP = lambda n: ModeFamily(Statistics.COMBINED, Boundary.PERIODIC, n)

# Published 4-decimal reference energies, indexed by N = 1..8.
TABLE = {
    "boson-periodic": [-0.2371, -0.0843, -0.0429, -0.0259, -0.0173, -0.0124, -0.0093, -0.0073],
    "boson-twisted": [0.1202, 0.3479, 0.3386, 0.3031, 0.2688, 0.2397, 0.2156, 0.1955],
    "fermion-periodic": [0.9483, 0.3373, 0.1715, 0.1036, 0.0693, 0.0496, 0.0373, 0.029],
    "fermion-twisted": [-0.4808, -1.3918, -1.3545, -1.2123, -1.0752, -0.9589, -0.8623, -0.782],
}


def oracle_frequency(stat, bc, n, i):
    s = 8.0 / (2 * n + 1) if stat == "b" else 32.0 / (2 * n + 1)
    shift = 0.0 if bc == "p" else 0.5
    return s * 2.0 * math.sin(2.0 * math.pi * (i + shift) / (4 * n + 2))


def test_mode_frequency_values():
    assert mode_frequency(BP(1), 1) == pytest.approx(
        (8 / 3) * 2 * math.sin(math.pi / 3), abs=1e-12
    )
    assert mode_frequency(BP(1), 1) == pytest.approx(4.618802, abs=1e-6)
    assert mode_frequency(BT(2), 1) == pytest.approx(1.6 * 2 * math.sin(3 * math.pi / 10), abs=1e-12)
    assert mode_frequency(BT(2), 1) == pytest.approx(2.588854, abs=1e-6)
    assert mode_frequency(FP(1), 1) == pytest.approx(4 * mode_frequency(BP(1), 1), abs=1e-12)
    assert mode_frequency(FP(1), 1) == pytest.approx(18.475209, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.data())
def test_mode_frequency_positive_and_matches_oracle(n, data):
    i = data.draw(st.integers(1, n))
    for fam, stat, bc in ((BP(n), "b", "p"), (BT(n), "b", "t"), (FP(n), "f", "p"), (FT(n), "f", "t")):
        w = mode_frequency(fam, i)
        assert w > 0.0
        assert w == pytest.approx(oracle_frequency(stat, bc, n, i), rel=1e-14)


def test_mode_frequency_range_errors():
    with pytest.raises(ValueError):
        mode_frequency(BP(3), 0)
    with pytest.raises(ValueError):
        mode_frequency(BP(3), 4)
    with pytest.raises(ValueError):
        mode_frequency(CP(3), 1)


def test_subtraction_constants():
    assert subtraction_constant(Statistics.BOSON) == -8.0 / math.pi
    assert subtraction_constant(Statistics.FERMION) == 32.0 / math.pi
    assert subtraction_constant(Statistics.COMBINED) == 24.0 / math.pi
    assert subtraction_constant(Statistics.COMBINED) == pytest.approx(
        subtraction_constant(Statistics.BOSON) + subtraction_constant(Statistics.FERMION)
    )


def test_mode_sum_examples():
    assert mode_sum_energy(BP(1)) == pytest.approx(2.309401, abs=1e-6)
    # oracle: direct two-mode evaluation
    w1 = oracle_frequency("b", "p", 2, 1)
    w2 = oracle_frequency("b", "p", 2, 2)
    assert mode_sum_energy(BP(2)) == pytest.approx(0.5 * (w1 + w2), rel=1e-14)
    assert mode_sum_energy(FP(2)) == pytest.approx(-4.0 * mode_sum_energy(BP(2)), rel=1e-14)


@pytest.mark.parametrize("label", sorted(TABLE))
def test_casimir_exact_reproduces_tables(label):
    for n in range(1, 9):
        family = ModeFamily.from_label(label, n)
        assert casimir_exact(family) == pytest.approx(TABLE[label][n - 1], abs=5e-5)


def test_fermion_boson_ratio_exact():
    for bc in (Boundary.PERIODIC, Boundary.TWISTED):
        for n in range(1, 33):
            b = casimir_exact(ModeFamily(Statistics.BOSON, bc, n))
            f = casimir_exact(ModeFamily(Statistics.FERMION, bc, n))
            assert abs(f + 4.0 * b) <= 1e-12


def test_combined_is_sum_of_constituents():
    for n in (1, 2, 5):
        combined = casimir_exact(CP(n))
        assert combined == pytest.approx(casimir_exact(BP(n)) + casimir_exact(FP(n)), rel=1e-14)
        assert combined == pytest.approx(-3.0 * casimir_exact(BP(n)), rel=1e-12)


def test_combined_family_is_its_members_in_register_order():
    # bit for bit: the raw sum adds the boson, then the fermion half-sum to 0
    for bc in (Boundary.PERIODIC, Boundary.TWISTED):
        for n in (1, 2, 5, 64):
            b, f, c = (ModeFamily(s, bc, n) for s in Statistics)
            assert mode_sum_energy(c) == 0 + mode_sum_energy(b) + mode_sum_energy(f)
            assert c.qubits == b.qubits + f.qubits == 3 * n
    assert subtraction_constant(Statistics.COMBINED).hex() == (24.0 / math.pi).hex()


def test_large_n_series_values():
    assert large_n_series(BP(10), 2) == pytest.approx(-math.pi / 600.0, rel=1e-14)
    assert large_n_series(FP(10), 2) == pytest.approx(4.0 * math.pi / 600.0, rel=1e-14)
    for order in (2, 3, 4):
        for fam in (BP(10), BT(10)):
            ferm = ModeFamily(Statistics.FERMION, fam.boundary, fam.sites)
            assert large_n_series(ferm, order) == pytest.approx(
                -4.0 * large_n_series(fam, order), rel=1e-14
            )
    assert abs(large_n_series(BP(10**6), 4)) < 1e-11


def test_large_n_series_coefficients_bit_for_bit():
    pi = math.pi
    expected = {
        (Statistics.BOSON, Boundary.PERIODIC): (
            -pi / 6.0, pi / 6.0, -(180.0 * pi + pi**3) / 1440.0),
        (Statistics.FERMION, Boundary.PERIODIC): (
            4.0 * pi / 6.0, -4.0 * pi / 6.0, 4.0 * (180.0 * pi + pi**3) / 1440.0),
        (Statistics.BOSON, Boundary.TWISTED): (
            pi / 12.0, -pi / 12.0, pi / 16.0 - 7.0 * pi**3 / 11520.0),
        (Statistics.FERMION, Boundary.TWISTED): (
            -4.0 * pi / 12.0, 4.0 * pi / 12.0, -4.0 * (pi / 16.0 - 7.0 * pi**3 / 11520.0)),
    }
    hexed = lambda table: {key: [c.hex() for c in row] for key, row in table.items()}
    assert hexed(_SERIES) == hexed(expected)


def test_large_n_series_periodic_matches_exact():
    # the periodic expansions track the exact lattice sums at O(1/N^5)
    for fam in (BP(100), FP(100)):
        assert abs(casimir_exact(fam) - large_n_series(fam, 4)) < 1e-8


def test_large_n_series_errors():
    with pytest.raises(ValueError):
        large_n_series(BP(5), 5)
    with pytest.raises(ValueError):
        large_n_series(CP(5), 4)


def test_continuum_density():
    assert continuum_density(BP(1), 1.0) == pytest.approx(-math.pi / 6.0)
    assert continuum_density(FP(1), 1.0) == pytest.approx(4.0 * math.pi / 6.0)
    assert continuum_density(BT(1), 2.0) == pytest.approx(math.pi / 48.0)
    assert continuum_density(FT(1), 1.0) == pytest.approx(-math.pi / 3.0)
    for radius in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            continuum_density(BP(1), radius)
    with pytest.raises(ValueError):
        continuum_density(CP(1), 1.0)


def test_continuum_limit_of_lattice_sum():
    n = 200
    assert n**2 * casimir_exact(BP(n)) == pytest.approx(-math.pi / 6.0, rel=0.01)


def test_mode_hamiltonian_spectra():
    spec = mode_hamiltonian(FP(1), 1)
    w = mode_frequency(FP(1), 1)
    assert np.allclose(spec.diagonal, [-w / 2, w / 2])
    assert spec.qubits == 1

    spec_b = mode_hamiltonian(BP(1), 1)
    wb = mode_frequency(BP(1), 1)
    assert np.allclose(spec_b.diagonal, [wb / 2, 3 * wb / 2, 5 * wb / 2, 7 * wb / 2])
    assert spec_b.ground_energy() == pytest.approx(2.309401, abs=1e-6)
    assert np.allclose(spec_b.as_matrix(), np.diag(spec_b.diagonal))


def test_mode_hamiltonian_refuses_the_combined_family():
    with pytest.raises(ValueError, match="build the boson and fermion modes separately"):
        mode_hamiltonian(CP(2), 1)


def test_ring_hamiltonian_single_mode_equals_mode():
    ring = ring_hamiltonian(BP(1))
    mode = mode_hamiltonian(BP(1), 1)
    assert np.allclose(ring.diagonal, mode.diagonal)


def test_ring_hamiltonian_fermion_two_modes():
    ring = ring_hamiltonian(FP(2))
    w1, w2 = mode_frequency(FP(2), 1), mode_frequency(FP(2), 2)
    assert ring.qubits == 2
    assert ring.ground_energy() == pytest.approx(-(w1 + w2) / 2, rel=1e-14)
    # oracle: direct assembly of the 4x4 diagonal
    expected = np.sort([(a + b) for a in (-w1 / 2, w1 / 2) for b in (-w2 / 2, w2 / 2)])
    assert np.allclose(np.sort(ring.diagonal), expected)


def test_ring_ground_matches_mode_sum():
    for fam in (BP(3), BT(4), FP(6), FT(5), CP(2)):
        assert ring_hamiltonian(fam).ground_energy() == pytest.approx(
            mode_sum_energy(fam), abs=1e-9
        )


def test_ring_table_row_via_spectrum():
    ring = ring_hamiltonian(BP(3))
    energy = ring.ground_energy() + subtraction_constant(Statistics.BOSON)
    assert energy == pytest.approx(-0.0429, abs=5e-5)


def test_ring_capacity():
    with pytest.raises(CapacityError, match="partition"):
        ring_hamiltonian(BP(9))
    with pytest.raises(CapacityError):
        ring_hamiltonian(CP(6))
    assert ring_hamiltonian(FP(16)).qubits == 16


def test_coupling_matrix_small_cases():
    c = coupling_matrix(1, Boundary.PERIODIC)
    assert np.allclose(np.sort(np.linalg.eigvalsh(c)), [0.0, 3.0, 3.0], atol=1e-12)
    ct = coupling_matrix(1, Boundary.TWISTED)
    assert np.allclose(np.sort(np.linalg.eigvalsh(ct)), [1.0, 1.0, 4.0], atol=1e-12)
    s = 8.0 / 3.0
    roots = np.sort(s * np.sqrt(np.maximum(np.linalg.eigvalsh(ct), 0.0)))
    assert np.allclose(roots, [8 / 3, 8 / 3, 16 / 3], atol=1e-9)


def test_coupling_matrix_refuses_empty_ring():
    with pytest.raises(ValueError, match="N must be >= 1, got 0"):
        coupling_matrix(0, Boundary.PERIODIC)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.TWISTED])
def test_coupling_matrix_fourier_equivalence(n, boundary):
    """Scaled eigen-roots reproduce the frequency multiset of the family.

    Periodic: a zero mode plus each of omega_1..omega_N twice.  Twisted: the
    index-0..N-1 frequencies twice plus the unpaired top mode (index N) once,
    which is what the antiperiodic momentum pairing gives.
    """
    s = 8.0 / (2 * n + 1)
    ev = np.linalg.eigvalsh(coupling_matrix(n, boundary))
    ev[np.abs(ev) < 1e-12] = 0.0  # identify the exact zero mode before sqrt
    scaled = np.sort(s * np.sqrt(np.maximum(ev, 0.0)))
    if boundary is Boundary.PERIODIC:
        expected = [0.0] + [oracle_frequency("b", "p", n, i) for i in range(1, n + 1) for _ in (0, 1)]
    else:
        expected = [oracle_frequency("b", "t", n, m) for m in range(n) for _ in (0, 1)]
        expected.append(oracle_frequency("b", "t", n, n))
    assert np.allclose(scaled, np.sort(expected), atol=1e-9)


def test_family_label_round_trip():
    fam = ModeFamily.from_label("fermion-twisted", 4)
    assert fam.statistics is Statistics.FERMION
    assert fam.boundary is Boundary.TWISTED
    assert fam.label == "fermion-twisted"
    assert fam.qubits == 4
    with pytest.raises(ValueError):
        ModeFamily.from_label("anyon-periodic", 2)
    with pytest.raises(ValueError):
        ModeFamily(Statistics.BOSON, Boundary.PERIODIC, 0)


@pytest.mark.parametrize("sites", [0, -1])
def test_family_label_with_bad_sites_names_the_sites(sites):
    with pytest.raises(ValueError, match=rf"^sites must be >= 1, got {sites}$"):
        ModeFamily.from_label("boson-periodic", sites)
    with pytest.raises(ValueError, match="unknown family 'anyon-periodic'"):
        ModeFamily.from_label("anyon-periodic", sites)


def test_percent_difference_sign_convention():
    assert percent_difference(-0.0428, -0.0429) == pytest.approx(-0.23310, abs=1e-4)
    assert math.isnan(percent_difference(1.0, 0.0))
