"""Independent reference values the benchmark checks every task against.

Nothing here calls into ``ringcasimir``: mode sums use the closed-form sine
sum, ring Pauli decompositions are written down from the number-operator
algebra, the chiral Dirac sea is the negative part of ``eigvalsh`` of a
2L x 2L matrix built here, and the bulk density is a fine periodic
trapezoid sum of the closed-form lower branch.
"""

from __future__ import annotations

import math

import numpy as np

FAMILIES = ("boson-periodic", "boson-twisted", "fermion-periodic", "fermion-twisted")
ALL_FAMILIES = FAMILIES + ("combined-periodic", "combined-twisted")

# Largest ring register that ring_hamiltonian builds (qubits).
RING_QUBITS = 16
_QUBITS_PER_MODE = {"boson": 2, "fermion": 1, "combined": 3}


class CheckFailed(AssertionError):
    """A task's output disagrees with its oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(value: float, reference: float, tol: float, what: str) -> None:
    """Relative closeness with an absolute floor of ``tol``."""
    gap = abs(value - reference)
    require(gap <= tol * max(1.0, abs(reference)),
            f"{what}: {value!r} vs oracle {reference!r} (gap {gap:.3e})")


def ring_qubits(label: str, sites: int) -> int:
    return _QUBITS_PER_MODE[label.split("-")[0]] * sites


def max_ring_sites(label: str) -> int:
    return RING_QUBITS // _QUBITS_PER_MODE[label.split("-")[0]]


def _constituents(label: str):
    statistics, boundary = label.split("-")
    if statistics == "combined":
        return (f"boson-{boundary}", f"fermion-{boundary}")
    return (label,)


def mode_frequencies(label: str, sites: int) -> np.ndarray:
    """Frequencies of modes 1..N of a boson or fermion family."""
    statistics, boundary = label.split("-")
    prefactor = (8.0 if statistics == "boson" else 32.0) / (2 * sites + 1)
    shift = 0.0 if boundary == "periodic" else 0.5
    i = np.arange(1, sites + 1)
    return prefactor * 2.0 * np.sin(2.0 * np.pi * (i + shift) / (4 * sites + 2))


def raw_mode_sum(label: str, sites: int) -> float:
    """+1/2 sum(omega) for bosons, -1/2 sum(omega) for fermions, by the
    closed form sum_{i=1}^N sin(a + i d) = sin(N d/2) sin(a + (N+1) d/2) / sin(d/2)."""
    total = 0.0
    for member in _constituents(label):
        statistics, boundary = member.split("-")
        prefactor = (8.0 if statistics == "boson" else 32.0) / (2 * sites + 1)
        d = 2.0 * math.pi / (4 * sites + 2)
        a = (0.0 if boundary == "periodic" else 0.5) * d
        sines = math.sin(sites * d / 2) * math.sin(a + (sites + 1) * d / 2) / math.sin(d / 2)
        total += (1.0 if statistics == "boson" else -1.0) * prefactor * sines
    return total


def subtraction(label: str) -> float:
    return {"boson": -8.0 / math.pi, "fermion": 32.0 / math.pi,
            "combined": 24.0 / math.pi}[label.split("-")[0]]


def casimir(label: str, sites: int) -> float:
    return raw_mode_sum(label, sites) + subtraction(label)


def ring_pauli_terms(label: str, sites: int, shift: float = 0.0) -> dict:
    """Exact {string: coefficient} of the diagonal ring Hamiltonian.

    A boson mode omega (n + 1/2) with n = 2 b_hi + b_lo and b = (1 - Z)/2 is
    2 omega I - omega Z_hi - omega/2 Z_lo; a fermion mode omega (n - 1/2) is
    -omega/2 Z.  Mode 1 sits in the leftmost slot, bosons before fermions.
    """
    qubits = ring_qubits(label, sites)
    terms = {}
    identity = shift
    slot = 0
    for member in _constituents(label):
        boson = member.startswith("boson")
        for omega in mode_frequencies(member, sites):
            if boson:
                identity += 2.0 * omega
                weights = (-omega, -omega / 2.0)
            else:
                weights = (-omega / 2.0,)
            for w in weights:
                terms["I" * slot + "Z" + "I" * (qubits - slot - 1)] = float(w)
                slot += 1
    if abs(identity) > 1e-9:
        terms["I" * qubits] = identity
    return terms


def check_ring_pauli(psum, label: str, sites: int, shift: float = 0.0) -> None:
    expected = ring_pauli_terms(label, sites, shift)
    got = {letters: c for c, letters in psum.terms}
    require(psum.qubits == ring_qubits(label, sites), f"{label} N={sites}: qubit count {psum.qubits}")
    require(set(got) == set(expected),
            f"{label} N={sites}: strings differ: {sorted(set(got) ^ set(expected))[:4]}")
    for letters, c in expected.items():
        close(got[letters], c, 1e-11, f"{label} N={sites} coefficient of {letters}")


def term_count(label: str, sites: int):
    """Terms of the ring Hamiltonian with its subtraction folded in, or None
    past the ring register cap."""
    if ring_qubits(label, sites) > RING_QUBITS:
        return None
    return len(ring_pauli_terms(label, sites, subtraction(label)))


def chiral_matrix(sites: int, eta: float, scale: float = 1.0) -> np.ndarray:
    """scale * [[K, W], [W^dag, -eta K]] with ring-summed hopping bonds."""
    k = np.zeros((sites, sites), dtype=complex)
    w = 2.0 * np.eye(sites, dtype=complex)
    for j in range(sites):
        nxt = (j + 1) % sites
        k[nxt, j] += 1j
        k[j, nxt] -= 1j
        w[nxt, j] -= 1.0
        w[j, nxt] -= 1.0
    return scale * np.block([[k, w], [w.conj().T, -eta * k]])


def dirac_sea(sites: int, eta: float, scale: float = 1.0) -> float:
    """Sum of the negative eigenvalues of the 2L x 2L single-particle matrix."""
    ev = np.linalg.eigvalsh(chiral_matrix(sites, eta, scale))
    return float(ev[ev < -1e-12].sum())


def branches(p: np.ndarray, eta: float, scale: float = 1.0):
    a = 2.0 * np.sin(p)
    b = 2.0 - 2.0 * np.cos(p)
    root = np.sqrt((1.0 + eta) ** 2 * a * a + 4.0 * b * b)
    return scale * ((1.0 - eta) * a - root) / 2.0, scale * ((1.0 - eta) * a + root) / 2.0


def bulk_density(eta: float, points: int = 1 << 16) -> float:
    """Brillouin-zone mean of the lower branch by a periodic trapezoid sum.

    The integrand has a kink at p = 0, so the error is O(points^-2), about
    1e-9 at the default grid.
    """
    p = 2.0 * np.pi * np.arange(points) / points
    return float(np.mean(branches(p, eta)[0]))
