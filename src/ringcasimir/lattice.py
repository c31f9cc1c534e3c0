"""Lattice ring fields in 1+1 dimensions: mode frequencies, Casimir sums.

A field lives on a ring regulated by ``N`` retained normal modes.  Four
families are supported: boson/fermion statistics crossed with
periodic/twisted (antiperiodic) boundary conditions, plus the combined
boson+fermion system.  Everything is expressed in the dimensionless lattice
units fixed by the family prefactors 8/(2N+1) (bosons) and 32/(2N+1)
(fermions); those prefactors are taken as given and set the ring radius
implicitly.

Conventions:

* mode index runs i = 1..N for every family,
* a mode frequency is ``prefactor * 2 sin(theta_i)`` with
  ``theta_i = 2 pi i / (4N+2)`` (periodic) or ``2 pi (i+1/2) / (4N+2)``
  (twisted),
* the raw vacuum sum is ``+1/2 sum_i omega_i`` for bosons and
  ``-1/2 sum_i omega_i`` for fermions,
* the regularization constant (-8/pi bosons, +32/pi fermions, +24/pi
  combined) is *added* to the raw sum to produce the Casimir energy.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .hamiltonian import CapacityError, HamiltonianSpec, RING_QUBIT_CAP
from .operators import _integer

__all__ = [
    "Statistics",
    "Boundary",
    "ModeFamily",
    "CasimirReport",
    "FAMILY_LABELS",
    "mode_frequency",
    "subtraction_constant",
    "mode_sum_energy",
    "casimir_exact",
    "large_n_series",
    "continuum_density",
    "mode_hamiltonian",
    "ring_hamiltonian",
    "coupling_matrix",
    "percent_difference",
]


class Statistics(enum.Enum):
    BOSON = "boson"
    FERMION = "fermion"
    COMBINED = "combined"


class Boundary(enum.Enum):
    PERIODIC = "periodic"
    TWISTED = "twisted"


@dataclass(frozen=True)
class ModeFamily:
    """One of the ring field families at lattice size ``sites`` (the
    retained-mode count N)."""

    statistics: Statistics
    boundary: Boundary
    sites: int

    def __post_init__(self):
        if _integer(self.sites, "sites") < 1:
            raise ValueError(f"sites must be >= 1, got {self.sites}")

    @property
    def label(self) -> str:
        return f"{self.statistics.value}-{self.boundary.value}"

    @property
    def qubits(self) -> int:
        """Qubits of the assembled ring register, from the table below."""
        return _QUBITS[self.statistics] * self.sites

    @classmethod
    def from_label(cls, label: str, sites: int) -> "ModeFamily":
        try:
            stat_s, bc_s = label.split("-")
            statistics, boundary = Statistics(stat_s), Boundary(bc_s)
        except ValueError:
            raise ValueError(
                f"unknown family {label!r}; expected one of {sorted(FAMILY_LABELS)}"
            ) from None
        return cls(statistics, boundary, sites)


FAMILY_LABELS = tuple(
    f"{s.value}-{b.value}" for s in Statistics for b in Boundary
)


# One rule per statistics: qubits per mode, prefactor numerator over 2N+1, subtraction
# constant, and a mode's levels in units of omega (the lowest is the vacuum share).
_Rule = namedtuple("_Rule", "qubits prefactor subtraction levels")
_RULES = {
    Statistics.BOSON: _Rule(2, 8.0, -8.0 / math.pi, np.arange(4, dtype=float) + 0.5),
    Statistics.FERMION: _Rule(1, 32.0, 32.0 / math.pi, np.arange(2, dtype=float) - 0.5),
}
# Member statistics of each family in register order, and their sums from 0:
# -8/pi + 32/pi rounds to the same double as 24/pi.
_MEMBERS = {s: (s,) for s in _RULES} | {Statistics.COMBINED: tuple(_RULES)}
_QUBITS = {s: sum(_RULES[m].qubits for m in ms) for s, ms in _MEMBERS.items()}
_SUBTRACTION = {s: sum(_RULES[m].subtraction for m in ms) for s, ms in _MEMBERS.items()}


def _modes(family: ModeFamily):
    """(member, i) for every mode, in register order (bosons first)."""
    for statistics in _MEMBERS[family.statistics]:
        member = ModeFamily(statistics, family.boundary, family.sites)
        for i in range(1, family.sites + 1):
            yield member, i


def mode_frequency(family: ModeFamily, i: int) -> float:
    """Frequency of normal mode ``i`` (1-based, i <= sites); strictly positive."""
    if family.statistics is Statistics.COMBINED:
        raise ValueError("combined family: query the boson or fermion constituent")
    if not 1 <= _integer(i, "mode index") <= family.sites:
        raise ValueError(f"mode index {i} outside 1..{family.sites}")
    shift = 0.0 if family.boundary is Boundary.PERIODIC else 0.5
    theta = 2.0 * math.pi * (i + shift) / (4 * family.sites + 2)
    return _RULES[family.statistics].prefactor / (2 * family.sites + 1) * 2.0 * math.sin(theta)


def subtraction_constant(statistics: Statistics) -> float:
    """Signed regularization constant, to be *added* to the raw mode sum."""
    return _SUBTRACTION[statistics]


def mode_sum_energy(family: ModeFamily) -> float:
    """Raw half-sum of mode frequencies, before any subtraction.

    Bosons contribute +omega/2 per mode, fermions -omega/2 (filled Dirac
    sea of the single-mode Hamiltonians).
    """
    sums = dict.fromkeys(_MEMBERS[family.statistics], 0)  # each from 0, as sum() adds
    for member, i in _modes(family):
        sums[member.statistics] += mode_frequency(member, i)
    return sum(float(_RULES[s].levels[0]) * total for s, total in sums.items())


def casimir_exact(family: ModeFamily) -> float:
    """Lattice Casimir energy: raw mode sum plus the family's constant."""
    return mode_sum_energy(family) + subtraction_constant(family.statistics)


# Asymptotic large-N coefficients (c2/N^2 + c3/N^3 + c4/N^4) for each family:
# the fermion rows are -4 times the boson rows, which is exact in binary.
_SERIES = {
    (Statistics.BOSON, Boundary.PERIODIC): (
        -math.pi / 6.0, math.pi / 6.0, -(180.0 * math.pi + math.pi**3) / 1440.0),
    (Statistics.BOSON, Boundary.TWISTED): (
        math.pi / 12.0, -math.pi / 12.0, math.pi / 16.0 - 7.0 * math.pi**3 / 11520.0),
}
_SERIES |= {(Statistics.FERMION, boundary): tuple(-4.0 * c for c in coeffs)
            for (_, boundary), coeffs in _SERIES.items()}


def large_n_series(family: ModeFamily, order: int) -> float:
    """Asymptotic expansion truncated at 1/N^order, order in {2, 3, 4}.

    The fermion coefficients are -4x the boson ones term by term.  Note the
    twisted families' *exact* lattice sums contain a finite-size piece that
    this expansion does not capture; see README.
    """
    if order not in (2, 3, 4):
        raise ValueError(f"order must be 2, 3 or 4, got {order}")
    key = (family.statistics, family.boundary)
    if key not in _SERIES:
        raise ValueError("series is defined for the four boson/fermion families")
    coeffs = _SERIES[key]
    n = family.sites
    return sum(c / n**k for c, k in zip(coeffs[: order - 1], range(2, order + 1)))


def continuum_density(family: ModeFamily, radius: float) -> float:
    """Continuum Casimir energy density on a spatial circle of ``radius``:
    the leading 1/N^2 coefficient of :func:`large_n_series` over radius^2."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    key = (family.statistics, family.boundary)
    if key not in _SERIES:
        raise ValueError("density is defined for the four boson/fermion families")
    return _SERIES[key][0] / radius**2


def mode_hamiltonian(family: ModeFamily, i: int) -> HamiltonianSpec:
    """Single-mode Hamiltonian: omega (n_hat + 1/2) on two qubits for a boson
    mode, omega (n_hat - 1/2) on one qubit for a fermion mode.

    Ground eigenvalue is +omega/2 (boson) or -omega/2 (fermion).
    """
    if family.statistics is Statistics.COMBINED:
        raise ValueError("combined family: build the boson and fermion modes separately")
    rule = _RULES[family.statistics]
    return HamiltonianSpec(qubits=rule.qubits, diagonal=mode_frequency(family, i) * rule.levels)


def ring_hamiltonian(family: ModeFamily) -> HamiltonianSpec:
    """Tensor-assembled sum of the per-mode Hamiltonians, modes 1..N.

    Mode 1 occupies the most significant register slot; for the combined
    family the boson register precedes the fermion register.  Every ring
    Hamiltonian is diagonal, so only the diagonal is stored; the ground
    eigenvalue equals ``mode_sum_energy`` exactly.
    """
    qubits = family.qubits
    if qubits > RING_QUBIT_CAP:
        raise CapacityError(
            f"{family.label} N={family.sites} needs {qubits} qubits "
            f"(cap {RING_QUBIT_CAP}); run per-mode partitioned VQE instead"
        )
    diag = np.zeros(1)
    for member, i in _modes(family):
        diag = np.add.outer(diag, mode_frequency(member, i) * _RULES[member.statistics].levels).ravel()
    return HamiltonianSpec(qubits=qubits, diagonal=diag)


def coupling_matrix(N: int, boundary: Boundary) -> np.ndarray:
    """Second-difference matrix of a scalar ring on 2N+1 sites.

    Diagonal 2, off-diagonals -1; the corner entries are -1 for periodic and
    +1 for twisted boundary conditions.  The square roots of its eigenvalues,
    scaled by the family prefactor, reproduce the mode frequencies by Fourier
    decomposition: each frequency appears twice, alongside a zero mode for
    the periodic ring or the unpaired top mode for the twisted one.
    """
    if _integer(N, "N") < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    m = 2 * N + 1
    c = 2.0 * np.eye(m)
    for j in range(m - 1):
        c[j, j + 1] = c[j + 1, j] = -1.0
    corner = -1.0 if boundary is Boundary.PERIODIC else 1.0
    c[0, m - 1] = c[m - 1, 0] = corner
    return c


@dataclass
class CasimirReport:
    """Exact-versus-VQE summary for one family at one lattice size.

    ``mode_results`` holds the per-mode VQE results in register order.
    """

    family: ModeFamily
    exact_energy: float
    vqe_energy: float
    percent_difference: float
    subtraction: float
    mode_results: list

    @property
    def per_mode_energies(self) -> list:
        return [r.energy for r in self.mode_results]


def percent_difference(vqe_energy: float, exact_energy: float) -> float:
    """Signed relative deviation in percent, denominated by the exact value."""
    if exact_energy == 0.0:
        return math.nan
    return 100.0 * (vqe_energy - exact_energy) / exact_energy
