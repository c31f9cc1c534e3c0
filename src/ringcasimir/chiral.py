"""Chiral fermion regularization on a 1+1-dimensional lattice ring.

A Wilson-regulated fermion on L sites carries two species per site (c and
c-tilde); its quadratic Hamiltonian is H = psi^dag t psi with the 2L x 2L
Hermitian single-particle matrix

    t = scale * [[K, W], [W^dag, -eta * K]]

where K is the nearest-neighbour kinetic block (+i below the diagonal, -i
above, periodically closed) and W the Wilson mass block (2 on the diagonal,
-1 on the off-diagonals and corners).  At eta = 1 this is the ordinary
left/right-symmetric Wilson fermion; raising eta lifts the left-moving
branch so the low-energy theory is chiral.

In momentum space the blocks reduce to a(p) = 2 sin p and b(p) = 2 - 2 cos p
and the two dispersion branches are

    lambda_pm(p) = ((1 - eta) a(p) +- sqrt((1 + eta)^2 a(p)^2 + 4 b(p)^2)) / 2.

The many-body ground state fills every negative single-particle level (the
Dirac sea); the extensive part of that energy per site is the Brillouin-zone
average of the lower branch, exposed here in closed form as
:func:`bulk_density`.

The overall energy normalization is not fixed by the lattice construction
alone.  :func:`calibrate_scale_constant` pins it against the reference
ground energy E0 = -5.55433587 of the 14-site, eta = 10 system, assuming
scale = const / sites; the discovered constant is frozen in
``SCALE_CONSTANT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import CapacityError, HamiltonianSpec
from .operators import DENSE_QUBIT_CAP, _integer, hermitian_eigen, require_hermitian
from .pauli import PauliSum

__all__ = [
    "REFERENCE_SITES",
    "REFERENCE_ETA",
    "REFERENCE_GROUND_ENERGY",
    "REFERENCE_SUBTRACTION",
    "SCALE_CONSTANT",
    "CalibrationError",
    "ChiralSystem",
    "DispersionPoint",
    "kinetic_block",
    "wilson_block",
    "single_particle_matrix",
    "dispersion",
    "dispersion_table",
    "dirac_sea_energy",
    "bulk_density",
    "chiral_casimir",
    "jordan_wigner_hamiltonian",
    "calibrate_scale_constant",
    "reference_system",
    "continuum_casimir_target",
]

# Reference point used to calibrate the overall normalization, and the
# subtraction constant quoted with it (accepted as given; see README).
REFERENCE_SITES = 14
REFERENCE_ETA = 10.0
REFERENCE_GROUND_ENERGY = -5.55433587
REFERENCE_SUBTRACTION = -5.57571769

# Frozen output of calibrate_scale_constant(): with scale = SCALE_CONSTANT /
# sites, the 14-site eta=10 Dirac sea reproduces REFERENCE_GROUND_ENERGY.
SCALE_CONSTANT = 0.7400108005400663


class CalibrationError(RuntimeError):
    """No admissible scale reproduces the reference ground energy."""


def _require_sites(sites: int) -> None:
    if _integer(sites, "sites") < 2:
        raise ValueError(f"sites must be >= 2, got {sites}")


def _require_eta_scale(eta: float, scale: float) -> None:
    if not (math.isfinite(eta) and eta >= 1.0):
        raise ValueError(f"eta must be finite and >= 1, got {eta}")
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale}")


@dataclass(frozen=True)
class ChiralSystem:
    """Lattice chiral fermion: L sites, deformation eta >= 1 (Wilson at
    eta = 1), and an overall energy normalization."""

    sites: int
    eta: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        _require_sites(self.sites)
        _require_eta_scale(self.eta, self.scale)


@dataclass(frozen=True)
class DispersionPoint:
    momentum: float
    lambda_minus: float
    lambda_plus: float


def kinetic_block(sites: int) -> np.ndarray:
    """Antisymmetric hopping block: +i below the diagonal, -i above, with
    corners [0, L-1] = +i and [L-1, 0] = -i closing the ring.

    Built as a ring sum, so at L = 2 the forward and backward bonds share an
    entry and the antisymmetric hopping cancels exactly (spectrum
    2 sin(2 pi k / L) for every L).
    """
    return _ring_block(sites, 0.0, 1j, -1j)


def wilson_block(sites: int) -> np.ndarray:
    """Wilson mass block: 2 on the diagonal, -1 on both off-diagonals and
    both corners (bonds accumulated around the ring); spectrum
    2 - 2 cos(2 pi k / L) >= 0."""
    return _ring_block(sites, 2.0, -1.0, -1.0)


def _ring_block(sites: int, diagonal: float, below: complex, above: complex) -> np.ndarray:
    """``diagonal`` times the identity, plus each ring bond j -> j + 1 added
    as ``below`` at [j + 1, j] and ``above`` at [j, j + 1]."""
    _require_sites(sites)
    block = diagonal * np.eye(sites, dtype=complex)
    for j in range(sites):
        block[(j + 1) % sites, j] += below
        block[j, (j + 1) % sites] += above
    return block


def single_particle_matrix(system: ChiralSystem) -> np.ndarray:
    """The 2L x 2L Hermitian matrix scale * [[K, W], [W^dag, -eta K]];
    :class:`CapacityError` above 2L = 2^DENSE_QUBIT_CAP, before allocating."""
    if 2 * system.sites > 2**DENSE_QUBIT_CAP:
        raise CapacityError(f"{2 * system.sites} modes exceed the {2**DENSE_QUBIT_CAP}-mode cap")
    k = kinetic_block(system.sites)
    w = wilson_block(system.sites)
    t = np.block([[k, w], [w.conj().T, -system.eta * k]])
    return system.scale * t


def dispersion(p: float, eta: float, scale: float = 1.0) -> DispersionPoint:
    """The two energy branches at lattice momentum ``p`` (radians): the
    roots (u -+ root)/2 of x^2 - u x - (eta a^2 + b^2), u = (1 - eta) a,
    a = 2 sin p, b = 2 - 2 cos p.  The one larger in size, (u + sign(u)
    root)/2, adds two magnitudes; the other is the product -(eta a^2 + b^2)
    over it, since (u - sign(u) root)/2 cancels once eta |a| dwarfs it.
    Refuses what :class:`ChiralSystem` refuses, and a non-finite ``p``."""
    if not math.isfinite(p):
        raise ValueError(f"momentum must be finite, got {p}")
    _require_eta_scale(eta, scale)
    a = 2.0 * math.sin(p)
    b = 2.0 - 2.0 * math.cos(p)
    root = math.hypot((1.0 + eta) * a, 2.0 * b)
    u = (1.0 - eta) * a
    big = (u + math.copysign(root, u)) / 2.0
    small = -(eta * a * a + b * b) / big if big else 0.0
    lo, hi = sorted((big, small))
    return DispersionPoint(momentum=p, lambda_minus=scale * lo, lambda_plus=scale * hi)


def dispersion_table(system: ChiralSystem) -> list:
    """Branch energies at the L ring momenta p_k = 2 pi k / L.

    The 2L branch values form the same multiset as the eigenvalues of
    :func:`single_particle_matrix` (Fourier diagonalization).
    """
    return [
        dispersion(2.0 * math.pi * k / system.sites, system.eta, system.scale)
        for k in range(system.sites)
    ]


def dirac_sea_energy(t: np.ndarray) -> float:
    """Sum of the negative eigenvalues of a Hermitian single-particle matrix.

    Exact zero modes (|lambda| < 1e-12) are left unoccupied; they carry no
    energy either way.
    """
    eigenvalues = hermitian_eigen(t)
    return float(eigenvalues[eigenvalues < -1e-12].sum())


def bulk_density(eta: float, scale: float = 1.0) -> float:
    """Per-site extensive part of the Dirac-sea energy.

    Brillouin-zone average of the lower branch, (1/2pi) integral of
    lambda_minus over [0, 2pi], in closed form.  The (1 - eta) a(p) part
    integrates to zero over a period; u = cos(p/2) turns the rest into
    -(4/pi) integral_0^1 sqrt(4 + k u^2) du with k = (eta - 1)(eta + 3), which
    is -(2/pi) [(1 + eta) + 2 asinh(x)/x] with x = sqrt(k)/2 (the last term
    is 2 at x = 0).  The finite-lattice sea energy per site approaches this
    with an O(1/L^2) residual (the integrand has a kink at p = 0).
    """
    _require_eta_scale(eta, scale)
    x = math.sqrt(eta - 1.0) * math.sqrt(eta + 3.0) / 2.0  # sqrt of the product overflows
    tail = 2.0 * math.asinh(x) / x if x > 0.0 else 2.0
    return scale * (-2.0 / math.pi * ((1.0 + eta) + tail))


def chiral_casimir(system: ChiralSystem, subtraction: float) -> float:
    """Dirac-sea energy of the system minus the supplied subtraction term."""
    return dirac_sea_energy(single_particle_matrix(system)) - subtraction


def jordan_wigner_hamiltonian(t: np.ndarray) -> HamiltonianSpec:
    """Second-quantized H = sum_jk t_jk c_j^dag c_k on one qubit per mode,
    written as its Pauli sum.

    Mode j (0-based) is letter j of each string, as in
    :func:`ringcasimir.operators.fermion_lower`.  A hop j < k with
    t_jk = a + ib gives (a/2)(X Z..Z X + Y Z..Z Y) - (b/2) X Z..Z Y +
    (b/2) Y Z..Z X, with Z on the modes strictly between j and k; a diagonal
    entry gives Re t_jj (I - Z_j)/2 (a Hermitian diagonal is real, up to the
    Hermiticity tolerance).  Zero coefficients are dropped.  The lowest
    eigenvalue equals :func:`dirac_sea_energy` of ``t``; capped at
    ``DENSE_QUBIT_CAP`` modes.
    """
    t = require_hermitian(np.asarray(t, dtype=complex))
    n = t.shape[0]
    if n > DENSE_QUBIT_CAP:
        raise CapacityError(f"{n} fermionic modes exceed the {DENSE_QUBIT_CAP}-qubit cap")
    terms = [(t.diagonal().real.sum() / 2, "I" * n)]
    for j in range(n):
        terms.append((-t[j, j].real / 2, "I" * j + "Z" + "I" * (n - 1 - j)))
        for k in range(j + 1, n):
            a, b = t[j, k].real / 2, t[j, k].imag / 2
            string = "I" * j + "{}" + "Z" * (k - j - 1) + "{}" + "I" * (n - 1 - k)
            for c, ends in ((a, "XX"), (a, "YY"), (-b, "XY"), (b, "YX")):
                terms.append((c, string.format(*ends)))
    return HamiltonianSpec(qubits=n, pauli=PauliSum(n, tuple(x for x in terms if x[0] != 0.0)))


def calibrate_scale_constant(
    reference_energy: float = REFERENCE_GROUND_ENERGY,
    sites: int = REFERENCE_SITES,
    eta: float = REFERENCE_ETA,
) -> float:
    """Solve scale = const / sites so the reference Dirac sea is reproduced.

    The constant reproduces the reference to rounding by construction; if no
    positive constant in that one-parameter family can match (degenerate or
    sign-flipped raw spectrum), raises :class:`CalibrationError` instead of
    proceeding silently.
    """
    raw = dirac_sea_energy(single_particle_matrix(ChiralSystem(sites, eta, 1.0)))
    const = sites * reference_energy / raw if raw < -1e-9 else math.nan
    if not (math.isfinite(const) and const > 0.0):  # NaN and infinities included
        raise CalibrationError(
            f"no scale of the form const/sites maps raw sea {raw!r} onto {reference_energy!r}"
        )
    return const


def reference_system(sites: int, eta: float) -> ChiralSystem:
    """System carrying the frozen calibrated normalization const / sites."""
    system = ChiralSystem(sites=sites, eta=eta)  # validates sites before the division
    return replace(system, scale=SCALE_CONSTANT / sites)


def continuum_casimir_target(sites: int) -> float:
    """Continuum chiral Casimir energy at ring radius sites/2 (two species
    per site): 2 pi / (6 (sites/2)^2), for sites >= 2 as in :class:`ChiralSystem`."""
    _require_sites(sites)
    radius = sites / 2.0
    return 2.0 * math.pi / (6.0 * radius**2)
