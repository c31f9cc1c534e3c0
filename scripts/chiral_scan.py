#!/usr/bin/env python3
"""Print the chiral dual-path table: for L = 2..6 sites at eta=10, the seconds,
H|psi> product count and Dirac-sea gap of the Jordan-Wigner ``ground_energy``
solve (a dense ``eigvalsh`` up to L = 3, from L = 4 the Lanczos recurrence on
the sparse CSR operator, stopped at a rounding-level residual)."""

import time

# The first product of a non-diagonal spec imports it; load it before the timed calls.
import scipy.sparse  # noqa: F401
from ringcasimir import ChiralSystem, dirac_sea_energy
from ringcasimir import jordan_wigner_hamiltonian, single_particle_matrix


def print_dual_path():
    print(f"{'sites':>5} {'qubits':>6} {'seconds':>9} {'applies':>7} {'|E_JW - E_sea|':>14}")
    for sites in range(2, 7):
        t = single_particle_matrix(ChiralSystem(sites, 10.0))
        spec, applies = jordan_wigner_hamiltonian(t), []
        apply = spec.apply
        spec.apply = lambda state: applies.append(None) or apply(state)
        start = time.perf_counter()
        energy = spec.ground_energy()
        seconds = time.perf_counter() - start
        gap = abs(energy - dirac_sea_energy(t))
        print(f"{sites:>5} {spec.qubits:>6} {seconds:>9.4f} {len(applies):>7} {gap:>14.2e}")


if __name__ == "__main__":
    print_dual_path()
