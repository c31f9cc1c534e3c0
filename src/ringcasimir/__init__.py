"""Casimir energies of 1+1-dimensional lattice ring fields.

Exact mode sums with continuum-matching subtraction constants, Pauli
decompositions of the qubit Hamiltonians, a statevector VQE with partitioned
per-mode runs, and an eta-deformed Wilson (chiral) fermion sector with
Dirac-sea evaluation and Jordan-Wigner mapping.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .chiral import (
    ChiralSystem,
    DispersionPoint,
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
from .hamiltonian import CapacityError, HamiltonianSpec
from .lattice import (
    Boundary,
    CasimirReport,
    ModeFamily,
    Statistics,
    casimir_exact,
    continuum_density,
    coupling_matrix,
    large_n_series,
    mode_frequency,
    mode_hamiltonian,
    mode_sum_energy,
    ring_hamiltonian,
    subtraction_constant,
)
from .operators import (
    boson_lower,
    fermion_lower,
    hermitian_eigen,
    kron_chain,
)
from .pauli import (
    PauliFormatError,
    PauliSum,
    decompose,
    decompose_diagonal,
    expectation,
    parse,
    reconstruct,
    serialize,
    term_count,
)
from .vqe import (
    Optimizer,
    VqeConfig,
    VqeResult,
    ansatz_state,
    ansatz_state_phased,
    minimize,
    partitioned_run,
    run_vqe,
)

# Every imported name but the submodules, which the imports bind as well.
__all__ = ["__version__", *sorted(name for name, value in globals().items()
                                  if not name.startswith("_") and not isinstance(value, _ModuleType))]
