"""Qubit Hamiltonian container shared by the lattice, VQE and chiral modules.

A :class:`HamiltonianSpec` carries a qubit count plus exactly one concrete
representation: a real diagonal (every ring Hamiltonian in this package is
diagonal in the computational basis) or a Pauli sum.  ``expectation`` and
``apply`` compute on one form, made once on first use: a real diagonal (the
stored one, or a Pauli sum's when it has I/Z strings only), or else a CSR
matrix of the nonzero entries <r|H|r ^ x>, one per flip mask x that occurs,
summed from the Pauli strings, so a sparse operator costs O(nonzeros) per
product.  ``ground_energy`` is the lowest Ritz value of the plain three-term
Lanczos recurrence on ``apply`` (Lanczos, J. Res. NBS 45, 255, 1950; Paige,
Linear Algebra Appl. 34, 235, 1980, shows that without reorthogonalization
its extreme Ritz values stay accurate), stopped once that value's residual
is at rounding level, unless the spec is diagonal or small.  Diagonal forms
stretch to ``RING_QUBIT_CAP`` qubits, dense matrices to ``DENSE_QUBIT_CAP``:
one enters only through :func:`ringcasimir.pauli.decompose`, and a Pauli sum
becomes one only through :func:`ringcasimir.pauli.reconstruct`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

import numpy as np

from . import pauli as _pauli
from .operators import DENSE_QUBIT_CAP, CapacityError, _integer, _real_array, _require_cap

__all__ = ["HamiltonianSpec", "DENSE_QUBIT_CAP", "RING_QUBIT_CAP", "CapacityError"]

RING_QUBIT_CAP = 16

# Up to this dimension dense eigvalsh beats Lanczos.  Dense vs Lanczos on random 20-string
# Pauli sums (median of 5, 2 cores, numpy 2.4.6, scipy 1.17.1): 1.5 vs 5.3 ms at 128,
# 9.7 vs 18 at 256, 50 vs 41 at 512; on the 8-qubit chiral sum, 8.2 vs 1.3 ms.
_DENSE_SOLVE_DIM = 128

# The Lanczos recurrence finds T's lowest eigenpair every _CHECK_EVERY steps (every
# _CHECK_EVERY * (step // 64) past step 64, so the O(step^3) checks stay a fraction of the
# run) and stops at a residual of _ROUNDING * ||T||; past _LANCZOS_STEPS, eigvalsh takes over.
_CHECK_EVERY, _LANCZOS_STEPS, _ROUNDING = 8, 512, 16 * np.finfo(float).eps


@dataclass
class HamiltonianSpec:
    """A qubit Hamiltonian in one stored representation.

    Exactly one of ``diagonal`` (real 1-D, finite, of length ``2**qubits``)
    or ``pauli`` (a :class:`ringcasimir.pauli.PauliSum` on ``qubits``
    qubits) must be supplied.  The three fields are fixed once set, since
    the cached form is built from them; other attributes, such as a wrapped
    ``apply``, may be set on an instance.
    """

    qubits: int
    diagonal: Optional[np.ndarray] = None
    pauli: Any = None

    def __post_init__(self):
        if _integer(self.qubits, "qubit count") < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.qubits}")
        given = sum(r is not None for r in (self.diagonal, self.pauli))
        if given != 1:
            raise ValueError(f"HamiltonianSpec needs exactly one of diagonal or pauli; got {given}")
        if self.diagonal is not None:
            object.__setattr__(self, "diagonal", _real_array(self.diagonal))
            if self.diagonal.shape != (self.dim,):
                raise ValueError(f"diagonal length {self.diagonal.shape} != {self.dim}")
            if not np.all(np.isfinite(self.diagonal)):
                raise ValueError("diagonal has non-finite entries")
        elif self.pauli.qubits != self.qubits:
            raise ValueError(f"pauli qubit count {self.pauli.qubits} != {self.qubits}")

    def __setattr__(self, name, value):
        if name in ("qubits", "diagonal", "pauli") and name in self.__dict__:
            raise AttributeError(f"HamiltonianSpec.{name} is fixed once set; build a new spec")
        object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return 2**self.qubits

    def _vector(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=complex).reshape(-1)
        if state.shape[0] != self.dim:
            raise ValueError(f"state dimension {state.shape[0]} != 2^{self.qubits}")
        return state

    @cached_property
    def _form(self):
        """The real 1-D diagonal, or the ``scipy.sparse.csr_matrix`` of the
        nonzero flip-row entries, kept in flip-mask order within each row, so
        a product sums them in the order the flip rows were built."""
        if self.diagonal is not None:
            return self.diagonal
        if _pauli.is_diagonal(self.pauli):
            _require_cap(self.qubits, RING_QUBIT_CAP, "diagonal")
            return _pauli.diagonal_part(self.pauli)
        _require_cap(self.qubits, DENSE_QUBIT_CAP, "dense")
        # Imported here: a diagonal or ring Hamiltonian never needs it.
        from scipy.sparse import csr_matrix

        flips, rows = _pauli._flip_rows(self.pauli)
        r, k = np.nonzero(rows.T)  # row-major, flip masks in order within a row
        indptr = np.append(0, np.cumsum(np.count_nonzero(rows, axis=0)))
        return csr_matrix((rows[k, r], r ^ flips[k], indptr), shape=(self.dim, self.dim))

    def expectation(self, state: np.ndarray) -> float:
        """<state| H |state> for a normalized state of dimension ``2**qubits``."""
        state, form = self._vector(state), self._form
        if isinstance(form, np.ndarray):
            return float(form @ (state.real**2 + state.imag**2))
        return float(np.vdot(state, form @ state).real)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """H|state> as a new vector."""
        state, form = self._vector(state), self._form
        return form * state if isinstance(form, np.ndarray) else form @ state

    def as_matrix(self) -> np.ndarray:
        """Dense Hermitian matrix below the cap; a Pauli sum's is ``pauli.reconstruct``."""
        if self.pauli is not None:
            return _pauli.reconstruct(self.pauli)
        _require_cap(self.qubits, DENSE_QUBIT_CAP, "dense")
        return np.diag(self.diagonal.astype(complex))

    def as_pauli(self):
        """The :class:`ringcasimir.pauli.PauliSum` form, decomposed on demand."""
        return self.pauli if self.pauli is not None else _pauli.decompose_diagonal(self.diagonal)

    def ground_energy(self) -> float:
        """Lowest eigenvalue: the minimum of a diagonal form; else, above
        ``_DENSE_SOLVE_DIM``, the lowest Ritz value of the tridiagonal T of the
        Lanczos recurrence beta_j q_(j+1) = H q_j - alpha_j q_j - beta_(j-1) q_(j-1)
        on ``apply``, from a fixed-seed complex normal q_1 that overlaps every
        symmetry sector and repeats bit for bit, once the residual beta_j |s_j|
        of T's lowest eigenvector s is at rounding level (beta_j = 0 when the
        Krylov space is invariant); else, or if ``_LANCZOS_STEPS`` steps do not
        get there, dense ``eigvalsh`` of :meth:`as_matrix`, which builds no CSR form."""
        if self.diagonal is not None or _pauli.is_diagonal(self.pauli):
            return float(self._form.min())
        if self.dim > _DENSE_SOLVE_DIM:
            self._form  # the dense cap fires here, before a 2**qubits start vector
            start = np.random.default_rng(0).standard_normal((2, self.dim))
            q = start[0] + 1j * start[1]
            q /= np.linalg.norm(q)
            previous, alpha, beta, bound = np.zeros_like(q), [], [0.0], 0.0
            for step in range(1, _LANCZOS_STEPS + 1):
                w = self.apply(q)
                alpha.append(np.vdot(q, w).real)
                w -= alpha[-1] * q
                w -= beta[-1] * previous
                beta.append(np.linalg.norm(w))
                bound = max(bound, abs(alpha[-1]) + beta[-2] + beta[-1])  # Gershgorin, >= ||T||
                if step % (_CHECK_EVERY * max(1, step // 64)) == 0 or beta[-1] <= bound * _ROUNDING:
                    ritz, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[1:-1], -1))
                    if beta[-1] * abs(s[-1, 0]) <= bound * _ROUNDING:
                        return float(ritz[0])
                previous, q = q, w / beta[-1]
        return float(np.linalg.eigvalsh(self.as_matrix())[0])
