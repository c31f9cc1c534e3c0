"""Qubit Hamiltonian container shared by the lattice, VQE and chiral modules.

A :class:`HamiltonianSpec` carries a qubit count plus exactly one concrete
representation: a dense Hermitian matrix, a real diagonal (every ring
Hamiltonian in this package is diagonal in the computational basis), or a
Pauli-sum.  ``expectation``, ``apply``, ``ground_energy``, ``as_matrix``
and ``as_pauli`` all dispatch on the stored representation, so an exact
expectation costs ``diag . |psi|^2`` for a diagonal, one dense contraction
for a matrix, and a string loop only for a Pauli-sum.  Dense matrices are
only materialized up to ``DENSE_QUBIT_CAP`` qubits; diagonal storage
stretches to ``RING_QUBIT_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from . import pauli as _pauli
from .operators import DENSE_QUBIT_CAP, CapacityError, require_hermitian

__all__ = ["HamiltonianSpec", "DENSE_QUBIT_CAP", "RING_QUBIT_CAP", "CapacityError"]

RING_QUBIT_CAP = 16


@dataclass
class HamiltonianSpec:
    """A qubit Hamiltonian in one stored representation.

    Exactly one of ``matrix`` (dense Hermitian), ``diagonal`` (real 1-D,
    finite) or ``pauli`` (a :class:`ringcasimir.pauli.PauliSum`) must be
    supplied, with dimension ``2**qubits``.
    """

    qubits: int
    matrix: Optional[np.ndarray] = None
    diagonal: Optional[np.ndarray] = None
    pauli: Any = None

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.qubits}")
        given = sum(r is not None for r in (self.matrix, self.diagonal, self.pauli))
        if given != 1:
            raise ValueError(
                f"HamiltonianSpec needs exactly one of matrix, diagonal or pauli; got {given}"
            )
        dim = self.dim
        if self.matrix is not None:
            self.matrix = np.asarray(self.matrix, dtype=complex)
            if self.matrix.shape != (dim, dim):
                raise ValueError(f"matrix shape {self.matrix.shape} != ({dim}, {dim})")
            require_hermitian(self.matrix)
        elif self.diagonal is not None:
            self.diagonal = np.asarray(self.diagonal, dtype=float)
            if self.diagonal.shape != (dim,):
                raise ValueError(f"diagonal length {self.diagonal.shape} != {dim}")
            if not np.all(np.isfinite(self.diagonal)):
                raise ValueError("diagonal has non-finite entries")
        elif self.pauli.qubits != self.qubits:
            raise ValueError(f"pauli qubit count {self.pauli.qubits} != {self.qubits}")

    @property
    def dim(self) -> int:
        return 2**self.qubits

    def _vector(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=complex).reshape(-1)
        if state.shape[0] != self.dim:
            raise ValueError(f"state dimension {state.shape[0]} != 2^{self.qubits}")
        return state

    def expectation(self, state: np.ndarray) -> float:
        """<state| H |state> for a normalized state of dimension ``2**qubits``."""
        if self.pauli is not None:
            return _pauli.expectation(self.pauli, state)
        state = self._vector(state)
        if self.diagonal is not None:
            return float(self.diagonal @ (state.real**2 + state.imag**2))
        # einsum rather than a BLAS matvec: the matvec stalls on thread
        # hand-off when called thousands of times inside an optimizer loop.
        return float(np.einsum("i,ij,j->", state.conj(), self.matrix, state).real)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """H|state> as a new vector, from the stored representation."""
        state = self._vector(state)
        if self.diagonal is not None:
            return self.diagonal * state
        if self.matrix is not None:
            return np.einsum("ij,j->i", self.matrix, state)  # no BLAS matvec, as above
        out = np.zeros_like(state)
        for coefficient, flip, f in _pauli._string_actions(self.pauli):
            out[flip] += coefficient * f * state
        return out

    def as_matrix(self) -> np.ndarray:
        """Dense Hermitian matrix; materialized on demand below the cap."""
        if self.matrix is not None:
            return self.matrix
        if self.qubits > DENSE_QUBIT_CAP:
            raise CapacityError(
                f"{self.qubits} qubits exceed the {DENSE_QUBIT_CAP}-qubit dense cap"
            )
        if self.diagonal is not None:
            return np.diag(self.diagonal.astype(complex))
        return _pauli.reconstruct(self.pauli)

    def as_pauli(self):
        """The :class:`ringcasimir.pauli.PauliSum` form, decomposed on demand."""
        if self.pauli is not None:
            return self.pauli
        if self.diagonal is not None:
            return _pauli.decompose_diagonal(self.diagonal)
        return _pauli._decompose(self.matrix)  # checked Hermitian on construction

    def ground_energy(self) -> float:
        """Lowest eigenvalue, via the cheapest path for the stored form."""
        if self.diagonal is not None:
            return float(self.diagonal.min())
        if self.pauli is not None and _pauli.is_diagonal(self.pauli):
            if self.qubits > RING_QUBIT_CAP:
                raise CapacityError(
                    f"{self.qubits} qubits exceed the {RING_QUBIT_CAP}-qubit diagonal cap"
                )
            return float(_pauli.diagonal_part(self.pauli).min())
        return float(np.linalg.eigvalsh(self.as_matrix())[0])
