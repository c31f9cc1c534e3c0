"""Qubit Hamiltonian container shared by the lattice, VQE and chiral modules.

A :class:`HamiltonianSpec` carries a qubit count plus exactly one concrete
representation: a dense Hermitian matrix, a real diagonal (every ring
Hamiltonian in this package is diagonal in the computational basis), or a
Pauli-sum.  ``expectation`` and ``apply`` compute on one form, made once on
first use: the stored diagonal or matrix, or for a Pauli sum its diagonal
(I/Z strings only), up to ``DENSE_FORM_QUBITS`` qubits its dense matrix, and
above that its flip rows <r|H|r ^ x>, one per flip mask x that occurs, so a
sparse sum costs O(flips * 2^n) per product.  Dense matrices are only
materialized up to ``DENSE_QUBIT_CAP`` qubits; diagonal forms stretch to
``RING_QUBIT_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

import numpy as np

from . import pauli as _pauli
from .operators import DENSE_QUBIT_CAP, CapacityError, require_hermitian

__all__ = ["HamiltonianSpec", "DENSE_QUBIT_CAP", "RING_QUBIT_CAP", "CapacityError"]

RING_QUBIT_CAP = 16
# Up to 8 qubits a Pauli sum computes on its dense matrix, bit for bit as a
# matrix spec of it would, at no more cost than a loop over its terms; above,
# the dense product grows as 4^n and the flip rows take over.
DENSE_FORM_QUBITS = 8


def _require_cap(qubits: int, cap: int, kind: str) -> None:
    if qubits > cap:
        raise CapacityError(f"{qubits} qubits exceed the {cap}-qubit {kind} cap")


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

    @cached_property
    def _form(self):
        """The 1-D diagonal, 2-D matrix or ``(gather, rows)`` flip rows every
        exact product is computed on; read-only when built from a Pauli sum."""
        if self.pauli is None:
            return self.matrix if self.diagonal is None else self.diagonal
        if _pauli.is_diagonal(self.pauli):
            _require_cap(self.qubits, RING_QUBIT_CAP, "diagonal")
            form = _pauli.diagonal_part(self.pauli)
        elif self.qubits <= DENSE_FORM_QUBITS:
            form = _pauli.reconstruct(self.pauli)
        else:
            _require_cap(self.qubits, DENSE_QUBIT_CAP, "dense")
            flips, rows = _pauli._flip_rows(self.pauli)
            return np.arange(self.dim) ^ flips[:, None], rows  # [k, r] -> r ^ flips[k]
        form.flags.writeable = False
        return form

    def expectation(self, state: np.ndarray) -> float:
        """<state| H |state> for a normalized state of dimension ``2**qubits``."""
        state, form = self._vector(state), self._form
        if isinstance(form, tuple):
            return float(np.vdot(state, self.apply(state)).real)
        if form.ndim == 1:
            return float(form @ (state.real**2 + state.imag**2))
        # einsum rather than a BLAS matvec: the matvec stalls on thread
        # hand-off when called thousands of times inside an optimizer loop.
        return float(np.einsum("i,ij,j->", state.conj(), form, state).real)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """H|state> as a new vector."""
        state, form = self._vector(state), self._form
        if isinstance(form, tuple):
            gather, rows = form
            return np.einsum("kr,kr->r", rows, state[gather])
        if form.ndim == 1:
            return form * state
        return np.einsum("ij,j->i", form, state)  # no BLAS matvec, as above

    def as_matrix(self) -> np.ndarray:
        """Dense Hermitian matrix, materialized on demand below the cap; a
        stored matrix or a Pauli sum's read-only dense form is not copied."""
        if self.matrix is None:
            _require_cap(self.qubits, DENSE_QUBIT_CAP, "dense")
        form = self._form
        if isinstance(form, tuple):
            return _pauli.reconstruct(self.pauli)
        return form if form.ndim == 2 else np.diag(form.astype(complex))

    def as_pauli(self):
        """The :class:`ringcasimir.pauli.PauliSum` form, decomposed on demand."""
        if self.pauli is not None:
            return self.pauli
        if self.diagonal is not None:
            return _pauli.decompose_diagonal(self.diagonal)
        return _pauli._decompose(self.matrix)  # checked Hermitian on construction

    def ground_energy(self) -> float:
        """Lowest eigenvalue: the minimum of a diagonal form, else ``eigvalsh``."""
        form = self._form
        if isinstance(form, tuple):
            form = self.as_matrix()
        if form.ndim == 1:
            return float(form.min())
        return float(np.linalg.eigvalsh(form)[0])
