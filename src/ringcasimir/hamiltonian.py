"""Qubit Hamiltonian container shared by the lattice, VQE and chiral modules.

A :class:`HamiltonianSpec` carries a qubit count plus exactly one concrete
representation: a dense Hermitian matrix, a real diagonal (every ring
Hamiltonian in this package is diagonal in the computational basis), or a
Pauli-sum.  ``expectation`` and ``apply`` compute on one form, made once on
first use: a real diagonal (the stored one, or a Pauli sum's when it has I/Z
strings only), or else the flip rows <r|H|r ^ x>, one per flip mask x that
occurs, gathered from the stored matrix or summed from the Pauli strings, so
a sparse operator costs O(flips * 2^n) per product.  ``ground_energy`` solves
the blocks of the flip-row graph, so a number-conserving operator splits into
its popcount sectors unasked.  Dense matrices are only materialized up to
``DENSE_QUBIT_CAP`` qubits; diagonal forms stretch to ``RING_QUBIT_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from . import pauli as _pauli
from .operators import DENSE_QUBIT_CAP, CapacityError, require_hermitian

__all__ = ["HamiltonianSpec", "DENSE_QUBIT_CAP", "RING_QUBIT_CAP", "CapacityError"]

RING_QUBIT_CAP = 16


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
        """The real 1-D diagonal, or the ``(gather, rows)`` flip rows with
        (H psi)[r] = sum_k rows[k, r] psi[gather[k, r]], of every exact product."""
        if self.diagonal is not None:
            return self.diagonal
        if self.matrix is not None:
            flips, columns = _pauli._matrix_flip_rows(self.matrix)
            rows = columns.T.copy()  # C order like a Pauli sum's, for the same bits
        elif _pauli.is_diagonal(self.pauli):
            _require_cap(self.qubits, RING_QUBIT_CAP, "diagonal")
            return _pauli.diagonal_part(self.pauli)
        else:
            _require_cap(self.qubits, DENSE_QUBIT_CAP, "dense")
            flips, rows = _pauli._flip_rows(self.pauli)
        return np.arange(self.dim) ^ flips[:, None], rows  # [k, r] -> r ^ flips[k]

    def expectation(self, state: np.ndarray) -> float:
        """<state| H |state> for a normalized state of dimension ``2**qubits``."""
        state, form = self._vector(state), self._form
        if isinstance(form, tuple):
            return float(np.vdot(state, self.apply(state)).real)
        return float(form @ (state.real**2 + state.imag**2))

    def apply(self, state: np.ndarray) -> np.ndarray:
        """H|state> as a new vector."""
        state, form = self._vector(state), self._form
        if isinstance(form, tuple):
            gather, rows = form
            return np.einsum("kr,kr->r", rows, state[gather])
        return form * state

    def as_matrix(self) -> np.ndarray:
        """Dense Hermitian matrix: the stored one, or else a new array
        materialized below the cap."""
        if self.matrix is not None:
            return self.matrix
        _require_cap(self.qubits, DENSE_QUBIT_CAP, "dense")
        if self.diagonal is None and not _pauli.is_diagonal(self.pauli):
            return _pauli.reconstruct(self.pauli)
        return np.diag(self._form.astype(complex))

    def as_pauli(self):
        """The :class:`ringcasimir.pauli.PauliSum` form, decomposed on demand."""
        if self.pauli is not None:
            return self.pauli
        if self.diagonal is not None:
            return _pauli.decompose_diagonal(self.diagonal)
        return _pauli._decompose(self.matrix)  # checked Hermitian on construction

    def ground_energy(self) -> float:
        """Lowest eigenvalue: the minimum of a diagonal form, else the minimum
        over the blocks of the flip-row graph, whose nodes are the basis states
        and whose edges are the nonzero entries <r|H|r ^ x>."""
        if self.matrix is None and not isinstance(self._form, tuple):
            return float(self._form.min())
        lowest = self._block_minimum()
        return float(np.linalg.eigvalsh(self.as_matrix())[0] if lowest is None else lowest)

    def _block_minimum(self) -> Optional[float]:
        """The minimum over the blocks, or None when the graph is connected and
        is solved whole.  It is connected, with no graph built, when every
        single-bit flip row <r|H|r ^ 2^q> has no zero entry; a stored matrix
        reads those in place, and one above the dense cap is always whole."""
        idx, singles = np.arange(self.dim), 1 << np.arange(self.qubits)
        if self.matrix is not None and (
                self.qubits > DENSE_QUBIT_CAP or self.matrix[idx, idx ^ singles[:, None]].all()):
            return None
        gather, rows = self._form
        found = np.isin(gather[:, 0], singles)
        if np.count_nonzero(found) == self.qubits and rows[found].all():
            return None
        k, r = np.nonzero(rows)
        h = csr_array((rows[k, r], (r, gather[k, r])), shape=(self.dim, self.dim))
        count, labels = connected_components(abs(h), directed=False)
        if count == 1:
            return None
        order = np.argsort(labels, kind="stable")  # each block's states ascending
        lowest = np.inf
        for states in np.split(order, np.cumsum(np.bincount(labels))[:-1]):
            entries = h[states][:, states].tocoo()
            block = np.zeros((states.size, states.size), dtype=complex)
            block[entries.row, entries.col] = entries.data
            lowest = min(lowest, np.linalg.eigvalsh(block)[0])
        return lowest
