"""Qubit Hamiltonian container shared by the lattice, VQE and chiral modules.

A :class:`HamiltonianSpec` carries a qubit count plus exactly one concrete
representation: a real diagonal (every ring Hamiltonian in this package is
diagonal in the computational basis) or a Pauli sum.  ``expectation`` and
``apply`` compute on one form, made once on first use: a real diagonal (the
stored one, or a Pauli sum's when it has I/Z strings only), or else the flip
rows <r|H|r ^ x>, one per flip mask x that occurs, summed from the Pauli
strings, so a sparse operator costs O(flips * 2^n) per product.
``ground_energy`` solves the blocks of the flip-row graph, so a
number-conserving operator splits into its popcount sectors unasked.  Dense
matrices are only materialized up to ``DENSE_QUBIT_CAP`` qubits; diagonal
forms stretch to ``RING_QUBIT_CAP``.  A dense matrix enters the package only
through :func:`ringcasimir.pauli.decompose`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from . import pauli as _pauli
from .operators import DENSE_QUBIT_CAP, CapacityError

__all__ = ["HamiltonianSpec", "DENSE_QUBIT_CAP", "RING_QUBIT_CAP", "CapacityError"]

RING_QUBIT_CAP = 16


def _require_cap(qubits: int, cap: int, kind: str) -> None:
    if qubits > cap:
        raise CapacityError(f"{qubits} qubits exceed the {cap}-qubit {kind} cap")


@dataclass
class HamiltonianSpec:
    """A qubit Hamiltonian in one stored representation.

    Exactly one of ``diagonal`` (real 1-D, finite, of length ``2**qubits``)
    or ``pauli`` (a :class:`ringcasimir.pauli.PauliSum` on ``qubits``
    qubits) must be supplied.
    """

    qubits: int
    diagonal: Optional[np.ndarray] = None
    pauli: Any = None

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.qubits}")
        given = sum(r is not None for r in (self.diagonal, self.pauli))
        if given != 1:
            raise ValueError(f"HamiltonianSpec needs exactly one of diagonal or pauli; got {given}")
        if self.diagonal is not None:
            self.diagonal = np.asarray(self.diagonal, dtype=float)
            if self.diagonal.shape != (self.dim,):
                raise ValueError(f"diagonal length {self.diagonal.shape} != {self.dim}")
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
        if _pauli.is_diagonal(self.pauli):
            _require_cap(self.qubits, RING_QUBIT_CAP, "diagonal")
            return _pauli.diagonal_part(self.pauli)
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
        """Dense Hermitian matrix, materialized below the cap."""
        _require_cap(self.qubits, DENSE_QUBIT_CAP, "dense")
        form = self._form
        if isinstance(form, tuple):
            gather, rows = form
            return _pauli._scatter(gather[:, 0], rows)  # gather[k, 0] = flips[k]
        return np.diag(form.astype(complex))

    def as_pauli(self):
        """The :class:`ringcasimir.pauli.PauliSum` form, decomposed on demand."""
        return self.pauli if self.pauli is not None else _pauli.decompose_diagonal(self.diagonal)

    def ground_energy(self) -> float:
        """Lowest eigenvalue: the minimum of a diagonal form, else the minimum
        over the blocks of the flip-row graph, whose nodes are the basis states
        and whose edges are the nonzero entries <r|H|r ^ x>.  The graph is
        connected, and the matrix is solved whole with no graph built, when
        every single-bit flip row <r|H|r ^ 2^q> has no zero entry."""
        form = self._form
        if not isinstance(form, tuple):
            return float(form.min())
        gather, rows = form
        found = np.isin(gather[:, 0], 1 << np.arange(self.qubits))
        if np.count_nonzero(found) < self.qubits or not rows[found].all():
            k, r = np.nonzero(rows)
            h = csr_array((rows[k, r], (r, gather[k, r])), shape=(self.dim, self.dim))
            count, labels = connected_components(abs(h), directed=False)
            if count > 1:
                order = np.argsort(labels, kind="stable")  # each block's states ascending
                lowest = np.inf
                for states in np.split(order, np.cumsum(np.bincount(labels))[:-1]):
                    entries = h[states][:, states].tocoo()
                    block = np.zeros((states.size, states.size), dtype=complex)
                    block[entries.row, entries.col] = entries.data
                    lowest = min(lowest, np.linalg.eigvalsh(block)[0])
                return float(lowest)
        return float(np.linalg.eigvalsh(self.as_matrix())[0])
