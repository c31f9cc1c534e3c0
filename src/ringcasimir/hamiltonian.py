"""Qubit Hamiltonian container shared by the lattice, VQE and chiral modules.

A :class:`HamiltonianSpec` carries a qubit count plus exactly one concrete
representation: a real diagonal (every ring Hamiltonian in this package is
diagonal in the computational basis) or a Pauli sum.  ``expectation`` and
``apply`` compute on one form, made once on first use: a real diagonal (the
stored one, or a Pauli sum's when it has I/Z strings only), or else the flip
rows <r|H|r ^ x>, one per flip mask x that occurs, summed from the Pauli
strings, so a sparse operator costs O(flips * 2^n) per product.
``ground_energy`` is a matrix-free Lanczos solve on ``apply`` (ARPACK; Lehoucq,
Sorensen & Yang, SIAM 1998) unless the form is diagonal or small.  Dense
matrices are only materialized up to ``DENSE_QUBIT_CAP`` qubits; diagonal
forms stretch to ``RING_QUBIT_CAP``.  A dense matrix enters the package only
through :func:`ringcasimir.pauli.decompose`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

import numpy as np

from . import pauli as _pauli
from .operators import DENSE_QUBIT_CAP, CapacityError

__all__ = ["HamiltonianSpec", "DENSE_QUBIT_CAP", "RING_QUBIT_CAP", "CapacityError"]

RING_QUBIT_CAP = 16

# Up to this dimension dense eigvalsh beats Lanczos.  Dense vs Lanczos on random 20-string
# Pauli sums (2 cores, numpy 2.4.6, scipy 1.17.1): 1.8 vs 8.2 ms at 128, 15 vs 18 at 256,
# 65 vs 31 at 512; on the 8-qubit chiral sum, 19 vs 7.3 ms.
_DENSE_SOLVE_DIM = 128


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
        """Lowest eigenvalue: the minimum of a diagonal form; else, above
        ``_DENSE_SOLVE_DIM``, <v|H|v> of the lowest Lanczos vector v of ``apply``
        from a fixed-seed complex normal start, which overlaps every symmetry
        sector and repeats bit for bit; else, or if ARPACK does not converge,
        dense ``eigvalsh``."""
        form = self._form
        if not isinstance(form, tuple):
            return float(form.min())
        if self.dim > _DENSE_SOLVE_DIM:
            # Imported here: only this solve needs ARPACK, whose load takes 0.3 s.
            from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

            start = np.random.default_rng(0).standard_normal((2, self.dim))
            operator = LinearOperator((self.dim, self.dim), matvec=self.apply, dtype=complex)
            try:
                v = eigsh(operator, k=1, which="SA", tol=0, v0=start[0] + 1j * start[1])[1][:, 0]
                return self.expectation(v / np.linalg.norm(v))
            except ArpackNoConvergence:
                pass
        return float(np.linalg.eigvalsh(self.as_matrix())[0])
