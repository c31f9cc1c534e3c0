"""Dense second-quantized operator construction.

Kronecker chains, truncated bosonic ladder operators (four Fock levels per
mode, i.e. two qubits), Jordan-Wigner fermionic operators, and Hermitian
eigendecomposition.  Conventions used throughout the package:

* mode 1 occupies the most significant tensor slot (leftmost Kronecker
  factor),
* all operators are dense ``complex128`` arrays,
* Hermiticity is checked against an absolute entry-wise tolerance of 1e-10.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = [
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "BOSON_LOWER4",
    "FERMION_LOWER2",
    "DENSE_QUBIT_CAP",
    "HERMITICITY_TOL",
    "CapacityError",
    "bit_parity",
    "kron_chain",
    "boson_lower",
    "fermion_lower",
    "hermiticity_defect",
    "require_hermitian",
    "hermitian_eigen",
]

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Single-mode bosonic lowering operator truncated at four Fock levels.  The
# ground state of a free mode is exact under this truncation; excited-state
# accuracy is not claimed.
BOSON_LOWER4 = np.array(
    [
        [0, 1, 0, 0],
        [0, 0, np.sqrt(2.0), 0],
        [0, 0, 0, np.sqrt(3.0)],
        [0, 0, 0, 0],
    ],
    dtype=complex,
)

# Single-mode fermionic lowering operator (occupation basis |0>, |1>).
FERMION_LOWER2 = np.array([[0, 1], [0, 0]], dtype=complex)

# No dense 2^n x 2^n operator (matrix, Kronecker chain, Pauli decomposition)
# and no flip-row form of a Pauli sum (the rows <r|H|r ^ x> of each flip mask
# x, one 2^n vector per mask) is built above this many qubits.
DENSE_QUBIT_CAP = 12

HERMITICITY_TOL = 1e-10


class CapacityError(RuntimeError):
    """A requested dense object exceeds the configured size cap."""


def _require_cap(qubits: int, cap: int, kind: str) -> None:
    if qubits > cap:
        raise CapacityError(f"{qubits} qubits exceed the {cap}-qubit {kind} cap")


def bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry of an integer array (True = odd)."""
    v = values.copy()
    shift = 1
    while shift < v.dtype.itemsize * 8:
        v ^= v >> shift
        shift *= 2
    return (v & 1).astype(bool)


def kron_chain(factors) -> np.ndarray:
    """Kronecker product of ``factors`` in list order (first factor leftmost).

    Raises ``ValueError`` on an empty list or non-square factor, and
    ``CapacityError`` if the product dimension would exceed
    ``2**DENSE_QUBIT_CAP``.
    """
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if not factors:
        raise ValueError("kron_chain requires at least one factor")
    dim = 1
    for k, f in enumerate(factors):
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError(f"factor {k} is not a square matrix: shape {f.shape}")
        dim *= f.shape[0]
    if dim > 2**DENSE_QUBIT_CAP:
        raise CapacityError(f"kron_chain dimension {dim} exceeds cap {2**DENSE_QUBIT_CAP}")
    return reduce(np.kron, factors)


def _embed(single: np.ndarray, left: np.ndarray, mode: int, n_modes: int) -> np.ndarray:
    """Embed ``single`` at slot ``mode`` with ``left`` on every earlier slot
    and identities after it."""
    if not 1 <= mode <= n_modes:
        raise ValueError(f"mode index {mode} outside 1..{n_modes}")
    eye = np.eye(single.shape[0], dtype=complex)
    chain = [left] * (mode - 1) + [single] + [eye] * (n_modes - mode)
    return kron_chain(chain)


def boson_lower(mode: int, n_modes: int) -> np.ndarray:
    """Lowering operator for bosonic ``mode`` of ``n_modes`` four-level modes.

    Identities on every other slot; different modes commute exactly.  The
    4^n_modes-dimensional result uses two qubits per mode.
    """
    return _embed(BOSON_LOWER4, np.eye(4, dtype=complex), mode, n_modes)


def fermion_lower(mode: int, n_modes: int) -> np.ndarray:
    """Jordan-Wigner lowering operator for fermionic ``mode`` of ``n_modes``.

    A Pauli-Z string on all earlier slots enforces the canonical
    anticommutation relations exactly: {c_i, c_j} = 0 and
    {c_i, c_j^dag} = delta_ij.
    """
    return _embed(FERMION_LOWER2, PAULI_Z, mode, n_modes)


def _real_array(values) -> np.ndarray:
    """``values`` as floats; a nonzero imaginary part is a ``ValueError``, where
    a float cast would drop it with only a ``ComplexWarning``."""
    a = np.asarray(values)
    if np.iscomplexobj(a) and np.any(a.imag):
        raise ValueError("expected real values, got a nonzero imaginary part")
    return np.asarray(a.real, dtype=float)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry-wise deviation of ``m`` from its conjugate transpose;
    anything but a square 2-D array is a ``ValueError``."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is not square 2-D: shape {m.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, reported as such
        return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    _require_small_defect(hermiticity_defect(m))
    return m


def _require_small_defect(defect: float) -> None:
    # A NaN or inf entry always leaves a NaN or inf in M - M^dag.
    if not np.isfinite(defect):
        raise ValueError("matrix has non-finite entries")
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e} > {HERMITICITY_TOL:.0e}"
        )


def hermitian_eigen(m: np.ndarray, vectors: bool = False):
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending real eigenvalues, or ``(eigenvalues, eigenvectors)``
    when ``vectors`` is true (columns of the second array are eigenvectors,
    so V @ diag(w) @ V^dag reconstructs the input).  Non-Hermitian input is a
    ``ValueError`` naming the maximum deviation.
    """
    m = require_hermitian(m)
    return tuple(np.linalg.eigh(m)) if vectors else np.linalg.eigvalsh(m)
