"""Exact Pauli-string decomposition of Hermitian qubit operators.

Coefficients are the normalized traces c_P = Tr(P h) / 2^n, computed for all
4^n strings at once by contracting one qubit axis pair at a time (identical
to direct per-string traces, just not quadratic in the dimension).  Diagonal
operators take a 2^n-string {I, Z} fast path so the 16-qubit ring
Hamiltonians stay cheap.

Every string action uses the x/z bit-mask (symplectic) form of Aaronson and
Gottesman, quant-ph/0406196: a string is held as masks ``x`` (bits whose
letter is X or Y) and ``z`` (Y or Z) plus its count n_Y of Y letters, and as
Y = iXZ it maps |i> to i^n_Y (-1)^popcount(i & z) |i ^ x>.  Reconstruction,
expectation values and the diagonal strings (x = 0) all use that one rule.

Text format (bit-exact round trip)::

    # ringcasimir pauli v1
    qubits <n>
    <coefficient as shortest round-trip decimal> <string of n letters from IXYZ>

One term per line, '#' lines are comments, UTF-8, newline-terminated.  Terms
are ordered by descending |coefficient|, ties broken lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    DENSE_QUBIT_CAP,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    CapacityError,
    bit_parity,
    require_hermitian,
)

__all__ = [
    "ALPHABET",
    "DROP_TOL",
    "PauliFormatError",
    "PauliSum",
    "decompose",
    "decompose_diagonal",
    "reconstruct",
    "is_diagonal",
    "diagonal_part",
    "term_count",
    "term_values",
    "expectation",
    "serialize",
    "parse",
]

ALPHABET = "IXYZ"
_X_BITS = str.maketrans(ALPHABET, "0110")
_Z_BITS = str.maketrans(ALPHABET, "0011")
_PHASES = (1.0, 1j, -1.0, -1j)
_STACK = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])

DROP_TOL = 1e-12


class PauliFormatError(ValueError):
    """Malformed Pauli text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _term_key(term):
    coefficient, letters = term
    return (-abs(coefficient), letters)


@dataclass(frozen=True)
class PauliSum:
    """Real-weighted sum of n-qubit Pauli strings (a Hermitian operator).

    The leftmost letter of a string acts on the most significant tensor
    slot.  Terms are kept in the canonical order (descending |coefficient|,
    lexicographic tie-break) so equality and serialization are deterministic.
    """

    qubits: int
    terms: tuple

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.qubits}")
        coerced = tuple((float(c), str(s)) for c, s in self.terms)
        seen = set()
        for coefficient, letters in coerced:
            if not math.isfinite(coefficient):
                raise ValueError(f"string {letters!r} has non-finite coefficient {coefficient}")
            if len(letters) != self.qubits:
                raise ValueError(f"string {letters!r} has length != {self.qubits}")
            bad = set(letters) - set(ALPHABET)
            if bad:
                raise ValueError(f"string {letters!r} uses symbols outside IXYZ: {bad}")
            if letters in seen:
                raise ValueError(f"duplicate string {letters!r}")
            seen.add(letters)
        object.__setattr__(self, "terms", tuple(sorted(coerced, key=_term_key)))

    def __len__(self) -> int:
        return len(self.terms)


def _coefficient_tensor(h: np.ndarray, qubits: int) -> np.ndarray:
    """All 4^n normalized trace coefficients, axis k indexing qubit k+1."""
    t = h.reshape((2,) * (2 * qubits))
    order = [ax for q in range(qubits) for ax in (q, qubits + q)]
    t = np.transpose(t, order)
    for _ in range(qubits):
        # Tr(P M): the Pauli row index pairs with M's column axis and vice
        # versa; the new length-4 letter axis is moved behind the remaining
        # qubit axes.
        t = np.tensordot(_STACK, t, axes=([1, 2], [1, 0]))
        t = np.moveaxis(t, 0, -1)
    return t / 2**qubits


def decompose(h: np.ndarray, drop_tol: float = DROP_TOL) -> PauliSum:
    """Decompose a Hermitian matrix into a PauliSum, dropping |c| <= drop_tol.

    The dimension must be a power of two with at most ``DENSE_QUBIT_CAP``
    qubits; exactly diagonal input is routed through the {I, Z}-only path.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    dim = h.shape[0]
    qubits = dim.bit_length() - 1
    if dim != 2**qubits or qubits < 1:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    require_hermitian(h)
    diag = np.diagonal(h)
    if not np.any(h - np.diag(diag)):
        return decompose_diagonal(diag.real, drop_tol)
    if qubits > DENSE_QUBIT_CAP:
        raise CapacityError(
            f"{qubits} qubits exceed the {DENSE_QUBIT_CAP}-qubit decomposition cap"
        )
    coeffs = _coefficient_tensor(h, qubits)
    if np.max(np.abs(coeffs.imag)) > 1e-10:
        raise ValueError("Hermitian input produced non-real Pauli coefficients")
    real = coeffs.real
    terms = []
    for flat in np.flatnonzero(np.abs(real) > drop_tol):
        idx = np.unravel_index(flat, real.shape)
        letters = "".join(ALPHABET[k] for k in idx)
        terms.append((float(real[idx]), letters))
    return PauliSum(qubits, tuple(terms))


def decompose_diagonal(diagonal: np.ndarray, drop_tol: float = DROP_TOL) -> PauliSum:
    """{I, Z}-only decomposition of a diagonal operator (2^n coefficients).

    Uses the Walsh-Hadamard transform of the diagonal; handles up to the
    16-qubit ring registers.
    """
    d = np.asarray(diagonal, dtype=float)
    dim = d.shape[0]
    qubits = dim.bit_length() - 1
    if d.ndim != 1 or dim != 2**qubits or qubits < 1:
        raise ValueError(f"expected a 2^n diagonal with n >= 1, got shape {d.shape}")
    c = d.copy()
    h = dim // 2
    while h >= 1:
        c = c.reshape(-1, 2, h)
        upper = c[:, 0, :] + c[:, 1, :]
        lower = c[:, 0, :] - c[:, 1, :]
        c = np.stack([upper, lower], axis=1).reshape(-1)
        h //= 2
    c /= dim
    terms = []
    for flat in np.flatnonzero(np.abs(c) > drop_tol):
        letters = format(flat, f"0{qubits}b").replace("0", "I").replace("1", "Z")
        terms.append((float(c[flat]), letters))
    return PauliSum(qubits, tuple(terms))


def _string_actions(p: PauliSum):
    """Each term as ``(coefficient, flip, f)`` with P|i> = f[i] |flip[i]>:
    flip = i ^ x and f = i^n_Y (-1)^popcount(i & z) over the indices i."""
    idx = np.arange(2**p.qubits)
    signs = np.where(bit_parity(idx), -1.0, 1.0)  # (-1)^popcount(i)
    for coefficient, letters in p.terms:
        x = int(letters.translate(_X_BITS), 2)
        z = int(letters.translate(_Z_BITS), 2)
        yield coefficient, idx ^ x, _PHASES[letters.count("Y") % 4] * signs[idx & z]


def is_diagonal(p: PauliSum) -> bool:
    """True when every string has x = 0 (only I and Z letters)."""
    return all(int(letters.translate(_X_BITS), 2) == 0 for _, letters in p.terms)


def diagonal_part(p: PauliSum) -> np.ndarray:
    """Diagonal of a {I, Z}-only PauliSum as a real vector."""
    if not is_diagonal(p):
        raise ValueError("PauliSum has off-diagonal strings")
    out = np.zeros(2**p.qubits)
    for coefficient, _, f in _string_actions(p):
        out += coefficient * f
    return out


def reconstruct(p: PauliSum) -> np.ndarray:
    """Dense matrix sum(c_P P); inverse of :func:`decompose` at drop_tol 0."""
    dim = 2**p.qubits
    idx = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for coefficient, flip, f in _string_actions(p):
        out[flip, idx] += coefficient * f
    return out


def term_count(family, N: int) -> int:
    """Pauli terms of the assembled ring Hamiltonian at size ``N``, with the
    family's subtraction constant included as an identity shift.

    ``family`` may be a ModeFamily (its ``sites`` is replaced by ``N``) or a
    family label string.
    """
    from .lattice import ModeFamily, ring_hamiltonian, subtraction_constant

    if isinstance(family, str):
        fam = ModeFamily.from_label(family, N)
    else:
        fam = ModeFamily(family.statistics, family.boundary, N)
    spec = ring_hamiltonian(fam)
    shifted = spec.diagonal + subtraction_constant(fam.statistics)
    return len(decompose_diagonal(shifted, DROP_TOL))


def term_values(p: PauliSum, state: np.ndarray) -> np.ndarray:
    """<state| P |state> of each string, in term order, without a dense matrix.

    The state must have dimension 2^qubits and unit norm within 1e-8.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape[0] != 2**p.qubits:
        raise ValueError(
            f"state dimension {state.shape[0]} != 2^{p.qubits}"
        )
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return np.array(
        [np.vdot(state[flip], f * state).real for _, flip, f in _string_actions(p)]
    )


def expectation(p: PauliSum, state: np.ndarray) -> float:
    """<state| P |state>: the coefficients dotted with :func:`term_values`,
    summed in term order."""
    total = 0.0
    for (coefficient, _), value in zip(p.terms, term_values(p, state)):
        total += coefficient * value
    return float(total)


def serialize(p: PauliSum) -> str:
    lines = ["# ringcasimir pauli v1", f"qubits {p.qubits}"]
    for coefficient, letters in p.terms:
        lines.append(f"{coefficient!r} {letters}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> PauliSum:
    """Parse the Pauli text format; malformed lines raise
    :class:`PauliFormatError` with their line number."""
    qubits = None
    terms = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if qubits is None:
            fields = line.split()
            if len(fields) != 2 or fields[0] != "qubits":
                raise PauliFormatError(lineno, f"expected 'qubits <n>', got {line!r}")
            try:
                qubits = int(fields[1])
            except ValueError:
                raise PauliFormatError(lineno, f"qubit count {fields[1]!r} is not an integer")
            if qubits < 1:
                raise PauliFormatError(lineno, f"qubit count must be >= 1, got {qubits}")
            continue
        fields = line.split()
        if len(fields) != 2:
            raise PauliFormatError(lineno, f"expected '<coefficient> <string>', got {line!r}")
        try:
            coefficient = float(fields[0])
        except ValueError:
            raise PauliFormatError(lineno, f"non-numeric coefficient {fields[0]!r}")
        if not math.isfinite(coefficient):
            raise PauliFormatError(lineno, f"non-finite coefficient {fields[0]!r}")
        letters = fields[1]
        if len(letters) != qubits:
            raise PauliFormatError(
                lineno, f"string {letters!r} has length {len(letters)}, expected {qubits}"
            )
        bad = sorted(set(letters) - set(ALPHABET))
        if bad:
            raise PauliFormatError(lineno, f"symbol {bad[0]!r} is not one of IXYZ")
        if letters in seen:
            raise PauliFormatError(lineno, f"duplicate string {letters!r}")
        seen.add(letters)
        terms.append((coefficient, letters))
    if qubits is None:
        raise PauliFormatError(1, "missing 'qubits <n>' header")
    return PauliSum(qubits, tuple(terms))
