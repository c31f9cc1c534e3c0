"""Exact Pauli-string decomposition of Hermitian qubit operators.

Every string is held in the x/z bit-mask (symplectic) form of Aaronson and
Gottesman, quant-ph/0406196: masks ``x`` (bits whose letter is X or Y) and
``z`` (Y or Z).  As Y = iXZ, the string maps |i> to
i^n_Y (-1)^popcount(i & z) |i ^ x> with n_Y = popcount(x & z).
Reconstruction, expectation values and the diagonal strings (x = 0) all use
that one rule, and decomposition inverts it: c_P = Tr(P h) / 2^n is i^n_Y / 2^n
times the Walsh-Hadamard transform over z of the row h[i, i ^ x] (Hantzko,
Binkowski & Gupta, arXiv:2310.13421; Jones, arXiv:2401.16378).  Only rows
with a nonzero entry are transformed, so a diagonal is the single row x = 0.

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

from .operators import DENSE_QUBIT_CAP, CapacityError, _require_small_defect, bit_parity

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
# The inverse of the two tables above: the letter of (x bit) + 2 (z bit).
_MASK_LETTERS = np.frombuffer(b"IXZY", dtype=np.uint8)
_PHASES = (1.0, 1j, -1.0, -1j)

DROP_TOL = 1e-12


class PauliFormatError(ValueError):
    """Malformed Pauli text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _term_key(term):
    coefficient, letters = term
    return (-abs(coefficient), letters)


def _check_term(coefficient: float, letters: str, qubits: int, seen: set) -> None:
    """Raise ``ValueError`` for a non-finite coefficient, a string of the wrong
    length or outside IXYZ, or a string already in ``seen``; else add it."""
    if not math.isfinite(coefficient):
        raise ValueError(f"string {letters!r} has non-finite coefficient {coefficient}")
    if len(letters) != qubits:
        raise ValueError(f"string {letters!r} has length {len(letters)}, expected {qubits}")
    stray = letters.strip(ALPHABET)  # empty unless a symbol is outside IXYZ
    if stray:
        raise ValueError(f"symbol {stray[0]!r} in {letters!r} is not one of IXYZ")
    if letters in seen:
        raise ValueError(f"duplicate string {letters!r}")
    seen.add(letters)


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
            _check_term(coefficient, letters, self.qubits, seen)
        object.__setattr__(self, "terms", tuple(sorted(coerced, key=_term_key)))

    def __len__(self) -> int:
        return len(self.terms)


def _letters(x: np.ndarray, z: np.ndarray, qubits: int) -> list:
    """The strings of the mask arrays ``x`` and ``z``, leftmost letter on
    the most significant bit."""
    shifts = np.arange(qubits - 1, -1, -1)
    codes = (x[:, None] >> shifts & 1) + 2 * (z[:, None] >> shifts & 1)
    return _MASK_LETTERS[codes].view(f"S{qubits}").ravel().astype(str).tolist()


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the first axis of a
    C-contiguous array, in place: out[z] = sum_i (-1)^popcount(i & z) a[i].

    The butterfly splits the most significant bit first.  That fixes the
    summation order, so the exported coefficients are reproducible to the
    last digit.
    """
    dim = a.shape[0]
    half = dim // 2
    while half >= 1:
        pairs = a.reshape(dim // (2 * half), 2, half, *a.shape[1:])
        lower = pairs[:, 0] - pairs[:, 1]
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = lower
        half //= 2
    return a


def _pauli_sum(coeffs: np.ndarray, x: np.ndarray, qubits: int, drop_tol: float) -> PauliSum:
    """The strings (x[k], z) with |coeffs[z, k]| > drop_tol."""
    z, k = np.nonzero(np.abs(coeffs) > drop_tol)
    letters = _letters(x[k], z, qubits)
    return PauliSum(qubits, tuple(zip(coeffs[z, k].tolist(), letters)))


def decompose(h: np.ndarray, drop_tol: float = DROP_TOL) -> PauliSum:
    """Decompose a Hermitian matrix into a PauliSum, dropping |c| <= drop_tol.

    The dimension must be a power of two.  Each flip mask x whose row
    h[i, i ^ x] holds a nonzero entry is Walsh-Hadamard transformed over z;
    any x != 0 row above ``DENSE_QUBIT_CAP`` qubits raises
    :class:`CapacityError`, so diagonal input of any size is decomposed.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    dim = h.shape[0]
    qubits = dim.bit_length() - 1
    if dim != 2**qubits or qubits < 1:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    flips = np.flatnonzero(np.bincount(np.bitwise_xor(*np.nonzero(h)), minlength=dim))
    idx = np.arange(dim)[:, None]
    rows = h[idx, idx ^ flips]  # column k holds x = flips[k]
    # hermiticity_defect(h): an entry outside every flip row is zero, and so is its mirror
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, reported as such
        mirror = rows[idx ^ flips, np.arange(flips.size)].conj()
        _require_small_defect(float(np.max(np.abs(rows - mirror), initial=0.0)))
    if qubits > DENSE_QUBIT_CAP and flips.any():
        raise CapacityError(f"{qubits} qubits exceed the {DENSE_QUBIT_CAP}-qubit dense cap")
    coeffs = _walsh_hadamard(rows)
    phases = np.array(_PHASES)[[z.bit_count() % 4 for z in range(dim)]]  # i^popcount(z)
    for z, row in enumerate(coeffs):
        row *= phases[z & flips]  # i^n_Y
    coeffs /= dim
    if np.any(np.abs(coeffs.imag) > 1e-10):
        raise ValueError("Hermitian input produced non-real Pauli coefficients")
    return _pauli_sum(coeffs.real, flips, qubits, drop_tol)


def decompose_diagonal(diagonal: np.ndarray, drop_tol: float = DROP_TOL) -> PauliSum:
    """{I, Z}-only decomposition of a diagonal operator (2^n coefficients):
    the x = 0 row of :func:`decompose`, with no size cap."""
    d = np.asarray(diagonal, dtype=float)
    dim = d.shape[0]
    qubits = dim.bit_length() - 1
    if d.ndim != 1 or dim != 2**qubits or qubits < 1:
        raise ValueError(f"expected a 2^n diagonal with n >= 1, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("diagonal has non-finite entries")
    coeffs = _walsh_hadamard(d.copy()) / dim
    return _pauli_sum(coeffs[:, None], np.zeros(1, dtype=int), qubits, drop_tol)


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


def _flip_rows(p: PauliSum):
    """``(flips, rows)`` with rows[k, r] = <r| sum |r ^ flips[k]>: the matrix
    entries of each flip mask that occurs, summed in term order, one term's
    action at a time."""
    masks = [int(letters.translate(_X_BITS), 2) for _, letters in p.terms]
    flips = np.unique(np.array(masks, dtype=int))
    rows = np.zeros((flips.size, 2**p.qubits), dtype=complex)
    for k, (coefficient, flip, f) in zip(np.searchsorted(flips, masks), _string_actions(p)):
        rows[k] += coefficient * f[flip]
    return flips, rows


def _scatter(flips: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The dense matrix of the flip rows: <r|H|r ^ flips[k]> = rows[k, r]."""
    idx = np.arange(rows.shape[1])
    out = np.zeros((idx.size, idx.size), dtype=complex)
    out[idx, idx ^ flips[:, None]] = rows
    return out


def reconstruct(p: PauliSum) -> np.ndarray:
    """Dense matrix sum(c_P P); inverse of :func:`decompose` at drop_tol 0."""
    return _scatter(*_flip_rows(p))


def term_count(label: str, N: int) -> int:
    """Pauli terms of the assembled ring Hamiltonian of family ``label`` at
    size ``N``, with the family's subtraction constant included as an
    identity shift."""
    from .lattice import ModeFamily, ring_hamiltonian, subtraction_constant

    family = ModeFamily.from_label(label, N)
    spec = ring_hamiltonian(family)
    shifted = spec.diagonal + subtraction_constant(family.statistics)
    return len(decompose_diagonal(shifted, DROP_TOL))


def term_values(p: PauliSum, state: np.ndarray) -> np.ndarray:
    """<state| P |state> of each string, in term order, without a dense matrix.

    The state must have dimension 2^qubits and unit norm within 1e-8.
    """
    return _action_values(_string_actions(p), state, p.qubits)


def _action_values(actions, state: np.ndarray, qubits: int) -> np.ndarray:
    """:func:`term_values` from the ``_string_actions`` of a sum, which a
    caller may build once and pass again."""
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape[0] != 2**qubits:
        raise ValueError(f"state dimension {state.shape[0]} != 2^{qubits}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return np.array([np.vdot(state[flip], f * state).real for _, flip, f in actions])


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
        try:
            _check_term(coefficient, fields[1], qubits, seen)
        except ValueError as exc:
            raise PauliFormatError(lineno, str(exc)) from None
        terms.append((coefficient, fields[1]))
    if qubits is None:
        raise PauliFormatError(1, "missing 'qubits <n>' header")
    return PauliSum(qubits, tuple(terms))
