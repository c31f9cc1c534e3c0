"""Exact Pauli-string decomposition of Hermitian qubit operators.

Every string is held in the x/z bit-mask (symplectic) form of Aaronson and
Gottesman, quant-ph/0406196: masks ``x`` (bits whose letter is X or Y) and
``z`` (Y or Z).  As Y = iXZ, the string maps |i> to
i^n_Y (-1)^popcount(i & z) |i ^ x> with n_Y = popcount(x & z).
Reconstruction, expectation values and the diagonal strings (x = 0) all use
that one rule on a table of each sum's masks, read once from its letters,
and decomposition inverts it: c_P = Tr(P h) / 2^n is i^n_Y / 2^n
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
from functools import cached_property

import numpy as np

from .operators import (
    DENSE_QUBIT_CAP,
    _integer,
    _real_array,
    _require_cap,
    _require_small_defect,
    bit_parity,
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
    "sampled_expectation",
    "expectation",
    "serialize",
    "parse",
]

ALPHABET = "IXYZ"
# The letter's bit in the x mask (X or Y), then in the z mask (Y or Z).
_MASK_BITS = (str.maketrans(ALPHABET, "0110"), str.maketrans(ALPHABET, "0011"))
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
    The cached tables below live in the instance ``__dict__``, outside the
    fields that ``==``, ``hash`` and :func:`serialize` see.
    """

    qubits: int
    terms: tuple

    def __post_init__(self):
        if _integer(self.qubits, "qubit count") < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.qubits}")
        coerced = tuple((float(c), str(s)) for c, s in self.terms)
        seen = set()
        for coefficient, letters in coerced:
            _check_term(coefficient, letters, self.qubits, seen)
        object.__setattr__(self, "terms", tuple(sorted(coerced, key=_term_key)))

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def _masks(self) -> tuple:
        """``(x, z, n_Y)`` of each string in term order, read once from its
        letters: Python ints, so a string of any length has its masks."""
        xz = [[int(letters.translate(bits), 2) for bits in _MASK_BITS] for _, letters in self.terms]
        return tuple((x, z, (x & z).bit_count()) for x, z in xz)

    @cached_property
    def _actions(self) -> tuple:
        """Every :func:`_each_action`, built at the first :func:`term_values` call."""
        return tuple(_each_action(self))


def _checked_sum(qubits: int, terms) -> PauliSum:
    """The sum of ``terms``, each already passed by :func:`_check_term`,
    built without ``__post_init__`` checking them a second time."""
    p = object.__new__(PauliSum)
    object.__setattr__(p, "qubits", qubits)
    object.__setattr__(p, "terms", tuple(sorted(terms, key=_term_key)))
    return p


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
    """The strings (x[k], z) with |coeffs[z, k]| > drop_tol.  Distinct masks
    give distinct valid strings, and the coefficients of finite input are
    finite, so each term passes :func:`_check_term` by construction."""
    z, k = np.nonzero(np.abs(coeffs) > drop_tol)
    letters = _letters(x[k], z, qubits)
    return _checked_sum(qubits, zip(coeffs[z, k].tolist(), letters))


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
    if flips.any():
        _require_cap(qubits, DENSE_QUBIT_CAP, "dense")
    phases = np.array(_PHASES)[[z.bit_count() % 4 for z in range(dim)]]  # i^popcount(z)
    rows /= dim  # see decompose_diagonal
    coeffs = _walsh_hadamard(rows)
    coeffs *= phases[idx & flips]  # i^n_Y
    # Im c_P = tr(P (M - M^dag)) / (2i 2^n) is at most half the defect, and
    # the transform's pairwise sums add at most n eps max|h| (Higham, Accuracy
    # and Stability, eq. 4.6; the phases are exact).  So the imaginary parts
    # dropped here stay below HERMITICITY_TOL / 2 + (n + 1) eps max|h|, the
    # one more for the defect's own rounding, and none needs refusing.
    return _pauli_sum(coeffs.real, flips, qubits, drop_tol)


def decompose_diagonal(diagonal: np.ndarray, drop_tol: float = DROP_TOL) -> PauliSum:
    """{I, Z}-only decomposition of a diagonal operator (2^n coefficients):
    the x = 0 row of :func:`decompose`, with no size cap."""
    d = _real_array(diagonal)
    dim = d.shape[0]
    qubits = dim.bit_length() - 1
    if d.ndim != 1 or dim != 2**qubits or qubits < 1:
        raise ValueError(f"expected a 2^n diagonal with n >= 1, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("diagonal has non-finite entries")
    # Scaling by the power of two 1/dim first rounds only subnormals, and it
    # bounds every partial sum by the largest entry, so none overflows.
    coeffs = _walsh_hadamard(d / dim)
    return _pauli_sum(coeffs[:, None], np.zeros(1, dtype=int), qubits, drop_tol)


def _each_action(p: PauliSum):
    """Each string's ``(flip, f)``, in term order, with P|i> = f[i] |flip[i]>
    over the indices i: flip = i ^ x and f = i^n_Y (-1)^popcount(i & z)."""
    idx = np.arange(2**p.qubits)
    signs = np.where(bit_parity(idx), -1.0, 1.0)  # (-1)^popcount(i)
    for x, z, n_y in p._masks:
        yield idx ^ x, _PHASES[n_y % 4] * signs[idx & z]


def is_diagonal(p: PauliSum) -> bool:
    """True when every string has x = 0 (only I and Z letters)."""
    return not any(x for x, _, _ in p._masks)


def diagonal_part(p: PauliSum) -> np.ndarray:
    """Diagonal of a {I, Z}-only PauliSum as a real vector: the x = 0 row of
    :func:`_flip_rows` (all zeros for an empty sum)."""
    if not is_diagonal(p):
        raise ValueError("PauliSum has off-diagonal strings")
    return _flip_rows(p)[1].real.sum(axis=0)


def _flip_rows(p: PauliSum):
    """``(flips, rows)`` with rows[k, r] = <r| sum |r ^ flips[k]>: the matrix
    entries of each flip mask that occurs, summed in term order, one term's
    action at a time."""
    masks = [x for x, _, _ in p._masks]
    flips = np.unique(np.array(masks, dtype=int))
    rows = np.zeros((flips.size, 2**p.qubits), dtype=complex)
    for k, (coefficient, _), (flip, f) in zip(np.searchsorted(flips, masks), p.terms,
                                              _each_action(p)):
        rows[k] += coefficient * f[flip]
    return flips, rows


def reconstruct(p: PauliSum) -> np.ndarray:
    """Dense matrix sum(c_P P) up to ``DENSE_QUBIT_CAP`` qubits; inverse of
    :func:`decompose` at drop_tol 0."""
    _require_cap(p.qubits, DENSE_QUBIT_CAP, "dense")
    flips, rows = _flip_rows(p)
    idx = np.arange(rows.shape[1])
    out = np.zeros((idx.size, idx.size), dtype=complex)
    out[idx, idx ^ flips[:, None]] = rows  # <r|H|r ^ flips[k]> = rows[k, r]
    return out


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
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape[0] != 2**p.qubits:
        raise ValueError(f"state dimension {state.shape[0]} != 2^{p.qubits}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return np.array([np.vdot(state[flip], f * state).real for flip, f in p._actions])


def _require_shots(shots) -> None:
    """Refuse a shot count numpy's binomial cannot draw: 1..2^63 - 1 only."""
    if _integer(shots, "shots") < 1:
        raise ValueError(f"shots must be a positive count, got {shots}")
    if shots > np.iinfo(np.int64).max:
        raise ValueError(f"shots must be at most 2**63 - 1, got {shots}")


def sampled_expectation(p: PauliSum, state: np.ndarray, shots: int, rng) -> float:
    """Finite-shot estimate of <state| P |state>: each non-identity string is
    measured ``shots`` times as an independent +-1 binomial around its
    :func:`term_values` entry, drawn from ``rng`` in term order."""
    _require_shots(shots)
    total = 0.0
    for (coefficient, _), (x, z, _), mean in zip(p.terms, p._masks, term_values(p, state)):
        if x == z == 0:
            total += coefficient
            continue
        mean = min(1.0, max(-1.0, float(mean)))
        ones = rng.binomial(shots, (1.0 + mean) / 2.0)
        total += coefficient * (2.0 * ones / shots - 1.0)
    return total


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
    return _checked_sum(qubits, terms)
