import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcasimir import pauli
from ringcasimir.chiral import jordan_wigner_hamiltonian
from ringcasimir.hamiltonian import HamiltonianSpec
from ringcasimir.lattice import ModeFamily, mode_hamiltonian, ring_hamiltonian
from ringcasimir.operators import (
    CapacityError,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    kron_chain,
    require_hermitian,
)
from ringcasimir.pauli import (
    ALPHABET,
    _flip_rows,
    PauliFormatError,
    PauliSum,
    decompose,
    decompose_diagonal,
    diagonal_part,
    expectation,
    is_diagonal,
    parse,
    reconstruct,
    sampled_expectation,
    serialize,
    term_count,
    term_values,
)

MATRICES = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def dense_string(letters):
    return kron_chain([MATRICES[ch] for ch in letters])


def oracle_decompose(h, qubits, drop_tol=1e-12):
    """Direct per-string trace formula, independent of the fast transform."""
    terms = []
    for letters in map("".join, itertools.product(ALPHABET, repeat=qubits)):
        c = np.trace(dense_string(letters) @ h) / 2**qubits
        assert abs(c.imag) < 1e-10
        if abs(c.real) > drop_tol:
            terms.append((float(c.real), letters))
    return PauliSum(qubits, tuple(terms))


def random_hermitian(rng, qubits):
    d = 2**qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def test_decompose_fermion_mode_single_term():
    omega = 1.7
    p = decompose(np.diag([-omega / 2, omega / 2]).astype(complex))
    assert p.terms == ((-omega / 2, "Z"),)


def test_decompose_boson_mode_three_terms():
    omega = 1.3
    h = omega * np.diag([0.5, 1.5, 2.5, 3.5]).astype(complex)
    p = decompose(h)
    expected = {("II", 2 * omega), ("ZI", -omega), ("IZ", -omega / 2)}
    got = {(letters, c) for c, letters in p.terms}
    assert len(p) == 3
    for letters, value in expected:
        assert any(l == letters and abs(c - value) < 1e-12 for l, c in got)


def test_decompose_zero_matrix():
    assert len(decompose(np.zeros((4, 4), dtype=complex))) == 0


def test_decompose_errors():
    with pytest.raises(ValueError):
        decompose(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for bad in ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [-np.inf, 1.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            decompose(np.array(bad))
    with pytest.raises(ValueError, match="expected a square matrix, got shape"):
        decompose(np.zeros((2, 4)))
    for bad in (np.zeros(3), np.zeros((2, 2)), np.zeros(1)):
        with pytest.raises(ValueError, match="expected a 2\\^n diagonal"):
            decompose_diagonal(bad)
    with pytest.raises(ValueError, match="off-diagonal strings"):
        diagonal_part(PauliSum(1, ((1.0, "X"),)))
    for bad in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0], [1.0, 2.0, -np.inf, 0.0]):
        with pytest.raises(ValueError, match="non-finite"):
            decompose_diagonal(np.array(bad))
    with pytest.raises(ValueError, match="imaginary"):
        decompose_diagonal(np.array([1 + 1j, 2]))
    assert decompose_diagonal(np.array([1 + 0j, 2])) == decompose_diagonal(np.array([1.0, 2.0]))


def test_decompositions_survive_an_overflowing_transform():
    # the unscaled transform's partial sums overflow (and inf - inf is NaN,
    # which the drop test |c| > drop_tol would drop without a word); the
    # coefficients themselves are representable, and these are their exact values
    d = np.array([1.7e308, -1.7e308, -1.7e308, -1.7e308, -1.7e308, 1.7e308, 1.7e308, 1.7e308])
    expected = PauliSum(3, ((-8.5e307, "ZII"), (8.5e307, "ZIZ"), (8.5e307, "ZZI"),
                            (8.5e307, "ZZZ")))
    assert decompose_diagonal(d) == decompose(np.diag(d)) == expected
    assert HamiltonianSpec(qubits=3, diagonal=d).as_pauli() == expected
    assert decompose(np.array([[0, 1e308j], [-1e308j, 0]])) == PauliSum(1, ((-1e308, "Y"),))


@pytest.mark.parametrize("qubits", range(1, 9))
def test_overflow_scaling_is_exact(qubits):
    # at 2^1023 times a diagonal in [1.5, 1.75], the unscaled transform's first
    # partial sums overflow; scaling by a power of two rounds nothing, so every
    # coefficient is exactly 2^1023 times the unscaled input's
    rng = np.random.default_rng(qubits)
    h = random_hermitian(rng, qubits) / 16
    np.fill_diagonal(h, rng.uniform(1.5, 1.75, size=2**qubits))
    big = 2.0**1023
    for build, a in ((decompose, h), (decompose_diagonal, h.diagonal().real)):
        p, q = build(a), build(a * big, drop_tol=pauli.DROP_TOL * big)
        assert q.terms == tuple((c * big, s) for c, s in p.terms)


def test_decompositions_check_no_term_again(monkeypatch):
    # distinct masks make distinct valid strings, so finite terms need no check
    rng = np.random.default_rng(5)
    h, d = random_hermitian(rng, 3), rng.normal(size=16)
    expected = [PauliSum(p.qubits, p.terms) for p in (decompose(h), decompose_diagonal(d))]
    checked = []
    monkeypatch.setattr(pauli, "_check_term", lambda *args: checked.append(args[1]))
    assert [decompose(h), decompose_diagonal(d)] == expected
    assert checked == []


def structured_hermitian(rng, kind, qubits):
    """A random Hermitian matrix whose nonzero entries lie on the x rows
    h[i, i ^ x] that ``kind`` names: all of them, only x = 0, one x != 0,
    or the rows of a Jordan-Wigner hopping Hamiltonian."""
    d = 2**qubits
    if kind == "dense":
        return random_hermitian(rng, qubits)
    if kind == "diagonal":
        return np.diag(rng.normal(size=d)).astype(complex)
    if kind == "x-row":
        idx = np.arange(d)
        h = np.zeros((d, d), dtype=complex)
        h[idx, idx ^ int(rng.integers(1, d))] = rng.normal(size=d) + 1j * rng.normal(size=d)
        return (h + h.conj().T) / 2
    a = rng.normal(size=(qubits, qubits)) + 1j * rng.normal(size=(qubits, qubits))
    return jordan_wigner_hamiltonian((a + a.conj().T) / 2).as_matrix()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["dense", "diagonal", "x-row", "jordan-wigner"]), st.integers(1, 4),
       st.sampled_from([1e-11, 1e-9, 0.5, np.nan, np.inf, -np.inf]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_decompose_rejects_as_require_hermitian_does(kind, qubits, bad, imaginary, seed):
    # the defect read from the flip rows is hermiticity_defect(h), so the
    # same matrices pass and the same messages name the same defect
    rng = np.random.default_rng(seed)
    h = structured_hermitian(rng, kind, qubits)
    i, j = rng.integers(2**qubits, size=2)
    h[i, j] += bad * (1j if imaginary else 1.0)
    try:
        require_hermitian(h)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            decompose(h)
        assert str(caught.value) == str(exc)
    else:
        decompose(h)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["dense", "diagonal", "x-row", "jordan-wigner"]),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_decompose_matches_direct_trace_oracle(kind, qubits, seed):
    h = structured_hermitian(np.random.default_rng(seed), kind, qubits)
    fast = decompose(h)
    slow = oracle_decompose(h, qubits)
    assert fast.qubits == slow.qubits
    slow_map = dict((l, c) for c, l in slow.terms)
    assert {l for _, l in fast.terms} == set(slow_map)
    for c, letters in fast.terms:
        assert abs(c - slow_map[letters]) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_decompose_reconstruct_round_trip(qubits, seed):
    h = random_hermitian(np.random.default_rng(seed), qubits)
    assert np.max(np.abs(reconstruct(decompose(h, 0.0)) - h)) < 1e-9


def test_reconstruct_simple():
    assert np.allclose(reconstruct(PauliSum(1, ((1.0, "Z"),))), np.diag([1.0, -1.0]))
    p = PauliSum(2, ((2.0, "II"), (-1.0, "ZI"), (-0.5, "IZ")))
    assert np.allclose(reconstruct(p), np.diag([0.5, 1.5, 2.5, 3.5]))


@pytest.mark.parametrize("letter", ["X", "Z"])
def test_reconstruct_above_the_dense_cap_builds_nothing(monkeypatch, letter):
    monkeypatch.setattr("ringcasimir.pauli._flip_rows", lambda p: pytest.fail("flip rows built"))
    with pytest.raises(CapacityError, match="13 qubits exceed the 12-qubit dense cap"):
        reconstruct(PauliSum(13, ((1.0, letter * 13),)))


def test_ring_round_trip_fermion_n3():
    spec = ring_hamiltonian(ModeFamily.from_label("fermion-periodic", 3))
    h = spec.as_matrix()
    assert np.max(np.abs(reconstruct(decompose(h, 0.0)) - h)) < 1e-9


def test_pauli_orthogonality():
    for qubits in (1, 2, 3):
        strings = ["".join(s) for s in itertools.product(ALPHABET, repeat=qubits)]
        for a in strings:
            pa = dense_string(a)
            for b in strings:
                inner = np.trace(pa.conj().T @ dense_string(b))
                expected = 2**qubits if a == b else 0.0
                assert abs(inner - expected) < 1e-12


def test_diagonal_fast_path_matches_dense():
    rng = np.random.default_rng(11)
    for qubits in (1, 2, 4, 6):
        d = rng.normal(size=2**qubits)
        via_diag = decompose_diagonal(d)
        via_dense = decompose(np.diag(d).astype(complex))
        assert via_diag == via_dense
        assert is_diagonal(via_diag)
        assert np.max(np.abs(diagonal_part(via_diag) - d)) < 1e-9


@pytest.mark.parametrize("label", ["boson-periodic", "boson-twisted", "fermion-periodic", "fermion-twisted"])
def test_ring_families_decompose_diagonal_only(label):
    spec = ring_hamiltonian(ModeFamily.from_label(label, 2))
    p = decompose_diagonal(spec.diagonal)
    assert is_diagonal(p)


def test_term_counts_small():
    assert term_count("fermion-periodic", 1) == 2  # I and Z with the shift
    assert term_count("boson-periodic", 1) == 3
    assert term_count("boson-periodic", 2) == 5
    assert term_count("fermion-twisted", 3) == 4


def test_term_count_monotone():
    for label in ("boson-periodic", "fermion-twisted"):
        counts = [term_count(label, n) for n in range(1, 9)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_expectation_basis_cases():
    assert expectation(PauliSum(1, ((1.0, "Z"),)), np.array([1.0, 0.0])) == pytest.approx(1.0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert expectation(PauliSum(1, ((1.0, "X"),)), plus) == pytest.approx(1.0)
    p = PauliSum(2, ((2.0, "II"), (-1.0, "ZI"), (-0.5, "IZ")))
    ket00 = np.array([1.0, 0.0, 0.0, 0.0])
    assert expectation(p, ket00) == pytest.approx(0.5)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_expectation_matches_dense_oracle(qubits, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, qubits)
    p = decompose(h)
    state = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    state /= np.linalg.norm(state)
    dense_value = float(np.real(np.vdot(state, reconstruct(p) @ state)))
    assert expectation(p, state) == pytest.approx(dense_value, abs=1e-9)


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_every_string_matches_kron_oracle(qubits):
    """The x/z mask kernel against the dense Kronecker product, string by
    string: matrix, per-term value (the mean shot mode samples),
    expectation and diagonal."""
    rng = np.random.default_rng(qubits)
    state = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    state /= np.linalg.norm(state)
    for letters in map("".join, itertools.product(ALPHABET, repeat=qubits)):
        dense = dense_string(letters)
        p = PauliSum(qubits, ((0.75, letters),))
        value = np.vdot(state, dense @ state).real
        assert np.max(np.abs(reconstruct(p) - 0.75 * dense)) <= 1e-15
        assert abs(term_values(p, state)[0] - value) <= 1e-15
        assert abs(expectation(p, state) - 0.75 * value) <= 1e-15
        assert is_diagonal(p) == (set(letters) <= {"I", "Z"})
        if is_diagonal(p):
            assert np.max(np.abs(diagonal_part(p) - 0.75 * np.diag(dense).real)) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_flip_rows_sum_the_terms_in_order(qubits, seed):
    # reference: each string's dense entries <r|P|r ^ x>, added term by term
    rng = np.random.default_rng(seed)
    strings = {"".join(rng.choice(list(ALPHABET), size=qubits)) for _ in range(3 * qubits)}
    p = PauliSum(qubits, tuple((float(rng.normal()), s) for s in sorted(strings)))
    flips, rows = _flip_rows(p)
    x_mask = {s: int(s.translate(str.maketrans("IXYZ", "0110")), 2) for s in strings}
    assert np.array_equal(flips, np.unique(list(x_mask.values())))
    idx = np.arange(2**qubits)
    expected = np.zeros_like(rows)
    for coefficient, letters in p.terms:
        x = x_mask[letters]
        expected[np.searchsorted(flips, x)] += coefficient * dense_string(letters)[idx, idx ^ x]
    assert np.array_equal(rows, expected)


def test_cached_tables_stay_outside_equality_and_text():
    p, q = (PauliSum(2, ((1.0, "XY"), (0.5, "ZI"))) for _ in range(2))
    term_values(p, np.eye(4)[0])
    assert {"_masks", "_actions"} <= vars(p).keys() and "_masks" not in vars(q)
    assert p == q and hash(p) == hash(q) and serialize(p) == serialize(q)
    assert p._masks == ((3, 1, 1), (0, 2, 0))  # XY: x = 0b11, z = 0b01; ZI: z = 0b10


def test_term_values_follow_term_order():
    p = PauliSum(2, ((0.5, "XY"), (-2.0, "ZI"), (1.0, "II")))
    state = np.array([1.0, 1.0j, -1.0, 0.5]) / np.sqrt(3.25)
    expected = [np.vdot(state, dense_string(s) @ state).real for _, s in p.terms]
    assert np.allclose(term_values(p, state), expected, atol=1e-15)


def test_expectation_errors():
    p = PauliSum(2, ((1.0, "ZZ"),))
    with pytest.raises(ValueError):
        expectation(p, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        expectation(p, np.array([1.0, 1.0, 0.0, 0.0]))


def test_serialize_format():
    p = PauliSum(1, ((-2.309401, "Z"),))
    text = serialize(p)
    assert text == "# ringcasimir pauli v1\nqubits 1\n-2.309401 Z\n"


def test_serialize_term_order_deterministic():
    p = PauliSum(2, ((0.5, "ZI"), (-0.5, "IZ"), (2.0, "II")))
    lines = serialize(p).splitlines()
    assert lines[2].startswith("2.0 ")
    # |0.5| tie broken lexicographically: IZ before ZI
    assert lines[3].split()[1] == "IZ"
    assert lines[4].split()[1] == "ZI"


COEFFS = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
).filter(lambda x: abs(x) > 1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.data())
def test_serialize_parse_round_trip(qubits, data):
    strings = st.text(alphabet=ALPHABET, min_size=qubits, max_size=qubits)
    raw = data.draw(st.dictionaries(strings, COEFFS, min_size=0, max_size=8))
    p = PauliSum(qubits, tuple((c, s) for s, c in raw.items()))
    assert parse(serialize(p)) == p


def test_parse_rejects_non_finite_coefficients():
    with pytest.raises(PauliFormatError, match="line 2.*non-finite"):
        parse("qubits 1\nnan Z\ninf I\n")
    with pytest.raises(PauliFormatError, match="line 3.*non-finite"):
        parse("qubits 1\n1.0 Z\n-inf I\n")
    with pytest.raises(ValueError, match="non-finite"):
        PauliSum(1, ((float("nan"), "Z"),))


def test_parse_rejections():
    with pytest.raises(PauliFormatError, match="line 2.*'Q'"):
        parse("qubits 2\n1.0 XQ\n")
    with pytest.raises(PauliFormatError, match="line 3"):
        parse("# comment\nqubits 2\n1.0 XYZ\n")
    with pytest.raises(PauliFormatError, match="line 2.*coefficient"):
        parse("qubits 1\nabc Z\n")
    with pytest.raises(PauliFormatError, match="line 1"):
        parse("paulis 2\n1.0 XX\n")
    with pytest.raises(PauliFormatError, match="duplicate"):
        parse("qubits 1\n1.0 Z\n2.0 Z\n")
    with pytest.raises(PauliFormatError):
        parse("")
    with pytest.raises(PauliFormatError, match="line 1: qubit count 'two' is not an integer"):
        parse("qubits two\n1.0 XX\n")
    with pytest.raises(PauliFormatError, match="line 1: qubit count must be >= 1, got 0"):
        parse("qubits 0\n")
    with pytest.raises(PauliFormatError, match="line 2: expected '<coefficient> <string>'"):
        parse("qubits 1\n1.0 Z extra\n")


def test_parse_checks_each_term_once(monkeypatch):
    checked = []
    check = pauli._check_term
    monkeypatch.setattr(pauli, "_check_term", lambda *args: checked.append(args[1]) or check(*args))
    p = parse("qubits 2\n0.25 II\n# note\n-1.0 YY\n0.5 XZ\n")
    assert checked == ["II", "YY", "XZ"]
    assert p.terms == ((-1.0, "YY"), (0.5, "XZ"), (0.25, "II"))


def test_term_count_invariant_under_round_trip():
    spec = ring_hamiltonian(ModeFamily.from_label("boson-twisted", 2))
    p = decompose_diagonal(spec.diagonal)
    assert len(parse(serialize(p))) == len(p)


def test_pauli_sum_validation():
    with pytest.raises(ValueError, match="qubit count must be >= 1, got 0"):
        PauliSum(0, ())
    with pytest.raises(ValueError, match="duplicate"):
        PauliSum(1, ((1.0, "Z"), (2.0, "Z")))
    with pytest.raises(ValueError, match="length"):
        PauliSum(2, ((1.0, "Z"),))
    with pytest.raises(ValueError, match="IXYZ"):
        PauliSum(1, ((1.0, "Q"),))


def test_real_coefficients_for_package_hamiltonians():
    spec = mode_hamiltonian(ModeFamily.from_label("boson-periodic", 2), 1)
    p = decompose(spec.as_matrix())
    assert all(isinstance(c, float) for c, _ in p.terms)


def test_sampled_expectation_holds_shots_to_what_numpy_can_draw():
    # <0|Z|0> = 1 comes out exactly at any count; 0 used to divide by zero
    z, zero = PauliSum(1, ((1.0, "Z"),)), np.array([1.0, 0.0])
    for shots, message in ((0, "shots must be a positive count, got 0"),
                           (2**63, "shots must be at most 2**63 - 1, got 9223372036854775808")):
        with pytest.raises(ValueError) as exc:
            sampled_expectation(z, zero, shots, np.random.default_rng(0))
        assert str(exc.value) == message
    for shots in (1, 2**63 - 1):
        assert sampled_expectation(z, zero, shots, np.random.default_rng(0)) == 1.0
