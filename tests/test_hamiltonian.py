import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcasimir import pauli, vqe
from ringcasimir.chiral import ChiralSystem, jordan_wigner_hamiltonian, single_particle_matrix
from ringcasimir.hamiltonian import HamiltonianSpec
from ringcasimir.lattice import ModeFamily, mode_hamiltonian, ring_hamiltonian
from ringcasimir.operators import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, kron_chain
from ringcasimir.pauli import (
    PauliSum,
    decompose,
    decompose_diagonal,
    diagonal_part,
    parse,
    reconstruct,
    serialize,
)
from ringcasimir.vqe import Optimizer, VqeConfig, VqeResult, partitioned_run, run_vqe


def random_operator(rng, qubits, diagonal):
    dim = 2**qubits
    if diagonal:
        return np.diag(rng.normal(size=dim)).astype(complex)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def every_representation(h, diagonal):
    qubits = h.shape[0].bit_length() - 1
    specs = [
        HamiltonianSpec(qubits=qubits, matrix=h),
        HamiltonianSpec(qubits=qubits, pauli=decompose(h, 0.0)),
    ]
    if diagonal:
        specs.append(HamiltonianSpec(qubits=qubits, diagonal=np.diagonal(h).real))
    return specs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_every_representation_matches_the_dense_oracle(qubits, diagonal, seed):
    rng = np.random.default_rng(seed)
    h = random_operator(rng, qubits, diagonal)
    psi = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    psi /= np.linalg.norm(psi)
    oracle_value = float(np.vdot(psi, h @ psi).real)
    oracle_ground = float(np.linalg.eigvalsh(h)[0])
    for spec in every_representation(h, diagonal):
        dense = spec.as_matrix()
        assert np.max(np.abs(dense - h)) < 1e-12
        assert spec.expectation(psi) == pytest.approx(float(np.vdot(psi, dense @ psi).real), abs=1e-12)
        assert spec.expectation(psi) == pytest.approx(oracle_value, abs=1e-12)
        assert spec.ground_energy() == pytest.approx(float(np.linalg.eigvalsh(dense)[0]), abs=1e-12)
        assert spec.ground_energy() == pytest.approx(oracle_ground, abs=1e-12)
        assert np.max(np.abs(reconstruct(spec.as_pauli()) - dense)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_apply_matches_the_dense_product(qubits, diagonal, seed):
    rng = np.random.default_rng(seed)
    h = random_operator(rng, qubits, diagonal)
    psi = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    psi /= np.linalg.norm(psi)
    for spec in every_representation(h, diagonal):
        before = psi.copy()
        assert np.max(np.abs(spec.apply(psi) - spec.as_matrix() @ psi)) < 1e-12
        assert np.array_equal(psi, before)


def random_pauli_sum(rng, qubits, diagonal):
    letters = "IZ" if diagonal else "IXYZ"
    strings = {"".join(rng.choice(list(letters), size=qubits)) for _ in range(2 * qubits + 2)}
    strings.add("Z" * qubits if diagonal else "X" * qubits)
    return PauliSum(qubits, tuple((float(rng.normal()), s) for s in sorted(strings)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.booleans(), st.integers(0, 2**32 - 1))
def test_pauli_spec_computes_on_its_diagonal_or_dense_form(qubits, diagonal, seed):
    rng = np.random.default_rng(seed)
    p = random_pauli_sum(rng, qubits, diagonal)
    psi = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    psi /= np.linalg.norm(psi)
    spec = HamiltonianSpec(qubits=qubits, pauli=p)
    if diagonal:
        same = HamiltonianSpec(qubits=qubits, diagonal=diagonal_part(p))
    else:
        same = HamiltonianSpec(qubits=qubits, matrix=reconstruct(p))
    assert spec.expectation(psi) == same.expectation(psi)
    assert np.array_equal(spec.apply(psi), same.apply(psi))
    assert spec.ground_energy() == same.ground_energy()


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("qubits", [3, 6, 9])
def test_sparse_pauli_spec_computes_on_flip_rows(qubits, seed):
    # a non-diagonal sum is never densified for expectation or apply;
    # oracle: the sum of Kronecker products
    rng = np.random.default_rng(seed)
    p = random_pauli_sum(rng, qubits, False)
    psi = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    psi /= np.linalg.norm(psi)
    letter = dict(zip("IXYZ", (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)))
    h = sum(c * kron_chain([letter[a] for a in s]) for c, s in p.terms)
    spec = HamiltonianSpec(qubits=qubits, pauli=p)
    with pytest.MonkeyPatch.context() as patch:
        _forbid(patch, "reconstruct")
        assert spec.expectation(psi) == pytest.approx(float(np.vdot(psi, h @ psi).real), abs=1e-12)
        assert np.max(np.abs(spec.apply(psi) - h @ psi)) < 1e-12
    assert np.max(np.abs(spec.as_matrix() - h)) < 1e-12
    assert spec.ground_energy() == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-12)


@pytest.mark.parametrize("qubits, stored", [(3, "pauli"), (9, "pauli"), (3, "matrix")])
def test_flip_rows_are_built_once(monkeypatch, qubits, stored):
    p = random_pauli_sum(np.random.default_rng(5), qubits, False)
    spec = HamiltonianSpec(qubits=qubits, **{stored: p if stored == "pauli" else reconstruct(p)})
    builder = "_flip_rows" if stored == "pauli" else "_matrix_flip_rows"
    build, calls = getattr(pauli, builder), []
    monkeypatch.setattr(pauli, builder, lambda q: calls.append(q) or build(q))
    _forbid(monkeypatch, "reconstruct")
    psi = np.full(2**qubits, 2 ** (-qubits / 2), dtype=complex)
    for _ in range(25):
        spec.expectation(psi)
        spec.apply(psi)
    assert len(calls) == 1 and calls[0] is getattr(spec, stored)


@pytest.mark.parametrize("h", [
    jordan_wigner_hamiltonian(single_particle_matrix(ChiralSystem(2, 10.0))).as_matrix(),
    random_operator(np.random.default_rng(3), 3, False),
])
def test_as_pauli_skips_the_second_hermitian_check(monkeypatch, h):
    spec = HamiltonianSpec(qubits=h.shape[0].bit_length() - 1, matrix=h)
    expected = decompose(h)
    calls = []
    original = pauli.require_hermitian
    monkeypatch.setattr(pauli, "require_hermitian", lambda m: calls.append(m) or original(m))
    assert spec.as_pauli() == expected
    assert calls == []
    decompose(h)
    assert len(calls) == 1


def test_spec_holds_exactly_one_representation():
    d = np.array([1.0, -1.0])
    forms = {"matrix": np.diag(d), "diagonal": d, "pauli": decompose_diagonal(d)}
    with pytest.raises(ValueError, match="exactly one"):
        HamiltonianSpec(qubits=1)
    for a in forms:
        for b in forms:
            if a < b:
                with pytest.raises(ValueError, match="exactly one"):
                    HamiltonianSpec(qubits=1, **{a: forms[a], b: forms[b]})
    for name, value in forms.items():
        assert HamiltonianSpec(qubits=1, **{name: value}).ground_energy() == pytest.approx(-1.0)


def test_builders_store_one_representation():
    t = single_particle_matrix(ChiralSystem(2, 10.0))
    specs = [
        mode_hamiltonian(ModeFamily.from_label("boson-periodic", 2), 1),
        ring_hamiltonian(ModeFamily.from_label("combined-twisted", 2)),
        jordan_wigner_hamiltonian(t),
    ]
    for spec in specs:
        stored = [r for r in (spec.matrix, spec.diagonal, spec.pauli) if r is not None]
        assert len(stored) == 1


def test_non_finite_matrix_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        HamiltonianSpec(qubits=1, matrix=[[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        HamiltonianSpec(qubits=1, matrix=[[1.0, np.inf], [np.inf, 1.0]])


def test_non_finite_diagonal_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        HamiltonianSpec(qubits=1, diagonal=[np.nan, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        HamiltonianSpec(qubits=2, diagonal=[0.0, 1.0, -np.inf, 2.0])


def test_expectation_rejects_wrong_dimension():
    spec = HamiltonianSpec(qubits=2, diagonal=[0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="dimension"):
        spec.expectation(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="dimension"):
        spec.apply(np.array([1.0, 0.0]))


def _forbid(monkeypatch, *names):
    """Make the named ``pauli`` functions raise wherever the package holds them."""
    for name in names:
        original = getattr(pauli, name)

        def boom(*args, _name=name, **kwargs):
            raise AssertionError(f"pauli.{_name} called")

        for module_name, module in list(sys.modules.items()):
            if module is not None and module_name.startswith("ringcasimir"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, boom)


@pytest.mark.parametrize("build", [
    lambda: ring_hamiltonian(ModeFamily.from_label("boson-twisted", 2)),
    lambda: jordan_wigner_hamiltonian(single_particle_matrix(ChiralSystem(2, 10.0))),
    lambda: HamiltonianSpec(qubits=4, pauli=parse(serialize(decompose_diagonal(
        ring_hamiltonian(ModeFamily.from_label("boson-periodic", 2)).diagonal)))),
])
def test_exact_vqe_takes_no_pauli_detour(monkeypatch, build):
    spec = build()
    _forbid(monkeypatch, "decompose", "decompose_diagonal", "expectation")
    result = run_vqe(spec, VqeConfig(depth=1, ansatz="ry-rz", max_iterations=30))
    assert result.energy >= spec.ground_energy() - 1e-9


def test_partitioned_run_passes_every_config_field_but_seed(monkeypatch):
    seen = []

    def fake_run(spec, cfg):
        seen.append(cfg)
        return VqeResult(energy=spec.ground_energy(), parameters=np.zeros(1), trace=[(1, 0.0)],
                         evaluations=1, converged=True)

    monkeypatch.setattr(vqe, "run_vqe", fake_run)
    cfg = VqeConfig(depth=2, optimizer=Optimizer.QUADRATIC, max_iterations=17, tolerance=1e-5,
                    seed=40, shots=123, ansatz="ry-rz", init_spread=0.5)
    partitioned_run(ModeFamily.from_label("combined-periodic", 2), cfg)
    assert len(seen) == 4
    assert [c.seed for c in seen] == [40, 41, 42, 43]
    for mode_cfg in seen:
        assert dataclasses.replace(mode_cfg, seed=cfg.seed) == cfg
