import dataclasses
import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from ringcasimir import hamiltonian, pauli, vqe
from ringcasimir.chiral import (
    ChiralSystem,
    dirac_sea_energy,
    jordan_wigner_hamiltonian,
    single_particle_matrix,
)
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
    specs = [HamiltonianSpec(qubits=qubits, pauli=decompose(h, 0.0))]
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
def test_pauli_spec_computes_on_its_diagonal_or_flip_rows(qubits, diagonal, seed):
    rng = np.random.default_rng(seed)
    p = random_pauli_sum(rng, qubits, diagonal)
    psi = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    psi /= np.linalg.norm(psi)
    spec = HamiltonianSpec(qubits=qubits, pauli=p)
    if diagonal:
        same = HamiltonianSpec(qubits=qubits, diagonal=diagonal_part(p))
        assert spec.expectation(psi) == same.expectation(psi)
        assert np.array_equal(spec.apply(psi), same.apply(psi))
        assert spec.ground_energy() == same.ground_energy()
    else:
        h = reconstruct(p)
        assert spec.expectation(psi) == pytest.approx(float(np.vdot(psi, h @ psi).real), abs=1e-12)
        assert np.max(np.abs(spec.apply(psi) - h @ psi)) < 1e-12
        assert spec.ground_energy() == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-12)


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


def confined_pauli_sum(rng, qubits, flipped):
    # X/Y letters only on the qubits in ``flipped``, so the flip-row graph
    # has a component per setting of the other bits (or more)
    strings = {"".join("X" if q in flipped else "I" for q in range(qubits))}
    for _ in range(2 * qubits + 2):
        strings.add("".join(rng.choice(list("IXYZ" if q in flipped else "IZ"))
                            for q in range(qubits)))
    return PauliSum(qubits, tuple((float(rng.normal()), s) for s in sorted(strings)))


def _components(spec):
    return connected_components(abs(spec._form), directed=False)[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_number_conserving_ground_energy_matches_the_dense_oracle(modes, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    spec = jordan_wigner_hamiltonian((a + a.conj().T) / 2.0)
    oracle = float(np.linalg.eigvalsh(spec.as_matrix())[0])
    assert spec.ground_energy() == pytest.approx(oracle, abs=1e-12)
    if modes > 1:
        assert _components(spec) >= modes + 1  # one per particle number, at least


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_split_pauli_ground_energy_matches_the_dense_oracle(qubits, seed):
    rng = np.random.default_rng(seed)
    flipped = set(rng.choice(qubits, size=int(rng.integers(1, qubits)), replace=False).tolist())
    p = confined_pauli_sum(rng, qubits, flipped)
    h = reconstruct(p)
    spec = HamiltonianSpec(qubits=qubits, pauli=p)
    assert _components(spec) >= 2 ** (qubits - len(flipped))
    assert spec.ground_energy() == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-12)


def test_chiral_l6_ground_energy_builds_no_dense_matrix(monkeypatch):
    t = single_particle_matrix(ChiralSystem(6, 10.0))
    spec, sea = jordan_wigner_hamiltonian(t), dirac_sea_energy(t)

    def refuse(*args, **kwargs):
        raise AssertionError("dense solve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(HamiltonianSpec, "as_matrix", refuse)
    _forbid(monkeypatch, "reconstruct")
    assert abs(spec.ground_energy() - sea) <= 1e-12


def test_dense_pauli_spec_is_solved_whole_without_a_graph():
    # 7 qubits sit at the dense-solve cutoff, so the 4^7-term sum of a random
    # dense operator is solved by the same eigvalsh as its reconstruction
    p = decompose(random_operator(np.random.default_rng(11), 7, False), 0.0)
    expected = np.linalg.eigvalsh(reconstruct(p))[0]
    assert HamiltonianSpec(qubits=7, pauli=p).ground_energy() == expected


def lanczos_case(kind, qubits):
    """A non-diagonal Pauli sum on 8-10 qubits, above the dense-solve cutoff."""
    rng = np.random.default_rng(qubits)
    if kind == "random":
        return random_pauli_sum(rng, qubits, False)
    if kind == "confined":  # 2^(qubits - 2) components or more
        return confined_pauli_sum(rng, qubits, {0, qubits - 1})
    if kind == "number":
        a = rng.normal(size=(qubits, qubits)) + 1j * rng.normal(size=(qubits, qubits))
        return jordan_wigner_hamiltonian((a + a.conj().T) / 2.0).pauli
    if kind == "one-x":  # eigenvalues +-0.75, each 2^(qubits - 1) times
        return PauliSum(qubits, ((0.75, "I" * (qubits - 1) + "X"),))
    return PauliSum(qubits, tuple((1.0, "I" * q + "X" + "I" * (qubits - 1 - q)) for q in range(qubits)))


@pytest.mark.parametrize("qubits", [8, 9, 10])
@pytest.mark.parametrize("kind", ["random", "confined", "number", "one-x", "all-x"])
def test_lanczos_ground_energy_matches_the_dense_oracle(kind, qubits):
    p = lanczos_case(kind, qubits)
    spec = HamiltonianSpec(qubits=qubits, pauli=p)
    oracle = float(np.linalg.eigvalsh(reconstruct(p))[0])
    assert spec.ground_energy() == pytest.approx(oracle, abs=1e-12)


def test_lanczos_ground_energy_repeats_bit_for_bit():
    p = lanczos_case("number", 10)
    first = HamiltonianSpec(qubits=10, pauli=p).ground_energy()
    again = HamiltonianSpec(qubits=10, pauli=p)
    assert again.ground_energy() == first and again.ground_energy() == first


def test_sum_of_x_on_twelve_qubits_reaches_minus_twelve():
    spec = HamiltonianSpec(qubits=12, pauli=lanczos_case("all-x", 12))
    assert spec.ground_energy() == pytest.approx(-12.0, abs=1e-12)


def test_unconverged_lanczos_falls_back_to_the_dense_solve(monkeypatch):
    p = lanczos_case("random", 8)
    monkeypatch.setattr(hamiltonian, "_LANCZOS_STEPS", 2)
    expected = float(np.linalg.eigvalsh(reconstruct(p))[0])
    assert HamiltonianSpec(qubits=8, pauli=p).ground_energy() == expected


def _counted_ground_energy(spec):
    """``(ground_energy(), number of apply calls it made)``."""
    calls, apply = [], spec.apply
    spec.apply = lambda state: calls.append(None) or apply(state)
    return spec.ground_energy(), len(calls)


@pytest.mark.parametrize(("sites", "products"), [(5, 56), (6, 88)])
def test_chiral_lanczos_product_count_repeats(sites, products):
    t = single_particle_matrix(ChiralSystem(sites, 10.0))
    for _ in range(2):
        energy, count = _counted_ground_energy(jordan_wigner_hamiltonian(t))
        assert count == products
        assert abs(energy - dirac_sea_energy(t)) <= 1e-12


def _einsum_apply(p, state):
    """The flip-row product the CSR form replaced: (H psi)[r] = sum_k rows[k, r]
    psi[r ^ flips[k]], summed over k by einsum."""
    flips, rows = pauli._flip_rows(p)
    return np.einsum("kr,kr->r", rows, state[np.arange(state.size) ^ flips[:, None]])


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(st.just("random"), st.integers(1, 10)),
                 st.tuples(st.just("chiral"), st.integers(2, 6))),
       st.integers(0, 2**32 - 1))
def test_csr_products_equal_the_einsum_flip_rows_bit_for_bit(case, seed):
    kind, size = case
    rng = np.random.default_rng(seed)
    if kind == "random":
        spec = HamiltonianSpec(qubits=size, pauli=random_pauli_sum(rng, size, False))
    else:
        spec = jordan_wigner_hamiltonian(single_particle_matrix(ChiralSystem(size, 10.0)))
    for _ in range(3):
        psi = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        psi /= np.linalg.norm(psi)
        oracle = _einsum_apply(spec.pauli, psi)
        assert np.array_equal(spec.apply(psi), oracle)
        assert spec.expectation(psi) == float(np.vdot(psi, oracle).real)
    assert np.array_equal(spec._form.toarray(), reconstruct(spec.pauli))


@pytest.mark.parametrize("qubits", [3, 9], ids=["3-pauli", "9-pauli"])
def test_flip_rows_are_built_once(monkeypatch, qubits):
    # Products share one CSR form; the dense matrix, and the dense solve at or
    # below _DENSE_SOLVE_DIM, come from reconstruct and never build that form.
    p = random_pauli_sum(np.random.default_rng(5), qubits, False)
    spec = HamiltonianSpec(qubits=qubits, pauli=p)
    dense_solve = spec.dim <= hamiltonian._DENSE_SOLVE_DIM
    spec.as_matrix()
    if dense_solve:
        spec.ground_energy()
    assert "_form" not in vars(spec)
    build, calls = pauli._flip_rows, []
    monkeypatch.setattr(pauli, "_flip_rows", lambda q: calls.append(q) or build(q))
    _forbid(monkeypatch, "reconstruct")
    psi = np.full(2**qubits, 2 ** (-qubits / 2), dtype=complex)
    for _ in range(25):
        spec.expectation(psi)
        spec.apply(psi)
        if not dense_solve:
            spec.ground_energy()
    assert len(calls) == 1 and calls[0] is spec.pauli


def test_shot_mode_reads_each_table_once(monkeypatch):
    spec = jordan_wigner_hamiltonian(single_particle_matrix(ChiralSystem(2, 10.0)))
    calls = {"_masks": [], "_actions": []}
    for name, seen in calls.items():
        build = getattr(pauli.PauliSum, name).func
        spy = functools.cached_property(lambda p, build=build, seen=seen: seen.append(p) or build(p))
        spy.__set_name__(pauli.PauliSum, name)
        monkeypatch.setattr(pauli.PauliSum, name, spy)
    result = run_vqe(spec, VqeConfig(shots=100, max_iterations=40, depth=1, ansatz="ry-rz"))
    assert result.evaluations == 40
    for seen in calls.values():
        assert len(seen) == 1 and seen[0] is spec.pauli


def test_spec_holds_exactly_one_representation():
    d = np.array([1.0, -1.0])
    forms = {"diagonal": d, "pauli": decompose_diagonal(d)}
    for given in ({}, forms):
        with pytest.raises(ValueError, match="exactly one"):
            HamiltonianSpec(qubits=1, **given)
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
        assert (spec.diagonal is None) != (spec.pauli is None)


def test_non_finite_matrix_rejected():
    """A matrix enters a spec only through ``decompose``, which refuses
    non-finite entries before any spec is built."""
    with pytest.raises(ValueError, match="non-finite"):
        HamiltonianSpec(qubits=1, pauli=decompose(np.array([[np.nan, 0.0], [0.0, 1.0]])))
    with pytest.raises(ValueError, match="non-finite"):
        HamiltonianSpec(qubits=1, pauli=decompose(np.array([[1.0, np.inf], [np.inf, 1.0]])))


def test_spec_rejects_inconsistent_sizes():
    with pytest.raises(ValueError, match="qubit count must be >= 1, got 0"):
        HamiltonianSpec(qubits=0, diagonal=[1.0])
    with pytest.raises(ValueError, match=r"diagonal length \(2,\) != 4"):
        HamiltonianSpec(qubits=2, diagonal=[1.0, -1.0])
    with pytest.raises(ValueError, match="pauli qubit count 1 != 2"):
        HamiltonianSpec(qubits=2, pauli=PauliSum(1, ((1.0, "Z"),)))


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
