import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcasimir.chiral import (
    ChiralSystem,
    dirac_sea_energy,
    jordan_wigner_hamiltonian,
    single_particle_matrix,
)
from ringcasimir.hamiltonian import DENSE_QUBIT_CAP, CapacityError, HamiltonianSpec
from ringcasimir.lattice import (
    Boundary,
    ModeFamily,
    Statistics,
    casimir_exact,
    coupling_matrix,
    mode_frequency,
    mode_hamiltonian,
    ring_hamiltonian,
    subtraction_constant,
)
from ringcasimir.operators import PAULI_I, PAULI_Y, kron_chain
from ringcasimir import vqe
from ringcasimir.pauli import PauliSum, decompose, decompose_diagonal, expectation
from ringcasimir.vqe import (
    ANSATZE,
    Optimizer,
    VqeConfig,
    ansatz_state,
    ansatz_state_phased,
    combined_trace,
    minimize,
    n_parameters,
    partitioned_run,
    run_vqe,
)


def test_ansatz_zero_parameters_is_ground_basis_state():
    for qubits in (1, 2, 3):
        state = ansatz_state(np.zeros(qubits), qubits, 0)
        expected = np.zeros(2**qubits)
        expected[0] = 1.0
        assert np.allclose(state, expected)


def test_ansatz_pi_rotation_flips_qubit():
    state = ansatz_state(np.array([np.pi]), 1, 0)
    assert abs(abs(state[1]) - 1.0) < 1e-12
    z = expectation(PauliSum(1, ((1.0, "Z"),)), state)
    assert z == pytest.approx(-1.0)


def dense_ansatz_oracle(params, qubits, depth, kind):
    """The ansatz circuit from dense 2^n x 2^n gates, with its rotation count.

    Parameters are read as ``depth + 1`` layers of one RY angle per qubit,
    followed for "ry-rz" by one RZ angle per qubit; the CZ chain on
    neighbouring qubits precedes every layer after the first.
    """
    per_layer = qubits if kind == "ry" else 2 * qubits
    layers = np.reshape(params, (depth + 1, per_layer))

    def on(q, gate):
        return kron_chain([gate if k == q else PAULI_I for k in range(qubits)])

    one = np.diag([0.0, 1.0]).astype(complex)
    cz_chain = np.eye(2**qubits, dtype=complex)
    for q in range(qubits - 1):
        both = kron_chain([one if k in (q, q + 1) else PAULI_I for k in range(qubits)])
        cz_chain = cz_chain @ (np.eye(2**qubits) - 2.0 * both)
    state = np.zeros(2**qubits, dtype=complex)
    state[0] = 1.0
    rotations = 0
    for d in range(depth + 1):
        if d > 0:
            state = cz_chain @ state
        for q in range(qubits):
            theta = layers[d, q]
            ry = np.cos(theta / 2) * PAULI_I - 1j * np.sin(theta / 2) * PAULI_Y
            state = on(q, ry) @ state
            rotations += 1
        if kind == "ry-rz":
            for q in range(qubits):
                phi = layers[d, qubits + q]
                state = on(q, np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])) @ state
                rotations += 1
    return state, rotations


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(0, 2**32 - 1), st.booleans())
def test_ansatz_norm_is_one(qubits, depth, seed, phased):
    rng = np.random.default_rng(seed)
    kind = "ry-rz" if phased else "ry"
    params = rng.uniform(-np.pi, np.pi, n_parameters(qubits, depth, kind))
    state = ansatz_state(params, qubits, depth, kind)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    oracle, rotations = dense_ansatz_oracle(params, qubits, depth, kind)
    assert np.max(np.abs(state - oracle)) < 1e-12
    assert n_parameters(qubits, depth, kind) == rotations
    if phased:
        assert np.array_equal(ansatz_state_phased(params, qubits, depth), state)


def test_ansatz_parameter_count_mismatch():
    with pytest.raises(ValueError):
        ansatz_state(np.zeros(3), 2, 0)
    with pytest.raises(ValueError):
        ansatz_state_phased(np.zeros(2), 2, 0)
    with pytest.raises(ValueError):
        ansatz_state(np.zeros(2), 2, 0, ansatz="uccsd")
    with pytest.raises(ValueError):
        ansatz_state(np.zeros(2), 2, -1)


def test_ansatz_real_amplitudes():
    rng = np.random.default_rng(5)
    state = ansatz_state(rng.uniform(-1, 1, 6), 3, 1)
    assert np.max(np.abs(state.imag)) < 1e-12


def block_gates(qubits, depth, ansatz):
    """``vqe._blocks`` expanded into ``(gate, qubit)`` pairs in application
    order; a CZ chain is one gate with qubit ``None``."""
    return [(gate, q) for gate, k in vqe._blocks(qubits, depth, ansatz)
            for q in ([None] if gate == "cz" else range(k.stop - k.start))]


def per_gate_ansatz_oracle(parameters, qubits, depth, ansatz):
    """The ansatz one gate at a time from |0...0>: each RY copies the pair
    (a, b) and writes (c a - s b, s a + c b), each RZ scales the pair by two
    phases, each CZ chain multiplies by its signs."""
    gates = block_gates(qubits, depth, ansatz)
    state = np.zeros(2**qubits, dtype=complex)
    state[0] = 1.0
    angles = iter(np.asarray(parameters, dtype=float))
    for gate, q in gates:
        if gate == "cz":
            state *= vqe._cz_chain_signs(qubits)
            continue
        angle = float(next(angles))
        view = state.reshape(-1, 2, 2**qubits >> (q + 1))
        if gate == "ry":
            c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
            a = view[:, 0, :].copy()
            b = view[:, 1, :].copy()
            view[:, 0, :] = c * a - s * b
            view[:, 1, :] = s * a + c * b
        else:
            view[:, 0, :] *= cmath.exp(-0.5j * angle)
            view[:, 1, :] *= cmath.exp(0.5j * angle)
    return state


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(0, 3), st.sampled_from(ANSATZE), st.data())
def test_ansatz_state_matches_per_gate_oracle_bit_for_bit(qubits, depth, ansatz, data):
    # The product-state first layer and the three-operation RY round as the
    # per-gate circuit does, so the amplitudes are equal, not merely close.
    angle = st.floats(-4 * math.pi, 4 * math.pi, exclude_min=True, exclude_max=True)
    params = np.array(data.draw(st.lists(angle, min_size=n_parameters(qubits, depth, ansatz),
                                         max_size=n_parameters(qubits, depth, ansatz))))
    state = ansatz_state(params, qubits, depth, ansatz)
    assert np.array_equal(state, per_gate_ansatz_oracle(params, qubits, depth, ansatz))


@pytest.mark.parametrize("ansatz", ANSATZE)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_one_qubit_ansatz_matches_per_gate_oracle(depth, ansatz):
    # At 1 qubit there is no CZ chain, so the "ry" layers follow one another
    # directly and only the first belongs to the product state.
    params = np.random.default_rng(depth).uniform(-4 * math.pi, 4 * math.pi,
                                                  n_parameters(1, depth, ansatz))
    state = ansatz_state(params, 1, depth, ansatz)
    assert np.array_equal(state, per_gate_ansatz_oracle(params, 1, depth, ansatz))


def test_minimize_quadratic_bowl_both_optimizers():
    for optimizer in Optimizer:
        cfg = VqeConfig(optimizer=optimizer, max_iterations=500, tolerance=1e-10)
        out = minimize(lambda x: (x[0] - 2.0) ** 2, np.array([0.0]), cfg)
        assert out.parameters[0] == pytest.approx(2.0, abs=1e-6)
        assert out.converged


def test_minimize_rosenbrock_quadratic_model():
    def rosenbrock(x):
        return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

    cfg = VqeConfig(optimizer=Optimizer.QUADRATIC, max_iterations=500, tolerance=1e-12)
    out = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
    assert np.allclose(out.parameters, [1.0, 1.0], atol=1e-3)


def test_minimize_trace_monotone_and_consistent():
    cfg = VqeConfig(max_iterations=200, tolerance=1e-8)
    out = minimize(lambda x: float(np.sum(x**2)), np.array([1.0, -2.0]), cfg)
    energies = [e for _, e in out.trace]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert out.trace[-1][1] == out.energy
    assert out.evaluations >= len(out.trace)


def test_minimize_budget_exhaustion_flags_not_converged():
    cfg = VqeConfig(max_iterations=3, tolerance=1e-14)
    out = minimize(lambda x: float(np.sum(x**2)), np.array([5.0, 5.0]), cfg)
    assert not out.converged
    assert np.isfinite(out.energy)
    assert out.evaluations <= 3


def test_minimize_with_gradient():
    cfg = VqeConfig(optimizer=Optimizer.QUADRATIC, max_iterations=500, tolerance=1e-12)
    out = minimize(lambda x: ((x[0] - 2.0) ** 2, np.array([2.0 * (x[0] - 2.0)])),
                   np.array([0.0]), cfg, jac=True)
    assert out.parameters[0] == pytest.approx(2.0, abs=1e-9)
    assert out.converged
    assert out.trace[-1][1] == out.energy
    with pytest.raises(ValueError, match="COBYLA"):
        minimize(lambda x: (float(x[0] ** 2), 2.0 * x), np.array([1.0]), VqeConfig(), jac=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2), st.sampled_from(ANSATZE),
       st.sampled_from(["diagonal", "pauli"]), st.integers(0, 2**32 - 1))
def test_adjoint_gradient_matches_central_differences(qubits, depth, ansatz, form, seed):
    from ringcasimir.vqe import _energy_and_gradient

    rng = np.random.default_rng(seed)
    dim = 2**qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = np.diag(rng.normal(size=dim)) if form == "diagonal" else (a + a.conj().T) / 2.0
    spec = {
        "diagonal": lambda: HamiltonianSpec(qubits=qubits, diagonal=np.diagonal(h).real),
        "pauli": lambda: HamiltonianSpec(qubits=qubits, pauli=decompose(h, 0.0)),
    }[form]()
    params = rng.uniform(-np.pi, np.pi, n_parameters(qubits, depth, ansatz))

    def energy(x):
        return spec.expectation(ansatz_state(x, qubits, depth, ansatz))

    value, gradient = _energy_and_gradient(spec, params, depth, ansatz)
    assert value == energy(params)
    step = 1e-6
    central = [(energy(params + step * e) - energy(params - step * e)) / (2 * step)
               for e in np.eye(params.size)]
    assert np.max(np.abs(gradient - central)) < 1e-6


def per_gate_adjoint_oracle(h, parameters, qubits, depth, ansatz):
    """The adjoint gradient one gate at a time: walk the expanded blocks in
    reverse; rotation k gives Im <lam|P|phi> from two inner products, then
    is undone on lam and on phi separately."""
    gates = block_gates(qubits, depth, ansatz)
    count = n_parameters(qubits, depth, ansatz)
    phi = ansatz_state(parameters, qubits, depth, ansatz)
    lam = h.apply(phi)
    gradient = np.empty(count)
    k = count
    for gate, q in reversed(gates):
        if gate == "cz":
            phi *= vqe._cz_chain_signs(qubits)
            lam *= vqe._cz_chain_signs(qubits)
            continue
        k -= 1
        lv, pv = lam.reshape(2**q, 2, -1), phi.reshape(2**q, 2, -1)
        if gate == "ry":  # Y = [[0, -i], [i, 0]]
            overlap = 1j * (np.vdot(lv[:, 1], pv[:, 0]) - np.vdot(lv[:, 0], pv[:, 1]))
        else:  # Z = diag(1, -1)
            overlap = np.vdot(lv[:, 0], pv[:, 0]) - np.vdot(lv[:, 1], pv[:, 1])
        gradient[k] = overlap.imag
        vqe._rotate(phi, gate, q, -parameters[k])
        vqe._rotate(lam, gate, q, -parameters[k])
    return gradient


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.sampled_from(ANSATZE),
       st.sampled_from(["diagonal", "pauli"]), st.integers(0, 2**32 - 1))
def test_block_gradient_matches_per_gate_oracle(qubits, depth, ansatz, form, seed):
    rng = np.random.default_rng(seed)
    dim = 2**qubits
    if form == "diagonal":
        spec = HamiltonianSpec(qubits=qubits, diagonal=rng.normal(size=dim))
    else:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        spec = HamiltonianSpec(qubits=qubits, pauli=decompose((a + a.conj().T) / 2.0, 0.0))
    params = rng.uniform(-np.pi, np.pi, n_parameters(qubits, depth, ansatz))
    _, gradient = vqe._energy_and_gradient(spec, params, depth, ansatz)
    oracle = per_gate_adjoint_oracle(spec, params, qubits, depth, ansatz)
    assert np.max(np.abs(gradient - oracle)) < 1e-12


def test_block_gradient_rotation_count(monkeypatch):
    # 42 forward rotations (the first RY layer is a product state; 18 RY and
    # 24 RZ follow), then 18 backward: the RY blocks of layers 3, 2 and 1 one
    # qubit at a time, the four RZ blocks as one phase vector each, and the
    # first RY block not at all, since nothing reads the state before it.
    calls = []
    rotate = vqe._rotate

    def counting(*args):
        calls.append(args[1])
        rotate(*args)

    monkeypatch.setattr(vqe, "_rotate", counting)
    spec = jordan_wigner_hamiltonian(single_particle_matrix(ChiralSystem(3, 10.0)))
    params = np.random.default_rng(0).uniform(-np.pi, np.pi, n_parameters(6, 3, "ry-rz"))
    vqe._energy_and_gradient(spec, params, 3, "ry-rz")
    assert len(calls) == 60


@pytest.mark.parametrize("build,depth,ansatz,seed,energy,digest", [
    (lambda: jordan_wigner_hamiltonian(single_particle_matrix(ChiralSystem(3, 10.0))),
     3, "ry-rz", 0, "0x1.8c507254a3340p+0",
     "44a7dbda907682bcd6280ef38386ab866da8650ba96effb4d6872af9ea4861c9"),
    (lambda: HamiltonianSpec(qubits=4, diagonal=np.random.default_rng(1).normal(size=16)),
     2, "ry", 2, "0x1.2a452dbdaa25ap-5",
     "b69416d20428850ff6a6431754a83e054e96183dc787c0b087b9aa815d2ed409"),
], ids=["criterion-10-ry-rz", "diagonal-ry"])
def test_energy_and_gradient_golden_bits(build, depth, ansatz, seed, energy, digest):
    # Bit-for-bit values, which the 1e-12 oracle comparison cannot pin: a
    # last-bit change in the forward or backward walk shows here.  Recorded
    # with numpy 2.4.6 and OpenBLAS 0.3.31, the same at 1 and 2 threads.
    spec = build()
    count = n_parameters(spec.qubits, depth, ansatz)
    params = np.random.default_rng(seed).uniform(-np.pi, np.pi, count)
    value, gradient = vqe._energy_and_gradient(spec, params, depth, ansatz)
    assert value.hex() == energy
    assert hashlib.sha256(gradient.tobytes()).hexdigest() == digest


def test_exact_quadratic_run_takes_the_adjoint_gradient():
    # The criterion-10 configuration; finite differences took 17,297 evaluations.
    t = single_particle_matrix(ChiralSystem(3, 10.0))
    cfg = VqeConfig(depth=3, optimizer=Optimizer.QUADRATIC, max_iterations=600,
                    tolerance=1e-12, seed=3, ansatz="ry-rz", init_spread=math.pi)
    result = run_vqe(jordan_wigner_hamiltonian(t), cfg)
    exact = dirac_sea_energy(t)
    assert result.evaluations < 1000
    assert result.energy >= exact - 1e-9
    assert abs(result.energy - exact) / abs(exact) <= 1e-3


@pytest.mark.parametrize("build,cfg,energy,evaluations", [
    (lambda: ring_hamiltonian(ModeFamily.from_label("fermion-periodic", 2)),
     VqeConfig(optimizer=Optimizer.QUADRATIC, shots=1000, seed=4, max_iterations=30),
     -9.833540016502122, 149),
    (lambda: jordan_wigner_hamiltonian(single_particle_matrix(ChiralSystem(2, 10.0))),
     VqeConfig(optimizer=Optimizer.QUADRATIC, shots=200, seed=1, depth=1, ansatz="ry-rz",
               max_iterations=5),
     -1.1099999999999999, 152),
])
def test_shot_mode_quadratic_keeps_finite_differences(build, cfg, energy, evaluations):
    # Literals from the finite-difference implementation: sampled objectives
    # have no exact gradient, so shot mode must not change.
    result = run_vqe(build(), cfg)
    assert (result.energy, result.evaluations) == (energy, evaluations)


def one_qubit_scan_minimum(omega, points=20001):
    """Exhaustive 1-D oracle for the single-fermion-mode landscape."""
    thetas = np.linspace(-np.pi, np.pi, points)
    return min(-0.5 * omega * np.cos(t) for t in thetas)


def test_run_vqe_fermion_mode_matches_scan_oracle():
    family = ModeFamily.from_label("fermion-periodic", 1)
    spec = mode_hamiltonian(family, 1)
    omega = mode_frequency(family, 1)
    result = run_vqe(spec, VqeConfig(seed=3))
    assert result.energy == pytest.approx(-omega / 2.0, abs=1e-6)
    assert result.energy == pytest.approx(one_qubit_scan_minimum(omega), abs=1e-6)
    assert result.converged


def test_run_vqe_eight_seeds_all_find_global_minimum():
    family = ModeFamily.from_label("fermion-twisted", 1)
    spec = mode_hamiltonian(family, 1)
    target = spec.ground_energy()
    hits = 0
    for seed in range(8):
        result = run_vqe(spec, VqeConfig(seed=seed))
        hits += abs(result.energy - target) < 1e-6
    assert hits == 8


def test_run_vqe_deterministic_for_fixed_seed():
    spec = ring_hamiltonian(ModeFamily.from_label("boson-periodic", 2))
    a = run_vqe(spec, VqeConfig(seed=42))
    b = run_vqe(spec, VqeConfig(seed=42))
    assert a.energy == b.energy
    assert a.trace == b.trace
    assert np.array_equal(a.parameters, b.parameters)


def test_run_vqe_capacity():
    spec = ring_hamiltonian(ModeFamily.from_label("fermion-periodic", 13))
    with pytest.raises(CapacityError, match="partition"):
        run_vqe(spec)


@pytest.mark.parametrize("optimizer", list(Optimizer))
def test_minimize_caps_the_parameter_count(optimizer):
    # Both optimizers keep n x n matrices: 4096^2 floats are 134 MB.
    def objective(x):
        pytest.fail("the objective ran past the parameter cap")

    with pytest.raises(CapacityError, match="4097 parameters"):
        minimize(objective, np.zeros(2**DENSE_QUBIT_CAP + 1), VqeConfig(optimizer=optimizer))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["boson-periodic", "boson-twisted", "fermion-periodic", "fermion-twisted"]),
    st.integers(1, 3),
    st.integers(0, 2**31),
    st.integers(0, 2),
)
def test_variational_bound_random_runs(label, sites, seed, depth):
    family = ModeFamily.from_label(label, sites)
    spec = ring_hamiltonian(family)
    cfg = VqeConfig(depth=depth, max_iterations=40, seed=seed)
    result = run_vqe(spec, cfg)
    assert result.energy >= spec.ground_energy() - 1e-9
    energies = [e for _, e in result.trace]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert result.energy == result.trace[-1][1]


def test_shots_mode_statistics():
    # 10^6 shots on a 1-qubit Z term: binomial standard error below 2e-3
    family = ModeFamily.from_label("fermion-periodic", 1)
    spec = mode_hamiltonian(family, 1)
    omega = mode_frequency(family, 1)
    errors = []
    for seed in range(5):
        cfg = VqeConfig(seed=seed, shots=10**6, max_iterations=60)
        result = run_vqe(spec, cfg)
        errors.append(abs(result.energy - (-omega / 2.0)))
    # scale of the residual: omega/2 * (a few) * 1e-3
    assert np.median(errors) < 3e-3 * omega


def test_shots_converge_towards_exact():
    spec = mode_hamiltonian(ModeFamily.from_label("fermion-periodic", 1), 1)
    psum = decompose_diagonal(spec.diagonal)
    state = ansatz_state(np.array([0.3]), 1, 0)
    exact = expectation(psum, state)
    from ringcasimir.pauli import sampled_expectation

    rng_small = np.random.default_rng(0)
    rng_large = np.random.default_rng(0)
    small = [abs(sampled_expectation(psum, state, 100, rng_small) - exact) for _ in range(200)]
    large = [abs(sampled_expectation(psum, state, 10**6, rng_large) - exact) for _ in range(200)]
    assert np.mean(large) < np.mean(small) / 10.0


def test_partitioned_run_boson_periodic_n1():
    report = partitioned_run(ModeFamily.from_label("boson-periodic", 1))
    assert report.exact_energy == pytest.approx(-0.2371, abs=5e-5)
    assert abs(report.percent_difference) <= 1e-3
    assert len(report.per_mode_energies) == 1
    assert report.subtraction == pytest.approx(-8.0 / np.pi)


def test_partitioned_run_fermion_periodic_n4():
    report = partitioned_run(ModeFamily.from_label("fermion-periodic", 4))
    assert report.exact_energy == pytest.approx(0.1036, abs=5e-5)
    assert abs(report.percent_difference) <= 1e-3
    assert len(report.per_mode_energies) == 4


def test_partitioned_run_combined_linearity():
    combined = ModeFamily.from_label("combined-periodic", 2)
    report = partitioned_run(combined)
    boson = casimir_exact(ModeFamily.from_label("boson-periodic", 2))
    fermion = casimir_exact(ModeFamily.from_label("fermion-periodic", 2))
    assert report.exact_energy == pytest.approx(boson + fermion, rel=1e-12)
    assert report.subtraction == pytest.approx(24.0 / np.pi)
    assert len(report.per_mode_energies) == 4
    assert abs(report.percent_difference) <= 1e-3


@pytest.mark.parametrize("label,sites", [("boson-periodic", 2), ("fermion-twisted", 3), ("combined-periodic", 1)])
def test_partition_additivity_vs_monolithic(label, sites):
    family = ModeFamily.from_label(label, sites)
    report = partitioned_run(family)
    monolithic = ring_hamiltonian(family).ground_energy() + subtraction_constant(family.statistics)
    n_modes = len(report.per_mode_energies)
    assert abs(report.vqe_energy - monolithic) <= 1e-6 * max(1, n_modes)


def test_combined_trace_monotone_and_offset():
    family = ModeFamily.from_label("boson-periodic", 2)
    report = partitioned_run(family)
    rows = combined_trace(report)
    energies = [e for _, e in rows]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert energies[-1] == pytest.approx(report.vqe_energy, abs=1e-12)
    steps = [s for s, _ in rows]
    assert steps == sorted(steps)


def test_run_vqe_on_pauli_only_spec():
    psum = decompose_diagonal(np.array([-1.0, 2.0]))
    spec = HamiltonianSpec(qubits=1, pauli=psum)
    result = run_vqe(spec, VqeConfig(seed=1))
    assert result.energy == pytest.approx(-1.0, abs=1e-6)


def test_vqe_config_validation():
    with pytest.raises(ValueError):
        VqeConfig(depth=-1)
    with pytest.raises(ValueError):
        VqeConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        VqeConfig(max_iterations=0)
    with pytest.raises(ValueError):
        VqeConfig(shots=0)
    with pytest.raises(ValueError):
        VqeConfig(ansatz="uccsd")
    with pytest.raises(ValueError):
        VqeConfig(init_spread=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            VqeConfig(tolerance=bad)
        with pytest.raises(ValueError, match="finite"):
            VqeConfig(init_spread=bad)
    # COBYLA's start radius is 1, and its final radius cannot exceed it; SLSQP takes any ftol
    with pytest.raises(ValueError, match="at most 1"):
        VqeConfig(tolerance=1.0 + 2.0**-52)
    assert VqeConfig(tolerance=1.0).tolerance == 1.0
    assert VqeConfig(optimizer=Optimizer.QUADRATIC, tolerance=2.0).tolerance == 2.0
    # numpy would refuse these only when the run draws its start, or draw an unseeded one
    for bad in (None, 2.5):
        with pytest.raises(ValueError, match="seed must be an integer"):
            VqeConfig(seed=bad)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        VqeConfig(seed=-1)
    assert VqeConfig(seed=0).seed == 0


def test_a_member_value_means_that_member_and_nothing_else_passes():
    # a string once passed every `is` test as the other member
    boson, periodic = Statistics.BOSON, Boundary.PERIODIC
    assert casimir_exact(ModeFamily(boson, "periodic", 2)) == -0.08433225973012304
    assert coupling_matrix(2, "periodic")[0, -1] == -1.0
    family = ModeFamily("boson", periodic, 2)
    assert family == ModeFamily(boson, periodic, 2)
    assert (family.qubits, family.label) == (4, "boson-periodic")
    assert VqeConfig(optimizer="linear") == VqeConfig()
    spec = mode_hamiltonian(ModeFamily(Statistics.FERMION, periodic, 2), 1)
    assert run_vqe(spec, VqeConfig(optimizer="linear")).evaluations == 38  # COBYLA's, not SLSQP's 5
    for make in (lambda: ModeFamily(boson, "junk", 2), lambda: ModeFamily("anyon", periodic, 2),
                 lambda: coupling_matrix(2, "junk"), lambda: VqeConfig(optimizer="cobyla")):
        with pytest.raises(ValueError, match="is not a valid"):
            make()


def test_vqe_config_limits_are_what_numpy_can_sample():
    # numpy's uniform needs a finite 2 * spread, and its binomial an int64 count
    spec = HamiltonianSpec(qubits=1, diagonal=np.array([-1.0, 2.0]))
    for cfg in (VqeConfig(init_spread=8.98e307, max_iterations=3),
                VqeConfig(shots=2**63 - 1, max_iterations=3)):
        assert math.isfinite(run_vqe(spec, cfg).energy)
    with pytest.raises(ValueError, match="init_spread"):
        VqeConfig(init_spread=8.99e307)
    with pytest.raises(ValueError, match="shots"):
        VqeConfig(shots=2**63)
