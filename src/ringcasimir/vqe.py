"""Variational quantum eigensolver on an exact statevector simulator.

The ansatz is hardware-efficient: layers of single-qubit Y rotations
interleaved with a fixed linear-chain controlled-Z entangler.  The default
"ry" family produces real amplitudes, which is all the diagonal ring
Hamiltonians need; the "ry-rz" family adds a phase rotation per qubit and
layer for Hamiltonians with genuinely complex ground states (the chiral
single-particle matrix).  Either family is one list of commuting blocks,
built per layer, that :func:`ansatz_state` walks forward and the adjoint
gradient walks back.  RY turns through the one rotation kernel ``_rotate``
at theta and at -theta.  The forward pass turns an RZ block in one
product per half state (:func:`_phase_layer`); the backward pass undoes it
with one phase vector exp(i/2 sum_q theta_q z_q), which rounds otherwise,
and each pass keeps its own so the pinned runs keep their points.
The kernel's three-operation RY and the product-state first block give
the amplitudes of the plain gate-by-gate circuit bit for bit, by IEEE
rules rather than by how numpy orders its loops: x - y is x + (-y), sums
and products of two terms commute, and a complex number times a real one
(zero imaginary part) rounds as the real product, with or without a fused
multiply-add.  Only the sign of an exact zero can differ.  The RZ layer
gives them by numpy's loops instead: numpy 2.4.6 rounds a complex product
on one element (its scalar loop, as Python's ``*``) otherwise than on two
or more (its SIMD loop), so the layer multiplies each half state, the
2^(n-1) elements that each per-qubit turn runs on.

The "linear" optimizer is COBYLA (derivative-free linear trust region),
the package's port of Powell's method with PRIMA's rules (``cobyla``;
Zhang, doi:10.5281/zenodo.8052654), which evaluates the points that scipy
1.17.1's COBYLA evaluates.  "quadratic" is scipy's SLSQP (quadratic model
and line search; exact gradients from one adjoint walk back over the
block list, finite differences with shots).  Every objective evaluation
is recorded; the reported energy and parameters are the best evaluation
seen, and the trace is the non-increasing best-so-far record.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .cobyla import cobyla
from .hamiltonian import DENSE_QUBIT_CAP, CapacityError, HamiltonianSpec
from .lattice import (
    CasimirReport,
    ModeFamily,
    _modes,
    casimir_exact,
    mode_hamiltonian,
    percent_difference,
    subtraction_constant,
)
from .operators import _integer, bit_parity
from .pauli import _require_shots, sampled_expectation

__all__ = [
    "ANSATZE",
    "STATEVECTOR_QUBIT_CAP",
    "Optimizer",
    "VqeConfig",
    "VqeResult",
    "n_parameters",
    "ansatz_state",
    "ansatz_state_phased",
    "minimize",
    "run_vqe",
    "partitioned_run",
]

STATEVECTOR_QUBIT_CAP = 12
ANSATZE = ("ry", "ry-rz")


class Optimizer(enum.Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"


@dataclass(frozen=True)
class VqeConfig:
    """Run configuration.

    ``shots=None`` means exact expectation values; a positive count samples
    each Pauli term binomially.  ``init_spread`` bounds the uniform random
    initial parameters; the default keeps the start near |0...0>, which is
    the ground state of every diagonal ring Hamiltonian here.  Depth 0 is
    the default because those ground states are product states and the
    entangling layer only adds a flat parameter valley that slows the
    linear-model optimizer; raise it (with the ry-rz ansatz) for
    Hamiltonians with entangled or complex ground states.
    """

    depth: int = 0
    optimizer: Optimizer = Optimizer.LINEAR
    max_iterations: int = 500
    tolerance: float = 1e-8
    seed: int = 7
    shots: Optional[int] = None
    ansatz: str = "ry"
    init_spread: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "optimizer", Optimizer(self.optimizer))  # "linear" is LINEAR
        if _integer(self.depth, "depth") < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if _integer(self.max_iterations, "max_iterations") < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.optimizer is Optimizer.LINEAR and self.tolerance > 1:  # COBYLA's rho_beg
            raise ValueError(f"tolerance must be at most 1 for the linear optimizer, got {self.tolerance}")
        if _integer(self.seed, "seed") < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.shots is not None:
            _require_shots(self.shots)
        if self.ansatz not in ANSATZE:
            raise ValueError(f"unknown ansatz {self.ansatz!r}; use one of {ANSATZE}")
        if not (math.isfinite(self.init_spread) and self.init_spread > 0):
            raise ValueError(f"init_spread must be positive and finite, got {self.init_spread}")
        if self.init_spread > np.finfo(float).max / 2:  # the window 2 * spread overflows
            raise ValueError(f"init_spread must be at most max float / 2, got {self.init_spread}")


@dataclass
class VqeResult:
    """Optimized energy with best-so-far convergence trace.

    ``trace`` holds (evaluation index, best energy so far) pairs, one per
    accepted (improving) evaluation; its last entry equals ``energy``.  An
    exact SLSQP evaluation is one energy-and-gradient pass.
    """

    energy: float
    parameters: np.ndarray
    trace: list
    evaluations: int
    converged: bool


@lru_cache(maxsize=None, typed=True)  # typed: a cached 2 must not answer for 2.0
def _blocks(qubits: int, depth: int, ansatz: str) -> tuple:
    """The ansatz as blocks ``(gate, parameter slice)`` in application order.

    Each of the ``depth + 1`` layers is an RY block on every qubit, then
    (for "ry-rz") an RZ block on every qubit; a CZ-chain block (empty slice)
    precedes every layer but the first at 2 or more qubits.  A rotation
    block turns qubits 0, 1, ... in order, and its i-th rotation takes
    parameter ``slice.start + i``.  The adjoint gradient relies on one
    invariant: a block's rotations commute with each other and with each of
    its generators, so all of its gradients can be read at its end.
    """
    if ansatz not in ANSATZE:
        raise ValueError(f"unknown ansatz {ansatz!r}; use one of {ANSATZE}")
    if _integer(qubits, "qubits") < 1 or _integer(depth, "depth") < 0:
        raise ValueError(f"need qubits >= 1 and depth >= 0, got {qubits} and {depth}")
    blocks, k = [], 0
    for layer in range(depth + 1):
        if layer and qubits > 1:
            blocks.append(("cz", slice(k, k)))
        for gate in ("ry",) if ansatz == "ry" else ("ry", "rz"):
            blocks.append((gate, slice(k, k + qubits)))
            k += qubits
    return tuple(blocks)


def n_parameters(qubits: int, depth: int, ansatz: str = "ry") -> int:
    return _blocks(qubits, depth, ansatz)[-1][1].stop


@lru_cache(maxsize=None)
def _cz_chain_signs(qubits: int) -> np.ndarray:
    """Diagonal of the linear-chain CZ entangler (qubit i with i+1): -1 for
    an odd number of adjacent set-bit pairs."""
    idx = np.arange(2**qubits)
    return np.where(bit_parity(idx & (idx >> 1)), -1.0, 1.0)


def ansatz_state(parameters: np.ndarray, qubits: int, depth: int,
                 ansatz: str = "ry") -> np.ndarray:
    """Statevector of the ``ansatz`` blocks applied to |0...0>.

    "ry" gives real amplitudes; "ry-rz" follows each RY layer with an RZ
    layer and reaches complex ones.  Takes one parameter per rotation,
    ``n_parameters(qubits, depth, ansatz)`` in all; all zero gives |0...0>.
    The first block, RY on every qubit, meets only exact zeros in partner
    amplitudes, so it is the product state whose amplitude r multiplies,
    qubit 0 first, cos(theta_q / 2) or sin(theta_q / 2) as bit q of r is
    clear or set: the same products, in the same order, as rotating gate by
    gate.
    """
    blocks, count = _blocks(qubits, depth, ansatz), n_parameters(qubits, depth, ansatz)
    parameters = np.asarray(parameters, dtype=float).reshape(-1)
    if parameters.shape[0] != count:
        raise ValueError(
            f"expected {count} parameters for {qubits} qubits at depth {depth}, "
            f"got {parameters.shape[0]}"
        )
    angles = parameters.tolist()
    halves = [angle / 2.0 for angle in angles[:qubits]]
    cos, sin = [[math.cos(h)] for h in halves], [[math.sin(h)] for h in halves]
    state = np.multiply.reduce(np.where(_bit_tables(qubits)[0] > 0, cos, sin), axis=0)
    state = state.astype(complex)
    for gate, k in blocks[1:]:  # blocks[0] is the product state
        if gate == "cz":
            state *= _cz_chain_signs(qubits)
        elif gate == "rz":
            state = _phase_layer(state, angles[k])
        else:
            for q, angle in enumerate(angles[k]):
                _rotate(state, gate, q, angle)
    return state


def _rotate(state: np.ndarray, gate: str, q: int, angle: float) -> None:
    """Apply exp(-i angle P / 2) to qubit ``q`` of ``state`` in place, with
    P = Y for "ry" and Z for "rz"; ``-angle`` undoes it; a (k, 2^n) stack turns as one.

    RY turns the pair (a, b) into (c a - s b, c b + s a) in three numpy
    operations: scale by c, then add the swapped pair times (-s, s).  By
    IEEE rules that is bit for bit what (c a - s b, s a + c b) gives: x - y
    is x + (-y), addition commutes, and a real factor has a zero imaginary
    part, so each complex product rounds as the real one, FMA or not.
    """
    angle = float(angle)
    view = state.reshape(-1, 2, state.shape[-1] >> (q + 1))
    if gate == "ry":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        turned = view[:, ::-1] * np.array([[-s], [s]])
        view *= c
        view += turned
    else:
        view[:, 0, :] *= cmath.exp(-0.5j * angle)
        view[:, 1, :] *= cmath.exp(0.5j * angle)


def _phase_layer(state: np.ndarray, angles: list) -> np.ndarray:
    """RZ(angles[q]) on every qubit q of ``state``, as a new vector.  Each
    half state (qubit 0 clear, set) is one product over rows in order: the
    amplitudes, then per qubit q exp(-i angles[q] / 2) where bit q of r is
    clear and exp(i angles[q] / 2) where it is set.  So amplitude r takes the
    per-qubit products in their order, in numpy's loop on 2^(n-1) elements."""
    phases = []
    for angle in angles:
        phases += (cmath.exp(-0.5j * angle), cmath.exp(0.5j * angle))
    stack = np.append(state, phases)[_phase_picks(len(angles))]
    return np.multiply.reduce(stack, axis=1).reshape(-1)


ansatz_state_phased = partial(ansatz_state, ansatz="ry-rz")


@lru_cache(maxsize=None)
def _bit_tables(qubits: int) -> tuple:
    """``(z, flips)`` with z[q, r] = +1 or -1 for bit q of r clear or set and
    flips[q, r] = r ^ m_q, m_q = 2^(n-1-q): qubit 0 is the most significant bit."""
    idx, masks = np.arange(2**qubits), 1 << np.arange(qubits - 1, -1, -1)[:, None]
    return np.where(idx & masks, -1.0, 1.0), idx ^ masks


@lru_cache(maxsize=None)
def _phase_picks(qubits: int) -> np.ndarray:
    """The (2, n + 1, 2^(n-1)) gather behind :func:`_phase_layer`: in half h,
    row 0 picks amplitude r and row 1 + q picks entry 2^n + 2q + (bit q of r)
    of ``[state, phases]``, for r = h 2^(n-1) + column."""
    dim, z = 2**qubits, _bit_tables(qubits)[0]
    rows = np.vstack([np.arange(dim), dim + 2 * np.arange(qubits)[:, None] + (z < 0)])
    return rows.reshape(qubits + 1, 2, dim // 2).transpose(1, 0, 2).copy()


def _energy_and_gradient(h: HamiltonianSpec, parameters, depth: int, ansatz: str):
    """<psi|H|psi> and its gradient by the adjoint method (Jones & Gacon,
    arXiv:2009.02823), walked back over the stack of lam = H|psi> and
    phi = |psi> one block of :func:`_blocks` at a time.  A block's rotations
    commute with each other and with each of its generators P_q, so all of
    its gradients Im <lam|P_q|phi> are read at its end; an RZ block is then
    undone with one phase vector, an RY block qubit by qubit, except the
    first block, after which nothing is read."""
    phi = ansatz_state(parameters, h.qubits, depth, ansatz)
    lam = h.apply(phi)  # expectation(phi) on the CSR form is this vdot; a diagonal rounds otherwise
    diagonal = isinstance(h._form, np.ndarray)
    energy = h.expectation(phi) if diagonal else float(np.vdot(phi, lam).real)
    lam, phi = pair = np.stack([lam, phi])  # views into the one stack
    z, flips = _bit_tables(h.qubits)
    gradient = np.empty(len(parameters))
    for gate, k in reversed(_blocks(h.qubits, depth, ansatz)):
        if gate == "cz":
            pair *= _cz_chain_signs(h.qubits)
        elif gate == "rz":  # <lam|Z_q|phi> = sum_r conj(lam_r) z[q, r] phi_r
            gradient[k] = (z @ (lam.conj() * phi)).imag
            pair *= np.exp(0.5j * (parameters[k] @ z))
        else:  # <lam|Y_q|phi> = -i sum_r conj(lam_r) z[q, r] phi[r ^ m_q]
            gradient[k] = -((z * phi[flips]) @ lam.conj()).real
            if k.start == 0:  # blocks[0], the last one walked
                break
            for q, angle in enumerate(parameters[k]):
                _rotate(pair, "ry", q, -angle)
    return energy, gradient


def minimize(objective: Callable, x0: np.ndarray, cfg: VqeConfig, jac: bool = False) -> VqeResult:
    """Minimize ``objective`` from ``x0`` under the configured optimizer.

    "linear" runs :func:`cobyla.cobyla`, the package's port of Powell's
    COBYLA with PRIMA's rules (Zhang, doi:10.5281/zenodo.8052654), which
    evaluates the points that scipy 1.17.1's COBYLA evaluates; its budget
    counts evaluations and stops at ``max_iterations`` exactly.  "quadratic"
    runs scipy's SLSQP.  Returns the best *evaluated* point together with
    the full improving-evaluation trace; ``converged`` is False when the
    budget ran out before the optimizer's own stopping rule fired.  With
    ``jac=True`` the objective returns ``(energy, gradient)`` for SLSQP
    (COBYLA raises ``ValueError``); best point and trace follow the energy.
    More than 2^DENSE_QUBIT_CAP parameters raise :class:`CapacityError`:
    both optimizers keep n x n matrices.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.size > 2**DENSE_QUBIT_CAP:
        raise CapacityError(f"{x0.size} parameters exceed the {2**DENSE_QUBIT_CAP}-parameter cap")
    best = {"fun": math.inf, "x": x0.copy()}
    trace: list = []
    evaluations = [0]
    linear = cfg.optimizer is Optimizer.LINEAR
    if jac and linear:
        raise ValueError("jac=True needs the quadratic optimizer; COBYLA takes no gradient")

    def wrapped(x):
        out = objective(np.asarray(x, dtype=float))
        value = float(out[0] if jac else out)
        evaluations[0] += 1
        if value < best["fun"]:
            best["fun"] = value
            best["x"] = np.array(x, dtype=float, copy=True)
            trace.append((evaluations[0], value))
        return (value, out[1]) if jac else value

    if linear:
        converged = False
        steps = cobyla(x0, cfg.tolerance, cfg.max_iterations)
        try:
            x = next(steps)
            while evaluations[0] < cfg.max_iterations:
                x = steps.send(wrapped(x))
        except StopIteration as stop:
            converged = stop.value
    else:
        # Imported here so that runs without SLSQP skip its 0.5 s load.
        from scipy.optimize import minimize as scipy_minimize
        result = scipy_minimize(wrapped, x0, method="SLSQP", jac=jac, tol=cfg.tolerance,
                                options={"maxiter": cfg.max_iterations})
        converged = bool(result.success)
    return VqeResult(energy=best["fun"], parameters=best["x"], trace=trace,
                     evaluations=evaluations[0], converged=converged)


def run_vqe(h: HamiltonianSpec, cfg: VqeConfig = VqeConfig()) -> VqeResult:
    """Minimize <psi(theta)| H |psi(theta)> over the configured ansatz.

    Exact-expectation mode evaluates ``h.expectation`` on the stored
    representation and respects the variational bound: the reported energy
    cannot undercut the true ground energy; SLSQP also gets its adjoint
    gradient.  Shot mode samples the terms of ``h.as_pauli()``, whose term
    actions the sum builds at the first evaluation and keeps.  Exhausting
    ``max_iterations`` yields ``converged=False`` rather than an error.
    """
    if h.qubits > STATEVECTOR_QUBIT_CAP:
        raise CapacityError(
            f"{h.qubits} qubits exceed the {STATEVECTOR_QUBIT_CAP}-qubit statevector cap; "
            "use per-mode partitioned runs"
        )
    psum = h.as_pauli() if cfg.shots else None
    rng = np.random.default_rng(cfg.seed)
    x0 = rng.uniform(-cfg.init_spread, cfg.init_spread, n_parameters(h.qubits, cfg.depth, cfg.ansatz))
    shot_rng = np.random.default_rng(cfg.seed + 0x5EED) if cfg.shots else None

    adjoint = not cfg.shots and cfg.optimizer is Optimizer.QUADRATIC

    def objective(params):
        if adjoint:
            return _energy_and_gradient(h, params, cfg.depth, cfg.ansatz)
        state = ansatz_state(params, h.qubits, cfg.depth, cfg.ansatz)
        if cfg.shots:
            return sampled_expectation(psum, state, cfg.shots, shot_rng)
        return h.expectation(state)

    return minimize(objective, x0, cfg, jac=adjoint)


def partitioned_run(family: ModeFamily, cfg: VqeConfig = VqeConfig()) -> CasimirReport:
    """One VQE per mode Hamiltonian, summed and corrected into a report.

    Mode runs are independent (separately seeded, fixed order); the total is
    the per-mode energy sum plus the family's subtraction constant, compared
    against :func:`casimir_exact`.
    """
    results = [run_vqe(mode_hamiltonian(member, i), replace(cfg, seed=cfg.seed + k))
               for k, (member, i) in enumerate(_modes(family))]
    correction = subtraction_constant(family.statistics)
    vqe_energy = float(sum(r.energy for r in results)) + correction
    exact = casimir_exact(family)
    return CasimirReport(
        family=family,
        exact_energy=exact,
        vqe_energy=vqe_energy,
        percent_difference=percent_difference(vqe_energy, exact),
        subtraction=correction,
        mode_results=results,
    )


def combined_trace(report: CasimirReport) -> list:
    """Best-total-so-far trace of a sequential partitioned run.

    Walks the per-mode traces in mode order; at each accepted iterate of
    mode m the total is (finished modes' best) + (mode m best so far) +
    (later modes' first evaluation) + the subtraction constant.  Produces
    plot-ready monotone data converging to the corrected VQE energy.
    """
    results = report.mode_results
    firsts = [r.trace[0][1] if r.trace else r.energy for r in results]
    bests = report.per_mode_energies
    rows = []
    step = 0
    for m, result in enumerate(results):
        done = sum(bests[:m])
        later = sum(firsts[m + 1:])
        for _, value in result.trace:
            step += 1
            rows.append((step, done + value + later + report.subtraction))
    return rows
