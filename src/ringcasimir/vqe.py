"""Variational quantum eigensolver on an exact statevector simulator.

The ansatz is hardware-efficient: layers of single-qubit Y rotations
interleaved with a fixed linear-chain controlled-Z entangler.  The default
"ry" family produces real amplitudes, which is all the diagonal ring
Hamiltonians need; the "ry-rz" family adds a phase rotation per qubit and
layer for Hamiltonians with genuinely complex ground states (the chiral
single-particle matrix).

Classical optimization is delegated to scipy.optimize: "linear" maps to
COBYLA (derivative-free linear trust-region) and "quadratic" to SLSQP
(quadratic model with finite-difference gradients and line search).  Every
objective evaluation is recorded; the reported energy and parameters are the
best evaluation seen, and the trace is the non-increasing best-so-far
record.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .hamiltonian import CapacityError, HamiltonianSpec
from .lattice import (
    CasimirReport,
    ModeFamily,
    _modes,
    casimir_exact,
    mode_hamiltonian,
    percent_difference,
    subtraction_constant,
)
from .pauli import PauliSum, term_values

__all__ = [
    "STATEVECTOR_QUBIT_CAP",
    "Optimizer",
    "VqeConfig",
    "VqeResult",
    "MinimizeResult",
    "n_parameters",
    "ansatz_state",
    "ansatz_state_phased",
    "minimize",
    "run_vqe",
    "partitioned_run",
]

STATEVECTOR_QUBIT_CAP = 12


class Optimizer(enum.Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"


_SCIPY_METHOD = {Optimizer.LINEAR: "COBYLA", Optimizer.QUADRATIC: "SLSQP"}


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
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be a positive count, got {self.shots}")
        if self.ansatz not in ("ry", "ry-rz"):
            raise ValueError(f"unknown ansatz {self.ansatz!r}; use 'ry' or 'ry-rz'")
        if not (math.isfinite(self.init_spread) and self.init_spread > 0):
            raise ValueError(f"init_spread must be positive and finite, got {self.init_spread}")


@dataclass
class VqeResult:
    """Optimized energy with best-so-far convergence trace.

    ``trace`` holds (evaluation index, best energy so far) pairs, one per
    accepted (improving) evaluation; its last entry equals ``energy``.
    """

    energy: float
    parameters: np.ndarray
    trace: list
    evaluations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "parameters": [float(x) for x in self.parameters],
            "iterations": len(self.trace),
            "evaluations": self.evaluations,
            "converged": self.converged,
        }


class _BudgetSpent(Exception):
    """COBYLA asked for more than ``max_iterations`` evaluations."""


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    trace: list
    evaluations: int
    converged: bool


def n_parameters(qubits: int, depth: int, ansatz: str = "ry") -> int:
    per_layer = qubits if ansatz == "ry" else 2 * qubits
    return per_layer * (depth + 1)


@lru_cache(maxsize=None)
def _cz_chain_signs(qubits: int) -> np.ndarray:
    """Diagonal of the linear-chain CZ entangler (qubit i with i+1)."""
    idx = np.arange(2**qubits)
    signs = np.ones(2**qubits)
    for q in range(qubits - 1):
        b1 = (idx >> (qubits - 1 - q)) & 1
        b2 = (idx >> (qubits - 2 - q)) & 1
        signs *= np.where((b1 & b2) == 1, -1.0, 1.0)
    return signs


def _apply_ry(state: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    view = state.reshape(2**qubit, 2, -1)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    a = view[:, 0, :].copy()
    b = view[:, 1, :].copy()
    view[:, 0, :] = c * a - s * b
    view[:, 1, :] = s * a + c * b
    return state


def _apply_rz(state: np.ndarray, qubit: int, phi: float) -> np.ndarray:
    view = state.reshape(2**qubit, 2, -1)
    view[:, 0, :] *= np.exp(-0.5j * phi)
    view[:, 1, :] *= np.exp(0.5j * phi)
    return state


def ansatz_state(parameters: np.ndarray, qubits: int, depth: int) -> np.ndarray:
    """Real-amplitude ansatz state: RY layers joined by CZ chains.

    Expects ``qubits * (depth + 1)`` parameters; depth 0 with all-zero
    parameters is the all-zeros basis state.
    """
    return _build_state(parameters, qubits, depth, phased=False)


def ansatz_state_phased(parameters: np.ndarray, qubits: int, depth: int) -> np.ndarray:
    """RY+RZ ansatz (``2 * qubits * (depth + 1)`` parameters) able to reach
    complex-amplitude ground states."""
    return _build_state(parameters, qubits, depth, phased=True)


def _build_state(parameters, qubits, depth, phased: bool) -> np.ndarray:
    parameters = np.asarray(parameters, dtype=float).reshape(-1)
    per_layer = 2 * qubits if phased else qubits
    expected = per_layer * (depth + 1)
    if parameters.shape[0] != expected:
        raise ValueError(
            f"expected {expected} parameters for {qubits} qubits at depth {depth}, "
            f"got {parameters.shape[0]}"
        )
    state = np.zeros(2**qubits, dtype=complex)
    state[0] = 1.0
    layers = parameters.reshape(depth + 1, per_layer)
    for d in range(depth + 1):
        if d > 0 and qubits > 1:
            state *= _cz_chain_signs(qubits)
        for q in range(qubits):
            state = _apply_ry(state, q, layers[d, q])
        if phased:
            for q in range(qubits):
                state = _apply_rz(state, q, layers[d, qubits + q])
    return state


def minimize(objective: Callable, x0: np.ndarray, cfg: VqeConfig) -> MinimizeResult:
    """Minimize ``objective`` from ``x0`` under the configured optimizer.

    Returns the best *evaluated* point together with the full improving-
    evaluation trace; ``converged`` is False when the iteration budget ran
    out before the optimizer's own stopping rule fired.  COBYLA's budget
    counts evaluations and is cut off at ``max_iterations`` exactly.
    """
    x0 = np.asarray(x0, dtype=float)
    best = {"fun": math.inf, "x": x0.copy()}
    trace: list = []
    evaluations = [0]
    linear = cfg.optimizer is Optimizer.LINEAR

    def wrapped(x):
        if linear and evaluations[0] >= cfg.max_iterations:
            raise _BudgetSpent
        value = float(objective(np.asarray(x, dtype=float)))
        evaluations[0] += 1
        if value < best["fun"]:
            best["fun"] = value
            best["x"] = np.array(x, dtype=float, copy=True)
            trace.append((evaluations[0], value))
        return value

    # COBYLA refuses a budget below the n + 2 points of its first simplex.
    maxiter = max(cfg.max_iterations, x0.size + 2) if linear else cfg.max_iterations
    try:
        # scipy maps tol onto COBYLA's "tol" and SLSQP's "ftol".
        result = _scipy_minimize(wrapped, x0, method=_SCIPY_METHOD[cfg.optimizer],
                                 tol=cfg.tolerance, options={"maxiter": maxiter})
        converged = bool(result.success)
    except _BudgetSpent:
        converged = False
    return MinimizeResult(
        x=best["x"],
        fun=best["fun"],
        trace=trace,
        evaluations=evaluations[0],
        converged=converged,
    )


def _sampled_expectation(p: PauliSum, state: np.ndarray, shots: int, rng) -> float:
    """Finite-shot estimate: each non-identity term is measured ``shots``
    times as an independent +-1 binomial around its exact value."""
    total = 0.0
    for (coefficient, letters), mean in zip(p.terms, term_values(p, state)):
        if set(letters) == {"I"}:
            total += coefficient
            continue
        mean = min(1.0, max(-1.0, float(mean)))
        ones = rng.binomial(shots, (1.0 + mean) / 2.0)
        total += coefficient * (2.0 * ones / shots - 1.0)
    return total


def run_vqe(h: HamiltonianSpec, cfg: VqeConfig = VqeConfig()) -> VqeResult:
    """Minimize <psi(theta)| H |psi(theta)> over the configured ansatz.

    Exact-expectation mode evaluates ``h.expectation`` on the stored
    representation and respects the variational bound: the reported energy
    cannot undercut the true ground energy.  Shot mode samples the terms of
    ``h.as_pauli()``.  Exhausting ``max_iterations`` yields
    ``converged=False`` rather than an error.
    """
    if h.qubits > STATEVECTOR_QUBIT_CAP:
        raise CapacityError(
            f"{h.qubits} qubits exceed the {STATEVECTOR_QUBIT_CAP}-qubit statevector cap; "
            "use per-mode partitioned runs"
        )
    psum = h.as_pauli() if cfg.shots else None
    phased = cfg.ansatz == "ry-rz"
    build = ansatz_state_phased if phased else ansatz_state
    rng = np.random.default_rng(cfg.seed)
    x0 = rng.uniform(-cfg.init_spread, cfg.init_spread, n_parameters(h.qubits, cfg.depth, cfg.ansatz))
    shot_rng = np.random.default_rng(cfg.seed + 0x5EED) if cfg.shots else None

    def objective(params):
        state = build(params, h.qubits, cfg.depth)
        if cfg.shots:
            return _sampled_expectation(psum, state, cfg.shots, shot_rng)
        return h.expectation(state)

    outcome = minimize(objective, x0, cfg)
    return VqeResult(
        energy=outcome.fun,
        parameters=outcome.x,
        trace=outcome.trace,
        evaluations=outcome.evaluations,
        converged=outcome.converged,
    )


def partitioned_run(family: ModeFamily, cfg: VqeConfig = VqeConfig(),
                    return_mode_results: bool = False):
    """One VQE per mode Hamiltonian, summed and corrected into a report.

    Mode runs are independent (separately seeded, fixed order); the total is
    the per-mode energy sum plus the family's subtraction constant, compared
    against :func:`casimir_exact`.
    """
    per_mode = []
    results = []
    for k, (member, i) in enumerate(_modes(family)):
        result = run_vqe(mode_hamiltonian(member, i), replace(cfg, seed=cfg.seed + k))
        per_mode.append(result.energy)
        results.append(result)
    correction = subtraction_constant(family.statistics)
    vqe_energy = float(sum(per_mode)) + correction
    exact = casimir_exact(family)
    report = CasimirReport(
        family=family,
        exact_energy=exact,
        vqe_energy=vqe_energy,
        percent_difference=percent_difference(vqe_energy, exact),
        per_mode_energies=per_mode,
        subtraction=correction,
    )
    if return_mode_results:
        return report, results
    return report


def combined_trace(results, offset: float = 0.0) -> list:
    """Best-total-so-far trace of a sequential partitioned run.

    Walks the per-mode traces in mode order; at each accepted iterate of
    mode m the total is (finished modes' best) + (mode m best so far) +
    (later modes' first evaluation) + ``offset``.  Produces plot-ready
    monotone data converging to the corrected VQE energy.
    """
    if not results:
        return []
    firsts = [r.trace[0][1] if r.trace else r.energy for r in results]
    bests = [r.energy for r in results]
    rows = []
    step = 0
    for m, result in enumerate(results):
        done = sum(bests[:m])
        later = sum(firsts[m + 1:])
        for _, value in result.trace:
            step += 1
            rows.append((step, done + value + later + offset))
    return rows
