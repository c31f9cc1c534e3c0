"""Span recorder for the traced benchmark run.

The recorder wraps the package's public functions from outside: every
module attribute (and class attribute) through which a listed function is
looked up is replaced by one timing wrapper, so calls made from inside the
package (``vqe.run_vqe`` calling ``expectation``, ``cli.main`` calling
``decompose_diagonal``) become child spans of the caller.  Spans stay in
memory and are written out once, when the run ends.  A listed function that
no longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Layer name -> (module, attribute path) of the function it times.
TARGETS = {
    "lattice.ring_hamiltonian": ("ringcasimir.lattice", "ring_hamiltonian"),
    "lattice.mode_hamiltonian": ("ringcasimir.lattice", "mode_hamiltonian"),
    "lattice.casimir_exact": ("ringcasimir.lattice", "casimir_exact"),
    "operators.kron_chain": ("ringcasimir.operators", "kron_chain"),
    "hamiltonian.ground_energy": ("ringcasimir.hamiltonian", "HamiltonianSpec.ground_energy"),
    "hamiltonian.as_matrix": ("ringcasimir.hamiltonian", "HamiltonianSpec.as_matrix"),
    "pauli.decompose": ("ringcasimir.pauli", "decompose"),
    "pauli.decompose_diagonal": ("ringcasimir.pauli", "decompose_diagonal"),
    "pauli.reconstruct": ("ringcasimir.pauli", "reconstruct"),
    "pauli.term_count": ("ringcasimir.pauli", "term_count"),
    "pauli.expectation": ("ringcasimir.pauli", "expectation"),
    "pauli.serialize": ("ringcasimir.pauli", "serialize"),
    "pauli.parse": ("ringcasimir.pauli", "parse"),
    "vqe.ansatz_state": ("ringcasimir.vqe", "ansatz_state"),
    "vqe.ansatz_state_phased": ("ringcasimir.vqe", "ansatz_state_phased"),
    "vqe.minimize": ("ringcasimir.vqe", "minimize"),
    "vqe.run_vqe": ("ringcasimir.vqe", "run_vqe"),
    "vqe.partitioned_run": ("ringcasimir.vqe", "partitioned_run"),
    "chiral.single_particle_matrix": ("ringcasimir.chiral", "single_particle_matrix"),
    "chiral.dirac_sea_energy": ("ringcasimir.chiral", "dirac_sea_energy"),
    "chiral.bulk_density": ("ringcasimir.chiral", "bulk_density"),
    "chiral.jordan_wigner_hamiltonian": ("ringcasimir.chiral", "jordan_wigner_hamiltonian"),
    "cli.main": ("ringcasimir.cli", "main"),
}


def _expectation_terms(args, kwargs, result):
    p = args[0] if args else kwargs.get("p")
    return {"pauli.expectation.terms": len(p)}


def _vqe_evaluations(args, kwargs, result):
    return {"vqe.objective.evals": result.evaluations}


# Exact counts taken from a call's arguments or result.
TALLIES = {"pauli.expectation": _expectation_terms, "vqe.run_vqe": _vqe_evaluations}


class Recorder:
    """In-memory spans ``(id, parent, name, start, end)`` plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn, tally=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = recorder._stack[-1] if recorder._stack else -1
            recorder._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
                recorder.spans.append((span_id, parent, name, start, end))
            if tally is not None:
                for key, value in tally(args, kwargs, result).items():
                    recorder.counts[key] += value
            return result

        return traced


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ringcasimir" or name.startswith("ringcasimir."))]


class instrumented:
    """Context manager that installs the recorder's wrappers and restores
    every patched attribute on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._restore = []

    def __enter__(self):
        modules = _package_modules()
        for name, (module_name, path) in TARGETS.items():
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                continue
            wrapper = self.recorder.wrap(name, original, TALLIES.get(name))
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        return self.recorder

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its children.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for span_id, parent, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for span_id, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_totals(spans) -> dict:
    """Layer name -> {"calls", "self_s", "total_s"} over all spans."""
    own = self_times(spans)
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span_id, _, name, start, end in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += own[span_id]
        entry["total_s"] += end - start
    return totals


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_s,end_s\n")
        for span_id, parent, name, start, end in spans:
            fh.write(f"{span_id},{parent},{name},{start!r},{end!r}\n")
