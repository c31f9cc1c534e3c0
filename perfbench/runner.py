"""Closed-loop execution of one workload and the metrics it reports."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import spans as sp
from .hostclock import HostClock

# Layers whose self time (LAYER_SELF) and call count (LAYER_CALLS) the traced
# run reports.
LAYER_SELF = (
    "vqe.minimize", "vqe.run_vqe", "vqe.partitioned_run",
    "pauli.expectation", "pauli.decompose", "pauli.decompose_diagonal", "pauli.serialize",
    "pauli.parse", "pauli.reconstruct", "pauli.term_count", "operators.kron_chain",
    "hamiltonian.ground_energy", "hamiltonian.as_matrix",
    "chiral.jordan_wigner_hamiltonian", "chiral.dirac_sea_energy", "chiral.bulk_density",
    "chiral.single_particle_matrix", "lattice.ring_hamiltonian", "lattice.mode_hamiltonian",
    "lattice.casimir_exact", "cli.main",
)
LAYER_CALLS = (
    "vqe.run_vqe", "pauli.expectation", "pauli.decompose", "operators.kron_chain",
    "hamiltonian.ground_energy", "chiral.jordan_wigner_hamiltonian", "cli.main",
)
ANSATZ = ("vqe.ansatz_state", "vqe.ansatz_state_phased")

# Smallest sample for which the 90th percentile has ten samples beyond it.
P90_MIN_TASKS = 100


@dataclass
class Outcome:
    """One task: its wall interval and its busy seconds (wall time minus
    any host-clock sampling that fired inside it)."""

    kind: str
    start: float
    end: float
    seconds: float
    error: str = ""
    counts: dict = field(default_factory=dict)


def _execute(task, clock=None) -> Outcome:
    """Time ``task.run`` alone; the oracle check runs after the clock stops."""
    sampled = clock.spent if clock else 0.0
    start = time.perf_counter()
    output, error = None, ""
    try:
        output = task.run()
    except Exception:
        error = f"{task.label}: {traceback.format_exc(limit=3)}"
    end = time.perf_counter()
    if clock:
        sampled = clock.spent - sampled
    outcome = Outcome(task.kind, start, end, end - start - sampled, error)
    if not error:
        try:
            task.check(output)
            outcome.counts = task.tally(output) if task.tally else {}
        except Exception as exc:
            outcome.error = f"{task.label}: {type(exc).__name__}: {exc}"
    return outcome


def run_loop(workload, seconds, rep=0, clock=None):
    """The batch, then stream tasks for ``seconds``, ending on a whole unit
    and after at least ``min_stream`` tasks.

    The stream's window opens after the batch, so a slow batch task does
    not shrink the stream sample.  Returns the outcomes and the number of
    stream tasks run.
    """
    outcomes = [_execute(task, clock) for task in workload.batch]
    start = time.perf_counter()
    i = 0
    while (i < workload.min_stream or i % workload.unit
           or time.perf_counter() - start < seconds):
        outcomes.append(_execute(workload.stream(i, rep), clock))
        i += 1
    return outcomes, i


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcomes, n_stream, setup_samples, clock, lapack_batch) -> tuple:
    """(metrics, extra record fields) of an untraced loop.

    ``batch_s`` is the batch's time; the per-task metrics cover the
    stream.  Task times are normalized by the host slowdown the clock
    measured around each task, except those of a ``lapack_batch``; the raw
    figures go into the record.
    """
    raw = [o.seconds for o in outcomes]
    slowdowns = [clock.slowdown(o.start, o.end) for o in outcomes]
    norm = [t / s for t, s in zip(raw, slowdowns)]
    n_batch = len(outcomes) - n_stream
    stream, raw_stream = norm[n_batch:], raw[n_batch:]
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "batch_s": {"value": sum((raw if lapack_batch else norm)[:n_batch]), "unit": "s"},
        "tasks_per_s": {"value": len(stream) / sum(stream), "unit": "1/s"},
        "task_p50_ms": {"value": 1e3 * statistics.median(stream), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    extra = {
        "raw_batch_s": sum(raw[:n_batch]),
        "raw_tasks_per_s": len(raw_stream) / sum(raw_stream),
        "raw_task_p50_ms": 1e3 * statistics.median(raw_stream),
        "task_p90_ms": None,
        "host_slowdown": {"median": statistics.median(slowdowns), "min": min(slowdowns),
                          "max": max(slowdowns), "samples": len(clock.samples),
                          "sampling_s": clock.spent},
    }
    if len(stream) >= P90_MIN_TASKS:
        extra["task_p90_ms"] = 1e3 * statistics.quantiles(stream, n=10)[-1]
    return metrics, extra


def per_layer(recorder, traced, compared, untraced) -> dict:
    """Per-layer metrics from the traced loop's spans and counters.

    The tracing overhead is the busy time of the ``compared`` traced stream
    tasks minus that of the same tasks run again ``untraced``.
    """
    totals = sp.layer_totals(recorder.spans)
    counts = defaultdict(float, recorder.counts)
    for o in traced:
        for key, value in o.counts.items():
            counts[key] += value

    def get(layer, key):
        return totals[layer][key] if layer in totals else 0

    busy_s = sum(o.seconds for o in traced)
    traced_s = sum(o.seconds for o in compared)
    untraced_s = sum(o.seconds for o in untraced)
    objective_s = sum(get(a, "self_s") for a in ANSATZ) + get("pauli.expectation", "self_s")
    run_vqe_s = get("vqe.run_vqe", "total_s")
    values = {
        "vqe.run_vqe.total_s": (run_vqe_s, "s"),
        "vqe.objective.evals": (counts["vqe.objective.evals"], "count"),
        "vqe.objective_share": (objective_s / run_vqe_s if run_vqe_s else 0.0, "ratio"),
        "vqe.ansatz_state.calls": (sum(get(a, "calls") for a in ANSATZ), "count"),
        "vqe.ansatz_state.self_s": (sum(get(a, "self_s") for a in ANSATZ), "s"),
        "pauli.expectation.terms": (counts["pauli.expectation.terms"], "count"),
        "hamiltonian.ground_energy.share": (
            get("hamiltonian.ground_energy", "total_s") / busy_s, "ratio"),
        "cli.bytes_written": (counts["cli.bytes_written"], "bytes"),
        "trace.tasks": (len(traced), "count"),
        "trace.busy_s": (busy_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }
    for layer in LAYER_CALLS:
        values[f"{layer}.calls"] = (get(layer, "calls"), "count")
    for layer in LAYER_SELF:
        values[f"{layer}.self_s"] = (get(layer, "self_s"), "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def summarize(outcomes) -> dict:
    """Task count, busy time, median and summed counters per task kind."""
    by_kind = defaultdict(list)
    for o in outcomes:
        by_kind[o.kind].append(o)
    out = {}
    for kind, group in by_kind.items():
        times = [o.seconds for o in group]
        counts = defaultdict(float)
        for o in group:
            for key, value in o.counts.items():
                counts[key] += value
        out[kind] = {"tasks": len(times), "busy_s": sum(times),
                     "p50_ms": 1e3 * statistics.median(times), **counts}
    return out


def _blas_threads() -> dict:
    """Thread counts reported by every OpenBLAS library loaded in-process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                found[os.path.basename(path)] = int(fn())
                break
    return found


def _git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root, seed) -> dict:
    """Machine, library and source identity recorded with every result."""
    src = root / "src" / "ringcasimir"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run(workload, seconds, trace, setup_samples) -> tuple:
    """Run ``workload``; return the result line, the record and the recorder.

    Untraced: one loop for ``seconds`` under the host clock; the
    end-to-end metrics.  Traced: a traced loop with a ``seconds / 2`` stream
    window, then its stream tasks again untraced, so the difference of their
    busy times is the tracing overhead; the per-layer metrics.  The host
    clock stays off there, since its handler would land inside spans.
    """
    if trace:
        recorder = sp.Recorder()
        with sp.instrumented(recorder):
            traced, n_stream = run_loop(workload, seconds / 2.0)
        untraced = [_execute(workload.stream(i, 1)) for i in range(n_stream)]
        outcomes = traced + untraced
        metrics = per_layer(recorder, traced, traced[len(traced) - n_stream:], untraced)
        extra = {}
    else:
        recorder = None
        with HostClock() as clock:
            outcomes, n_stream = run_loop(workload, seconds, clock=clock)
        metrics, extra = end_to_end(outcomes, n_stream, setup_samples, clock,
                                    workload.lapack_batch)
    failures = [o.error for o in outcomes if o.error]
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "fail_frac": len(failures) / len(outcomes),
        "setup_samples_s": list(setup_samples),
        "by_kind": summarize(outcomes),
        "failures": failures[:10],
        **extra,
    }
    return result, record, recorder
