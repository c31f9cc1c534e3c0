"""Seeded task lists for the three benchmark workloads.

Every workload is a closed loop with one client: a *batch* of fixed
tasks that runs once, then a *stream* of seeded tasks that runs for the
measuring time.  Each task calls the package's public API
through module attributes (``vqe.run_vqe``, ``pauli.parse``) so the traced
run sees the calls, and carries its own check against an oracle from
:mod:`perfbench.oracles`.  Checks run outside the timed region and call
nothing in the package.

Why these workloads:

* ``ring-vqe`` is the paper's main table workload (criteria 3 and 4):
  partitioned VQE over the four families at N = 1..8, then a stream of
  small COBYLA runs.  It is bound by scipy's COBYLA, not the simulator, so
  it shows how little a simulator-only change moves the main use, and it
  catches per-call overhead on 1-8 qubit states.
* ``chiral-vqe`` is the SLSQP path on the Jordan-Wigner chiral Hamiltonian
  (criterion 10's L = 3, seed 3 run, then L = 2 runs over a seed pool).
  Nearly all of its time is the objective, on Pauli strings with X and Y,
  so gradient and expectation changes show here and bypass ``ring-vqe``.
* ``exact-export`` is the build, solve and write side with no optimizer:
  the dual-path Jordan-Wigner solves (dense L = 6), Pauli round trips,
  Dirac-sea and bulk-density checks, then a stream of README CLI commands
  and ring round trips whose data files must repeat byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from ringcasimir import chiral, cli, lattice, pauli, vqe

from . import oracles as ora
from .oracles import close, require

WORKLOADS = ("ring-vqe", "chiral-vqe", "exact-export")

CHIRAL_ETA = 10.0
# The frozen chiral normalization quoted in the README.
SCALE_CONSTANT = 0.7400108005400663


@dataclass
class Task:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    tally: Optional[Callable[[Any], dict]] = None


@dataclass
class Workload:
    """``stream(i, rep)`` returns stream task ``i``; ``rep`` numbers the
    repeats of the loop within one process, so repeated CLI tasks write to
    fresh directories.  The stream stops only after a whole ``unit`` of
    tasks (a balanced round, a pool cycle, a CLI cycle), so every run
    measures the same mix, and runs at least ``min_stream`` tasks.

    ``lapack_batch`` marks a batch bound by one long multithreaded LAPACK
    call, which the host clock cannot sample inside and whose speed the
    kernels timed next to it do not track (perfbench/NOTES.md).  Its time
    is reported as measured."""

    name: str
    batch: list
    stream: Callable[[int, int], Task]
    unit: int
    min_stream: int
    lapack_batch: bool = False


# ---------------------------------------------------------------- ring-vqe

def _partitioned_task(label: str, sites: int) -> Task:
    def run():
        return vqe.partitioned_run(lattice.ModeFamily.from_label(label, sites), vqe.VqeConfig())

    def check(report):
        exact = ora.casimir(label, sites)
        close(report.exact_energy, exact, 1e-12, f"{label} N={sites} exact energy")
        require(report.vqe_energy >= exact - 1e-9,
                f"{label} N={sites}: VQE {report.vqe_energy!r} undercuts {exact!r}")
        pct = 100.0 * (report.vqe_energy - exact) / exact
        require(abs(pct) <= 1.0, f"{label} N={sites}: |percent difference| {abs(pct):.3g} > 1")

    return Task("partitioned", f"partitioned {label} N={sites}", run, check)


def _ring_vqe_task(label: str, sites: int, depth: int, seed: int) -> Task:
    def run():
        spec = lattice.ring_hamiltonian(lattice.ModeFamily.from_label(label, sites))
        return vqe.run_vqe(spec, vqe.VqeConfig(depth=depth, max_iterations=60, seed=seed))

    def check(result):
        ground = ora.raw_mode_sum(label, sites)
        require(math.isfinite(result.energy), f"non-finite VQE energy {result.energy!r}")
        require(result.energy >= ground - 1e-9,
                f"{label} N={sites}: VQE {result.energy!r} undercuts ground {ground!r}")

    return Task("ring-vqe", f"ring-vqe {label} N={sites} depth={depth} seed={seed}", run, check,
                lambda result: {"evaluations": result.evaluations})


def _ring_vqe(rng, small: bool) -> Workload:
    sizes = range(1, 3) if small else range(1, 9)
    batch = [_partitioned_task(label, n) for label in ora.FAMILIES for n in sizes]
    # Balanced rounds: every (family, N, depth) cell once per round in a
    # seeded order, so the cost of a run does not hinge on which cells the
    # seed happened to favour.
    cells = [(label, n, d) for label in ora.FAMILIES for n in range(1, 5) for d in range(3)]
    inputs = []
    for _ in range(40):
        for k in rng.permutation(len(cells)):
            inputs.append(cells[k] + (int(rng.integers(0, 2**31)),))

    def stream(i, rep):
        return _ring_vqe_task(*inputs[i % len(inputs)])

    return Workload("ring-vqe", batch, stream, unit=len(cells), min_stream=len(cells))


# -------------------------------------------------------------- chiral-vqe

def _chiral_vqe_task(sites: int, seed: int) -> Task:
    cfg = vqe.VqeConfig(depth=3, optimizer=vqe.Optimizer.QUADRATIC, max_iterations=600,
                        tolerance=1e-12, seed=seed, ansatz="ry-rz", init_spread=math.pi)

    def run():
        t = chiral.single_particle_matrix(chiral.ChiralSystem(sites, CHIRAL_ETA))
        result = vqe.run_vqe(chiral.jordan_wigner_hamiltonian(t), cfg)
        return result, chiral.dirac_sea_energy(t)

    def check(output):
        result, sea = output
        close(sea, ora.dirac_sea(sites, CHIRAL_ETA), 1e-10, f"L={sites} Dirac sea")
        require(result.energy >= sea - 1e-9, f"L={sites}: VQE {result.energy!r} undercuts {sea!r}")
        rel = abs(result.energy - sea) / abs(sea)
        require(rel <= 1e-3, f"L={sites} seed={seed}: relative error {rel:.3e} > 1e-3")

    return Task(f"chiral-vqe-L{sites}", f"chiral-vqe L={sites} seed={seed}", run, check,
                lambda output: {"evaluations": output[0].evaluations})


# SLSQP's evaluation count at L = 2 swings from ~1000 to ~3600 with the
# start point, so fresh VQE seeds per run moved a run's cost by +-25% between
# workload seeds.  The stream therefore cycles this fixed pool of VQE seeds
# in a seeded order: the workload seed changes the order, not the work.
CHIRAL_SEED_POOL = tuple(range(6))


def _chiral_vqe(rng, small: bool) -> Workload:
    batch = [_chiral_vqe_task(2 if small else 3, 3)]
    pool = CHIRAL_SEED_POOL[:1] if small else CHIRAL_SEED_POOL
    seeds = [pool[k] for k in rng.permutation(len(pool))]

    def stream(i, rep):
        return _chiral_vqe_task(2, seeds[i % len(seeds)])

    return Workload("chiral-vqe", batch, stream, unit=len(seeds), min_stream=len(seeds))


# ------------------------------------------------------------ exact-export

def _dual_path_task(sites: int) -> Task:
    def run():
        t = chiral.single_particle_matrix(chiral.ChiralSystem(sites, CHIRAL_ETA))
        return chiral.jordan_wigner_hamiltonian(t).ground_energy(), chiral.dirac_sea_energy(t)

    def check(output):
        many_body, sea = output
        close(sea, ora.dirac_sea(sites, CHIRAL_ETA), 1e-10, f"L={sites} Dirac sea")
        require(abs(many_body - sea) <= 1e-9,
                f"L={sites}: dual-path gap {abs(many_body - sea):.3e} > 1e-9")

    return Task("dual-path", f"dual-path L={sites}", run, check)


def _jw_round_trip_task(sites: int) -> Task:
    def run():
        t = chiral.single_particle_matrix(chiral.ChiralSystem(sites, CHIRAL_ETA))
        matrix = chiral.jordan_wigner_hamiltonian(t).as_matrix()
        p = pauli.decompose(matrix)
        q = pauli.parse(pauli.serialize(p))
        return matrix, p, q, pauli.reconstruct(q)

    def check(output):
        matrix, p, q, rebuilt = output
        require(q == p, f"L={sites}: parse(serialize(p)) != p")
        require(any(set(s) & {"X", "Y"} for _, s in p.terms), f"L={sites}: no X/Y strings")
        err = float(np.max(np.abs(rebuilt - matrix)))
        require(err <= 1e-10, f"L={sites}: reconstruct error {err:.3e}")

    return Task("jw-round-trip", f"jw-round-trip L={sites}", run, check)


def _bulk_task(eta: float) -> Task:
    return Task("bulk-density", f"bulk-density eta={eta}",
                lambda: chiral.bulk_density(eta),
                lambda value: close(value, ora.bulk_density(eta), 1e-7, f"bulk density eta={eta}"))


def _sea_task(sites: int, eta: float) -> Task:
    return Task("dirac-sea", f"dirac-sea L={sites} eta={eta}",
                lambda: chiral.dirac_sea_energy(
                    chiral.single_particle_matrix(chiral.ChiralSystem(sites, eta))),
                lambda value: close(value, ora.dirac_sea(sites, eta), 1e-10,
                                    f"L={sites} eta={eta} Dirac sea"))


def _ring_round_trip_task(label: str, sites: int) -> Task:
    def run():
        spec = lattice.ring_hamiltonian(lattice.ModeFamily.from_label(label, sites))
        p = pauli.decompose_diagonal(spec.diagonal)
        return p, pauli.parse(pauli.serialize(p))

    def check(output):
        p, q = output
        require(q == p, f"{label} N={sites}: parse(serialize(p)) != p")
        ora.check_ring_pauli(p, label, sites)

    return Task("ring-round-trip", f"ring-round-trip {label} N={sites}", run, check)


def _read_lines(path: Path):
    return path.read_text().splitlines()


def _parse_pauli_text(text: str) -> dict:
    """Independent reader of the Pauli text format: {string: coefficient}."""
    rows = [line.split() for line in text.splitlines() if line and not line.startswith("#")]
    return {letters: float(c) for c, letters in rows[1:]}


def _cli_commands(rng) -> list:
    """(name, argv for an output directory, data files, check) per README command.

    The seeded choices are made once per run, so every cycle repeats the same
    commands and must write the same bytes.
    """
    boson = ("boson-periodic", "boson-twisted")[int(rng.integers(0, 2))]
    export_sites = int(rng.integers(1, 4))
    count_family = ora.FAMILIES[int(rng.integers(0, 4))]
    vqe_family = ("fermion-periodic", "fermion-twisted")[int(rng.integers(0, 2))]
    vqe_seed = int(rng.integers(0, 10**6))
    commands = []

    for label in ora.FAMILIES:
        def check_sweep(d, out, label=label):
            rows = json.loads((d / f"exact-{label}.json").read_text())
            require([r["sites"] for r in rows] == list(range(1, 9)), f"{label}: sweep rows")
            for row in rows:
                close(row["exact_energy"], ora.casimir(label, row["sites"]), 1e-12,
                      f"exact {label} N={row['sites']}")
                close(row["subtraction"], ora.subtraction(label), 1e-15, f"{label} subtraction")
        commands.append((f"exact-sweep {label}",
                         lambda d, label=label: ["exact", "--family", label, "--sweep", "1..8",
                                                 "--json", str(d / f"exact-{label}.json")],
                         [f"exact-{label}.json"], check_sweep))

    def check_export(d, out):
        got = _parse_pauli_text((d / "h.pauli").read_text())
        expected = ora.ring_pauli_terms(boson, export_sites)
        require(set(got) == set(expected), f"export {boson} N={export_sites}: strings differ")
        for letters, c in expected.items():
            close(got[letters], c, 1e-11, f"export coefficient {letters}")
    commands.append(("export", lambda d: ["export", "--family", boson, "--sites", str(export_sites),
                                          "--out", str(d / "h.pauli")],
                     ["h.pauli"], check_export))

    def check_import(d, out):
        fields = dict(line.split() for line in out.splitlines())
        require(int(fields["qubits"]) == 2 * export_sites, "import: qubit count")
        require(int(fields["terms"]) == len(ora.ring_pauli_terms(boson, export_sites)),
                "import: term count")
        close(float(fields["ground_energy"]), ora.raw_mode_sum(boson, export_sites), 1e-12,
              "import ground energy")
    commands.append(("import", lambda d: ["import", str(d / "h.pauli")], [], check_import))

    def check_from_file(d, out):
        fields = dict(line.split() for line in out.splitlines())
        close(float(fields["ground_energy"]), ora.raw_mode_sum(boson, export_sites), 1e-12,
              "exact --from-file ground energy")
    commands.append(("exact-from-file", lambda d: ["exact", "--from-file", str(d / "h.pauli")],
                     [], check_from_file))

    def check_count(d, out):
        rows = [line.split(",") for line in _read_lines(d / "counts.csv")[1:]]
        require(len(rows) == 8, "pauli-count: row count")
        for n, (sites, qubits, terms) in enumerate(rows, start=1):
            expected = ora.term_count(count_family, n)
            if expected is None:
                require((qubits, terms) == ("NA", "NA"), f"pauli-count N={n}: expected NA")
            else:
                require(int(qubits) == ora.ring_qubits(count_family, n) and int(terms) == expected,
                        f"pauli-count {count_family} N={n}: {qubits},{terms} vs {expected}")
    commands.append(("pauli-count", lambda d: ["pauli-count", "--family", count_family,
                                               "--sites", "1..8", "--out", str(d / "counts.csv")],
                     ["counts.csv"], check_count))

    def check_dispersion(d, out):
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in _read_lines(d / "disp.csv")[1:]])
        require(rows.shape == (14 + 256, 3), f"dispersion: shape {rows.shape}")
        p = np.concatenate([2 * np.pi * np.arange(14) / 14, 2 * np.pi * np.arange(256) / 256])
        lo, hi = ora.branches(p, CHIRAL_ETA)
        err = float(np.max(np.abs(rows - np.column_stack([p, lo, hi]))))
        require(err <= 1e-12, f"dispersion: closed-form deviation {err:.3e}")
        ev = np.linalg.eigvalsh(ora.chiral_matrix(14, CHIRAL_ETA))
        err = float(np.max(np.abs(np.sort(rows[:14, 1:].ravel()) - ev)))
        require(err <= 1e-9, f"dispersion: eigenvalue multiset deviation {err:.3e}")
    commands.append(("dispersion", lambda d: ["dispersion", "--sites", "14", "--eta", "10",
                                              "--dense", "256", "--out", str(d / "disp.csv")],
                     ["disp.csv"], check_dispersion))

    def check_chiral(d, out):
        report = json.loads((d / "chiral.json").read_text())
        close(report["scale"], SCALE_CONSTANT / 14, 1e-15, "chiral scale")
        close(report["dirac_sea_energy"], ora.dirac_sea(14, CHIRAL_ETA, report["scale"]), 1e-10,
              "exact --chiral Dirac sea")
        close(report["casimir"], report["dirac_sea_energy"] - report["subtraction"], 1e-15,
              "exact --chiral casimir")
        close(report["continuum_target"], 2 * math.pi / (6 * 7.0**2), 1e-15, "continuum target")
    commands.append(("exact-chiral", lambda d: ["exact", "--chiral", "--sites", "14", "--eta", "10",
                                                "--json", str(d / "chiral.json")],
                     ["chiral.json"], check_chiral))

    def check_vqe(d, out):
        record = json.loads((d / "run.json").read_text())
        exact = ora.casimir(vqe_family, 8)
        close(record["exact_energy"], exact, 1e-12, "vqe exact energy")
        require(record["converged"], "vqe: not converged")
        require(record["vqe_energy"] >= exact - 1e-9, "vqe: variational bound violated")
        pct = 100.0 * (record["vqe_energy"] - exact) / exact
        require(abs(pct) <= 1.0, f"vqe: |percent difference| {abs(pct):.3g} > 1")
        last = float(_read_lines(d / "trace.csv")[-1].split(",")[1])
        close(last, record["vqe_energy"], 1e-9, "vqe trace end")
    commands.append(("vqe", lambda d: ["vqe", "--family", vqe_family, "--sites", "8",
                                       "--optimizer", "linear", "--seed", str(vqe_seed),
                                       "--json", str(d / "run.json"), "--trace", str(d / "trace.csv")],
                     ["run.json", "trace.csv"], check_vqe))
    return commands


def _cli_task(name, argv, data_files, check_files, directory: Path, reference: Path) -> Task:
    def run():
        directory.mkdir(parents=True, exist_ok=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv(directory))
        return code, out.getvalue()

    def check(output):
        code, text = output
        require(code == 0, f"cli {name}: exit code {code}: {text[-300:]!r}")
        check_files(directory, text)
        if directory != reference:
            for fname in data_files:
                require((directory / fname).read_bytes() == (reference / fname).read_bytes(),
                        f"cli {name}: {fname} differs from the first pass")

    def tally(output):
        written = [directory / f for f in data_files]
        written += [p.with_name(p.name + ".manifest.json") for p in written]
        return {"cli.bytes_written": sum(p.stat().st_size for p in written)}

    return Task("cli", "cli " + " ".join(argv(Path("."))), run, check, tally)


def _exact_export(rng, small: bool, outdir: Path) -> Workload:
    dual = range(2, 5) if small else range(2, 7)
    round_trip = range(3, 5) if small else range(3, 6)
    batch = [_dual_path_task(L) for L in dual]
    batch += [_jw_round_trip_task(L) for L in round_trip]
    for eta in (1.0, CHIRAL_ETA):
        batch.append(_bulk_task(eta))
        batch += [_sea_task(L, eta) for L in (10, 20, 40)]

    commands = _cli_commands(rng)
    rings = []
    for _ in range(200):
        for _ in range(4):
            label = ora.ALL_FAMILIES[int(rng.integers(0, len(ora.ALL_FAMILIES)))]
            rings.append((label, int(rng.integers(1, ora.max_ring_sites(label) + 1))))
    per_cycle = len(commands) + 4
    reference = outdir / "r0-c0"

    def stream(i, rep):
        cycle, k = divmod(i, per_cycle)
        if k < len(commands):
            return _cli_task(*commands[k], outdir / f"r{rep}-c{cycle}", reference)
        return _ring_round_trip_task(*rings[(cycle * 4 + k - len(commands)) % len(rings)])

    return Workload("exact-export", batch, stream, unit=per_cycle, min_stream=2 * per_cycle,
                    lapack_batch=True)


def build(name: str, seed: int, outdir: Path, small: bool = False) -> Workload:
    """The named workload's tasks, generated from ``seed`` alone.

    ``small`` shrinks the batch and the chiral seed pool (for the
    benchmark's own tests).
    Building writes nothing; CLI tasks create their directories under
    ``outdir`` when they run.
    """
    rng = np.random.default_rng(seed)
    if name == "ring-vqe":
        return _ring_vqe(rng, small)
    if name == "chiral-vqe":
        return _chiral_vqe(rng, small)
    if name == "exact-export":
        return _exact_export(rng, small, Path(outdir))
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
