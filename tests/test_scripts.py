import csv
import json
import runpy
import types
from pathlib import Path

import ringcasimir
from ringcasimir import vqe

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# The names the scripts and users import from the package top level, in order.
EXPORTS = [
    "__version__", "Boundary", "CapacityError", "CasimirReport", "ChiralSystem",
    "DispersionPoint", "HamiltonianSpec", "ModeFamily", "Optimizer", "PauliFormatError",
    "PauliSum", "Statistics", "VqeConfig", "VqeResult", "ansatz_state",
    "ansatz_state_phased", "boson_lower", "bulk_density", "calibrate_scale_constant",
    "casimir_exact", "chiral_casimir", "continuum_casimir_target", "continuum_density",
    "coupling_matrix", "decompose", "decompose_diagonal", "dirac_sea_energy", "dispersion",
    "dispersion_table", "expectation", "fermion_lower", "hermitian_eigen",
    "jordan_wigner_hamiltonian", "kinetic_block", "kron_chain", "large_n_series", "minimize",
    "mode_frequency", "mode_hamiltonian", "mode_sum_energy", "parse", "partitioned_run",
    "reconstruct", "reference_system", "ring_hamiltonian", "run_vqe", "serialize",
    "single_particle_matrix", "subtraction_constant", "term_count", "wilson_block",
]


def test_export_list_is_pinned():
    assert ringcasimir.__all__ == EXPORTS
    for name in EXPORTS:
        assert not isinstance(getattr(ringcasimir, name), types.ModuleType), name


def test_scripts_write_their_files(tmp_path, monkeypatch):
    monkeypatch.setenv("RINGCASIMIR_OUTDIR", str(tmp_path))
    results = []

    def recording_run_vqe(*args, **kwargs):
        results.append(vqe.run_vqe(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ringcasimir, "run_vqe", recording_run_vqe)
    for script in ("convergence_traces.py", "chiral_scan.py"):
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")

    traces = tmp_path / "traces"
    for label in ("boson-periodic", "boson-twisted", "fermion-periodic", "fermion-twisted"):
        with open(traces / f"{label}-n8.csv") as fh:
            assert len(list(csv.DictReader(fh))) > 1
    with open(traces / "chiral-l3-eta10.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(results) == 1
    assert float(rows[-1]["energy"]) == results[0].energy

    chiral = tmp_path / "chiral"
    for name in ("dispersion-l6-eta1.csv", "dispersion-l6-eta5.csv",
                 "dispersion-l14-eta1.csv", "dispersion-l14-eta10.csv",
                 "boson-pauli-counts.csv"):
        assert (chiral / name).stat().st_size > 0
    report = json.loads((chiral / "reference-report.json").read_text())
    assert report["casimir"] == report["dirac_sea_energy"] - report["subtraction"]


def test_chiral_scan_dual_path_gaps_stay_at_rounding(capsys):
    runpy.run_path(str(SCRIPTS / "chiral_scan.py"))["print_dual_path"]()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["sites", "qubits", "seconds", "applies", "|E_JW", "-", "E_sea|"]
    assert [row.split()[:2] for row in rows] == [[str(L), str(2 * L)] for L in range(2, 7)]
    assert all(float(row.split()[-1]) <= 1e-12 for row in rows)


def test_reproduce_tables_prints_every_family(capsys):
    runpy.run_path(str(SCRIPTS / "reproduce_tables.py"), run_name="__main__")
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert len(blocks) == 5
    for label, block in zip(("boson-periodic", "boson-twisted", "fermion-periodic",
                             "fermion-twisted"), blocks):
        header, columns, *rows = block.splitlines()
        assert header == f"=== {label} ==="
        assert columns.split() == ["n", "exact", "vqe", "pct", "diff"]
        assert [int(row.split()[0]) for row in rows] == list(range(1, 9))
        assert all(len(row.split()) == 4 for row in rows)
    assert blocks[-1].startswith("total time: ") and blocks[-1].endswith("s")


def test_cli_timings_load_neither_optimizer_nor_sparse():
    rows = runpy.run_path(str(SCRIPTS / "cli_timings.py"))["timings"](1)
    assert [row[0].split()[0] for row in rows] == [
        "exact", "export", "import", "exact", "pauli-count", "dispersion", "exact", "vqe"]
    for command, seconds, code, (optimize, sparse) in rows:
        assert code == 0 and seconds > 0.0
        # The vqe row runs the package's COBYLA; only its manifest imports scipy, for the version.
        assert not optimize and not sparse, command
