import csv
import json
import re
import runpy
import types
from pathlib import Path

import pytest

import ringcasimir
from ringcasimir import cli, vqe

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


FAMILIES = ("boson-periodic", "boson-twisted", "fermion-periodic", "fermion-twisted")
DISPERSIONS = ("l6-eta1", "l6-eta5", "l14-eta1", "l14-eta10")
# Each data file scripts/data_files.py writes, and the subcommand that writes it.
DATA_FILES = {
    **{f"traces/{label}-n8.csv": "vqe" for label in FAMILIES},
    "traces/chiral-l3-eta10.csv": "vqe",
    **{f"chiral/dispersion-{name}.csv": "dispersion" for name in DISPERSIONS},
    "chiral/reference-report.json": "exact",
    "chiral/boson-pauli-counts.csv": "pauli-count",
}


def test_data_files_writes_every_file_with_its_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("RINGCASIMIR_OUTDIR", str(tmp_path))
    results = []

    def recording_run_vqe(*args, **kwargs):
        results.append(vqe.run_vqe(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_vqe", recording_run_vqe)
    with pytest.raises(SystemExit) as exit:
        runpy.run_path(str(SCRIPTS / "data_files.py"), run_name="__main__")
    assert exit.value.code == 0

    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert written == {*DATA_FILES, *(f"{name}.manifest.json" for name in DATA_FILES)}
    for name, command in DATA_FILES.items():
        assert (tmp_path / name).stat().st_size > 0
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["command"] == command, name

    for label in FAMILIES:
        with open(tmp_path / f"traces/{label}-n8.csv") as fh:
            assert len(list(csv.DictReader(fh))) > 1
    with open(tmp_path / "traces/chiral-l3-eta10.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(results) == 1  # the family runs go through partitioned_run
    assert float(rows[-1]["energy"]) == results[0].energy
    report = json.loads((tmp_path / "chiral/reference-report.json").read_text())
    assert report["casimir"] == report["dirac_sea_energy"] - report["subtraction"]


def test_data_files_stop_at_the_first_failing_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RINGCASIMIR_OUTDIR", str(tmp_path))
    run = runpy.run_path(str(SCRIPTS / "data_files.py"))["run"]
    bad = "exact --family boson-periodic --sites 0 --json bad.json"
    assert run([bad, "pauli-count --family boson-periodic --sites 1..2 --out later.csv"]) == 2
    assert capsys.readouterr().err.endswith(f"`ringcasimir {bad}` exited 2\n")
    assert list(tmp_path.iterdir()) == []


def test_readme_scripts_exist():
    readme = (SCRIPTS.parent / "README.md").read_text()
    named = re.findall(r"python (scripts/[\w.-]+\.py)", readme)
    assert "scripts/data_files.py" in named
    for path in named:
        assert (SCRIPTS.parent / path).is_file(), path


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
        "exact", "export", "import", "exact", "pauli-count", "dispersion", "exact", "vqe", "vqe"]
    for command, seconds, code, (optimize, sparse) in rows:
        assert code == 0 and seconds > 0.0
        # Both optimizers are the package's own, COBYLA and BFGS; a manifest imports
        # scipy only for its version.  The chiral row's CSR product H|psi> loads scipy.sparse.
        assert not optimize, command
        assert sparse == command.startswith("vqe --chiral"), command
