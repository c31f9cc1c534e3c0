import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from ringcasimir.chiral import (
    ChiralSystem,
    bulk_density,
    dirac_sea_energy,
    jordan_wigner_hamiltonian,
    reference_system,
    single_particle_matrix,
)
from ringcasimir import cli
from ringcasimir.cli import main
from ringcasimir.pauli import serialize


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_single_row(capsys):
    code, out, _ = run_cli(capsys, "exact", "--family", "boson-periodic", "--sites", "1")
    assert code == 0
    row = out.strip().splitlines()[-1].split()
    assert int(row[0]) == 1
    assert float(row[1]) == pytest.approx(-0.2371, abs=5e-5)


def test_exact_fermion_twisted(capsys):
    code, out, _ = run_cli(capsys, "exact", "--family", "fermion-twisted", "--sites", "2")
    assert code == 0
    assert float(out.strip().splitlines()[-1].split()[1]) == pytest.approx(-1.3918, abs=5e-5)


def test_exact_no_correction(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--family", "boson-periodic", "--sites", "1", "--no-correction"
    )
    assert code == 0
    assert float(out.strip().splitlines()[-1].split()[1]) == pytest.approx(2.3094, abs=5e-5)


def test_exact_sweep_reproduces_column(capsys, tmp_path):
    out_json = tmp_path / "bp.json"
    code, out, _ = run_cli(
        capsys, "exact", "--family", "boson-periodic", "--sweep", "1..8",
        "--json", str(out_json),
    )
    assert code == 0
    rows = json.loads(out_json.read_text())
    assert [r["sites"] for r in rows] == list(range(1, 9))
    expected = [-0.2371, -0.0843, -0.0429, -0.0259, -0.0173, -0.0124, -0.0093, -0.0073]
    for row, value in zip(rows, expected):
        assert row["exact_energy"] == pytest.approx(value, abs=5e-5)
    manifest = json.loads((tmp_path / "bp.json.manifest.json").read_text())
    assert manifest["command"] == "exact"
    assert "timestamp" in manifest
    assert manifest["numpy_version"] == np.__version__
    assert manifest["scipy_version"] == scipy.__version__


def test_exact_single_value_sweep_is_one_row(capsys):
    code, out, _ = run_cli(capsys, "exact", "--family", "boson-periodic", "--sweep", "3")
    assert code == 0
    assert out == run_cli(capsys, "exact", "--family", "boson-periodic", "--sites", "3")[1]
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("sweep", ["5..2", "0", "0..3"])
def test_exact_bad_sweep_is_usage_error(capsys, sweep):
    code, out, err = run_cli(capsys, "exact", "--family", "boson-periodic", "--sweep", sweep)
    assert code == 2
    assert err == f"error: bad sweep range {sweep!r}\n"


def chiral_report(capsys, tmp_path, *argv):
    out_json = tmp_path / "chiral.json"
    code, _, _ = run_cli(capsys, "exact", "--chiral", *argv, "--json", str(out_json))
    assert code == 0
    return json.loads(out_json.read_text())


def test_exact_chiral_bulk_subtraction_away_from_reference(capsys, tmp_path):
    report = chiral_report(capsys, tmp_path, "--sites", "6", "--eta", "5")
    system = reference_system(6, 5.0)
    sea = dirac_sea_energy(single_particle_matrix(system))
    assert report["scale"] == system.scale
    assert report["subtraction"] == system.scale * system.sites * bulk_density(system.eta)
    assert report["casimir"] == sea - report["subtraction"]


def test_exact_chiral_explicit_scale_and_subtraction(capsys, tmp_path):
    report = chiral_report(capsys, tmp_path, "--sites", "6", "--eta", "5", "--scale", "0.5")
    assert report["scale"] == 0.5
    assert report["dirac_sea_energy"] == dirac_sea_energy(
        single_particle_matrix(ChiralSystem(6, 5.0, 0.5))
    )
    assert report["subtraction"] == 0.5 * 6 * bulk_density(5.0)
    report = chiral_report(capsys, tmp_path, "--sites", "6", "--eta", "5", "--subtraction", "1.5")
    assert report["subtraction"] == 1.5
    assert report["casimir"] == report["dirac_sea_energy"] - 1.5


def test_exact_chiral_at_huge_eta_is_finite(capsys, tmp_path):
    report = chiral_report(capsys, tmp_path, "--sites", "3", "--eta", "1e160")
    for key in ("dirac_sea_energy", "subtraction", "casimir", "continuum_target"):
        assert math.isfinite(report[key])


def test_exact_chiral_reference(capsys, tmp_path):
    out_json = tmp_path / "chiral.json"
    code, out, _ = run_cli(
        capsys, "exact", "--chiral", "--sites", "14", "--eta", "10",
        "--json", str(out_json),
    )
    assert code == 0
    report = json.loads(out_json.read_text())
    assert report["dirac_sea_energy"] == pytest.approx(-5.55433587, abs=1e-8)
    assert report["subtraction"] == pytest.approx(-5.57571769)
    assert report["casimir"] == pytest.approx(0.0213818, abs=1e-6)
    assert report["continuum_target"] == pytest.approx(2 * math.pi / 294, rel=1e-12)


def test_vqe_family_run(capsys, tmp_path):
    out_json = tmp_path / "run.json"
    trace_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "vqe", "--family", "fermion-periodic", "--sites", "8",
        "--optimizer", "linear", "--seed", "7",
        "--json", str(out_json), "--trace", str(trace_csv),
    )
    assert code == 0
    record = json.loads(out_json.read_text())
    assert record["family"] == "fermion-periodic"
    assert record["sites"] == 8
    assert record["optimizer"] == "linear"
    assert record["seed"] == 7
    assert record["converged"] is True
    assert abs(record["percent_difference"]) <= 1e-2
    lines = trace_csv.read_text().splitlines()
    assert lines[0] == "iteration,energy"
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert energies[-1] == pytest.approx(record["vqe_energy"], abs=1e-12)


def test_vqe_rerun_is_byte_identical(capsys, tmp_path):
    args = [
        "vqe", "--family", "boson-twisted", "--sites", "2", "--seed", "11",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code1, _, _ = run_cli(capsys, *args, "--trace", str(first))
    code2, _, _ = run_cli(capsys, *args, "--trace", str(second))
    assert code1 == code2 == 0
    assert first.read_bytes() == second.read_bytes()


def test_vqe_chiral_quadratic(capsys, tmp_path):
    out_json = tmp_path / "chiral_vqe.json"
    code, out, _ = run_cli(
        capsys, "vqe", "--chiral", "--sites", "2", "--eta", "10",
        "--optimizer", "quadratic", "--ansatz", "ry-rz", "--depth", "3",
        "--init-spread", "3.14159", "--max-iterations", "600",
        "--tolerance", "1e-12", "--seed", "3", "--json", str(out_json),
    )
    record = json.loads(out_json.read_text())
    assert abs(record["percent_difference"]) < 0.1
    assert record["vqe_energy"] >= record["exact_energy"] - 1e-9
    manifest = json.loads((tmp_path / "chiral_vqe.json.manifest.json").read_text())
    assert manifest["command"] == "vqe"
    assert manifest["config"]["optimizer"] == "quadratic"
    assert (manifest["numpy_version"], manifest["scipy_version"]) == (np.__version__, scipy.__version__)


def test_vqe_shots_mode(capsys, tmp_path):
    out_json = tmp_path / "shots.json"
    code, out, _ = run_cli(
        capsys, "vqe", "--family", "boson-periodic", "--sites", "1",
        "--shots", "100000", "--seed", "2", "--max-iterations", "200",
        "--json", str(out_json),
    )
    assert code in (0, 3)  # sampled objectives may exhaust the budget
    record = json.loads(out_json.read_text())
    # 3 sigma of binomial noise on coefficients of order omega
    assert abs(record["vqe_energy"] - record["exact_energy"]) < 0.15


def test_vqe_not_converged_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "vqe", "--family", "boson-periodic", "--sites", "1",
        "--max-iterations", "2",
    )
    assert code == 3


def test_vqe_non_finite_init_spread_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "vqe", "--family", "fermion-periodic", "--sites", "1", "--init-spread", "nan",
    )
    assert code == 2
    assert err.startswith("error:") and "init_spread" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_exact_non_finite_subtraction_is_usage_error(capsys, value):
    code, out, err = run_cli(capsys, "exact", "--chiral", "--sites", "3", "--subtraction", value)
    assert code == 2
    assert err.startswith("error:") and "--subtraction" in err
    assert "casimir" not in out


def test_vqe_capacity_exit_code(capsys):
    code, _, err = run_cli(capsys, "vqe", "--chiral", "--sites", "7", "--eta", "5")
    assert code == 4
    assert "cap" in err


def test_chiral_sites_above_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "exact", "--chiral", "--sites", "2049")
    assert code == 4
    assert "cap" in err


def test_diagonal_pauli_file_above_cap_exit_code(capsys, tmp_path):
    path = tmp_path / "big.pauli"
    # The wide files need masks past 64 bits.
    for qubits, letter, cap in ((17, "Z", "16-qubit diagonal cap"),
                                (100, "Z", "16-qubit diagonal cap"),
                                (70, "X", "12-qubit dense cap")):
        path.write_text(f"qubits {qubits}\n1.0 " + letter * qubits + "\n")
        for command in ("import", "exact --from-file", "vqe --from-file"):
            code, _, err = run_cli(capsys, *command.split(), str(path))
            assert code == 4 and cap in err, (qubits, command, err)


def test_exact_from_small_pauli_file_loads_no_sparse(tmp_path):
    # At or below the dense-solve size, the ground energy densifies the sum
    # with pauli.reconstruct and never builds the CSR form.
    path = tmp_path / "xx.pauli"
    path.write_text("qubits 2\n0.5 XX\n0.25 ZI\n")
    code = ("import sys; from ringcasimir.cli import main; "
            f"code = main(['exact', '--from-file', {str(path)!r}]); "
            "print('scipy.sparse' in sys.modules, code)")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=os.environ | {"PYTHONPATH": str(src)},
    ).stdout
    assert out == "qubits 2\nground_energy -0.5590169943749475\nFalse 0\n"


def test_linear_vqe_loads_no_scipy():
    # COBYLA is the package's own; a run that writes no file imports no scipy at all.
    code = ("import sys; from ringcasimir.cli import main; "
            "code = main(['vqe', '--family', 'fermion-periodic', '--sites', '2']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), code)")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=os.environ | {"PYTHONPATH": str(src)},
    ).stdout
    assert out.splitlines()[-1] == "[] 0"


def test_vqe_parameter_count_over_the_cap_exits_4(capsys):
    # 2 qubits at depth 2048 take 4098 parameters; nothing is evaluated
    code, out, err = run_cli(capsys, "vqe", "--family", "boson-periodic", "--depth", "2048")
    assert code == 4 and out == ""
    assert err == "error: 4098 parameters exceed the 4096-parameter cap\n"


def test_export_import_round_trip(capsys, tmp_path):
    path = tmp_path / "fp1.pauli"
    code, out, _ = run_cli(
        capsys, "export", "--family", "fermion-periodic", "--sites", "1",
        "--out", str(path),
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("# ringcasimir pauli v1\nqubits 1\n")
    assert len(text.strip().splitlines()) == 3  # header, qubits, one Z term

    code, out, _ = run_cli(capsys, "import-pauli", str(path))
    assert code == 0
    ground = float(out.strip().splitlines()[-1].split()[1])
    from ringcasimir.lattice import ModeFamily, mode_sum_energy

    assert ground == pytest.approx(mode_sum_energy(ModeFamily.from_label("fermion-periodic", 1)), abs=1e-12)


def test_export_with_correction_term_counts(capsys, tmp_path):
    path = tmp_path / "fp1c.pauli"
    run_cli(capsys, "export", "--family", "fermion-periodic", "--sites", "1",
            "--with-correction", "--out", str(path))
    terms = [l for l in path.read_text().splitlines() if l and not l.startswith(("#", "qubits"))]
    assert len(terms) == 2  # identity shift plus the Z term

    path_b = tmp_path / "bp1.pauli"
    run_cli(capsys, "export", "--family", "boson-periodic", "--sites", "1",
            "--out", str(path_b))
    terms_b = [l for l in path_b.read_text().splitlines() if l and not l.startswith(("#", "qubits"))]
    assert len(terms_b) == 3


def test_vqe_from_file(capsys, tmp_path):
    path = tmp_path / "h.pauli"
    run_cli(capsys, "export", "--family", "boson-periodic", "--sites", "1", "--out", str(path))
    code, out, _ = run_cli(capsys, "vqe", "--from-file", str(path), "--seed", "5")
    assert code == 0
    record = json.loads(out)
    assert record["vqe_energy"] == pytest.approx(2.309401, abs=1e-5)


def test_exact_from_file_solves_the_twelve_qubit_chiral_sum(capsys, tmp_path):
    t = single_particle_matrix(ChiralSystem(6, 10.0))
    path = tmp_path / "chiral6.pauli"
    path.write_text(serialize(jordan_wigner_hamiltonian(t).pauli))
    code, out, _ = run_cli(capsys, "exact", "--from-file", str(path))
    assert code == 0
    fields = dict(line.split() for line in out.splitlines())
    assert fields["qubits"] == "12"
    assert abs(float(fields["ground_energy"]) - dirac_sea_energy(t)) <= 1e-9


def test_exact_from_file_writes_its_report_as_json(capsys, tmp_path):
    path = tmp_path / "h.pauli"
    path.write_text("qubits 2\n0.5 XX\n-0.25 ZI\n")
    _, plain, _ = run_cli(capsys, "exact", "--from-file", str(path))
    out_json = tmp_path / "h.json"
    code, out, _ = run_cli(capsys, "exact", "--from-file", str(path), "--json", str(out_json))
    assert code == 0 and out == plain
    report = json.loads(out_json.read_text())
    assert report == {"qubits": 2, "ground_energy": float(out.split()[-1])}
    manifest = json.loads((tmp_path / "h.json.manifest.json").read_text())
    assert manifest["command"] == "exact" and manifest["config"]["from_file"] == str(path)


def test_import_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.pauli"
    path.write_text("qubits 2\n1.0 XQ\n")
    code, _, err = run_cli(capsys, "import-pauli", str(path))
    assert code == 5
    assert "line 2" in err


def test_truncated_file_rejected(capsys, tmp_path):
    path = tmp_path / "trunc.pauli"
    path.write_text("# ringcasimir pauli v1\nqubits 2\n1.0 XX\n0.5 Z\n")
    code, _, err = run_cli(capsys, "import-pauli", str(path))
    assert code == 5
    assert "line 4" in err


def test_pauli_count_csv(capsys, tmp_path):
    out_csv = tmp_path / "counts.csv"
    code, out, _ = run_cli(
        capsys, "pauli-count", "--family", "fermion-periodic", "--sites", "1..4",
        "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "sites,qubits,terms"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[1]) for r in rows] == [1, 2, 3, 4]
    terms = [int(r[2]) for r in rows]
    assert terms[0] == 2
    assert all(b >= a for a, b in zip(terms, terms[1:]))


# Data files pinned to the byte: the Walsh-Hadamard summation order sets
# the last digits of the exported coefficients.
GOLDEN_FILES = {
    ("export", "--family", "boson-twisted", "--sites", "3", "--with-correction"): (
        b"# ringcasimir pauli v1\n"
        b"qubits 6\n"
        b"8.99390340086637 IIIIII\n"
        b"-2.285714285714286 IIIIZI\n"
        b"-2.059357412348387 IIZIII\n"
        b"-1.4251195471056768 ZIIIII\n"
        b"-1.1428571428571437 IIIIIZ\n"
        b"-1.0296787061741934 IIIZII\n"
        b"-0.7125597735528382 IZIIII\n"
    ),
    ("pauli-count", "--family", "boson-periodic", "--sites", "1..8"): (
        b"sites,qubits,terms\n"
        b"1,2,3\n"
        b"2,4,5\n"
        b"3,6,7\n"
        b"4,8,9\n"
        b"5,10,11\n"
        b"6,12,13\n"
        b"7,14,15\n"
        b"8,16,17\n"
    ),
    ("export", "--family", "combined-periodic", "--sites", "2", "--with-correction"): (
        b"# ringcasimir pauli v1\n"
        b"qubits 6\n"
        b"17.488024587371786 IIIIII\n"
        b"-6.086761704288982 IIIIIZ\n"
        b"-3.761825614671828 IIIIZI\n"
        b"-3.043380852144491 IIZIII\n"
        b"-1.880912807335914 ZIIIII\n"
        b"-1.521690426072247 IIIZII\n"
        b"-0.9404564036679572 IZIIII\n"
    ),
    # 3N qubits per combined ring, NA past the ring cap
    ("pauli-count", "--family", "combined-twisted", "--sites", "1..6"): (
        b"sites,qubits,terms\n"
        b"1,3,4\n"
        b"2,6,7\n"
        b"3,9,10\n"
        b"4,12,13\n"
        b"5,15,16\n"
        b"6,NA,NA\n"
    ),
}


def test_exact_chiral_vqe_golden(capsys):
    # COBYLA, whose path does not depend on the BLAS thread count
    code, out, _ = run_cli(
        capsys, "vqe", "--chiral", "--sites", "2", "--eta", "10", "--ansatz", "ry-rz",
        "--depth", "2", "--seed", "3", "--init-spread", "3.14159", "--max-iterations", "400",
    )
    record = json.loads(out)
    assert code == 3
    assert record["vqe_energy"] == -1.4702311756273112
    assert record["evaluations"] == 400


@pytest.mark.parametrize("argv", list(GOLDEN_FILES))
def test_data_files_are_byte_identical(capsys, tmp_path, argv):
    path = tmp_path / "data.txt"
    code, _, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == GOLDEN_FILES[argv]


# stdout pinned to the byte: the table and report formats of every precision flag.
_TWISTED = ("exact", "--family", "boson-twisted", "--sweep", "1..3")
_CHIRAL = ("exact", "--chiral", "--sites", "14", "--eta", "10")
GOLDEN_STDOUT = {
    _TWISTED: (
        "n  energy  subtraction\n"
        "1  0.1202  -2.54648\n"
        "2  0.3479  -2.54648\n"
        "3  0.3386  -2.54648\n"
    ),
    (*_TWISTED, "--no-correction"): (
        "n  energy\n"
        "1  2.6667\n"
        "2  2.8944\n"
        "3  2.8851\n"
    ),
    (*_TWISTED, "--full-precision"): (
        "n  energy  subtraction\n"
        "1  0.12018757719634099  -2.5464790894703255\n"
        "2  0.34794810152959066  -2.5464790894703255\n"
        "3  0.33861653311384865  -2.5464790894703255\n"
    ),
    (*_TWISTED, "--no-correction", "--full-precision"): (
        "n  energy\n"
        "1  2.6666666666666665\n"
        "2  2.894427190999916\n"
        "3  2.885095622584174\n"
    ),
    _CHIRAL: (
        "sites 14  eta 10  scale 0.0528579\n"
        "dirac_sea_energy -5.55434\n"
        "subtraction -5.57572\n"
        "casimir 0.0213818\n"
        "continuum_target 0.0213714\n"
    ),
    (*_CHIRAL, "--full-precision"): (
        "sites 14  eta 10.0  scale 0.05285791432429045\n"
        "dirac_sea_energy -5.554335870000003\n"
        "subtraction -5.57571769\n"
        "casimir 0.021381819999997553\n"
        "continuum_target 0.021371378595848933\n"
    ),
    ("exact", "--family", "combined-twisted", "--sweep", "1..3", "--full-precision"): (
        "n  energy  subtraction\n"
        "1  -0.36056273158902385  7.639437268410976\n"
        "2  -1.043844304588772  7.639437268410976\n"
        "3  -1.0158495993415464  7.639437268410976\n"
    ),
    ("exact", "--family", "fermion-periodic", "--sweep", "1..3", "--no-correction",
     "--full-precision"): (
        "n  energy\n"
        "1  -9.237604307034012\n"
        "2  -9.84858731896081\n"
        "3  -10.014368611508166\n"
    ),
    ("vqe", "--family", "fermion-periodic", "--sites", "2"): (
        '{\n'
        '  "converged": true,\n'
        '  "evaluations": 82,\n'
        '  "exact_energy": 0.33732903892049215,\n'
        '  "family": "fermion-periodic",\n'
        '  "iterations": 19,\n'
        '  "optimizer": "linear",\n'
        '  "per_mode_energies": [\n'
        '    -3.761825614671828,\n'
        '    -6.086761704288983\n'
        '  ],\n'
        '  "percent_difference": 0.0,\n'
        '  "seed": 7,\n'
        '  "sites": 2,\n'
        '  "vqe_energy": 0.33732903892049215\n'
        '}\n'
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT))
def test_stdout_is_byte_identical(capsys, argv):
    assert run_cli(capsys, *argv) == (0, GOLDEN_STDOUT[argv], "")


def test_pauli_count_capacity_rows_na(capsys):
    code, out, _ = run_cli(capsys, "pauli-count", "--family", "boson-periodic", "--sites", "8..9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("8,16,")
    assert lines[2] == "9,NA,NA"


def test_dispersion_csv(capsys, tmp_path):
    out_csv = tmp_path / "disp.csv"
    code, out, _ = run_cli(
        capsys, "dispersion", "--sites", "6", "--eta", "1", "--out", str(out_csv)
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "momentum,lambda_minus,lambda_plus"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 6
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)
    assert rows[0][2] == pytest.approx(0.0, abs=1e-12)
    for _, lo, hi in rows:
        assert lo == pytest.approx(-hi, abs=1e-12)


def test_dispersion_at_huge_eta_is_finite(capsys):
    code, out, _ = run_cli(capsys, "dispersion", "--sites", "3", "--eta", "1e160")
    assert code == 0
    rows = [list(map(float, line.split(","))) for line in out.splitlines()[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(v) for row in rows for v in row)


def test_dispersion_dense_grid(capsys):
    code, out, _ = run_cli(capsys, "dispersion", "--sites", "6", "--eta", "5", "--dense", "32")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 6 + 32


def test_dispersion_gapping_property(capsys):
    code, out, _ = run_cli(capsys, "dispersion", "--sites", "14", "--eta", "10")
    rows = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
    right = [hi for p, lo, hi in rows if 0 < p <= math.pi + 1e-12]
    left = [hi for p, lo, hi in rows if p > math.pi + 1e-12]
    assert min(left) > max(right)


def test_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--family", "anyon-periodic", "--sites", "1"])
    assert exc.value.code == 2
    for argv in (["exact"], ["vqe"], ["vqe", "--family", "boson-periodic", "--chiral"],
                 ["exact", "--chiral", "--from-file", str(tmp_path / "h.pauli")]):
        with pytest.raises(SystemExit) as exc:  # no selector, or two
            main(argv)
        assert exc.value.code == 2
        assert "--chiral" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--from-file", str(tmp_path / "h.pauli"), "--full-precision"])
    assert exc.value.code == 2
    code, out, err = run_cli(capsys, "dispersion", "--sites", "3", "--dense", "-4")
    assert code == 2
    assert out == "" and err.splitlines()[-1].startswith("error: --dense")
    for argv in (["import", str(tmp_path)],
                 ["exact", "--family", "boson-periodic", "--json", str(tmp_path)]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error:")
    for argv in (["exact", "--chiral", "--sites", "0"], ["vqe", "--chiral", "--sites", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: sites must be >= 2, got 0\n"
    code, out, err = run_cli(capsys, "vqe", "--family", "fermion-periodic", "--tolerance", "2")
    assert code == 2 and out == ""
    assert err == "error: tolerance must be at most 1 for the linear optimizer, got 2.0\n"
    code, out, err = run_cli(capsys, "vqe", "--family", "fermion-periodic", "--seed", "-1")
    assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")


@pytest.mark.parametrize("argv", [
    ["exact", "--family", "boson-periodic", "--sites", "0"],
    ["exact", "--family", "fermion-twisted", "--sites", "-1"],
    ["export", "--family", "boson-periodic", "--sites", "0", "--out", "h.pauli"],
    ["vqe", "--family", "combined-periodic", "--sites", "-1"],
])
def test_bad_site_count_names_the_sites_not_the_family(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: sites must be >= 1, got {argv[4]}\n"
    assert not (tmp_path / "h.pauli").exists()


def test_outdir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RINGCASIMIR_OUTDIR", str(tmp_path))
    code, _, _ = run_cli(
        capsys, "export", "--family", "fermion-periodic", "--sites", "2",
        "--out", "sub/h.pauli",
    )
    assert code == 0
    assert (tmp_path / "sub" / "h.pauli").exists()
    assert (tmp_path / "sub" / "h.pauli.manifest.json").exists()


def test_non_finite_input_exit_codes(capsys, tmp_path):
    path = tmp_path / "nan.pauli"
    path.write_text("qubits 1\nnan Z\n")
    for argv in (["import", str(path)], ["exact", "--from-file", str(path)],
                 ["vqe", "--from-file", str(path)]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 5
        assert "line 2" in err


@pytest.mark.parametrize("argv", [
    ["exact", "--chiral", "--sites", "3", "--eta", "10", "--sweep", "1..3"],
    ["exact", "--chiral", "--sites", "3", "--no-correction"],
    ["exact", "--from-file", "h.pauli", "--sweep", "1..3"],
    ["exact", "--family", "boson-periodic", "--scale", "0.5"],
    ["exact", "--family", "boson-periodic", "--subtraction", "0"],
    ["vqe", "--from-file", "h.pauli", "--scale", "0.5"],
    ["exact", "--family", "boson-periodic", "--sites", "2", "--eta", "10"],
    ["vqe", "--from-file", "f.pauli", "--eta", "7"],
    ["exact", "--from-file", "h.pauli", "--sites", "9"],
    ["vqe", "--from-file", "h.pauli", "--sites", "5"],
])
def test_flags_the_selector_ignores_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "only applies with" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["exact", "--family", "boson-periodic", "--sites", "5", "--sweep", "1..2"],
    ["exact", "--family", "boson-periodic", "--sweep", "1..2", "--sites", "2"],
])
def test_sites_next_to_sweep_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sites does not apply with --sweep" in captured.err


@pytest.mark.parametrize("flag, value", [
    ("--init-spread", "8.99e307"),
    ("--init-spread", "1e308"),
    ("--shots", str(2**63)),
    ("--shots", "100000000000000000000"),
])
def test_vqe_values_numpy_cannot_sample_are_usage_errors(capsys, flag, value):
    code, out, err = run_cli(capsys, "vqe", "--family", "boson-periodic", "--sites", "1",
                             flag, value)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be")


def test_vqe_record_is_valid_json_when_exact_energy_is_zero(capsys, tmp_path):
    path = tmp_path / "zero.pauli"
    path.write_text("qubits 1\n0.5 I\n-0.5 Z\n")
    out_json = tmp_path / "zero.json"
    code, out, _ = run_cli(capsys, "vqe", "--from-file", str(path), "--json", str(out_json))
    assert code == 0

    def refuse(constant):
        raise ValueError(f"invalid JSON constant {constant}")

    for text in (out, out_json.read_text()):
        record = json.loads(text, parse_constant=refuse)
        assert record["exact_energy"] == 0.0
        assert record["percent_difference"] is None


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one `main` call, SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_a_sequence_of_calls_as_fresh_ones(capsys):
    refused = ["exact", "--family", "boson-periodic", "--sites", "2", "--eta", "10"]
    sequence = [
        refused,
        ["exact", "--chiral", "--sites", "14", "--eta", "10"],
        ["exact", "--chiral", "--sites", "3"],  # main fills eta = 1 on its namespace alone
        refused,
        ["--version"],
        ["vqe", "--family", "fermion-periodic", "--sites", "2"],  # every vqe default
    ]
    alone = []
    for argv in sequence:
        cli._parser.cache_clear()
        alone.append(_outcome(capsys, argv))
    cli._parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in sequence]
    assert cli._parser.cache_info().misses == 1
    assert shared == alone
    assert [code for code, _, _ in shared] == [2, 0, 0, 2, 0, 0]
    assert shared[4][1] == f"{cli.__version__}\n"


def test_main_builds_one_parser_and_build_parser_a_fresh_one(capsys):
    cli._parser.cache_clear()
    for _ in range(2):
        assert main(["exact", "--family", "boson-periodic", "--sites", "1"]) == 0
    assert cli._parser.cache_info().misses == 1
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()


def test_no_parser_action_has_a_mutable_default():
    # the shared parser is safe to reuse only while no call can change a default
    parsers, seen = [cli.build_parser()], 0
    while parsers:
        parser = parsers.pop()
        seen += 1
        defaults = [a.default for a in parser._actions] + list(parser._defaults.values())
        assert not [d for d in defaults if isinstance(d, (list, dict, set, bytearray))], parser.prog
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend({id(p): p for p in action.choices.values()}.values())
    assert seen == 7  # the top level and its six commands


def test_importing_the_cli_builds_no_parser():
    code = ("import ringcasimir.cli as cli; "
            "print(cli._parser.cache_info().currsize)")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=os.environ | {"PYTHONPATH": str(src)},
    ).stdout
    assert out == "0\n"


@pytest.mark.parametrize("argv, expected", [
    (["exact", "--family", "boson-periodic", "--sites", "2"], 0),
    (["import", "bad.pauli"], 5),
])
def test_module_entry_point_passes_the_exit_code_through(capsys, tmp_path, monkeypatch, argv,
                                                         expected):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.pauli").write_text("qubits 2\n1.0 XQ\n")
    code, out, err = run_cli(capsys, *argv)
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-m", "ringcasimir.cli", *argv], capture_output=True, text=True,
        env=os.environ | {"PYTHONPATH": str(src)},
    )
    assert code == run.returncode == expected
    assert (run.stdout, run.stderr) == (out, err)


# The selector flags `exact` and `vqe` share, as the manifest records them when unset.
_UNSELECTED = {"chiral": False, "eta": None, "family": None, "from_file": None, "scale": None,
               "sites": None}
_EXACT = _UNSELECTED | {"command": "exact", "full_precision": False, "no_correction": False,
                        "subtraction": None, "sweep": None}
_VQE = _UNSELECTED | {"command": "vqe", "ansatz": "ry", "depth": 0, "init_spread": 0.1,
                      "max_iterations": 500, "optimizer": "linear", "seed": 7, "shots": None,
                      "tolerance": 1e-08, "json": None, "trace": None}


@pytest.mark.parametrize("argv, files, config", [
    (["exact", "--family", "boson-twisted", "--sweep", "1..3", "--json", "rows.json"],
     ["rows.json"],
     _EXACT | {"family": "boson-twisted", "sites": 1, "sweep": "1..3", "json": "rows.json"}),
    (["exact", "--chiral", "--sites", "14", "--eta", "10", "--json", "report.json"],
     ["report.json"],
     _EXACT | {"chiral": True, "sites": 14, "eta": 10.0, "json": "report.json",
               "resolved_scale": reference_system(14, 10.0).scale}),
    (["exact", "--from-file", "h.pauli", "--json", "file.json"],
     ["file.json"],
     _EXACT | {"from_file": "h.pauli", "json": "file.json"}),
    (["vqe", "--family", "fermion-periodic", "--sites", "1", "--json", "run.json",
      "--trace", "trace.csv"],
     ["run.json", "trace.csv"],
     _VQE | {"family": "fermion-periodic", "sites": 1, "json": "run.json",
             "trace": "trace.csv"}),
    (["export", "--family", "boson-periodic", "--sites", "2", "--out", "h2.pauli"],
     ["h2.pauli"],
     {"command": "export", "family": "boson-periodic", "sites": 2, "with_correction": False,
      "out": "h2.pauli"}),
    (["pauli-count", "--family", "boson-periodic", "--sites", "1..3", "--out", "counts.csv"],
     ["counts.csv"],
     {"command": "pauli-count", "family": "boson-periodic", "sites": "1..3",
      "out": "counts.csv"}),
    (["dispersion", "--sites", "6", "--eta", "5", "--out", "disp.csv"],
     ["disp.csv"],
     {"command": "dispersion", "sites": 6, "eta": 5.0, "scale": None, "dense": 0,
      "out": "disp.csv"}),
])
def test_each_manifest_records_its_command_and_configuration(capsys, tmp_path, monkeypatch,
                                                             argv, files, config):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RINGCASIMIR_OUTDIR", str(tmp_path))
    assert main(["export", "--family", "boson-periodic", "--sites", "1", "--out", "h.pauli"]) == 0
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    for name in files:
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["config"] == config


@pytest.mark.parametrize("argv, flag", [
    (["pauli-count", "--family", "boson-periodic", "--sites", "1..3"], "--out"),
    (["dispersion", "--sites", "3"], "--out"),
    (["export", "--family", "boson-periodic", "--sites", "1"], "--out"),
    (["exact", "--family", "boson-periodic", "--sweep", "1..2"], "--json"),
    (["exact", "--chiral", "--sites", "3"], "--json"),
    (["exact", "--from-file", "h.pauli"], "--json"),
    (["vqe", "--family", "fermion-periodic", "--sites", "1"], "--json"),
    (["vqe", "--family", "fermion-periodic", "--sites", "1"], "--trace"),
])
def test_a_failing_write_keeps_the_output_printed_before_it(capsys, tmp_path, monkeypatch,
                                                            argv, flag):
    # the CSV writers and export write first and print nothing; exact and vqe print first
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.pauli").write_text("qubits 1\n0.5 I\n-0.5 Z\n")
    code, printed, _ = run_cli(capsys, *argv, *(["--out", "ok.txt"] if flag == "--out" else []))
    assert code == 0
    code, out, err = run_cli(capsys, *argv, flag, str(tmp_path))
    assert code == 2
    assert out == ("" if argv[0] in ("pauli-count", "dispersion", "export") else printed)
    assert err.startswith("error: ") and err.count("\n") == 1
