#!/usr/bin/env python3
"""Chiral-fermion survey: dispersion data, the calibrated reference report,
the Pauli-term growth of the boson ring, and the dual-path table.

Dispersion CSVs cover the symmetric Wilson point (eta=1) and the gapped
deformations (eta=5 on 6 sites, eta=10 on 14 sites).  Output lands in
./chiral/ unless RINGCASIMIR_OUTDIR is set.  The dual-path table goes to
stdout only: for L = 2..6 sites at eta=10, the seconds of the Jordan-Wigner
``ground_energy`` call, its count of H|psi> products, and its gap to the
Dirac sea.
"""

import json
import os
import time
from pathlib import Path

# ground_energy imports it at its first Lanczos solve; load it before the timed calls.
import scipy.sparse.linalg  # noqa: F401
from ringcasimir import (
    ChiralSystem,
    bulk_density,
    chiral_casimir,
    continuum_casimir_target,
    dirac_sea_energy,
    dispersion_table,
    jordan_wigner_hamiltonian,
    reference_system,
    single_particle_matrix,
    term_count,
)
from ringcasimir.chiral import REFERENCE_SUBTRACTION

OUT = Path(os.environ.get("RINGCASIMIR_OUTDIR", ".")) / "chiral"


def write_dispersion(path, system):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("momentum,lambda_minus,lambda_plus\n")
        for pt in dispersion_table(system):
            fh.write(f"{pt.momentum!r},{pt.lambda_minus!r},{pt.lambda_plus!r}\n")
    print(f"wrote {path}")


def print_dual_path():
    print(f"{'sites':>5} {'qubits':>6} {'seconds':>9} {'applies':>7} {'|E_JW - E_sea|':>14}")
    for sites in range(2, 7):
        t = single_particle_matrix(ChiralSystem(sites, 10.0))
        spec, applies = jordan_wigner_hamiltonian(t), []
        apply = spec.apply
        spec.apply = lambda state: applies.append(None) or apply(state)
        start = time.perf_counter()
        energy = spec.ground_energy()
        seconds = time.perf_counter() - start
        gap = abs(energy - dirac_sea_energy(t))
        print(f"{sites:>5} {spec.qubits:>6} {seconds:>9.4f} {len(applies):>7} {gap:>14.2e}")


def main():
    for sites, eta in [(6, 1.0), (6, 5.0), (14, 1.0), (14, 10.0)]:
        write_dispersion(OUT / f"dispersion-l{sites}-eta{eta:g}.csv", ChiralSystem(sites, eta))

    system = reference_system(14, 10.0)
    sea = dirac_sea_energy(single_particle_matrix(system))
    report = {
        "sites": system.sites,
        "eta": system.eta,
        "scale": system.scale,
        "dirac_sea_energy": sea,
        "subtraction": REFERENCE_SUBTRACTION,
        "casimir": chiral_casimir(system, REFERENCE_SUBTRACTION),
        "continuum_target": continuum_casimir_target(system.sites),
        "bulk_density": bulk_density(system.eta, system.scale),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "reference-report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT / 'reference-report.json'}")
    print(json.dumps(report, indent=2, sort_keys=True))

    with open(OUT / "boson-pauli-counts.csv", "w") as fh:
        fh.write("sites,qubits,terms\n")
        for n in range(1, 9):
            fh.write(f"{n},{2 * n},{term_count('boson-periodic', n)}\n")
    print(f"wrote {OUT / 'boson-pauli-counts.csv'}")
    print_dual_path()


if __name__ == "__main__":
    main()
