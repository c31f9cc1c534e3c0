#!/usr/bin/env python3
"""Write optimizer convergence traces as CSV, one file per run.

Covers the four N=8 ring families (corrected partitioned totals) and a
small chiral instance (L=3, eta=10, RY+RZ ansatz).  Output lands in
./traces/ unless RINGCASIMIR_OUTDIR is set.
"""

import math
import os
from pathlib import Path

from ringcasimir import ChiralSystem, ModeFamily, VqeConfig, partitioned_run, run_vqe
from ringcasimir.chiral import jordan_wigner_hamiltonian, single_particle_matrix
from ringcasimir.vqe import Optimizer, combined_trace

OUT = Path(os.environ.get("RINGCASIMIR_OUTDIR", ".")) / "traces"


def write_csv(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("iteration,energy\n")
        for step, energy in rows:
            fh.write(f"{step},{energy!r}\n")
    print(f"wrote {path} ({len(rows)} rows)")


def main():
    cfg = VqeConfig(seed=7)
    for label in ["boson-periodic", "boson-twisted", "fermion-periodic", "fermion-twisted"]:
        family = ModeFamily.from_label(label, 8)
        report = partitioned_run(family, cfg)
        rows = combined_trace(report)
        write_csv(OUT / f"{label}-n8.csv", rows)
        print(f"  {label}: vqe={report.vqe_energy:.6f} exact={report.exact_energy:.6f}")

    chiral_cfg = VqeConfig(
        depth=3, optimizer=Optimizer.QUADRATIC, max_iterations=600,
        tolerance=1e-12, seed=3, ansatz="ry-rz", init_spread=math.pi,
    )
    t = single_particle_matrix(ChiralSystem(3, 10.0))
    result = run_vqe(jordan_wigner_hamiltonian(t), chiral_cfg)
    write_csv(OUT / "chiral-l3-eta10.csv", result.trace)
    print(f"  chiral L=3 eta=10: vqe={result.energy:.8f}")


if __name__ == "__main__":
    main()
