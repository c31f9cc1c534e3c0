#!/usr/bin/env python3
"""Write the README's data files under $RINGCASIMIR_OUTDIR (or .), each with
its manifest, by running COMMANDS through the CLI in this process: convergence
traces in traces/; dispersion CSVs, reference report, Pauli counts in chiral/.
The first command to exit non-zero is named, and its code is the exit code."""

import sys

from ringcasimir.cli import main

FAMILIES = ("boson-periodic", "boson-twisted", "fermion-periodic", "fermion-twisted")
COMMANDS = [
    *(f"vqe --family {label} --sites 8 --trace traces/{label}-n8.csv" for label in FAMILIES),
    "vqe --chiral --sites 3 --eta 10 --scale 1 --optimizer quadratic --ansatz ry-rz --depth 3"
    " --init-spread 3.141592653589793 --max-iterations 600 --seed 3 --tolerance 1e-12"
    " --trace traces/chiral-l3-eta10.csv",
    *(f"dispersion --sites {sites} --eta {eta} --out chiral/dispersion-l{sites}-eta{eta}.csv"
      for sites, eta in ((6, 1), (6, 5), (14, 1), (14, 10))),
    "exact --chiral --sites 14 --eta 10 --json chiral/reference-report.json",
    "pauli-count --family boson-periodic --sites 1..8 --out chiral/boson-pauli-counts.csv",
]


def run(commands=COMMANDS) -> int:
    for command in commands:
        code = main(command.split())
        if code:
            print(f"data_files.py: `ringcasimir {command}` exited {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
