#!/usr/bin/env python3
"""Time the README command-line examples, each in a fresh interpreter.

    python scripts/cli_timings.py [repeats]   # default 3

Prints, per command, the best wall time over the repeats (interpreter
start and package import included) and whether the command loaded
scipy.optimize and scipy.sparse.  Each repeat runs the commands in order in
one temporary directory, so `import` reads the file that `export` wrote.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = [
    "exact --family boson-periodic --sweep 1..8 --json bp.json",
    "export --family boson-periodic --sites 2 --out h.pauli",
    "import h.pauli",
    "exact --from-file h.pauli",
    "pauli-count --family boson-periodic --sites 1..8 --out counts.csv",
    "dispersion --sites 14 --eta 10 --dense 256 --out disp.csv",
    "exact --chiral --sites 14 --eta 10",
    "vqe --family fermion-periodic --sites 8 --optimizer linear --seed 7 --json run.json",
    "vqe --chiral --sites 3 --eta 10 --optimizer quadratic --ansatz ry-rz --depth 3"
    " --init-spread 3.14159 --max-iterations 600 --seed 3 --tolerance 1e-12",
]
MODULES = ("scipy.optimize", "scipy.sparse")
CHILD = ("import sys; from ringcasimir.cli import main; code = main(sys.argv[1:]); "
         f"print(*(m in sys.modules for m in {MODULES})); sys.exit(code)")


def timings(repeats: int = 3) -> list:
    """``(command, best seconds, exit code, loaded flags)`` per command."""
    best = {command: (float("inf"), None, None) for command in COMMANDS}
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as tmp:
            env = os.environ | {"PYTHONPATH": str(SRC), "RINGCASIMIR_OUTDIR": tmp}
            for command in COMMANDS:
                start = time.perf_counter()
                run = subprocess.run([sys.executable, "-c", CHILD, *command.split()], cwd=tmp,
                                     env=env, capture_output=True, text=True)
                seconds = time.perf_counter() - start
                loaded = tuple(flag == "True" for flag in run.stdout.splitlines()[-1].split())
                best[command] = min(best[command], (seconds, run.returncode, loaded))
    return [(command, *best[command]) for command in COMMANDS]


if __name__ == "__main__":
    print("seconds exit", *MODULES, " command")
    for command, seconds, code, loaded in timings(int(sys.argv[1]) if sys.argv[1:] else 3):
        print(f"{seconds:7.3f} {code:4d} {loaded[0]!s:>14} {loaded[1]!s:>12}  {command}")
