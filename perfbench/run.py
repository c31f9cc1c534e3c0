"""ringcasimir benchmark: one workload, one fresh process, one result line.

    python3 perfbench/run.py --workload ring-vqe --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/`` of that checkout; nothing needs installing.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics; the line before it is the full record (environment,
per-task-kind timings, failures), also written to ``perfbench/out/``.
See perfbench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Same as workloads.WORKLOADS, which cannot be imported before BLAS threads
# are pinned.
WORKLOADS = ("ring-vqe", "chiral-vqe", "exact-export")
SETUP_SAMPLES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; a lower setting
    already in the environment is kept.  Child processes inherit it."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        os.environ[var] = str(current if 1 <= current <= cpus else cpus)


def build_workload(name, seed, outdir):
    import ringcasimir

    package = Path(ringcasimir.__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise SystemExit(f"ringcasimir imported from {package}, not from {SRC}")
    from perfbench import workloads

    return workloads.build(name, seed, outdir)


def setup_sample(args) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up
    (imports and seeded input generation), as the probe reports it ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"set-up probe failed (exit {code}, said {line.strip()!r})")
    return elapsed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ringcasimir" / "__init__.py").is_file():
        print(f"error: no ringcasimir sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    rundir = OUT / f"run-{os.getpid()}"
    if args.probe:
        build_workload(args.workload, args.seed, rundir)
        print("ready", flush=True)
        return 0

    samples = [setup_sample(args) for _ in range(SETUP_SAMPLES)]
    workload = build_workload(args.workload, args.seed, rundir)
    from perfbench import runner, spans

    try:
        result, record, recorder = runner.run(workload, args.seconds, args.trace, samples)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    record["environment"] = runner.environment(ROOT, args.seed)
    record["metrics"] = result["metrics"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if recorder is not None:
        spans.write_spans(recorder.spans, OUT / f"{stem}.spans.csv")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
