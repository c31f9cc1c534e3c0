"""Command-line workbench.

Subcommands: ``exact`` (mode-sum energies and chiral Dirac-sea reports),
``vqe`` (partitioned family runs, chiral runs, or runs on imported Pauli
files, with result JSON and convergence CSV), ``export`` / ``import-pauli``
(Pauli text files), ``pauli-count`` (term-growth CSV) and ``dispersion``
(branch CSV).

Exit codes: 0 ok, 2 usage error (or a path that cannot be read or
written), 3 VQE did not converge, 4 capacity exceeded, 5 Pauli parse
error.  Relative output paths resolve against $RINGCASIMIR_OUTDIR when it
is set.  Every file written gets a sidecar
``<name>.manifest.json`` of the resolved configuration and library versions;
re-running a command reproduces its data files byte for byte (exact mode).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .chiral import (
    REFERENCE_ETA,
    REFERENCE_SITES,
    REFERENCE_SUBTRACTION,
    ChiralSystem,
    bulk_density,
    continuum_casimir_target,
    dirac_sea_energy,
    dispersion,
    dispersion_table,
    jordan_wigner_hamiltonian,
    reference_system,
    single_particle_matrix,
)
from .hamiltonian import CapacityError, HamiltonianSpec
from .lattice import (
    FAMILY_LABELS,
    ModeFamily,
    casimir_exact,
    mode_sum_energy,
    percent_difference,
    ring_hamiltonian,
    subtraction_constant,
)
from .pauli import PauliFormatError, decompose_diagonal, parse, serialize, term_count
from .vqe import (
    ANSATZE,
    Optimizer,
    VqeConfig,
    combined_trace,
    partitioned_run,
    run_vqe,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_CAPACITY = 4
EXIT_PARSE = 5

# Flags that only some selectors read; the other selectors refuse them.
_SELECTOR_FLAGS = {"sweep": ("family",), "no_correction": ("family",),
                   "subtraction": ("chiral",), "scale": ("chiral",), "eta": ("chiral",),
                   "sites": ("family", "chiral"), "full_precision": ("family", "chiral")}


def _json(obj) -> str:
    """Sorted, indented JSON with NaN and infinities written as null, since
    bare ``NaN`` is not JSON.  The float round trip through text is exact."""
    clean = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(clean, indent=2, sort_keys=True)


def _write(raw: str, text: str, command: str, config: dict) -> Path:
    """Write ``text`` to ``raw`` (relative paths resolve against
    $RINGCASIMIR_OUTDIR) together with its manifest sidecar."""
    path = Path(raw)
    if not path.is_absolute():
        path = Path(os.environ.get("RINGCASIMIR_OUTDIR", ".")) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    _write_manifest(path, command, config)
    return path


def _write_manifest(path: Path, command: str, config: dict) -> None:
    import scipy  # here, not at module level: only a written file needs its version
    clean = {
        k: v
        for k, v in config.items()
        if k not in ("fn", "needs_selector")
        and isinstance(v, (str, int, float, bool, type(None)))
    }
    manifest = {
        "command": command,
        "config": clean,
        "artifact_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    manifest_path = path.with_name(path.name + ".manifest.json")
    manifest_path.write_text(_json(manifest) + "\n")


def _fmt(value: float, full: bool) -> str:
    return repr(float(value)) if full else f"{value:.6g}"


def _parse_sweep(text: str):
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad sweep range {text!r}")
    return range(lo, hi + 1)


def _vqe_config(args) -> VqeConfig:
    values = {f.name: getattr(args, f.name) for f in fields(VqeConfig)}
    return VqeConfig(**values | {"optimizer": Optimizer(args.optimizer)})


def _pauli_file_spec(path: str) -> HamiltonianSpec:
    psum = parse(Path(path).read_text())
    return HamiltonianSpec(qubits=psum.qubits, pauli=psum)


def _chiral_system(args) -> ChiralSystem:
    """The --sites/--eta system at --scale, or at the calibrated scale."""
    if args.scale is not None:
        return ChiralSystem(args.sites, args.eta, args.scale)
    return reference_system(args.sites, args.eta)


def cmd_exact(args) -> int:
    full = args.full_precision
    if args.from_file:
        spec = _pauli_file_spec(args.from_file)
        report = {"qubits": spec.qubits, "ground_energy": spec.ground_energy()}
        print(f"qubits {spec.qubits}")
        print(f"ground_energy {report['ground_energy']!r}")
        if args.json:
            _write(args.json, _json(report) + "\n", "exact", vars(args))
        return EXIT_OK
    if args.chiral:
        system = _chiral_system(args)
        sea = dirac_sea_energy(single_particle_matrix(system))
        if args.subtraction is not None:
            if not np.isfinite(args.subtraction):
                raise ValueError(f"--subtraction must be finite, got {args.subtraction}")
            subtraction = args.subtraction
        elif (args.sites, args.eta) == (REFERENCE_SITES, REFERENCE_ETA) and args.scale is None:
            subtraction = REFERENCE_SUBTRACTION
        else:
            subtraction = system.scale * system.sites * bulk_density(system.eta)
        report = {
            "sites": system.sites,
            "eta": system.eta,
            "scale": system.scale,
            "dirac_sea_energy": sea,
            "subtraction": subtraction,
            "casimir": sea - subtraction,
            "continuum_target": continuum_casimir_target(system.sites),
        }
        print(f"sites {system.sites}  eta {_fmt(system.eta, full)}  scale {_fmt(system.scale, full)}")
        print(f"dirac_sea_energy {_fmt(sea, full)}")
        print(f"subtraction {_fmt(subtraction, full)}")
        print(f"casimir {_fmt(report['casimir'], full)}")
        print(f"continuum_target {_fmt(report['continuum_target'], full)}")
        if args.json:
            _write(args.json, _json(report) + "\n", "exact",
                   vars(args) | {"resolved_scale": system.scale})
        return EXIT_OK

    sweep = _parse_sweep(args.sweep) if args.sweep else [args.sites]
    families = [ModeFamily.from_label(args.family, n) for n in sweep]  # validate before printing
    rows = []
    print("n  energy  subtraction" if not args.no_correction else "n  energy")
    for n, family in zip(sweep, families):
        correction = subtraction_constant(family.statistics)
        energy = mode_sum_energy(family) if args.no_correction else casimir_exact(family)
        rows.append(
            {
                "family": family.label,
                "sites": n,
                "exact_energy": energy,
                "subtraction": None if args.no_correction else correction,
            }
        )
        if args.no_correction:
            print(f"{n}  {energy:.4f}" if not full else f"{n}  {energy!r}")
        else:
            line = f"{n}  {energy:.4f}  {_fmt(correction, False)}"
            print(line if not full else f"{n}  {energy!r}  {correction!r}")
    if args.json:
        _write(args.json, _json(rows) + "\n", "exact", vars(args))
    return EXIT_OK


def _result_record(args, family_label, sites, exact, vqe_energy, pct,
                   iterations, evaluations, converged):
    return {
        "family": family_label,
        "sites": sites,
        "exact_energy": exact,
        "vqe_energy": vqe_energy,
        "percent_difference": pct,
        "iterations": iterations,
        "evaluations": evaluations,
        "optimizer": args.optimizer,
        "seed": args.seed,
        "converged": converged,
    }


def cmd_vqe(args) -> int:
    cfg = _vqe_config(args)
    if args.family:
        family = ModeFamily.from_label(args.family, args.sites)
        report = partitioned_run(family, cfg)
        converged = all(r.converged for r in report.mode_results)
        trace_rows = combined_trace(report)
        record = _result_record(
            args, family.label, family.sites, report.exact_energy,
            report.vqe_energy, report.percent_difference,
            len(trace_rows), sum(r.evaluations for r in report.mode_results), converged,
        )
        record["per_mode_energies"] = [float(e) for e in report.per_mode_energies]
    else:
        if args.from_file:
            spec = _pauli_file_spec(args.from_file)
            label, sites, exact = f"file:{args.from_file}", spec.qubits, spec.ground_energy()
        else:
            system = _chiral_system(args)
            t = single_particle_matrix(system)
            spec = jordan_wigner_hamiltonian(t)
            label, sites, exact = f"chiral eta={system.eta}", system.sites, dirac_sea_energy(t)
        result = run_vqe(spec, cfg)
        converged, trace_rows = result.converged, result.trace
        record = _result_record(
            args, label, sites, exact, result.energy, percent_difference(result.energy, exact),
            len(trace_rows), result.evaluations, converged,
        )

    print(_json(record))
    if args.json:
        _write(args.json, _json(record) + "\n", "vqe", vars(args))
    if args.trace:
        lines = ["iteration,energy"] + [f"{i},{float(e)!r}" for i, e in trace_rows]
        _write(args.trace, "\n".join(lines) + "\n", "vqe", vars(args))
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def cmd_export(args) -> int:
    family = ModeFamily.from_label(args.family, args.sites)
    spec = ring_hamiltonian(family)
    diagonal = spec.diagonal
    if args.with_correction:
        diagonal = diagonal + subtraction_constant(family.statistics)
    psum = decompose_diagonal(diagonal)
    path = _write(args.out, serialize(psum), "export", vars(args))
    print(f"wrote {len(psum)} terms on {psum.qubits} qubits to {path}")
    return EXIT_OK


def cmd_import(args) -> int:
    spec = _pauli_file_spec(args.path)
    print(f"qubits {spec.qubits}")
    print(f"terms {len(spec.pauli)}")
    print(f"ground_energy {spec.ground_energy()!r}")
    return EXIT_OK


def cmd_pauli_count(args) -> int:
    sweep = _parse_sweep(args.sites)
    lines = ["sites,qubits,terms"]
    for n in sweep:
        family = ModeFamily.from_label(args.family, n)
        try:
            count = term_count(args.family, n)
            lines.append(f"{n},{family.qubits},{count}")
        except CapacityError:
            lines.append(f"{n},NA,NA")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text, "pauli-count", vars(args))
    print(text, end="")
    return EXIT_OK


def cmd_dispersion(args) -> int:
    if args.dense < 0:
        raise ValueError(f"--dense must be >= 0, got {args.dense}")
    system = ChiralSystem(args.sites, args.eta, args.scale if args.scale is not None else 1.0)
    rows = ["momentum,lambda_minus,lambda_plus"]
    dense = [dispersion(2.0 * np.pi * k / args.dense, system.eta, system.scale)
             for k in range(args.dense)]
    for point in [*dispersion_table(system), *dense]:
        rows.append(f"{point.momentum!r},{point.lambda_minus!r},{point.lambda_plus!r}")
    text = "\n".join(rows) + "\n"
    if args.out:
        _write(args.out, text, "dispersion", vars(args))
    print(text, end="")
    return EXIT_OK


def _add_vqe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=0, help="entangling-layer count")
    p.add_argument("--optimizer", choices=[o.value for o in Optimizer], default="linear")
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--shots", type=int, default=None,
                   help="sample each Pauli term this many times (default: exact)")
    p.add_argument("--ansatz", choices=ANSATZE, default="ry")
    p.add_argument("--init-spread", type=float, default=0.1,
                   help="half-width of the uniform initial-parameter window")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringcasimir",
        description="Casimir-energy workbench for lattice ring fields",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact mode-sum energies / chiral Dirac sea")
    p.add_argument("--family", choices=list(FAMILY_LABELS))
    p.add_argument("--chiral", action="store_true")
    p.add_argument("--from-file", help="ground energy of a Pauli text file")
    p.add_argument("--sites", type=int, default=None, help="lattice sites (default: 1)")
    p.add_argument("--eta", type=float, default=None, help="chiral deformation (default: 1)")
    p.add_argument("--scale", type=float, default=None,
                   help="chiral normalization (default: calibrated const/sites)")
    p.add_argument("--subtraction", type=float, default=None)
    p.add_argument("--sweep", help="range of sites, e.g. 1..8")
    p.add_argument("--no-correction", action="store_true",
                   help="print the raw mode sum without the subtraction constant")
    p.add_argument("--json", help="also write the rows or report as JSON")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(fn=cmd_exact, needs_selector=True)

    p = sub.add_parser("vqe", help="variational ground-state runs")
    p.add_argument("--family", choices=list(FAMILY_LABELS))
    p.add_argument("--chiral", action="store_true")
    p.add_argument("--from-file", help="run on a Pauli text file")
    p.add_argument("--sites", type=int, default=None, help="lattice sites (default: 1)")
    p.add_argument("--eta", type=float, default=None, help="chiral deformation (default: 1)")
    p.add_argument("--scale", type=float, default=None)
    _add_vqe_flags(p)
    p.add_argument("--json", help="write the result record JSON here")
    p.add_argument("--trace", help="write the convergence CSV here")
    p.set_defaults(fn=cmd_vqe, needs_selector=True)

    p = sub.add_parser("export", help="write a ring Hamiltonian as Pauli text")
    p.add_argument("--family", choices=list(FAMILY_LABELS), required=True)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--with-correction", action="store_true",
                   help="include the subtraction constant as an identity term")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("import", aliases=["import-pauli"],
                       help="validate and summarize a Pauli text file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_import)

    p = sub.add_parser("pauli-count", help="CSV of Pauli-term growth over sites")
    p.add_argument("--family", choices=list(FAMILY_LABELS), required=True)
    p.add_argument("--sites", required=True, help="range, e.g. 1..8")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_pauli_count)

    p = sub.add_parser("dispersion", help="CSV of chiral dispersion branches")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--dense", type=int, default=0,
                   help="append this many fine-grid momenta from the closed form")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dispersion)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_selector", False):
        chosen = (args.family, args.chiral, getattr(args, "from_file", None))
        if sum(map(bool, chosen)) != 1:
            parser.error("choose exactly one of --family / --chiral / --from-file")
        for dest, owners in _SELECTOR_FLAGS.items():
            value = getattr(args, dest, None)
            given = value is not None and value is not False
            if given and not any(getattr(args, o) for o in owners):
                owned = " or ".join(f"--{o}" for o in owners)
                parser.error(f"--{dest.replace('_', '-')} only applies with {owned}")
        if args.chiral and args.eta is None:
            args.eta = 1.0
        if not args.from_file and args.sites is None:
            args.sites = 1
    try:
        return args.fn(args)
    except PauliFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
