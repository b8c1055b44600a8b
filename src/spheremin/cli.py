"""Command-line interface: solve, verify, export, report.

Exit codes: 0 success, 1 runtime/IO failure, 2 invalid parameters,
3 verification failure (a failed gate, or a printed closed form that
disagrees with its independent check).  Flags override values from
--config (a JSON file mirroring the flag names), which override the
defaults; a flag the family cannot honour is rejected.  Every
per-family decision reads the family table in `families.py`.  Identical
configuration yields byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .errors import ClosedFormMismatch, NoRoot, ParameterDomainError, SphereminError
from .families import FAMILIES, FamilyInstance, provenance
from .mesh import (
    DomainSpec,
    estimate_mean_curvature,
    sample_mesh,
    write_metadata,
    write_obj,
    write_ply,
)
from .periods import audit

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_PARAMS = 2
EXIT_VERIFICATION = 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every `main` call and the --config re-parse share it."""
    top = argparse.ArgumentParser(
        prog="spheremin",
        description="Construct, verify and mesh minimal surfaces on "
        "punctured spheres from Weierstrass data.",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, surface=True):
        p.add_argument("--family", choices=list(FAMILIES))
        p.add_argument("--config", help="JSON config file; flags override it")
        if surface:
            p.add_argument("--k", type=int)
            p.add_argument("--a", type=float)
            p.add_argument("--b", type=float)

    p_solve = sub.add_parser("solve", help="solve the family's period equation")
    common(p_solve)
    p_solve.add_argument("--out", "-o", help="write the JSON report here")

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    common(p_verify)
    p_verify.add_argument("--tol", type=float, help="period-closure tolerance")
    p_verify.add_argument("--rho", type=float, help="override rho (vase only)")
    p_verify.add_argument("--out", "-o", help="write the JSON report here")

    p_export = sub.add_parser("export", help="sample and export a mesh")
    common(p_export)
    p_export.add_argument("--tol", type=float, help="period-closure tolerance")
    p_export.add_argument("--out", "-o", help="mesh output path (required)")
    p_export.add_argument("--format", choices=["obj", "ply"], default="obj")
    p_export.add_argument("--rmin", type=float)
    p_export.add_argument("--rmax", type=float)
    p_export.add_argument("--nr", type=int)
    p_export.add_argument("--ntheta", type=int)
    p_export.add_argument("--exclusion-radius", type=float, dest="exclusion_radius")
    p_export.add_argument(
        "--force", action="store_true", help="export even if verification fails"
    )

    p_report = sub.add_parser("report", help="parameter-grid CSV sweep")
    common(p_report, surface=False)
    p_report.add_argument("--k-min", type=int, default=2)
    p_report.add_argument("--k-max", type=int, default=6)
    p_report.add_argument(
        "--values",
        help="comma-separated a (vase) or b (double_vase) values",
        default="0.1,0.3,0.5,0.7,0.9",
    )
    p_report.add_argument("--out", "-o", help="CSV output path (required)")
    return top


def _parse(argv) -> argparse.Namespace:
    """Parse the command line.  The entries of a --config file are read as
    flags placed ahead of the command line's own, so that flags override
    the config and the config overrides the parser's defaults."""
    parser = _parser()
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterDomainError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ParameterDomainError("the config file must hold a JSON object")
    flags = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config") or dest not in vars(args):
            raise ParameterDomainError(
                f"unknown config key {key!r} for {args.command}"
            )
        flag = "--" + dest.replace("_", "-")
        if isinstance(getattr(args, dest), bool):  # a switch such as --force
            if not isinstance(value, bool):
                raise ParameterDomainError(f"config key {key!r} must be true or false")
            flags += [flag] if value else []
        elif value is not None:
            flags += [flag, str(value)]
    argv = list(sys.argv[1:] if argv is None else argv)
    return parser.parse_args([argv[0], *flags, *argv[1:]])


def _resolve(args):
    """The family's table entry, after rejecting a missing output path
    (--out, from a flag or the config, which export and report need) and
    the flags the family cannot honour: a parameter it does not take,
    --rho where it has no rho, and a --tol or --rho that is not positive
    and finite."""
    if args.command in ("export", "report") and args.out is None:
        raise ParameterDomainError(f"{args.command} needs --out")
    if args.family is None:
        raise ParameterDomainError("--family is required")
    spec = FAMILIES[args.family]
    taken = {"k", spec.input_param} if spec.solver else set()
    if spec.solved_param == "rho":
        taken.add("rho")
    stray = [
        f"--{n}" for n in ("k", "a", "b", "rho")
        if getattr(args, n, None) is not None and n not in taken
    ]
    if stray:
        raise ParameterDomainError(f"{spec.name} does not take {', '.join(stray)}")
    for name in ("tol", "rho"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ParameterDomainError(f"--{name} must be positive and finite, got {value}")
    return spec


def _input(args, spec):
    return getattr(args, spec.input_param) if spec.input_param else None


def _tolerance(args, spec) -> float:
    return args.tol if args.tol is not None else spec.period_tol


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text + "\n")
    print(text)


def _base_payload(args) -> dict:
    return {
        "tool_version": __version__,
        "family": args.family,
        "parameters": {
            k: getattr(args, k)
            for k in ("k", "a", "b")
            if getattr(args, k, None) is not None
        },
    }


def cmd_solve(args, spec) -> int:
    res = spec.solve(args.k, _input(args, spec))
    payload = _base_payload(args)
    payload["solved"] = {
        "parameter": spec.solved_param, "value": res.value, **provenance(res)
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_verify(args, spec) -> int:
    data, params, _ = spec.build_data(args.k, _input(args, spec), args.rho)
    checked = audit(data, _tolerance(args, spec))
    payload = _base_payload(args)
    if params is not None:
        payload["resolved_parameters"] = asdict(params)
    payload.update(checked.to_json())
    _emit(payload, args.out)
    return EXIT_VERIFICATION if checked.failures else EXIT_OK


def cmd_export(args, spec) -> int:
    data, params, record = spec.build_data(args.k, _input(args, spec))
    checked = audit(data, _tolerance(args, spec))
    if not checked.failures:
        descriptor = FamilyInstance(spec.name, data, params, record).to_descriptor()
    elif args.force:
        descriptor = {"family": spec.name, "forced": True}
    else:
        print(f"verification failed: {checked.failures[0]}", file=sys.stderr)
        return EXIT_VERIFICATION

    window = {"r_min": args.rmin, "r_max": args.rmax, "n_r": args.nr,
              "n_theta": args.ntheta, "exclusion_radius": args.exclusion_radius}
    domain = replace(
        DomainSpec(spec.r_min, spec.r_max, base_point=spec.base_point(params)),
        **{f: v for f, v in window.items() if v is not None},
    )
    mesh = sample_mesh(data, domain, metadata={"family": descriptor})
    # the curvature check runs first, so that a mesh it refuses is not written
    H, interior = estimate_mean_curvature(mesh)
    median_h = float(np.median(H[interior])) if interior.any() else float("nan")
    if args.format == "ply":
        write_ply(mesh, args.out)
    else:
        write_obj(mesh, args.out)
    write_metadata(mesh, args.out + ".json")
    print(
        f"wrote {args.out}: {mesh.n_vertices} vertices, {mesh.n_faces} faces; "
        f"max period defect {checked.period.worst.defect:.3e}; "
        f"median |H| {median_h:.3e}"
    )
    return EXIT_OK


def cmd_report(args, spec) -> int:
    if spec.solver is None:
        solvable = [name for name, f in FAMILIES.items() if f.solver]
        raise ParameterDomainError("report sweeps need --family " + "|".join(solvable))
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ParameterDomainError(f"--values must be numbers, got {args.values!r}") from None
    if args.k_min > args.k_max:
        raise ParameterDomainError(f"empty sweep: --k-min {args.k_min} > --k-max {args.k_max}")
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        for v in values:
            res = spec.solve(k, v)
            rows.append({"family": spec.name, "k": k, "param": v,
                         "solved_value": res.value, **provenance(res)})
    with open(args.out, "w", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "export": cmd_export,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args, _resolve(args))
    except (ParameterDomainError, NoRoot) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except ClosedFormMismatch as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"IO error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except SphereminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
