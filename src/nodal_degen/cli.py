"""Command-line front end with stable file formats and exit codes.

Exit codes: 0 certified/success, 1 refuted, 2 inconclusive (including
retryable construction failures), 64 usage error, 65 data-format error.
Every JSON document carries a run manifest; verdicts are deterministic
functions of the inputs and the --seed flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

from . import __version__
from .constructions import build_witness, certify_witness, witness_from_json, witness_to_json
from .degeneration import (
    NODE_A1,
    chow_f0_identities,
    deformation_slice,
    hessian_limit_check,
    minimal_effective_multiplicity,
    theta_restriction_class,
    verify_t1_to_node,
)
from .errors import DataFormatError, GenericityError, PointNotOnSurface, ToolkitError
from .polynomials import MultiPoly, format_rational, parse_rational
from .severi import (
    SystemSpec,
    condition_matrix,
    heuristic_floor,
    independence_rank,
    linear_system_dim,
    max_regular_delta,
    parse_points,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65


def _fail(code: int, message: str) -> SystemExit:
    print(message, file=sys.stderr)
    return SystemExit(code)


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code remapped to 64."""

    def error(self, message) -> NoReturn:
        self.print_usage(sys.stderr)
        raise _fail(EXIT_USAGE, f"{self.prog}: error: {message}")


@dataclass
class RunManifest:
    command: str
    arguments: list[str]
    seed: int | None
    version: str
    started: float

    def to_json(self, verdict: str | None) -> dict:
        return {
            "command": self.command,
            "arguments": self.arguments,
            "seed": self.seed,
            "version": self.version,
            "wall_time_ms": int((time.perf_counter() - self.started) * 1000),
            "verdict": verdict,
        }


def _emit(doc: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="nodal-degen",
        description="Exact certificates for nodal-surface degenerations "
        "and Severi-variety regularity.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a witness surface and write it out")
    p.add_argument("--d", type=int, required=True, help="surface degree (>= 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=32)
    p.add_argument("--out", required=True, help="output witness file (JSON)")
    p.add_argument("--json", action="store_true", help="print the witness document")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("certify", help="run the certificate chain on a witness file")
    p.add_argument("witness", help="witness file produced by construct")
    p.add_argument("--degree-cap", type=int, default=None)
    p.add_argument("--out", default=None, help="write the certified bundle here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("bounds", help="dimension and node-count bound arithmetic")
    p.add_argument("--space", choices=("p3", "ci4"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("regularity", help="independent-conditions rank test")
    p.add_argument("--system", required=True, help="system spec file (JSON)")
    p.add_argument("--points", required=True, help="points file (JSON)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_regularity)

    p = sub.add_parser("deform-check", help="certify the T1-to-node smoothing at t")
    p.add_argument("--t", required=True, help="rational base value, e.g. --t=-1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_deform_check)

    p = sub.add_parser("hessian-limit", help="limit-Hessian determinant identity")
    p.add_argument("--poly", required=True, help="polynomial file (JSON, 4 variables)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_hessian_limit)

    p = sub.add_parser("chow-f0", help="restriction classes on the exceptional quadric")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_chow_f0)

    return parser


def cmd_construct(args, manifest: RunManifest) -> int:
    try:
        witness = build_witness(args.d, args.seed, retries=args.retries)
    except ValueError as exc:
        raise _fail(EXIT_USAGE, f"construct: {exc}")
    except GenericityError as exc:
        raise _fail(EXIT_INCONCLUSIVE, f"construct: {exc}")
    doc = witness_to_json(witness)
    doc["manifest"] = manifest.to_json("constructed")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit(
        doc,
        args.json,
        f"witness d={witness.d} seed={witness.seed} with {witness.delta} "
        f"claimed T1 points written to {args.out}",
    )
    return EXIT_OK


def cmd_certify(args, manifest: RunManifest) -> int:
    witness = witness_from_json(_load_json(args.witness))
    try:
        bundle = certify_witness(witness, degree_cap=args.degree_cap)
    except ToolkitError:
        raise  # main maps these to their own exit codes
    except ValueError as exc:  # --degree-cap below a generator degree
        raise _fail(EXIT_USAGE, f"certify: {exc}")
    doc = witness_to_json(witness, bundle)
    doc["manifest"] = manifest.to_json(bundle.verdict)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    lines = [f"verdict: {bundle.verdict}"]
    if bundle.failed_stage:
        lines.append(f"failed stage: {bundle.failed_stage}")
    for stage in bundle.stages:
        lines.append(f"  [{stage.status}] {stage.name}: {stage.detail}")
    _emit(doc, args.json, "\n".join(lines))
    if bundle.verdict == "Certified":
        return EXIT_OK
    if bundle.verdict == "Refuted":
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


def cmd_bounds(args, manifest: RunManifest) -> int:
    try:
        if args.space == "ci4":
            if args.h is None:
                raise ValueError("ci4 bounds need --h")
            spec = SystemSpec("ci4", args.d, args.h)
        else:
            spec = SystemSpec("p3", args.d)
        dim = linear_system_dim(spec)
        delta = max_regular_delta(spec)
        floor = heuristic_floor(spec)
    except ValueError as exc:
        raise _fail(EXIT_USAGE, f"bounds: {exc}")
    doc = {
        "space": args.space,
        "d": args.d,
        "h": args.h,
        "dim": dim,
        "delta_max": delta,
        "heuristic_floor": floor,
        "heuristic_status": "conjectural",
        "manifest": manifest.to_json("ok"),
    }
    text = (
        f"system dim      : {dim}\n"
        f"delta_max       : {delta}\n"
        f"heuristic floor : {floor} (conjectural)"
    )
    _emit(doc, args.json, text)
    return EXIT_OK


def cmd_regularity(args, manifest: RunManifest) -> int:
    spec = SystemSpec.from_json(_load_json(args.system))
    points = parse_points(_load_json(args.points))
    try:
        cm = condition_matrix(spec, points)
    except (ValueError, PointNotOnSurface) as exc:
        raise _fail(EXIT_DATA, f"regularity: {exc}")
    report = independence_rank(cm)
    verdict = "Certified" if report.regular else "Refuted"
    doc = report.to_json()
    doc["manifest"] = manifest.to_json(verdict)
    _emit(
        doc,
        args.json,
        f"rank {report.rank} of {report.delta} conditions; "
        f"regular: {report.regular}; tangent dim {report.tangent_dim}",
    )
    return EXIT_OK if report.regular else EXIT_REFUTED


def cmd_deform_check(args, manifest: RunManifest) -> int:
    try:
        t = parse_rational(args.t)
    except DataFormatError:
        build_parser().error(f"argument --t: not a rational number: {args.t!r}")
    if t == 0:
        raise _fail(
            EXIT_USAGE, "deform-check: central fibre is the T1 limit, not a node"
        )
    family = deformation_slice(t)
    if family is None:
        doc = {
            "t": format_rational(t),
            "status": "NoRationalSlice",
            "manifest": manifest.to_json("Inconclusive"),
        }
        _emit(doc, args.json, f"no rational slice at t = {t} (-4t is not a square)")
        return EXIT_INCONCLUSIVE
    report = verify_t1_to_node(family)
    ok = report.kind == NODE_A1 and report.witness.get("tangent_cone_ratio") is not None
    doc = report.to_json()
    doc["t"] = format_rational(t)
    doc["alpha"] = format_rational(report.witness["alpha"])
    doc["tangent_cone_ratio"] = (
        format_rational(report.witness["tangent_cone_ratio"])
        if report.witness.get("tangent_cone_ratio") is not None
        else None
    )
    doc["manifest"] = manifest.to_json(report.kind)
    point = ", ".join(format_rational(x) for x in report.point)
    _emit(
        doc,
        args.json,
        f"t = {t}: {report.kind} at chart point ({point}); "
        f"Hessian det {format_rational(report.witness.get('hessian_det', Fraction(0)))}; "
        f"tangent cone ratio {doc['tangent_cone_ratio']}",
    )
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_hessian_limit(args, manifest: RunManifest) -> int:
    poly_doc = _load_json(args.poly)
    p = MultiPoly.from_json(poly_doc)
    try:
        result = hessian_limit_check(p)
    except ValueError as exc:
        raise _fail(EXIT_DATA, f"hessian-limit: {exc}")
    doc = result.to_json()
    doc["manifest"] = manifest.to_json(result.verdict)
    _emit(
        doc,
        args.json,
        f"{result.verdict}: det(B0) = {format_rational(result.det_b0)}, "
        f"disc = {format_rational(result.discriminant)}",
    )
    return EXIT_OK if result.verdict == "Verified" else EXIT_REFUTED


def cmd_chow_f0(args, manifest: RunManifest) -> int:
    identities = chow_f0_identities()
    lines = [identities.transcript()]
    for m in (0, 1, 2):
        tr = theta_restriction_class(m)
        status = "effective" if tr.effective else "not effective"
        lines.append(
            f"theta restriction m={m}: ({tr.fibre_coeff}, {tr.e_coeff}) {status}"
        )
    lines.append(f"minimal effective multiplicity: {minimal_effective_multiplicity()}")
    doc = identities.to_json()
    doc["theta_restrictions"] = [theta_restriction_class(m).to_json() for m in (0, 1, 2)]
    doc["minimal_effective_multiplicity"] = minimal_effective_multiplicity()
    doc["manifest"] = manifest.to_json("ok")
    _emit(doc, args.json, "\n".join(lines))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    manifest = RunManifest(
        command=args.command,
        arguments=argv,
        seed=getattr(args, "seed", None),
        version=__version__,
        started=time.perf_counter(),
    )
    try:
        return args.handler(args, manifest)
    except DataFormatError as exc:
        raise _fail(EXIT_DATA, f"nodal-degen: {exc}")
    except ToolkitError as exc:
        raise _fail(EXIT_REFUTED, f"nodal-degen: {exc}")


if __name__ == "__main__":
    sys.exit(main())
