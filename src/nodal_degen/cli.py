"""Command-line front end with stable file formats and exit codes.

Each command handler computes a document, a text report and a verdict;
``main`` alone attaches the run manifest, writes ``--out``, prints and picks
the exit code.  Exit codes: 0 for a success verdict, 2 for Inconclusive
(including retryable construction failures), 1 for any other verdict, 64
usage error (an unwritable ``--out`` included), 65 data-format error.
Verdicts are deterministic functions of the inputs and the --seed flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import NoReturn

from . import __version__
from .constructions import (
    DEFAULT_RETRIES,
    build_witness,
    certify_witness,
    witness_from_json,
    witness_to_json,
)
from .degeneration import (
    chow_f0_identities,
    deformation_slice,
    hessian_limit_check,
    minimal_effective_multiplicity,
    render_f0,
    theta_restriction_class,
    verify_t1_to_node,
)
from .errors import DataFormatError, GenericityError, PointNotOnSurface, ToolkitError
from .polynomials import MultiPoly, format_point, format_rational, parse_rational
from .severi import (
    SystemSpec,
    condition_matrix,
    heuristic_floor,
    independence_rank,
    linear_system_dim,
    max_regular_delta,
    parse_points,
)
from .singularities import NODE_A1

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65

#: The largest condition matrix ``regularity`` accepts, in rows x columns
#: (an empty point set counts as one row).  Bareiss decides the rank, and on
#: points of height 9 the slowest matrix within this bound, 120 x 120 over
#: plane curves of degree 14, took 3 s (README "Limits").
MAX_CONDITION_ENTRIES = 120 * 120

# the exit code of each verdict; any verdict not listed is a refutation
_EXIT_CODES = {
    **dict.fromkeys(("constructed", "ok", "Certified", "Verified", NODE_A1), EXIT_OK),
    "Inconclusive": EXIT_INCONCLUSIVE,
}


def _fail(code: int, message: str) -> SystemExit:
    print(message, file=sys.stderr)
    return SystemExit(code)


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code remapped to 64."""

    def error(self, message) -> NoReturn:
        self.print_usage(sys.stderr)
        raise _fail(EXIT_USAGE, f"{self.prog}: error: {message}")


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
    p.add_argument("--retries", type=int, default=DEFAULT_RETRIES)
    p.add_argument("--out", required=True, help="output witness file (JSON)")
    p.add_argument("--json", action="store_true", help="print the witness document")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("certify", help="run the certificate chain on a witness file")
    p.add_argument("witness", help="witness file produced by construct")
    p.add_argument(
        "--degree-cap",
        type=int,
        default=None,
        help="degree cap of the Groebner routes only: the S_A chart, and the "
        "S_B tau = 1 chart when psi does not have the default shape",
    )
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


def cmd_construct(args) -> tuple[dict, str, str]:
    try:
        witness = build_witness(args.d, args.seed, retries=args.retries)
    except ValueError as exc:
        raise _fail(EXIT_USAGE, f"construct: {exc}")
    except GenericityError as exc:
        raise _fail(EXIT_INCONCLUSIVE, f"construct: {exc}")
    text = (
        f"witness d={witness.d} seed={witness.seed} with {witness.delta} "
        f"claimed T1 points written to {args.out}"
    )
    return witness_to_json(witness), text, "constructed"


def cmd_certify(args) -> tuple[dict, str, str]:
    witness = witness_from_json(_load_json(args.witness))
    try:
        bundle = certify_witness(witness, degree_cap=args.degree_cap)
    except ToolkitError:
        raise  # main maps these to their own exit codes
    except ValueError as exc:  # --degree-cap below a generator degree
        raise _fail(EXIT_USAGE, f"certify: {exc}")
    lines = [f"verdict: {bundle.verdict}"]
    if bundle.failed_stage:
        lines.append(f"failed stage: {bundle.failed_stage}")
    for stage in bundle.stages:
        lines.append(f"  [{stage.status}] {stage.name}: {stage.detail}")
    return witness_to_json(witness, bundle), "\n".join(lines), bundle.verdict


def cmd_bounds(args) -> tuple[dict, str, str]:
    try:
        spec = SystemSpec(args.space, args.d, args.h)
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
    }
    text = (
        f"system dim      : {dim}\n"
        f"delta_max       : {delta}\n"
        f"heuristic floor : {floor} (conjectural)"
    )
    return doc, text, "ok"


def cmd_regularity(args) -> tuple[dict, str, str]:
    spec = SystemSpec.from_json(_load_json(args.system))
    points = parse_points(_load_json(args.points))
    columns = spec.monomial_count()
    if max(len(points), 1) * columns > MAX_CONDITION_ENTRIES:
        raise _fail(
            EXIT_USAGE,
            f"regularity: the {len(points)} x {columns} condition matrix exceeds "
            f"the limit of {MAX_CONDITION_ENTRIES} entries (rows x columns)",
        )
    try:
        matrix = condition_matrix(spec, points)
    except (ValueError, PointNotOnSurface) as exc:
        raise _fail(EXIT_DATA, f"regularity: {exc}")
    report = independence_rank(spec, matrix)
    text = (
        f"rank {report.rank} of {report.delta} conditions; "
        f"regular: {report.regular}; tangent dim {report.tangent_dim}"
    )
    return report.to_json(), text, "Certified" if report.regular else "Refuted"


def cmd_deform_check(args) -> tuple[dict, str, str]:
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
        doc = {"t": format_rational(t), "status": "NoRationalSlice"}
        text = f"no rational slice at t = {t} (-4t is not a square)"
        return doc, text, "Inconclusive"
    report = verify_t1_to_node(family)
    ratio = report.witness["tangent_cone_ratio"]
    doc = report.to_json()
    doc["t"] = format_rational(t)
    doc["alpha"] = format_rational(family.alpha)
    doc["tangent_cone_ratio"] = None if ratio is None else format_rational(ratio)
    text = (
        f"t = {t}: {report.kind} at chart point {format_point(report.point)}; "
        f"Hessian det {doc.get('hessian_det', '0')}; "
        f"tangent cone ratio {doc['tangent_cone_ratio']}"
    )
    return doc, text, report.kind


def cmd_hessian_limit(args) -> tuple[dict, str, str]:
    p = MultiPoly.from_json(_load_json(args.poly))
    try:
        result = hessian_limit_check(p)
    except ValueError as exc:
        raise _fail(EXIT_DATA, f"hessian-limit: {exc}")
    text = (
        f"{result.verdict}: det(B0) = {format_rational(result.det_b0)}, "
        f"disc = {format_rational(result.discriminant)}"
    )
    return result.to_json(), text, result.verdict


def cmd_chow_f0(args) -> tuple[dict, str, str]:
    doc = chow_f0_identities()
    names = {"e": "e", "theta_restriction": "theta|_E", "second_exceptional_restriction": "E''|_E"}
    lines = [f"{name} = {render_f0(doc[key])}" for key, name in names.items()]
    lines += [f"check {name}: {'ok' if ok else 'FAILED'}" for name, ok in doc["checks"].items()]
    doc["theta_restrictions"] = [theta_restriction_class(m) for m in (0, 1, 2)]
    for tr in doc["theta_restrictions"]:
        status = "effective" if tr["effective"] else "not effective"
        lines.append(
            f"theta restriction m={tr['multiplicity']}: "
            f"({tr['fibre_coeff']}, {tr['e_coeff']}) {status}"
        )
    doc["minimal_effective_multiplicity"] = minimal_effective_multiplicity()
    lines.append(f"minimal effective multiplicity: {doc['minimal_effective_multiplicity']}")
    return doc, "\n".join(lines), "ok"


def main(argv: list[str] | None = None) -> int:
    """Run one command; its handler computes, and only this function reports."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        doc, text, verdict = args.handler(args)
    except DataFormatError as exc:
        raise _fail(EXIT_DATA, f"nodal-degen: {exc}")
    except ToolkitError as exc:
        raise _fail(EXIT_REFUTED, f"nodal-degen: {exc}")
    doc["manifest"] = {
        "command": args.command,
        "arguments": argv,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
        "verdict": verdict,
    }
    rendered = json.dumps(doc, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            raise _fail(EXIT_USAGE, f"nodal-degen: cannot write {out}: {exc}")
    print(rendered if args.json else text)
    return _EXIT_CODES.get(verdict, EXIT_REFUTED)


if __name__ == "__main__":
    sys.exit(main())
