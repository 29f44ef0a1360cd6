"""Command-line front end: every library operation behind one executable.

Output is JSON by default (schema: top-level algebra/level/result/meta, with
meta carrying kappa plus degree/vanishes where meaningful) or an aligned
ASCII table via --format table.  Exit codes classify failures: 2 usage,
3 validation, 4 numerical gate, 5 resource cap.

A query is the namespace of :func:`build_parser`, which :func:`run` answers
directly: it parses the algebra label, then the weight and boundary lists,
then refuses a negative level, so a query with several faults always
reports the same first one.  Each subcommand declares only the options it
reads, and its own parser refuses any other (exit 2, under the usage line
of that subcommand): every one takes --algebra,
--level and --format, every one but roots --weights, and only those that
take a surface (verlinde, report, check) --genus and --boundary; check
reads a surface only with --genus, so it refuses --boundary without it.
Every term list comes in the canonical order of
``WeightCombination.sorted_terms``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .affine_weyl import AffineContext, alcove_reduce
from .errors import NumericalError, ResourceError, ValidationError
from .finite_reps import WeightCombination, tensor_decompose, weyl_dimension
from .fusion import fuse_kw
from .induction import homomorphism_check, induce
from .rootdata import AlgebraSpec, build_root_system
from .verlinde import Surface, cohomology_report, factorization_check, verlinde_dimension

# the subcommands that read a surface: --genus and --boundary
SURFACE_SUBCOMMANDS = ("verlinde", "report", "check")
SUBCOMMANDS = (
    "roots",
    "dim",
    "tensor",
    "reduce",
    "fusion",
    "verlinde",
    "report",
    "induce",
    "check",
)


def parse_weight_list(text: str) -> list[tuple]:
    """Parse "a,b;c,d" into [(a,b), (c,d)]; empty string means no weights."""
    text = text.strip()
    if not text:
        return []
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValidationError(f"empty weight entry in {text!r}")
        try:
            out.append(tuple(int(part) for part in chunk.split(",")))
        except ValueError:
            raise ValidationError(f"weight entry {chunk!r} is not a comma-separated integer vector")
    return out


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it refuses an option it does not declare itself,
    under its own usage line, where argparse would hand it up to the
    top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopfusion",
        description="Exact fusion rings, alcove reduction and loop-group dimension formulas.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_SubcommandParser)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"{name} query")
        p.add_argument("--algebra", required=True, help="algebra label, e.g. A2 or G2")
        p.add_argument("--level", type=int, default=0, help="level k (or twisting level h)")
        if name != "roots":
            p.add_argument("--weights", help='weights "a,b;c,d"')
        if name in SURFACE_SUBCOMMANDS:
            p.add_argument("--boundary", help='boundary labels "a,b;c,d"')
            p.add_argument("--genus", type=int, help="surface genus")
        p.add_argument("--format", choices=("json", "table"), default="json")
        # what an option that is absent, or not declared, reads as
        p.set_defaults(weights="", boundary=None, genus=None)
    return parser


def _terms(rs, combination: WeightCombination, name: str = "coeff") -> list[dict]:
    return [
        {"weight": list(w), name: c} for w, c in combination.sorted_terms(rs)
    ]


def _require_weights(subcommand: str, weights: list[tuple], count: int) -> list[tuple]:
    if len(weights) != count:
        raise ValidationError(
            f"{subcommand} needs exactly {count} weight(s), got {len(weights)}"
        )
    return weights


def run(args: argparse.Namespace) -> str:
    """Answer one query parsed by :func:`build_parser`; the rendered output."""
    spec = AlgebraSpec.parse(args.algebra)
    weights = parse_weight_list(args.weights)
    boundary = parse_weight_list(args.boundary or "")
    subcommand = args.subcommand
    if subcommand == "check" and args.boundary is not None and args.genus is None:
        raise ValidationError("check --boundary needs --genus")
    rs = build_root_system(spec)
    if args.level < 0:
        raise ValidationError(f"level must be nonnegative, got {args.level}")
    meta: dict = {"kappa": args.level + rs.dual_coxeter}
    if subcommand in ("verlinde", "report") or (subcommand == "check" and args.genus is not None):
        surface = Surface(genus=args.genus or 0, insertions=tuple(weights), boundary=tuple(boundary))

    if subcommand == "roots":
        result = rs.describe()
    elif subcommand == "dim":
        if not weights:
            raise ValidationError("dim needs at least one weight")
        result = [
            {"weight": list(w), "dimension": weyl_dimension(rs, w)}
            for w in weights
        ]
    elif subcommand == "tensor":
        lam, mu = _require_weights(subcommand, weights, 2)
        result = _terms(rs, tensor_decompose(rs, lam, mu), "multiplicity")
    elif subcommand == "reduce":
        if not weights:
            raise ValidationError("reduce needs at least one vector")
        ctx = AffineContext(rs, args.level)
        result = []
        for x in weights:
            red = alcove_reduce(ctx, x)
            entry = {
                "input": list(x),
                "status": red.status,
                "reduced": [int(v) for v in red.reduced],
                "length": red.length,
                "sign": red.sign,
            }
            result.append(entry)
    elif subcommand == "fusion":
        lam, mu = _require_weights(subcommand, weights, 2)
        result = _terms(rs, fuse_kw(rs, args.level, lam, mu))
    elif subcommand == "verlinde":
        result = verlinde_dimension(rs, args.level, surface)
        meta["genus"] = surface.genus
    elif subcommand == "report":
        report = cohomology_report(rs, args.level, surface)
        result = {
            "vanishes": report.vanishes,
            "dimension": report.dimension,
            "euler_characteristic": report.euler_characteristic,
        }
        meta["vanishes"] = report.vanishes
        if not report.vanishes:
            result["degree"] = report.degree
            meta["degree"] = report.degree
    elif subcommand == "induce":
        (lam,) = _require_weights(subcommand, weights, 1)
        res = induce(rs, args.level, lam)
        result = _terms(rs, res.value)
        vanishes = not bool(res.value)
        meta["vanishes"] = vanishes
        if not vanishes:
            meta["degree"] = res.source_degrees[tuple(lam)]
    elif subcommand == "check":
        if args.genus is not None:
            fc = factorization_check(rs, args.level, surface)
            result = {"lhs": fc["lhs"], "rhs": fc["rhs"], "equal": fc["equal"]}
            meta["genus"] = surface.genus
        else:
            lam, mu = _require_weights(subcommand, weights, 2)
            hc = homomorphism_check(rs, args.level, lam, mu)
            result = {
                "equal": hc["equal"],
                "lhs": _terms(rs, hc["lhs"]),
                "rhs": _terms(rs, hc["rhs"]),
            }
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown subcommand {subcommand!r}")

    payload = {
        "algebra": str(spec),
        "level": args.level,
        "result": result,
        "meta": meta,
    }
    if args.format == "table":
        return _render_table(payload)
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, json.dumps(value)))


def _render_table(payload: dict) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    width = max(len(k) for k, _ in rows)
    lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
    return "\n".join(lines) + "\n"


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact Verlinde numbers print at any length
    try:
        text = run(build_parser().parse_args(argv))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 5
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
