"""Command-line front end: every library operation behind one executable.

Output is JSON by default (schema: top-level algebra/level/result/meta, with
meta carrying kappa plus degree/vanishes where meaningful) or an aligned
ASCII table via --format table.  Exit codes classify failures: 2 usage,
3 validation, 4 numerical gate, 5 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .affine_weyl import AffineContext, alcove_reduce
from .errors import NumericalError, ResourceError, ValidationError
from .finite_reps import tensor_decompose, weyl_dimension
from .fusion import FusionElement, fuse_kw
from .induction import homomorphism_check, induce
from .rootdata import AlgebraSpec, build_root_system, canonical_key
from .verlinde import Surface, cohomology_report, factorization_check, verlinde_dimension

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


@dataclass
class Command:
    subcommand: str
    algebra: AlgebraSpec
    level: int
    weights: list[tuple]
    boundary: list[tuple] = field(default_factory=list)
    genus: "int | None" = None
    format: str = "json"


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopfusion",
        description="Exact fusion rings, alcove reduction and loop-group dimension formulas.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"{name} query")
        p.add_argument("--algebra", required=True, help="algebra label, e.g. A2 or G2")
        p.add_argument("--level", type=int, default=0, help="level k (or twisting level h)")
        p.add_argument("--weights", default="", help='weights "a,b;c,d"')
        p.add_argument("--boundary", default="", help='boundary labels "a,b;c,d"')
        p.add_argument("--genus", type=int, default=None, help="surface genus")
        p.add_argument("--format", choices=("json", "table"), default="json")
    return parser


def parse_args(argv: list[str]) -> Command:
    ns = build_parser().parse_args(argv)
    return Command(
        subcommand=ns.subcommand,
        algebra=AlgebraSpec.parse(ns.algebra),
        level=ns.level,
        weights=parse_weight_list(ns.weights),
        boundary=parse_weight_list(ns.boundary),
        genus=ns.genus,
        format=ns.format,
    )


def _fusion_terms(rs, element: FusionElement) -> list[dict]:
    return [
        {"weight": list(w), "coeff": c} for w, c in element.sorted_terms(rs)
    ]


def _require_weights(cmd: Command, count: int) -> list[tuple]:
    if len(cmd.weights) != count:
        raise ValidationError(
            f"{cmd.subcommand} needs exactly {count} weight(s), got {len(cmd.weights)}"
        )
    return cmd.weights


def run(cmd: Command) -> tuple[int, str]:
    """Execute a parsed command; (exit code, rendered output)."""
    rs = build_root_system(cmd.algebra)
    if cmd.level < 0:
        raise ValidationError(f"level must be nonnegative, got {cmd.level}")
    meta: dict = {"kappa": cmd.level + rs.dual_coxeter}
    genus = cmd.genus if cmd.genus is not None else 0

    if cmd.subcommand == "roots":
        result = rs.describe()
    elif cmd.subcommand == "dim":
        if not cmd.weights:
            raise ValidationError("dim needs at least one weight")
        result = [
            {"weight": list(w), "dimension": weyl_dimension(rs, w)}
            for w in cmd.weights
        ]
    elif cmd.subcommand == "tensor":
        lam, mu = _require_weights(cmd, 2)
        decomp = tensor_decompose(rs, lam, mu)
        result = [
            {"weight": list(w), "multiplicity": c}
            for w, c in sorted(
                decomp.terms.items(), key=lambda kv: canonical_key(rs, kv[0])
            )
        ]
    elif cmd.subcommand == "reduce":
        if not cmd.weights:
            raise ValidationError("reduce needs at least one vector")
        ctx = AffineContext(rs, cmd.level)
        result = []
        for x in cmd.weights:
            red = alcove_reduce(ctx, x)
            entry = {
                "input": list(x),
                "status": red.status,
                "reduced": [int(v) for v in red.reduced],
                "length": red.length,
                "sign": red.sign,
            }
            result.append(entry)
    elif cmd.subcommand == "fusion":
        lam, mu = _require_weights(cmd, 2)
        result = _fusion_terms(rs, fuse_kw(rs, cmd.level, lam, mu))
    elif cmd.subcommand == "verlinde":
        surface = Surface(genus=genus, insertions=tuple(cmd.weights), boundary=tuple(cmd.boundary))
        result = verlinde_dimension(rs, cmd.level, surface)
        meta["genus"] = genus
    elif cmd.subcommand == "report":
        surface = Surface(genus=genus, insertions=tuple(cmd.weights), boundary=tuple(cmd.boundary))
        report = cohomology_report(rs, cmd.level, surface)
        result = {
            "vanishes": report.vanishes,
            "dimension": report.dimension,
            "euler_characteristic": report.euler_characteristic,
        }
        meta["vanishes"] = report.vanishes
        if not report.vanishes:
            result["degree"] = report.degree
            meta["degree"] = report.degree
    elif cmd.subcommand == "induce":
        (lam,) = _require_weights(cmd, 1)
        res = induce(rs, cmd.level, lam)
        result = _fusion_terms(rs, res.value)
        vanishes = not bool(res.value)
        meta["vanishes"] = vanishes
        if not vanishes:
            meta["degree"] = res.source_degrees[tuple(lam)]
    elif cmd.subcommand == "check":
        if cmd.genus is not None:
            surface = Surface(
                genus=cmd.genus, insertions=tuple(cmd.weights), boundary=tuple(cmd.boundary)
            )
            fc = factorization_check(rs, cmd.level, surface)
            result = {"lhs": fc["lhs"], "rhs": fc["rhs"], "equal": fc["equal"]}
            meta["genus"] = cmd.genus
        else:
            lam, mu = _require_weights(cmd, 2)
            hc = homomorphism_check(rs, cmd.level, lam, mu)
            result = {
                "equal": hc["equal"],
                "lhs": _fusion_terms(rs, hc["lhs"]),
                "rhs": _fusion_terms(rs, hc["rhs"]),
            }
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown subcommand {cmd.subcommand!r}")

    payload = {
        "algebra": str(cmd.algebra),
        "level": cmd.level,
        "result": result,
        "meta": meta,
    }
    if cmd.format == "table":
        return 0, _render_table(payload)
    return 0, json.dumps(payload, separators=(",", ":")) + "\n"


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
        cmd = parse_args(argv)
        code, text = run(cmd)
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
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
