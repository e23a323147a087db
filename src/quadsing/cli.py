"""Command-line front end.

Subcommands: gw (ring arithmetic and invariants), milnor (the quadratic
Milnor number), conductor (verification reports), euler (hypersurface
Euler data), monodromy (Tate variation and Kummer matrix), batch
(multi-point conductor aggregation with transfers).

Exit codes: 0 success, 1 mathematical failure, 2 usage or input-syntax
error.  JSON output is deterministic (sorted keys, fixed indentation);
text output honors QUADSING_ASCII=1 by writing <a> instead of the angle
brackets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction

from . import conductor as cond
from . import ekl, euler, gw, tate
from . import poly as P
from .errors import InputDomainError, ParseError, QuadsingError


def _unicode_ok() -> bool:
    return os.environ.get("QUADSING_ASCII", "") != "1"


def _display_entries(entries) -> list[int]:
    """Rewrite pairs {a, -a} as {1, -1} (a hyperbolic-plane identity),
    then order by magnitude with positives first.  Display only."""
    c = Counter(entries)
    hyper = 0
    for a in sorted(c):
        if a > 0 and c.get(a, 0) and c.get(-a, 0):
            k = min(c[a], c[-a])
            c[a] -= k
            c[-a] -= k
            hyper += k
    out = [a for a, k in c.items() for _ in range(k)]
    out.extend([1] * hyper + [-1] * hyper)
    out.sort(key=lambda a: (abs(a), a < 0))
    return out


def display_form(e: gw.GWElement) -> str:
    """Human-readable form with hyperbolic pairs normalized to <1> + <-1>."""
    if e.ctx.kind == "rationals":
        e = gw.GWElement(e.ctx, _display_entries(e.pos), _display_entries(e.neg), _raw=True)
    return gw.format_terms(e, unicode_brackets=_unicode_ok())


def _print_json(out, payload) -> None:
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# shared input parsing
# ---------------------------------------------------------------------------


def _field_ctx(label: str) -> gw.FieldCtx:
    if label == "Q":
        return gw.RATIONALS
    if label == "Qt":
        return gw.RATIONAL_FUNCTIONS
    if label.startswith("Fp:"):
        try:
            p = int(label[3:])
        except ValueError:
            raise ParseError(f"bad prime in field label {label!r}")
        try:
            return gw.FieldCtx.prime_field(p)
        except ValueError:
            raise ParseError(f"field label {label!r} needs an odd prime modulus")
    raise ParseError(f"unknown field {label!r}; use Q, Fp:<p>, or Qt")


def _singularity_from_args(args) -> ekl.SingularityInput:
    var_names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if not var_names:
        raise ParseError("--vars must list at least one variable")
    weights = None
    if args.weights:
        try:
            weights = [int(w) for w in args.weights.split(",")]
        except ValueError:
            raise ParseError("--weights must be a comma-separated integer list")
    return ekl.singularity(args.poly, var_names, weights, args.degree)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


#: each gw action with the number of arguments it takes
_GW_ARITY = {
    "invariants": 1, "equal": 2, "add": 2, "mul": 2,
    "specialize": 1, "transfer": 1, "diagonalize": 1,
}


def _cmd_gw(args, out) -> int:
    arity = _GW_ARITY[args.action]
    if len(args.args) != arity:
        raise ParseError(
            f"gw {args.action} takes {arity} argument{'s' * (arity > 1)}, got {len(args.args)}"
        )
    ctx = _field_ctx(args.field)
    if args.action == "specialize":
        ctx = gw.RATIONAL_FUNCTIONS

    def parse_elt(text):
        return gw.parse_gw(text, ctx)

    if args.action == "invariants":
        e = parse_elt(args.args[0])
        inv = e.invariants()
        if args.json:
            _print_json(out, {
                "element": gw.to_json_dict(e),
                "rank": inv.rank,
                "signature": inv.signature,
                "discriminant": str(inv.discriminant),
                "hasse": {str(p): v for p, v in inv.hasse.items()},
            })
        else:
            out.write(f"element: {display_form(e)}\n")
            out.write(f"rank: {inv.rank}\n")
            if inv.signature is not None:
                out.write(f"signature: {inv.signature}\n")
            out.write(f"discriminant: {inv.discriminant}\n")
            if inv.hasse:
                hasse = " ".join(f"{p}:{v:+d}" for p, v in sorted(inv.hasse.items()))
                out.write(f"hasse: {hasse}\n")
        return 0

    if args.action == "equal":
        a, b = parse_elt(args.args[0]), parse_elt(args.args[1])
        verdict = gw.is_equal(a, b)
        if args.json:
            _print_json(out, {"equal": verdict})
        else:
            out.write(f"equal: {'true' if verdict else 'false'}\n")
        return 0

    if args.action in ("add", "mul"):
        a, b = parse_elt(args.args[0]), parse_elt(args.args[1])
        e = a + b if args.action == "add" else a * b
        if args.json:
            _print_json(out, gw.to_json_dict(e))
        else:
            out.write(display_form(e) + "\n")
        return 0

    if args.action == "specialize":
        e = parse_elt(args.args[0])
        sp = gw.specialize(e)
        if args.json:
            _print_json(out, gw.to_json_dict(sp))
        else:
            out.write(display_form(sp) + "\n")
        return 0

    if args.action == "transfer":
        if not args.min_poly:
            raise ParseError("transfer needs --min-poly")
        g = gw.parse_poly_in_x(args.min_poly)
        ectx = gw.FieldCtx.extension(g)
        e = gw.parse_gw(args.args[0], ectx)
        res = gw.transfer(g, e)
        if args.json:
            _print_json(out, gw.to_json_dict(res))
        else:
            out.write(display_form(res) + "\n")
        return 0

    if args.action == "diagonalize":
        try:
            rows = json.loads(args.args[0])
            matrix = [[Fraction(str(v)) for v in row] for row in rows]
        except (ValueError, TypeError) as exc:
            raise ParseError(f"matrix must be a JSON array of rows: {exc}")
        try:
            e = gw.diagonalize(matrix, ctx)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        if args.json:
            _print_json(out, gw.to_json_dict(e))
        else:
            out.write(display_form(e) + "\n")
        return 0

    raise ParseError(f"unknown gw action {args.action!r}")


def _cmd_milnor(args, out) -> int:
    s = _singularity_from_args(args)
    form = ekl.ss_form(s)
    mu = form.gw
    if args.json:
        _print_json(out, {
            "input": s.to_json_dict(),
            "dimension": form.dimension,
            "basis": [list(e) for e in form.basis],
            "gram": [[gw.json_rational(v) for v in row] for row in form.gram],
            "form": gw.to_json_dict(mu),
        })
        return 0
    out.write(f"f = {P.format_poly(s.f, s.var_names)}\n")
    out.write(f"variables: {', '.join(s.var_names)}\n")
    if s.weights is not None:
        out.write(f"weights: {', '.join(str(w) for w in s.weights)} (degree {s.degree})\n")
    out.write(f"Jacobian ring dimension: {form.dimension}\n")
    out.write(f"diagonal form: {gw.format_terms(mu, unicode_brackets=_unicode_ok())}\n")
    out.write(f"mu^q = {display_form(mu)}\n")
    return 0


def _cmd_conductor(args, out) -> int:
    s = _singularity_from_args(args)
    report = cond.verify(s)
    if args.json:
        _print_json(out, report.to_json_dict())
        return 0
    out.write(f"f = {P.format_poly(s.f, s.var_names)}\n")
    if s.weights is not None:
        out.write(f"weights: {', '.join(str(w) for w in s.weights)} (degree {s.degree})\n")
    elif s.degree is not None:
        out.write(f"degree: {s.degree}\n")
    out.write(f"rhs = {display_form(report.rhs)}  (rank {report.rhs.rank})\n")
    if report.lhs_full is not None:
        out.write(f"lhs = {display_form(report.lhs_full)}\n")
    if report.lhs_rank is not None:
        out.write(f"lhs rank = {report.lhs_rank}\n")
    verdict_text = " ".join(
        f"{k}={v if isinstance(v, str) else ('true' if v else 'false')}"
        for k, v in sorted(report.verdicts.items())
    )
    out.write(f"verdicts: {verdict_text}\n")
    out.write("notes:\n")
    for note in report.notes:
        out.write(f"  - {note}\n")
    return 0


def _cmd_euler(args, out) -> int:
    if args.quadric is not None:
        e = euler.chi_split_quadric(args.quadric)
        if args.json:
            _print_json(out, {
                "quadric_dimension": args.quadric,
                "chi_compact": gw.to_json_dict(e),
                "rank": e.rank,
            })
        else:
            out.write(f"chi^c(split quadric, dim {args.quadric}) = {display_form(e)}\n")
            out.write(f"rank: {e.rank}\n")
        return 0
    if args.ambient is None:
        raise ParseError("euler needs --ambient together with --degree")
    table = euler.primitive_hodge(args.degree, args.ambient)
    chi = euler.euler_rank(args.degree, args.ambient)
    if args.json:
        _print_json(out, {
            "degree": table.d,
            "ambient": table.N,
            "dimension": table.n,
            "primitive_hodge": list(table.primitive),
            "euler_characteristic": chi,
        })
    else:
        out.write(
            f"smooth hypersurface of degree {table.d} in P^{table.N} (dimension {table.n})\n"
        )
        out.write(
            "primitive hodge numbers: "
            + ", ".join(str(h) for h in table.primitive)
            + "\n"
        )
        out.write(f"euler characteristic: {chi}\n")
    return 0


def _cmd_monodromy(args, out) -> int:
    if args.kummer:
        N = tate.kummer_monodromy()
        NN = tate.compose(N.twist(-1), N)
        if args.json:
            _print_json(out, {
                "kind": "kummer",
                "map": N.to_json(),
                "nilpotent_order": 2,
                "square_is_zero": NN.is_zero(),
            })
        else:
            out.write("Kummer monodromy on 1 + 1(-1):\n")
            for row in N.entries:
                out.write("  [" + ", ".join(str(v) for v in row) + "]\n")
            out.write(f"N(-1) o N = 0: {'true' if NN.is_zero() else 'false'}\n")
        return 0

    if args.abstract is not None:
        if args.dimension is None:
            raise ParseError("--abstract needs --dimension")
        report = tate.abstract_variation_report(args.abstract, args.dimension)
        if args.json:
            _print_json(out, report)
        else:
            out.write(f"abstract Picard-Lefschetz, degree {args.abstract}, dimension {args.dimension}\n")
            out.write(f"identity: {report['identity']}\n")
            out.write(f"scalar: {report['factorization']['scalar']}\n")
            if "quadric_case" in report:
                qc = report["quadric_case"]
                if qc["kind"] == "zero":
                    out.write("quadric case: variation: zero map\n")
                else:
                    out.write(f"quadric case: variation factored with scalar {qc['scalar']}\n")
        return 0

    if args.dimension is None:
        raise ParseError("--quadratic needs --dimension")
    v = tate.variation_quadric(args.dimension)
    if args.json:
        _print_json(out, v.to_json())
        return 0
    out.write(f"quadratic singularity, fiber dimension {args.dimension}\n")
    if v.kind == "zero":
        out.write("variation: zero map\n")
        out.write("vanishing hom slots:\n")
        for s, t in v.certificate:
            out.write(f"  1({s[0]})[{s[1]}] -> 1({t[0]})[{t[1]}]: Hom = 0\n")
    else:
        out.write(f"variation: factored through 1({v.m1.target.summands[0][0]})[{v.m1.target.summands[0][1]}] with scalar {v.scalar}\n")
    return 0


_JSON_KINDS = {
    "a string": lambda v: type(v) is str,
    "an integer": lambda v: type(v) is int,
    "a list of strings": lambda v: type(v) is list and all(type(x) is str for x in v),
    "a list of integers": lambda v: type(v) is list and all(type(x) is int for x in v),
}


def _entry_field(entry: dict, key: str, kind: str, required: bool = True):
    """entry[key], checked to be the JSON value that kind names; an optional
    key may be absent or null."""
    if not required and entry.get(key) is None:
        return None
    value = entry[key]
    if not _JSON_KINDS[kind](value):
        raise ParseError(f'"{key}" must be {kind}, not {json.dumps(value)}')
    return value


def _cmd_batch(args, out) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    except OSError as exc:
        raise InputDomainError(f"cannot read batch file: {exc}")
    except ValueError as exc:
        raise ParseError(f"batch file is not valid JSON: {exc}")
    if not isinstance(entries, list):
        raise ParseError("batch file must contain a JSON array")

    total = gw.GWElement.zero(gw.RATIONALS)
    points, contributions = [], []
    for idx, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise ParseError("entry must be a JSON object")
            if "residue_field" in entry:
                g = gw.parse_poly_in_x(_entry_field(entry, "residue_field", "a string"))
                ectx = gw.FieldCtx.extension(g)
                raw = entry["milnor_form"]
                if isinstance(raw, list):
                    raw = " + ".join(str(part) for part in raw)
                mu = gw.parse_gw(raw, ectx)
                degree = _entry_field(entry, "degree", "an integer")
                dimension = _entry_field(entry, "dimension", "an integer")
                contribution = cond.transfer_conductor_point(g, mu, degree, dimension)
                points.append({
                    "kind": "transfer-point",
                    "residue_field": entry["residue_field"],
                    "degree": degree,
                    "dimension": dimension,
                    "contribution": gw.to_json_dict(contribution),
                })
            else:
                s = ekl.singularity(
                    _entry_field(entry, "poly", "a string"),
                    _entry_field(entry, "vars", "a list of strings"),
                    _entry_field(entry, "weights", "a list of integers", required=False),
                    _entry_field(entry, "degree", "an integer", required=False),
                )
                report = cond.verify(s)
                contribution = report.rhs
                points.append({
                    "kind": "rational-point",
                    "report": report.to_json_dict(),
                    "contribution": gw.to_json_dict(contribution),
                })
            contributions.append(contribution)
            total = total + contribution
        except (QuadsingError, KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, QuadsingError):
                exc.args = (f"batch entry {idx}: {exc}",)
                raise
            raise ParseError(f"batch entry {idx}: malformed ({exc})")

    if args.json:
        _print_json(out, {"points": points, "total": gw.to_json_dict(total)})
        return 0
    for idx, (point, contrib) in enumerate(zip(points, contributions)):
        out.write(f"point {idx} ({point['kind']}): {display_form(contrib)}\n")
    out.write(f"sum = {display_form(total)}\n")
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsing",
        description="Quadratic invariants of isolated hypersurface singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gw = sub.add_parser("gw", help="Grothendieck-Witt ring arithmetic")
    p_gw.add_argument(
        "action",
        choices=list(_GW_ARITY),
    )
    p_gw.add_argument("args", nargs="+", help="form expressions (or a JSON matrix)")
    p_gw.add_argument("--field", default="Q", help="Q (default), Fp:<p>, or Qt")
    p_gw.add_argument("--min-poly", default=None, help="monic irreducible g(x) for transfer")
    p_gw.add_argument("--json", action="store_true")

    p_m = sub.add_parser("milnor", help="quadratic Milnor number")
    p_m.add_argument("--vars", required=True, help="comma-separated variable names")
    p_m.add_argument("poly", help="polynomial expression")
    p_m.add_argument("--weights", default=None, help="comma-separated positive integers")
    p_m.add_argument("--degree", type=int, default=None)
    p_m.add_argument("--json", action="store_true")

    p_c = sub.add_parser("conductor", help="conductor formula verification")
    p_c.add_argument("--vars", required=True)
    p_c.add_argument("poly")
    p_c.add_argument("--weights", default=None)
    p_c.add_argument("--degree", type=int, default=None)
    p_c.add_argument("--json", action="store_true")

    p_e = sub.add_parser("euler", help="hypersurface Euler characteristics")
    group = p_e.add_mutually_exclusive_group(required=True)
    group.add_argument("--quadric", type=int, default=None, metavar="N",
                       help="chi^c of the split quadric of dimension N")
    group.add_argument("--degree", type=int, default=None)
    p_e.add_argument("--ambient", type=int, default=None, help="projective dimension N")
    p_e.add_argument("--json", action="store_true")

    p_t = sub.add_parser("monodromy", help="Tate variation and Kummer monodromy")
    group = p_t.add_mutually_exclusive_group(required=True)
    group.add_argument("--quadratic", action="store_true")
    group.add_argument("--abstract", type=int, default=None, metavar="R")
    group.add_argument("--kummer", action="store_true")
    p_t.add_argument("--dimension", type=int, default=None)
    p_t.add_argument("--json", action="store_true")

    p_b = sub.add_parser("batch", help="aggregate conductor contributions from a file")
    p_b.add_argument("file")
    p_b.add_argument("--json", action="store_true")

    return parser


_DISPATCH = {
    "gw": _cmd_gw,
    "milnor": _cmd_milnor,
    "conductor": _cmd_conductor,
    "euler": _cmd_euler,
    "monodromy": _cmd_monodromy,
    "batch": _cmd_batch,
}


def run(argv, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    json_mode = getattr(args, "json", False)
    try:
        return _DISPATCH[args.command](args, out)
    except ParseError as exc:
        _emit_error(out, exc, json_mode)
        return 2
    except QuadsingError as exc:
        _emit_error(out, exc, json_mode)
        return 1


def _emit_error(out, exc: QuadsingError, json_mode: bool) -> None:
    if json_mode:
        _print_json(out, {"error": {"code": exc.code, "message": str(exc)}})
    else:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
