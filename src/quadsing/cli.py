"""Command-line front end.

Subcommands: gw (ring arithmetic and invariants), milnor (the quadratic
Milnor number), conductor (verification reports), euler (hypersurface
Euler data), monodromy (Tate variation and Kummer matrix), batch
(multi-point conductor aggregation with transfers).

Exit codes: 0 success, 1 mathematical failure, 2 usage or input-syntax
error, all set in ``run``, which alone writes: a subcommand handler returns
its output, the JSON payload under --json and otherwise a list of text
lines, and raises on failure.  JSON output is deterministic (sorted keys, fixed indentation);
text output honors QUADSING_ASCII=1 by writing <a> instead of the angle
brackets.

Each handler imports the modules it runs inside its body, so a call loads
only those and their imports: ``monodromy`` loads ``tate`` alone; ``gw``
loads ``gw`` and ``poly``; ``milnor`` adds ``ekl``; ``euler
--degree`` loads ``euler`` alone, and ``euler --quadric`` adds ``gw`` and
``tate``; and only ``conductor`` and ``batch`` load ``conductor``.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from collections import Counter

from .errors import InputDomainError, ParseError, QuadsingError, json_rational


def _unicode_ok() -> bool:
    return os.environ.get("QUADSING_ASCII", "") != "1"


def _display_entries(ctx, entries) -> list:
    """Rewrite pairs {a, -a} as {1, -1} (a hyperbolic-plane identity); display
    only.  A pair is taken where the class of -a sorts strictly below a, so
    over F_p, where -a is in the class of a when -1 is a square, none is."""
    minus_one = ctx.normalize(-1)
    c = Counter(entries)
    hyper = 0
    for a in sorted(c):
        b = ctx.mul_reps(a, minus_one)
        if b < a and c.get(b, 0):
            k = min(c[a], c[b])
            c[a] -= k
            c[b] -= k
            hyper += k
    out = [a for a, k in c.items() for _ in range(k)]
    out.extend([ctx.one_rep()] * hyper + [minus_one] * hyper)
    return out


def display_form(e) -> str:
    """Human-readable form of a GWElement, with hyperbolic pairs normalized
    to <1> + <-1>; the constructor then cancels a class left on both sides."""
    from . import gw

    pos, neg = _display_entries(e.ctx, e.pos), _display_entries(e.ctx, e.neg)
    e = gw.GWElement(e.ctx, pos, neg, _raw=True)
    return gw.format_terms(e, unicode_brackets=_unicode_ok())


def _print_json(out, payload) -> None:
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# shared input parsing
# ---------------------------------------------------------------------------


def _field_ctx(label: str):
    from . import gw

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


def _singularity_from_args(args):
    from . import ekl

    # an empty item stays, for check_names to report it
    var_names = [v.strip() for v in args.vars.split(",")]
    if not any(var_names):
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


def _invariants(e):
    from . import gw

    inv = e.invariants()
    lines = [f"element: {display_form(e)}", f"rank: {inv.rank}"]
    if inv.signature is not None:
        lines.append(f"signature: {inv.signature}")
    lines.append(f"discriminant: {inv.discriminant}")
    if inv.hasse:
        lines.append("hasse: " + " ".join(f"{p}:{v:+d}" for p, v in sorted(inv.hasse.items())))
    return {
        "element": gw.to_json_dict(e),
        "rank": inv.rank,
        "signature": inv.signature,
        "discriminant": str(inv.discriminant),
        "hasse": {str(p): v for p, v in inv.hasse.items()},
    }, lines


def _equal(a, b):
    from . import gw

    verdict = gw.is_equal(a, b)
    return {"equal": verdict}, [f"equal: {'true' if verdict else 'false'}"]


def _matrix_entry(v, i: int, j: int):
    """A JSON integer, or a string in the expression grammar with no variables."""
    from . import poly as P

    where = f"matrix entry at row {i}, column {j}"
    if type(v) is int:
        return v
    if type(v) is not str:
        raise ParseError(f"{where} must be an integer or a string, not {json.dumps(v)}")
    try:
        return P.parse(v, ()).constant_term()
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _read_matrix(text: str, ctx):
    """The form of a symmetric matrix given as a JSON array of rows."""
    from . import gw

    try:
        rows = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"matrix must be a JSON array of rows: {exc}")
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ParseError(f"matrix must be a JSON array of rows, not {text}")
    matrix = [[_matrix_entry(v, i, j) for j, v in enumerate(row)] for i, row in enumerate(rows)]
    try:
        return gw.diagonalize(matrix, ctx)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _specialize(e):
    from . import gw

    return gw.specialize(e)


def _transfer(e):
    from . import gw

    return gw.transfer(e)


#: each gw action: its number of arguments, the field they are read over, and
#: the operation on them, which returns an element or a (JSON, text lines) pair;
#: diagonalize reads its matrix as the form it defines
_GW_ACTIONS = {
    "invariants": (1, "--field", _invariants),
    "equal": (2, "--field", _equal),
    "add": (2, "--field", operator.add),
    "mul": (2, "--field", operator.mul),
    "specialize": (1, "Q(t)", _specialize),
    "transfer": (1, "--min-poly", _transfer),
    "diagonalize": (1, "--field", lambda e: e),
}


def _cmd_gw(args):
    from . import gw

    arity, reads, op = _GW_ACTIONS[args.action]
    if len(args.args) != arity:
        raise ParseError(
            f"gw {args.action} takes {arity} argument{'s' * (arity > 1)}, got {len(args.args)}"
        )
    for flag, value in (("--field", args.field), ("--min-poly", args.min_poly)):
        if value is not None and flag != reads:
            raise ParseError(f"gw {args.action} reads {reads}, not {flag}")
    if reads == "--field":
        ctx = _field_ctx(args.field or "Q")
    elif reads == "Q(t)":
        ctx = gw.RATIONAL_FUNCTIONS
    elif not args.min_poly:
        raise ParseError("transfer needs --min-poly")
    else:
        ctx = gw.FieldCtx.extension(gw.parse_poly_in_x(args.min_poly))
    read = _read_matrix if args.action == "diagonalize" else gw.parse_gw
    result = op(*(read(text, ctx) for text in args.args))
    if isinstance(result, gw.GWElement):
        return gw.to_json_dict(result) if args.json else [display_form(result)]
    payload, lines = result
    return payload if args.json else lines


def _cmd_milnor(args):
    from . import ekl, gw
    from . import poly as P

    s = _singularity_from_args(args)
    form = ekl.ss_form(s)
    mu = form.gw
    if args.json:
        return {
            "input": s.to_json_dict(),
            "dimension": form.dimension,
            "basis": [list(e) for e in form.basis],
            "gram": [[json_rational(v) for v in row] for row in form.gram],
            "form": gw.to_json_dict(mu),
        }
    lines = [f"f = {P.format_poly(s.f, s.var_names)}", f"variables: {', '.join(s.var_names)}"]
    if s.weights is not None:
        lines.append(f"weights: {', '.join(str(w) for w in s.weights)} (degree {s.degree})")
    return lines + [
        f"Jacobian ring dimension: {form.dimension}",
        f"diagonal form: {gw.format_terms(mu, unicode_brackets=_unicode_ok())}",
        f"mu^q = {display_form(mu)}",
    ]


def _cmd_conductor(args):
    from . import conductor as cond
    from . import poly as P

    s = _singularity_from_args(args)
    report = cond.verify(s)
    if args.json:
        return report.to_json_dict()
    lines = [f"f = {P.format_poly(s.f, s.var_names)}"]
    if s.weights is not None:
        lines.append(f"weights: {', '.join(str(w) for w in s.weights)} (degree {s.degree})")
    elif s.degree is not None:
        lines.append(f"degree: {s.degree}")
    lines.append(f"rhs = {display_form(report.rhs)}  (rank {report.rhs.rank})")
    if report.lhs_full is not None:
        lines.append(f"lhs = {display_form(report.lhs_full)}")
    if report.lhs_rank is not None:
        lines.append(f"lhs rank = {report.lhs_rank}")
    verdict_text = " ".join(
        f"{k}={v if isinstance(v, str) else ('true' if v else 'false')}"
        for k, v in sorted(report.verdicts.items())
    )
    return lines + [f"verdicts: {verdict_text}", "notes:"] + [f"  - {note}" for note in report.notes]


def _cmd_euler(args):
    from . import euler

    if args.quadric is not None:
        if args.ambient is not None:
            raise ParseError("euler --quadric takes no --ambient")
        from . import gw

        e = euler.chi_split_quadric(args.quadric)
        if args.json:
            return {
                "quadric_dimension": args.quadric,
                "chi_compact": gw.to_json_dict(e),
                "rank": e.rank,
            }
        return [f"chi^c(split quadric, dim {args.quadric}) = {display_form(e)}", f"rank: {e.rank}"]
    if args.ambient is None:
        raise ParseError("euler needs --ambient together with --degree")
    d, N = args.degree, args.ambient
    primitive = euler.primitive_hodge(d, N)
    chi = euler.euler_rank(d, N)
    if args.json:
        return {
            "degree": d,
            "ambient": N,
            "dimension": N - 1,
            "primitive_hodge": list(primitive),
            "euler_characteristic": chi,
        }
    return [
        f"smooth hypersurface of degree {d} in P^{N} (dimension {N - 1})",
        "primitive hodge numbers: " + ", ".join(str(h) for h in primitive),
        f"euler characteristic: {chi}",
    ]


def _cmd_monodromy(args):
    from . import tate

    if args.kummer:
        if args.dimension is not None:
            raise ParseError("monodromy --kummer takes no --dimension")
        N = tate.kummer_monodromy()
        NN = tate.compose(N.twist(-1), N)
        if args.json:
            return {
                "kind": "kummer",
                "map": N.to_json(),
                "nilpotent_order": 2,
                "square_is_zero": NN.is_zero(),
            }
        return [
            "Kummer monodromy on 1 + 1(-1):",
            *("  [" + ", ".join(str(v) for v in row) + "]" for row in N.entries),
            f"N(-1) o N = 0: {'true' if NN.is_zero() else 'false'}",
        ]

    if args.abstract is not None:
        if args.dimension is None:
            raise ParseError("--abstract needs --dimension")
        report = tate.abstract_variation_report(args.abstract, args.dimension)
        if args.json:
            return report
        lines = [
            f"abstract Picard-Lefschetz, degree {args.abstract}, dimension {args.dimension}",
            f"identity: {report['identity']}",
            f"scalar: {report['factorization']['scalar']}",
        ]
        if "quadric_case" in report:
            qc = report["quadric_case"]
            if qc["kind"] == "zero":
                lines.append("quadric case: variation: zero map")
            else:
                lines.append(f"quadric case: variation factored with scalar {qc['scalar']}")
        return lines

    if args.dimension is None:
        raise ParseError("--quadratic needs --dimension")
    v = tate.variation_quadric(args.dimension)
    if args.json:
        return v.to_json()
    lines = [f"quadratic singularity, fiber dimension {args.dimension}"]
    if v.kind == "zero":
        return lines + ["variation: zero map", "vanishing hom slots:"] + [
            f"  1({s[0]})[{s[1]}] -> 1({t[0]})[{t[1]}]: Hom = 0" for s, t in v.certificate
        ]
    return lines + [f"variation: factored through 1({v.m1.target.summands[0][0]})[{v.m1.target.summands[0][1]}] with scalar {v.scalar}"]


_JSON_KINDS = {
    "a string": lambda v: type(v) is str,
    "an integer": lambda v: type(v) is int,
    "a list of strings": lambda v: type(v) is list and all(type(x) is str for x in v),
    "a string or a list of strings": (
        lambda v: type(v) is str or _JSON_KINDS["a list of strings"](v)
    ),
    "a list of integers": lambda v: type(v) is list and all(type(x) is int for x in v),
}


def _entry_field(entry: dict, key: str, kind: str, required: bool = True):
    """entry[key], checked to be the JSON value that kind names; an optional
    key may be absent or null, and a missing required key is a ParseError."""
    if not required and entry.get(key) is None:
        return None
    if key not in entry:
        raise ParseError(f'"{key}" is required')
    value = entry[key]
    if not _JSON_KINDS[kind](value):
        raise ParseError(f'"{key}" must be {kind}, not {json.dumps(value)}')
    return value


def _cmd_batch(args):
    from . import conductor as cond
    from . import ekl, gw

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
                raw = _entry_field(entry, "milnor_form", "a string or a list of strings")
                if type(raw) is list:
                    raw = " + ".join(raw)
                mu = gw.parse_gw(raw, ectx)
                degree = _entry_field(entry, "degree", "an integer")
                dimension = _entry_field(entry, "dimension", "an integer")
                contribution = cond.transfer_conductor_point(mu, degree, dimension)
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
        except QuadsingError as exc:
            exc.args = (f"batch entry {idx}: {exc}",)
            raise

    if args.json:
        return {"points": points, "total": gw.to_json_dict(total)}
    return [
        f"point {idx} ({point['kind']}): {display_form(contrib)}"
        for idx, (point, contrib) in enumerate(zip(points, contributions))
    ] + [f"sum = {display_form(total)}"]


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    """A usage error argparse found, raised in place of its exit."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def _json_option() -> argparse.ArgumentParser:
    """The parent parser of the --json option that every subcommand takes."""
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true")
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadsing",
        description="Quadratic invariants of isolated hypersurface singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _json_option()
    singular = argparse.ArgumentParser(add_help=False, parents=[common])
    singular.add_argument("--vars", required=True, help="comma-separated variable names")
    singular.add_argument("poly", help="polynomial expression")
    singular.add_argument("--weights", default=None, help="comma-separated positive integers")
    singular.add_argument("--degree", type=int, default=None)

    def command(name, handler, summary, parent=common):
        p = sub.add_parser(name, parents=[parent], help=summary)
        p.set_defaults(handler=handler)
        return p

    p_gw = command("gw", _cmd_gw, "Grothendieck-Witt ring arithmetic")
    p_gw.add_argument("action", choices=list(_GW_ACTIONS))
    p_gw.add_argument("args", nargs="*", help="form expressions (or a JSON matrix)")
    p_gw.add_argument("--field", default=None, help="Q (default), Fp:<p>, or Qt")
    p_gw.add_argument("--min-poly", default=None, help="monic irreducible g(x) for transfer")

    command("milnor", _cmd_milnor, "quadratic Milnor number", singular)
    command("conductor", _cmd_conductor, "conductor formula verification", singular)

    p_e = command("euler", _cmd_euler, "hypersurface Euler characteristics")
    group = p_e.add_mutually_exclusive_group(required=True)
    group.add_argument("--quadric", type=int, default=None, metavar="N",
                       help="chi^c of the split quadric of dimension N")
    group.add_argument("--degree", type=int, default=None)
    p_e.add_argument("--ambient", type=int, default=None, help="projective dimension N")

    p_t = command("monodromy", _cmd_monodromy, "Tate variation and Kummer monodromy")
    group = p_t.add_mutually_exclusive_group(required=True)
    group.add_argument("--quadratic", action="store_true")
    group.add_argument("--abstract", type=int, default=None, metavar="R")
    group.add_argument("--kummer", action="store_true")
    p_t.add_argument("--dimension", type=int, default=None)

    p_b = command("batch", _cmd_batch, "aggregate conductor contributions from a file")
    p_b.add_argument("file")
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """parse_args, except that every word after the gw action that is not an
    option is one of its arguments: argparse gives an nargs="*" positional
    only the words before the first option that interrupts it."""
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    if args.command == "gw":
        args.args += [w for w in extras if not _is_option(w)]
        extras = [w for w in extras if _is_option(w)]
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _is_option(word: str) -> bool:
    """How argparse reads a word that matches none of its options: as an
    option when it starts with '-', unless it is '-' or holds a space (as
    the form '-<1> + <2>' does)."""
    return word.startswith("-") and len(word) > 1 and " " not in word


def run(argv, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    try:
        args = _parse_args(argv)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2
    except _UsageError as exc:
        if _json_requested(argv):
            _emit_error(out, ParseError(str(exc)), True)
        else:
            exc.parser.print_usage(sys.stderr)
            print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    try:
        result = args.handler(args)
    except QuadsingError as exc:
        _emit_error(out, exc, args.json)
        return 2 if isinstance(exc, ParseError) else 1
    if args.json:
        _print_json(out, result)
    else:
        out.writelines(line + "\n" for line in result)
    return 0


def _json_requested(argv) -> bool:
    """Whether argv asks for --json, read by the option alone, so that a
    usage error elsewhere in argv still gets its JSON envelope."""
    try:
        return _json_option().parse_known_args(argv)[0].json
    except _UsageError:
        return False


def _emit_error(out, exc: QuadsingError, json_mode: bool) -> None:
    if json_mode:
        _print_json(out, {"error": {"code": exc.code, "message": str(exc)}})
    else:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
