"""Command-line interface.

Subcommands compose into pipelines over three JSON artifact kinds:

  base-block family  {"v", "u", "c", "base_blocks"}
  design             {"v", "t", "blocks"} (+ "orbit_lengths" provenance)
  code               {"u", "v", "rules", "key_dist", "source_dist"
                      [, "split_dist"]}, rationals as "p/q" strings

Exit codes: 0 = all checks pass, 1 = a verification or security claim
fails, 2 = malformed input.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .construct import (
    BaseBlockFamily,
    SplittingDesign,
    develop_cyclic,
    family_u2,
)

# Commands import what they use, so each process pays only for its own.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    from .acode import SplittingACode
    from .security import SecurityReport


class _InputError(Exception):
    """Malformed input: unreadable file, bad JSON, schema violation."""


class _ClaimError(Exception):
    """A verification or security claim failed; carries report lines."""

    def __init__(self, lines: list[str]):
        super().__init__("\n".join(lines))
        self.lines = lines


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as file:
                text = file.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    # The decoder raises RecursionError on arrays or objects nested past
    # the interpreter's recursion limit.
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:  # int() refuses literals past its digit limit
        raise _InputError(
            f"{path}: an integer literal has more than "
            f"{sys.get_int_max_str_digits():,} digits"
        ) from exc


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as file:
                file.write(text)
        except OSError as exc:
            raise _InputError(f"cannot write {out}: {exc}") from exc


def _require_int(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _InputError(f"{where}: field {key!r} must be an integer")
    return value


def _parse_blocks(raw, where: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    if not isinstance(raw, list):
        raise _InputError(f"{where}: must be a list of blocks")
    blocks = []
    for block in raw:
        if not isinstance(block, list):
            raise _InputError(f"{where}: block {block!r} must be a list of parts")
        parts = []
        for part in block:
            if not isinstance(part, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in part
            ):
                raise _InputError(f"{where}: part {part!r} must be a list of integers")
            parts.append(tuple(part))
        blocks.append(tuple(parts))
    return tuple(blocks)


def _parse_rational(value, where: str, parsed: dict) -> Fraction:
    """One rational from JSON: an integer, or a "p/q" or decimal string
    without exponent (Fraction("1e10000000") would build 10**10**7).
    ``parsed`` holds every value already parsed: a code repeats the same
    few strings once per rule."""
    if isinstance(value, bool):
        raise _InputError(f"{where}: {value!r} is not a rational")
    if not isinstance(value, (int, str)):
        raise _InputError(
            f"{where}: {value!r} is not exact; use \"p/q\" strings, not floats"
        )
    if value not in parsed:
        from fractions import Fraction
        try:
            if isinstance(value, str) and not re.fullmatch(r"[+-]?\d+(/\d+|\.\d+)?", value):
                raise ValueError(value)
            parsed[value] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise _InputError(f"{where}: {value!r} is not a rational") from exc
    return parsed[value]


def _parse_dist(raw, where: str, parsed: dict) -> tuple[Fraction, ...]:
    if not isinstance(raw, list):
        raise _InputError(f"{where}: must be a list of rationals")
    return tuple(_parse_rational(x, where, parsed) for x in raw)


def _load_family(obj, where: str) -> BaseBlockFamily:
    if not isinstance(obj, dict):
        raise _InputError(f"{where}: expected a JSON object")
    v = _require_int(obj, "v", where)
    u = _require_int(obj, "u", where)
    c = _require_int(obj, "c", where)
    base_blocks = _parse_blocks(obj.get("base_blocks"), f"{where}: base_blocks")
    try:
        return BaseBlockFamily(v=v, u=u, c=c, base_blocks=base_blocks)
    except ValueError as exc:
        raise _InputError(f"{where}: {exc}") from exc


def _load_design(obj, where: str) -> SplittingDesign:
    if not isinstance(obj, dict):
        raise _InputError(f"{where}: expected a JSON object")
    if "base_blocks" in obj:
        return develop_cyclic(_load_family(obj, where))
    v = _require_int(obj, "v", where)
    t = _require_int(obj, "t", where) if "t" in obj else 2
    blocks = _parse_blocks(obj.get("blocks"), f"{where}: blocks")
    raw = obj.get("orbit_lengths", [])
    if not isinstance(raw, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in raw
    ):
        raise _InputError(f"{where}: orbit_lengths must be a list of integers")
    try:
        return SplittingDesign(v=v, blocks=blocks, t=t, orbit_lengths=tuple(raw))
    except ValueError as exc:
        raise _InputError(f"{where}: {exc}") from exc


def _load_code(obj, where: str) -> SplittingACode:
    """Build a code from JSON.

    Schema and distribution problems and u or v below 1 are input
    errors (exit 2); rule sets violating the code invariants are failed
    claims (exit 1) so that analyzing a damaged code names the broken
    property.
    """
    from .acode import SplittingACode, rule_defects
    if not isinstance(obj, dict):
        raise _InputError(f"{where}: expected a JSON object")
    u = _require_int(obj, "u", where)
    v = _require_int(obj, "v", where)
    if u < 1 or v < 1:
        raise _InputError(f"{where}: u and v must be positive")
    rules = _parse_blocks(obj.get("rules"), f"{where}: rules")
    parsed: dict[int | str, Fraction] = {}
    key_dist, source_dist = (
        _parse_dist(obj[key], f"{where}: {key}", parsed) if key in obj else ()
        for key in ("key_dist", "source_dist")
    )
    split_dist = None
    if "split_dist" in obj:
        raw = obj["split_dist"]
        if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
            raise _InputError(f"{where}: split_dist must be a list of lists")
        split_dist = tuple(
            tuple(_parse_dist(cell, f"{where}: split_dist", parsed) for cell in rule)
            for rule in raw
        )
    defects = rule_defects(rules, v, u)
    if defects:
        raise _ClaimError([f"structure: FAIL ({d})" for d in defects])
    try:
        return SplittingACode._on_checked_rules(
            u, v, rules, key_dist, source_dist, split_dist
        )
    except ValueError as exc:
        raise _InputError(f"{where}: {exc}") from exc


def _dump_json(obj) -> str:
    # One line: indent= would switch json to its pure-Python encoder.
    return json.dumps(obj, ensure_ascii=False) + "\n"


def _family_json(family: BaseBlockFamily) -> str:
    return _dump_json(
        {
            "v": family.v,
            "u": family.u,
            "c": family.c,
            "base_blocks": [
                [list(part) for part in block] for block in family.base_blocks
            ],
        }
    )


def _design_json(design: SplittingDesign) -> str:
    obj = {
        "v": design.v,
        "t": design.t,
        "blocks": [[list(part) for part in block] for block in design.blocks],
    }
    if design.orbit_lengths:
        obj["orbit_lengths"] = list(design.orbit_lengths)
    return _dump_json(obj)


def _code_json(code: SplittingACode) -> str:
    obj = {
        "u": code.u,
        "v": code.v,
        "rules": [[list(cell) for cell in rule] for rule in code.rules],
        "key_dist": [str(p) for p in code.key_dist],
        "source_dist": [str(p) for p in code.source_dist],
    }
    if code.split_dist is not None:
        obj["split_dist"] = [
            [[str(p) for p in weights] for weights in rule]
            for rule in code.split_dist
        ]
    return _dump_json(obj)


_FOLD_NAMES = ("zero", "one", "two", "three", "four", "five", "six", "seven")


def _fold_name(i: int) -> str:
    return _FOLD_NAMES[i] if 0 <= i < len(_FOLD_NAMES) else str(i)


def _secrecy_failure(report: SecurityReport) -> str:
    from .acode import subscript
    table = report.posteriors
    if table.unreachable:
        shown = ", ".join(str(m) for m in table.unreachable[:5])
        return f"messages {{{shown}}} can never be sent"
    for (s, m), post in sorted(table.entries.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        if post != table.priors[s]:
            return (
                f"p(s{subscript(s)} | m={m}) = {post} differs from the "
                f"prior {table.priors[s]}"
            )
    return "no failure"


def _report(code: SplittingACode, i_max: int) -> tuple[str, bool]:
    """Claim-by-claim report on orders 0..i_max, ending in PASS or FAIL,
    and the overall verdict.  The code's rules must already be free of
    structural defects."""
    from .security import analyze, rule_count_floor
    from .verify import _coverage, _verify_shaped
    # The rules' shape is checked already, so the design verdict needs
    # only the count of the covered (i_max+1)-subsets.
    counts = _coverage(code.rules, i_max + 1)
    design = SplittingDesign(v=code.v, blocks=code.rules, t=i_max + 1)
    design_result = _verify_shaped(design, i_max + 1, code.c, code.u, counts)
    try:
        report = analyze(code, i_max)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    lines: list[str] = []
    ok = True
    if design_result.ok and design_result.params is not None:
        params = design_result.params
        lines.append(f"rules form a splitting design: {params}, λ={params.lam}")
        if params.lam != 1:
            lines.append(f"λ-uniformity: FAIL (index λ={params.lam}, need 1)")
            ok = False
    else:
        lines.append("λ-uniformity: FAIL (" + design_result.defects[0] + ")")
        ok = False
    for i in range(i_max + 1):
        pd, bound = report.deception[i], report.bounds[i]
        if pd == bound:
            lines.append(f"P_d{i} = {pd} (floor {bound}, met exactly)")
        else:
            lines.append(f"P_d{i} = {pd} (floor {bound}, exceeded)")
            ok = False
    if report.level >= i_max:
        lines.append(f"{_fold_name(report.level)}-fold secure against spoofing")
    else:
        lines.append(
            f"security level: {report.level}, short of {_fold_name(i_max)}-fold"
        )
        ok = False
    floor = rule_count_floor(code, i_max + 1)
    if report.optimal is True:
        lines.append(
            f"encoding rules: {code.num_rules}, minimum possible: {floor}, optimal"
        )
    elif report.optimal is False:
        lines.append(
            f"encoding rules: {code.num_rules}, minimum possible: {floor}, "
            "NOT optimal"
        )
        ok = False
    else:
        lines.append(
            "optimality: not applicable (the rule-count floor requires "
            f"{_fold_name(i_max)}-fold security)"
        )
        ok = False
    if report.secrecy_ok:
        lines.append("perfect secrecy")
    else:
        lines.append("perfect secrecy: FAIL (" + _secrecy_failure(report) + ")")
        ok = False
    lines.append("PASS" if ok else "FAIL")
    return "\n".join(lines) + "\n", ok


def cmd_gen_family(args: argparse.Namespace) -> int:
    try:
        family = family_u2(args.c, args.n)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    _emit(_family_json(family), args.out)
    return 0


def cmd_develop(args: argparse.Namespace) -> int:
    obj = _read_json(args.input)
    family = _load_family(obj, args.input)
    design = develop_cyclic(family)
    for index, length in enumerate(design.orbit_lengths, start=1):
        note = "full" if length == design.v else "short"
        print(
            f"orbit of base block {index}: length {length} ({note})",
            file=sys.stderr,
        )
    _emit(_design_json(design), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_design
    obj = _read_json(args.input)
    design = _load_design(obj, args.input)
    t = args.strength if args.strength is not None else design.t
    try:
        result = verify_design(design, t)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if result.ok and result.params is not None:
        _emit(f"{result.params}, λ={result.params.lam}\n", args.out)
        return 0
    raise _ClaimError([f"defect: {d}" for d in result.defects])


def cmd_to_code(args: argparse.Namespace) -> int:
    from .acode import code_from_design
    obj = _read_json(args.input)
    design = _load_design(obj, args.input)
    try:
        code = code_from_design(design)
    except ValueError as exc:
        raise _ClaimError([str(exc)]) from exc
    _emit(_code_json(code), args.out)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    obj = _read_json(args.input)
    code = _load_code(obj, args.input)
    i_max = args.orders
    if not 0 <= i_max <= code.u - 1:
        raise _InputError(
            f"--orders {i_max} out of range 0..{code.u - 1} for u={code.u} sources"
        )
    # _load_code has checked the rules' structure already.
    text, ok = _report(code, i_max)
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_export(args: argparse.Namespace) -> int:
    from .acode import render_matrix
    obj = _read_json(args.input)
    code = _load_code(obj, args.input)
    matrix = render_matrix(code)
    if args.format == "json":
        _emit(_code_json(code), args.out)
        return 0
    if args.format == "markdown":
        header = "| rule | " + " | ".join(matrix.source_labels) + " |"
        ruler = "| --- |" + " --- |" * code.u
        rows = [
            "| " + label + " | " + " | ".join(cells) + " |"
            for label, cells in zip(matrix.rule_labels, matrix.cells)
        ]
        _emit("\n".join([header, ruler, *rows]) + "\n", args.out)
        return 0
    import csv
    import io
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["rule"] + [f"s{j}" for j in range(1, code.u + 1)])
    for i, cells in enumerate(matrix.cells, start=1):
        writer.writerow([f"e{i}", *cells])
    _emit(buffer.getvalue(), args.out)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from .acode import SplittingACode, render_matrix
    n = {"table1": 1, "table2": 2}[args.which]
    design = develop_cyclic(family_u2(2, n))
    # The report checks λ=1, so the rules need only the constructor's
    # shape check.
    code = SplittingACode(u=2, v=design.v, rules=design.blocks)
    matrix = render_matrix(code, group_sizes=design.orbit_lengths)
    text, ok = _report(code, 1)
    sys.stdout.write(matrix.render() + "\n\n" + text)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitauth",
        description=(
            "Construct splitting designs, convert them to splitting "
            "authentication codes, and verify security claims exactly."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "gen-family",
        help="generate the two-source base-block family for part size c, n blocks",
    )
    p.add_argument("c", type=int, help="part size (splitting number)")
    p.add_argument("n", type=int, help="number of base blocks")
    p.add_argument("-o", "--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen_family)

    p = sub.add_parser(
        "develop", help="develop a base-block family cyclically into a design"
    )
    p.add_argument("input", help="family JSON path, or - for stdin")
    p.add_argument("-o", "--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_develop)

    p = sub.add_parser(
        "verify", help="verify a design exactly (or a family, developed first)"
    )
    p.add_argument("input", help="design or family JSON path, or - for stdin")
    p.add_argument(
        "-t",
        "--strength",
        type=int,
        help="strength to verify at (default: the design's declared t, or 2)",
    )
    p.add_argument("-o", "--out", help="report path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "to-code",
        help="turn a verified index-1 design into a uniform authentication code",
    )
    p.add_argument("input", help="design or family JSON path, or - for stdin")
    p.add_argument("-o", "--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_to_code)

    p = sub.add_parser(
        "analyze", help="exact security report for a code; exit 1 on any failed claim"
    )
    p.add_argument("input", help="code JSON path, or - for stdin")
    p.add_argument(
        "--orders",
        type=int,
        default=1,
        help="largest spoofing order to check (default 1)",
    )
    p.add_argument("-o", "--out", help="report path (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export", help="export a code's encoding matrix")
    p.add_argument("input", help="code JSON path, or - for stdin")
    p.add_argument(
        "-f",
        "--format",
        choices=("csv", "markdown", "json"),
        default="csv",
        help="output format (default csv)",
    )
    p.add_argument("-o", "--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "demo",
        help="rebuild a reference code, print its matrix and full security report",
    )
    p.add_argument("which", choices=("table1", "table2"))
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ClaimError as exc:
        print("\n".join(exc.lines + ["FAIL"]))
        return 1
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
