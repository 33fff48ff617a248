"""Command-line interface.

Subcommands compose into pipelines over three JSON artifact kinds:

  base-block family  {"v", "u", "c", "base_blocks"}
  design             {"v", "t", "blocks"} (+ "orbit_lengths" provenance)
  code               {"u", "v", "rules", "key_dist", "source_dist"
                      [, "split_dist"]}, rationals as "p/q" strings

Each input command reads its artifact through ``_load``, which hands the
file's JSON object to one loader per kind (``_load_family``,
``_load_design``, ``_load_code``).  A file that cannot be read, is not
JSON, is not an object, breaks the schema or fails a constructor's check
is malformed input.  ``_dump_json`` writes each artifact as one line,
leaving out ``orbit_lengths`` and ``split_dist`` when empty.

Every verdict is a claim, a (holds, line) pair.  ``_verdict`` is the one
writer of claims: it writes their lines, then PASS when all of them hold
or FAIL, and returns the exit code.  A report command (``verify``,
``analyze``) writes its report where ``-o`` points, FAIL or not; the
others write FAIL lines on stdout and no artifact.

Exit codes: 0 = all claims hold, 1 = a verification or security claim
fails, 2 = malformed input or running out of memory, with one
``error:`` line on stderr.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import islice

from .construct import BaseBlockFamily, SplittingDesign, develop_cyclic, family_u2

# Commands import what they use, so each process pays only for its own.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    from .acode import SplittingACode
    from .security import SecurityReport


class _InputError(Exception):
    """Malformed input: unreadable file, bad JSON, schema violation."""


class _ClaimError(Exception):
    """A verification claim failed; its args are the failed claims' lines."""


def _load(path: str, build):
    """The artifact ``build(obj, path)`` makes from the JSON object in
    the file at ``path`` (- for stdin).  Every problem reading, parsing
    or building it is malformed input."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as file:
                text = file.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    # The decoder raises RecursionError on arrays or objects nested past
    # the interpreter's recursion limit.
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:  # int() refuses literals past its digit limit
        raise _InputError(
            f"{path}: an integer literal has more than "
            f"{sys.get_int_max_str_digits():,} digits"
        ) from exc
    if not isinstance(obj, dict):
        raise _InputError(f"{path}: expected a JSON object")
    try:
        return build(obj, path)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as file:
                file.write(text)
        except OSError as exc:
            raise _InputError(f"cannot write {out}: {exc}") from exc


def _is_int(value) -> bool:
    # JSON gives exact ints; its true and false are bools, not integers.
    return type(value) is int


def _ints(obj: dict, where: str, *keys: str) -> list[int]:
    for key in keys:
        if not _is_int(obj.get(key)):
            raise _InputError(f"{where}: field {key!r} must be an integer")
    return [obj[key] for key in keys]


def _parse_blocks(raw, where: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    if not isinstance(raw, list):
        raise _InputError(f"{where}: must be a list of blocks")
    for block in raw:
        if not isinstance(block, list):
            raise _InputError(f"{where}: block {block!r} must be a list of parts")
        for part in block:
            if not isinstance(part, list) or not all(map(_is_int, part)):
                raise _InputError(f"{where}: part {part!r} must be a list of integers")
    return tuple(tuple(map(tuple, block)) for block in raw)


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


def _load_family(obj: dict, where: str) -> BaseBlockFamily:
    v, u, c = _ints(obj, where, "v", "u", "c")
    base_blocks = _parse_blocks(obj.get("base_blocks"), f"{where}: base_blocks")
    return BaseBlockFamily(v=v, u=u, c=c, base_blocks=base_blocks)


def _load_design(obj: dict, where: str) -> SplittingDesign:
    if "base_blocks" in obj:
        return develop_cyclic(_load_family(obj, where))
    v, t = _ints({"t": 2, **obj}, where, "v", "t")
    blocks = _parse_blocks(obj.get("blocks"), f"{where}: blocks")
    raw = obj.get("orbit_lengths", [])
    if not isinstance(raw, list) or not all(map(_is_int, raw)):
        raise _InputError(f"{where}: orbit_lengths must be a list of integers")
    return SplittingDesign(v=v, blocks=blocks, t=t, orbit_lengths=tuple(raw))


def _load_code(obj: dict, where: str) -> SplittingACode:
    """Build a code from JSON.

    Schema and distribution problems and u or v below 1 are input
    errors (exit 2); rule sets violating the code invariants are failed
    claims (exit 1) so that analyzing a damaged code names the broken
    property.
    """
    from .acode import SplittingACode, rule_defects
    u, v = _ints(obj, where, "u", "v")
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
        raise _ClaimError(*(f"structure: FAIL ({d})" for d in defects))
    return SplittingACode._on_checked_rules(
        u, v, rules, key_dist, source_dist, split_dist
    )


def _dump_json(record, *fields: str) -> str:
    """The named fields of ``record`` as one line of JSON, leaving out
    the optional ones when empty: ``orbit_lengths`` and ``split_dist``."""
    obj = {key: getattr(record, key) for key in fields}
    for key in ("orbit_lengths", "split_dist"):
        if key in obj and not obj[key]:
            del obj[key]
    # One line: indent= would switch json to its pure-Python encoder;
    # default= keeps the C one and writes each Fraction as "p/q".
    return json.dumps(obj, ensure_ascii=False, default=str) + "\n"


_CODE_FIELDS = ("u", "v", "rules", "key_dist", "source_dist", "split_dist")


_FOLD_NAMES = ("zero", "one", "two", "three", "four", "five", "six", "seven")


def _fold_name(i: int) -> str:
    return _FOLD_NAMES[i] if 0 <= i < len(_FOLD_NAMES) else str(i)


_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def _matrix_rows(code: SplittingACode) -> list[tuple[str, list[str]]]:
    """Each rule's label (e₁, e₂, …) and its cells as {m,…}, in the
    order the rule stores them (a developed rule keeps its translated
    order, e.g. {9,1})."""
    return [
        (
            f"e{i}".translate(_SUBSCRIPTS),
            ["{" + ",".join(map(str, cell)) + "}" for cell in rule],
        )
        for i, rule in enumerate(code.rules, start=1)
    ]


def _secrecy_failure(report: SecurityReport) -> str:
    table = report.posteriors
    if table.unreachable:
        shown = ", ".join(str(m) for m in table.unreachable[:5])
        return f"messages {{{shown}}} can never be sent"
    # The first differing posterior in (message, source) order.
    m, s = min((m, s) for (s, m), post in table.entries.items() if post != table.priors[s])
    source = f"s{s}".translate(_SUBSCRIPTS)
    return (
        f"p({source} | m={m}) = {table.entries[s, m]} differs from the "
        f"prior {table.priors[s]}"
    )


def _verdict(claims: list[tuple[bool, str]], out: str | None = None) -> int:
    """Write each claim's line, then PASS if every claim holds or FAIL,
    and return the exit code: 0 or 1."""
    ok = all(holds for holds, _ in claims)
    lines = [line for _, line in claims] + ["PASS" if ok else "FAIL"]
    _emit("\n".join(lines) + "\n", out)
    return 0 if ok else 1


def _report(code: SplittingACode, i_max: int) -> list[tuple[bool, str]]:
    """The claims on orders 0..i_max, one (holds, line) pair per report
    line; a line that claims nothing holds.  The code's rules must
    already be free of structural defects."""
    from .security import analyze, rule_count_floor
    from .verify import verify_design
    # The code's design keeps each verdict, which security reads too.
    design_result = verify_design(code.design, i_max + 1)
    try:
        report = analyze(code, i_max)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    claims: list[tuple[bool, str]] = []
    params = design_result.params
    if design_result.ok:
        claims.append((True, f"rules form a splitting design: {params}, λ={params.lam}"))
        if params.lam != 1:
            claims.append((False, f"λ-uniformity: FAIL (index λ={params.lam}, need 1)"))
    else:
        claims.append((False, f"λ-uniformity: FAIL ({design_result.defects[0]})"))
    for i in range(i_max + 1):
        pd, bound = report.deception[i], report.bounds[i]
        verdict = "met exactly" if pd == bound else "exceeded"
        claims.append((pd == bound, f"P_d{i} = {pd} (floor {bound}, {verdict})"))
    level, fold = report.level, _fold_name(i_max)
    if level >= i_max:
        claims.append((True, f"{_fold_name(level)}-fold secure against spoofing"))
    else:
        claims.append((False, f"security level: {level}, short of {fold}-fold"))
    floor = rule_count_floor(code, i_max + 1)
    if report.optimal is None:
        needs = f"the rule-count floor requires {fold}-fold security"
        claims.append((False, f"optimality: not applicable ({needs})"))
    else:
        verdict = "optimal" if report.optimal else "NOT optimal"
        rules = f"encoding rules: {code.num_rules}, minimum possible: {floor}, {verdict}"
        claims.append((report.optimal, rules))
    if report.secrecy_ok:
        claims.append((True, "perfect secrecy"))
    else:
        claims.append((False, f"perfect secrecy: FAIL ({_secrecy_failure(report)})"))
    return claims


def cmd_gen_family(args: argparse.Namespace) -> int:
    try:
        family = family_u2(args.c, args.n)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    _emit(_dump_json(family, "v", "u", "c", "base_blocks"), args.out)
    return 0


def cmd_develop(args: argparse.Namespace) -> int:
    design = develop_cyclic(_load(args.input, _load_family))
    for index, length in enumerate(design.orbit_lengths, start=1):
        note = "full" if length == design.v else "short"
        print(
            f"orbit of base block {index}: length {length} ({note})",
            file=sys.stderr,
        )
    _emit(_dump_json(design, "v", "t", "blocks", "orbit_lengths"), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_design
    design = _load(args.input, _load_design)
    t = args.strength if args.strength is not None else design.t
    try:
        result = verify_design(design, t)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if result.ok:
        _emit(f"{result.params}, λ={result.params.lam}\n", args.out)
        return 0
    raise _ClaimError(*(f"defect: {d}" for d in result.defects))


def cmd_to_code(args: argparse.Namespace) -> int:
    from .acode import code_from_design
    design = _load(args.input, _load_design)
    try:
        code = code_from_design(design)
    except ValueError as exc:
        raise _ClaimError(str(exc)) from exc
    _emit(_dump_json(code, *_CODE_FIELDS), args.out)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    code = _load(args.input, _load_code)
    i_max = args.orders
    if not 0 <= i_max <= code.u - 1:
        raise _InputError(
            f"--orders {i_max} out of range 0..{code.u - 1} for u={code.u} sources"
        )
    # _load_code has checked the rules' structure already.
    return _verdict(_report(code, i_max), args.out)


def cmd_export(args: argparse.Namespace) -> int:
    code = _load(args.input, _load_code)
    if args.format == "json":
        _emit(_dump_json(code, *_CODE_FIELDS), args.out)
        return 0
    sources = [f"s{j}" for j in range(1, code.u + 1)]
    if args.format == "markdown":
        header = ("| rule | " + " | ".join(sources) + " |").translate(_SUBSCRIPTS)
        ruler = "| --- |" + " --- |" * code.u
        rows = [
            "| " + " | ".join([label, *cells]) + " |" for label, cells in _matrix_rows(code)
        ]
        _emit("\n".join([header, ruler, *rows]) + "\n", args.out)
        return 0
    import csv
    import io
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["rule", *sources])
    for i, (_, cells) in enumerate(_matrix_rows(code), start=1):
        writer.writerow([f"e{i}", *cells])
    _emit(buffer.getvalue(), args.out)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from .acode import code_from_design
    n = {"table1": 1, "table2": 2}[args.which]
    design = develop_cyclic(family_u2(2, n))
    # The verified design becomes the code's design, verdict and all.
    code = code_from_design(design)
    # One group of rows per orbit, a dashed line between groups.
    rows = iter(" ".join([label, *cells]) for label, cells in _matrix_rows(code))
    matrix = "\n---\n".join(
        "\n".join(islice(rows, length)) for length in design.orbit_lengths
    )
    sys.stdout.write(matrix + "\n\n")
    return _verdict(_report(code, 1))


# The subcommands: name, help, handler, the kind of JSON its input
# argument reads and the noun of its -o path (None: it has no such argument).
_COMMANDS = (
    ("gen-family", "generate the two-source base-block family for part size c, n blocks",
     cmd_gen_family, None, "output"),
    ("develop", "develop a base-block family cyclically into a design",
     cmd_develop, "family", "output"),
    ("verify", "verify a design exactly (or a family, developed first)",
     cmd_verify, "design or family", "report"),
    ("to-code", "turn a verified index-1 design into a uniform authentication code",
     cmd_to_code, "design or family", "output"),
    ("analyze", "exact security report for a code; exit 1 on any failed claim",
     cmd_analyze, "code", "report"),
    ("export", "export a code's encoding matrix",
     cmd_export, "code", "output"),
    ("demo", "rebuild a reference code, print its matrix and full security report",
     cmd_demo, None, None),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitauth",
        description=(
            "Construct splitting designs, convert them to splitting "
            "authentication codes, and verify security claims exactly."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parsers = {}
    for name, summary, func, kind, noun in _COMMANDS:
        parsers[name] = sub.add_parser(name, help=summary)
        parsers[name].set_defaults(func=func, report=noun == "report")
        if kind is not None:
            parsers[name].add_argument("input", help=f"{kind} JSON path, or - for stdin")
    # Each command's own arguments come before -o, as in its usage line.
    parsers["gen-family"].add_argument("c", type=int, help="part size (splitting number)")
    parsers["gen-family"].add_argument("n", type=int, help="number of base blocks")
    parsers["verify"].add_argument(
        "-t",
        "--strength",
        type=int,
        help="strength to verify at (default: the design's declared t, or 2)",
    )
    parsers["analyze"].add_argument(
        "--orders",
        type=int,
        default=1,
        help="largest spoofing order to check (default 1)",
    )
    parsers["export"].add_argument(
        "-f",
        "--format",
        choices=("csv", "markdown", "json"),
        default="csv",
        help="output format (default csv)",
    )
    parsers["demo"].add_argument("which", choices=("table1", "table2"))
    for name, _, _, _, noun in _COMMANDS:
        if noun is not None:
            parsers[name].add_argument("-o", "--out", help=f"{noun} path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except _ClaimError as exc:
            # A report command writes its FAIL report where -o points.
            out = args.out if args.report else None
            return _verdict([(False, line) for line in exc.args], out)
    except _InputError as exc:
        message = str(exc)
    # A size past the address space raises OverflowError, not MemoryError.
    except (MemoryError, OverflowError):
        message = "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
