"""Code size of the splitauth package: code lines and tokens per module.

A code line is a source line that holds a token other than a comment,
a docstring or line structure (blank lines, indentation, line ends).
A docstring is the string literal that opens a module, class or
function body.  Tokens are counted the same way: every token of the
tokenizer except comments, docstrings, NEWLINE, NL, INDENT, DEDENT and
ENDMARKER.  Reformatting code changes its line count but not its token
count, so tokens are the measure to compare changes by.

Run from the repository root:

    python3 tools/code_size.py [package directory, default src/splitauth]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NEWLINE,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each docstring literal starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def measure(source: str) -> tuple[int, int]:
    """(code lines, tokens) of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    tokens = 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT or (
            token.type == tokenize.STRING and token.start in docstrings
        ):
            continue
        tokens += 1
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines), tokens


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/splitauth")
    rows = [(path.name, *measure(path.read_text())) for path in sorted(package.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'tokens':>6}")
    for name, lines, tokens in rows:
        print(f"{name:<{width}}  {lines:>6}  {tokens:>6}")
    total_lines = sum(lines for _, lines, _ in rows)
    total_tokens = sum(tokens for _, _, tokens in rows)
    print(f"{'total':<{width}}  {total_lines:>6}  {total_tokens:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
