"""Counts that describe the code itself, shared by the tests and CI.

``code_lines`` is ROADMAP's measure of size: the lines of a module that
hold a token other than a comment, a docstring or blank.  Run as a
script from the repository's root, ``python tests/_ledger.py lines``
prints each module of ``src/saltpepper`` with its code lines, and then
their total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_BLANK = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> list[int]:
    """The numbers of the lines of Python source ``text`` that count as code.

    A line counts when a token other than a comment, a line break, an
    indent or a docstring touches it, so every line of a multi-line
    statement or string counts, and no line of a docstring does.
    """
    docs = {  # the first line of each docstring
        node.body[0].lineno
        for node in ast.walk(ast.parse(text))
        if isinstance(node, _SCOPES) and ast.get_docstring(node) is not None
    }
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _BLANK and not (tok.type == tokenize.STRING and tok.start[0] in docs):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return sorted(lines)


def print_lines() -> None:
    """Each module of ``src/saltpepper`` with its code lines, then their total."""
    total = 0
    for path in sorted((ROOT / "src" / "saltpepper").glob("*.py")):
        count = len(code_lines(path.read_text()))
        print(f"{path.relative_to(ROOT)}: {count}")
        total += count
    print(f"src/saltpepper: {total} code lines")


if __name__ == "__main__":
    {"lines": print_lines}[sys.argv[1]]()
