"""Print each module's total lines and code lines under src/.

Code lines leave out blank lines, comment lines and docstrings (the string
that opens a module, class or function body). pytest does not collect this
module. Run from the repo root:

    python tests/src_lines.py [src]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def main(root: str = "src") -> None:
    totals = [0, 0]
    for path in sorted(Path(root).rglob("*.py")):
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{lines:6d} {code:6d}  {path}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total")


if __name__ == "__main__":
    main(*sys.argv[1:])
