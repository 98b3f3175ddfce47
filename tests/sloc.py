"""Count the code, docstring, comment and blank lines of ``src/gcestream``.

    python3 tests/sloc.py [DIRECTORY]

Prints one row per ``.py`` file of DIRECTORY (default: the package) and a
total. Each line counts once, in the first class that holds it:

* docstring: a line of a module, class or function docstring, found with ``ast``;
* code: a line that any token other than a comment or a line break touches,
  found with ``tokenize`` (so a line of a multi-line string is code);
* comment: a line with a comment and no code;
* blank: any other line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The lines of ``source`` by kind."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number in range(1, len(source.splitlines()) + 1):
        if number in docs:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "gcestream"
    rows = [(path.name, count(path.read_text(encoding="utf-8")))
            for path in sorted(root.glob("*.py"))]
    rows.append(("total", {kind: sum(c[kind] for _, c in rows) for kind in KINDS}))
    print(f"{'file':<16}" + "".join(f"{kind:>10}" for kind in (*KINDS, "lines")))
    for name, counts in rows:
        values = [counts[kind] for kind in KINDS]
        print(f"{name:<16}" + "".join(f"{v:>10}" for v in (*values, sum(values))))


if __name__ == "__main__":
    main(sys.argv[1:])
