"""Size of the package, module by module: code lines, settable values, public names.

    python3 tools/code_size.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/artifact`` next to this folder.  For each
module, and for the package in total, it prints:

* code lines: lines that hold a token other than a comment, a docstring or
  layout (newlines, indentation), read with ``tokenize``, so a line of a
  string or a bracket that continues over several lines counts once per line;
* settable values: parameters with a default, of every function, method and
  lambda, counted with ``ast``;
* public names: top-level functions and classes whose name has no leading
  underscore (constants and imports are not counted).

Only the standard library is used, so the counts can be taken on any
checkout without installing the package.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, classes and functions."""
    lines: set[int] = set()
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
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str, tree: ast.Module) -> int:
    docstrings = _docstring_lines(tree)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT:
            continue
        spanned = range(tok.start[0], tok.end[0] + 1)
        lines.update(line for line in spanned if line not in docstrings)
    return len(lines)


def settable_values(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults)
            count += sum(default is not None for default in args.kw_defaults)
    return count


def public_names(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def main(argv: list[str]) -> None:
    default = Path(__file__).resolve().parents[1] / "src" / "artifact"
    package = Path(argv[1]) if len(argv) > 1 else default
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        rows.append((
            path.stem,
            code_lines(source, tree),
            settable_values(tree),
            len(public_names(tree)),
            len(source.splitlines()),
        ))
    header = ("module", "code lines", "settable", "public", "file lines")
    print(f"{header[0]:<12}" + "".join(f"{h:>12}" for h in header[1:]))
    for name, *counts in rows:
        print(f"{name:<12}" + "".join(f"{c:>12,}" for c in counts))
    totals = [sum(row[i] for row in rows) for i in range(1, 5)]
    print(f"{'total':<12}" + "".join(f"{c:>12,}" for c in totals))


if __name__ == "__main__":
    main(sys.argv)
